"""Output checks for the benchmark workloads.

Every check recomputes the expected result on its own, from the
generator's plan or from the files with independent code, rather than
trusting the program. Checks are per step, so a bad or missing output
counts against the CLI call that should have written it.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter, defaultdict
from pathlib import Path

from inputs import Plan


def _read(path: Path) -> str:
    return path.read_text("utf-8")


def _lines(path: Path) -> list[str]:
    return _read(path).split("\n")[:-1]


def _bleu(cands: list[list[str]], refs: list[list[str]]) -> tuple[float, list[float], float]:
    matches, totals = [0] * 4, [0] * 4
    c_len = sum(map(len, cands))
    r_len = sum(map(len, refs))
    for cand, ref in zip(cands, refs):
        for n in range(1, 5):
            cc = Counter(zip(*(cand[i:] for i in range(n))))
            rc = Counter(zip(*(ref[i:] for i in range(n))))
            matches[n - 1] += sum((cc & rc).values())
            totals[n - 1] += max(len(cand) - n + 1, 0)
    prec = [m / t if t else 0.0 for m, t in zip(matches, totals)]
    bp = math.exp(1 - r_len / c_len) if c_len < r_len else 1.0
    score = bp * math.exp(sum(map(math.log, prec)) / 4) if all(prec) else 0.0
    return score, prec, bp


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9


# --- pipeline ---------------------------------------------------------------

def _annotated(plan: Plan, d: Path, name: str) -> list[str]:
    if _read(d / "out" / name) != plan.expect["annotated"]:
        return ["annotated corpus differs from the expected factors"]
    return []


def _noun_dict(plan: Plan, path: Path) -> list[str]:
    if _read(path) != plan.expect["noun_dict"]:
        return [f"{path.name} differs from the fixture paradigms"]
    return []


def _inject(plan: Plan, d: Path) -> list[str]:
    o, p = d / "out", []
    for inp, out in ((o / "train.src", o / "inj.src"), (d / "train.tgt", o / "inj.tgt")):
        if not out.read_bytes().startswith(inp.read_bytes()):
            p.append(f"{out.name} does not start with the bytes of {inp.name}")
    rep = json.loads(_read(o / "inject.json"))
    if rep["entries_offered"] != rep["entries_added"] + rep["duplicates_skipped"]:
        p.append("entries_offered != entries_added + duplicates_skipped")
    if (rep["entries_offered"], rep["duplicates_skipped"]) != (plan.expect["offered"], plan.expect["skipped"]):
        p.append(f"offered/skipped {rep['entries_offered']}/{rep['duplicates_skipped']}, "
                 f"expected {plan.expect['offered']}/{plan.expect['skipped']}")
    appended = len(_lines(o / "inj.src")) - len(_lines(o / "train.src"))
    if appended != rep["entries_added"]:
        p.append(f"{appended} lines appended, report says {rep['entries_added']}")
    return p


def _sparsity(plan: Plan, d: Path) -> list[str]:
    """Noun scheme: (root, number, case) on the source, (root, suffix) on
    the target. seen + unseen must be the distinct probe projections."""
    def toks(path):
        return [t.split("|") for ln in _lines(path) for t in ln.split(" ") if t]

    o = d / "out"
    pairs = [
        (s.split("|"), t.split("|"))
        for ls, lt in zip(_lines(d / "probe.src"), _lines(d / "probe.tgt"))
        for s, t in zip(ls.split(" "), lt.split(" "))
    ]
    steps = {
        "translation_steps": ({tuple(s[:3]) for s, _ in pairs},
                              {tuple(t[:3]) for t in toks(o / "inj.src") if len(t) >= 3}),
        "generation_steps": ({tuple(t[1:3]) for _, t in pairs},
                             {tuple(t[1:3]) for t in toks(o / "inj.tgt") if len(t) >= 3}),
    }
    report = json.loads(_read(o / "sparsity.json"))
    p = []
    for key, (distinct, known) in steps.items():
        (step,) = report[key]
        unseen = sorted("|".join(t) for t in distinct if t not in known)
        if step["seen"] + step["unseen"] != len(distinct):
            p.append(f"{key}: seen + unseen != {len(distinct)} distinct projections")
        if step["unseen_tuples"] != unseen:
            p.append(f"{key}: unseen tuples differ from an independent count")
    return p


def _oov(plan: Plan, d: Path) -> list[str]:
    tokens = _read(d / "probe.tgt").split()
    vocab = set(_read(d / "out" / "inj.tgt").split())
    oov = [t for t in tokens if t not in vocab]
    got = json.loads(_read(d / "out" / "oov.json"))
    if (got["total_tokens"], got["oov_tokens"], got["oov_types"]) != (len(tokens), len(oov), sorted(set(oov))):
        return ["oov counts differ from an independent count"]
    return []


def _bleu_step(plan: Plan, d: Path) -> list[str]:
    got = json.loads(_read(d / "out" / "bleu.json"))
    score, prec, bp = _bleu([ln.split() for ln in _lines(d / "bleu.cand")],
                            [ln.split() for ln in _lines(d / "bleu.ref")])
    if not (_close(got["score"], score) and _close(got["brevity_penalty"], bp)
            and all(map(_close, got["precisions"], prec))):
        return [f"bleu {got['score']!r} differs from an independent {score!r}"]
    return []


# --- lexicon ------------------------------------------------------------------

def _dict_shape(path: Path, widths: tuple[int, int]) -> list[str]:
    lines = _lines(path)
    if len(set(lines)) != len(lines):
        return [f"{path.name}: duplicate entries"]
    for ln in lines:
        cols = ln.split("\t")
        if len(cols) != 2 or tuple(c.count("|") for c in cols) != widths:
            return [f"{path.name}: malformed entry {ln!r}"]
    return []


def _lexicon_nouns(plan: Plan, d: Path) -> list[str]:
    o = d / "out"
    p = _noun_dict(plan, o / "noun.dict")
    rows = [f["row"] for f in json.loads(_read(o / "noun.failures.json"))["failures"]]
    if rows != plan.expect["noun_failures"]:
        p.append(f"{len(rows)} failed rows, expected {len(plan.expect['noun_failures'])}")
    return p


def _lexicon_verbs(plan: Plan, d: Path) -> list[str]:
    o = d / "out"
    p = _dict_shape(o / "verb.dict", (3, 2))
    if json.loads(_read(o / "verb.failures.json"))["failures"]:
        p.append("verb rows failed")
    entries = [ln.split("\t") for ln in _lines(o / "verb.dict")]
    if {src.split("|", 1)[0] for src, _ in entries} != set(plan.expect["verbs"]):
        p.append("verb dictionary does not cover exactly the lexicon's verbs")
    found = defaultdict(set)
    for src, tgt in entries:
        found[src].add(tgt.split("|", 1)[0])
    missing = [k for k, forms in plan.expect["verb_forms"].items() if not set(forms) <= found[k]]
    if missing:
        p.append(f"{len(missing)} fixture conjugations missing, e.g. {missing[0]}")
    return p


def _surface(kind: str):
    def check(plan: Plan, d: Path) -> list[str]:
        o = d / "out"
        p = _dict_shape(o / f"{kind}.surface", (0, 0))
        factored = {ln.split("\t")[1].split("|", 1)[0] for ln in _lines(o / f"{kind}.dict")}
        if {ln.split("\t")[1] for ln in _lines(o / f"{kind}.surface")} != factored:
            p.append("surface targets differ from the factored dictionary's surfaces")
        return p
    return check


STEP_CHECKS = {
    "pipeline": {
        "annotate": lambda plan, d: _annotated(plan, d, "train.src"),
        "build-dict": lambda plan, d: _noun_dict(plan, d / "out" / "nouns.dict"),
        "inject": _inject,
        "sparsity": _sparsity,
        "oov": _oov,
        "bleu": _bleu_step,
    },
    "annotate-long": {"annotate": lambda plan, d: _annotated(plan, d, "long.src")},
    "lexicon": {
        "build-dict noun": _lexicon_nouns,
        "build-dict noun --surface": _surface("noun"),
        "build-dict verb": _lexicon_verbs,
        "build-dict verb --surface": _surface("verb"),
    },
}


def check(plan: Plan, workdir: Path) -> dict[str, list[str]]:
    """Problems per step label."""
    out = {}
    for label, fn in STEP_CHECKS[plan.workload].items():
        try:
            out[label] = fn(plan, workdir)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            out[label] = [f"output unreadable: {type(exc).__name__}: {exc}"]
    return out


def digests(plan: Plan) -> dict[str, str]:
    """SHA-256 of each step's outputs."""
    out = {}
    for label, _, outputs in plan.steps:
        h = hashlib.sha256()
        for path in outputs:
            h.update(path.read_bytes() if path.exists() else b"<missing>")
        out[label] = h.hexdigest()
    return out


def items_done(plan: Plan) -> int:
    if plan.workload != "lexicon":
        return plan.items
    return sum(len(_lines(p)) for _, _, outs in plan.steps for p in outs if p.suffix != ".json" and p.exists())
