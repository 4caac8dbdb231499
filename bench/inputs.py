"""Seeded input generator for the benchmark workloads.

Inputs are grown from the golden fixtures in tests/fixtures and the
packaged suffix table, so every word the program sees is one its rules
were written for. The same (workload, seed) always yields the same
bytes; `Plan.digest` is a SHA-256 over every generated file.

Each generator also writes down what a correct program must produce
(`Plan.expect`), from its own knowledge of how the inputs were built,
so the benchmark can check outputs without trusting the program.
"""

from __future__ import annotations

import hashlib
import random
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path

# Sizes are counts, and sentence lengths are drawn from fixed ranges, so
# every seed asks for about the same amount of work.
PIPELINE_SENTENCES = 2_500
PIPELINE_LEXICON = 900            # nouns in the dictionary (4 entries each)
PIPELINE_OUTSIDE = 400            # nouns used in text but absent from the lexicon
PIPELINE_PLANTED = 4 * PIPELINE_LEXICON // 10  # one-token lines: 10% of the entries
PIPELINE_PROBE_LINES = 800
LONG_SENTENCES = 120              # lengths spread evenly over 200..800
LEXICON_NOUNS = 8_000
LEXICON_MALFORMED_EVERY = 100     # about 1% of noun rows fail per row
LEXICON_VERBS = 400

PREFIXES = (
    "सु", "महा", "नव", "उप", "प्र", "अति", "अनु", "परि", "सह", "वि",
    "दु", "अधि", "निर", "सम", "पुन", "बहु", "लघु", "मध्य", "राज", "जल",
    "वन", "गृह", "देव", "नील", "श्वेत", "पुर", "ग्राम", "धर्म", "कर्म", "ज्ञान",
)

_NUKTA_PAIRS = {
    "".join(chr(int(h, 16)) for h in unicodedata.decomposition(chr(cp)).split()): chr(cp)
    for cp in (0x0929, 0x0931, 0x0934, *range(0x0958, 0x0960))
}


def canon(text: str) -> str:
    """The program's documented canonical form: NFC, nukta letters
    precomposed, zero-width (non-)joiners dropped."""
    text = unicodedata.normalize("NFC", text).replace("\u200c", "").replace("\u200d", "")
    for pair, letter in _NUKTA_PAIRS.items():
        text = text.replace(pair, letter)
    return text


@dataclass(frozen=True)
class Noun:
    english: str
    root: str
    gender: str
    countable: str
    cls: str
    surfaces: tuple[str, str, str, str]  # sg-dir, sg-obl, pl-dir, pl-obl


@dataclass(frozen=True)
class Verb:
    english: str
    stem: str
    overrides: tuple[str, ...]


@dataclass
class Plan:
    workload: str
    steps: list[tuple[str, list[str], list[Path]]]  # (label, morphinject argv, outputs)
    items: int
    expect: dict = field(default_factory=dict)
    digest: str = ""


def _rows(path: Path) -> list[list[str]]:
    return [
        ln.split("\t")
        for ln in path.read_text("utf-8").splitlines()
        if ln.strip() and not ln.startswith("#")
    ]


def _code(i: int) -> str:
    """Fixed-width letter code, so code + word never collides."""
    return "".join(chr(97 + (i // 26 ** k) % 26) for k in (2, 1, 0))


def _prefix(i: int) -> str:
    return PREFIXES[i // len(PREFIXES) % len(PREFIXES)] + PREFIXES[i % len(PREFIXES)]


class Sources:
    """Fixture words and the packaged suffix grid of a checkout."""

    def __init__(self, root: Path):
        fixtures = root / "tests" / "fixtures"
        self.nouns = [
            Noun(r[0], canon(r[1]), r[2], r[3], r[4], tuple(canon(s) for s in r[5:9]))
            for r in _rows(fixtures / "noun_paradigms.tsv")
        ]
        self.suffix = {
            (r[0], r[1], r[2]): "null" if r[3] == "-" else canon(r[3])
            for r in _rows(root / "src" / "morphinject" / "data" / "noun_suffixes.tsv")
        }
        self.verbs = [
            Verb(r[0], canon(r[1]), tuple(canon(o) for o in r[2:]))
            for r in _rows(fixtures / "verb_lexicon.tsv")
        ]
        known = {v.stem for v in self.verbs}
        forms = _rows(fixtures / "verb_forms.tsv")
        self.verbs += [
            Verb(f"verb{i}", s, ())
            for i, s in enumerate(sorted({canon(r[0]) for r in forms} - known))
        ]
        self.verb_forms = [(canon(r[5]), canon(r[0])) for r in forms]
        # golden surfaces per (stem, tam, number, person), for the genders listed
        self.verb_golden: dict[tuple, set[str]] = {}
        for stem, tam, _gender, number, person, surface in forms:
            self.verb_golden.setdefault((canon(stem), tam, number, person), set()).add(canon(surface))

    def grown_nouns(self, rng: random.Random, count: int) -> list[Noun]:
        """`count` distinct nouns: a fixture noun behind a two-part prefix.
        Inflection only touches the ending, so the fixture's surfaces
        stay correct behind the prefix."""
        space = len(PREFIXES) ** 2 * len(self.nouns)
        out = []
        for k in rng.sample(range(space), count):
            p, base = divmod(k, len(self.nouns))
            n = self.nouns[base]
            pre = _prefix(p)
            out.append(Noun(_code(p) + n.english, pre + n.root, n.gender, n.countable,
                            n.cls, tuple(pre + s for s in n.surfaces)))
        return out

    def grown_verbs(self, rng: random.Random, count: int) -> list[tuple[Verb, str, Verb]]:
        """(grown verb, its prefix, the fixture verb it grew from)."""
        space = len(PREFIXES) ** 2 * len(self.verbs)
        out = []
        for k in rng.sample(range(space), count):
            p, base = divmod(k, len(self.verbs))
            v = self.verbs[base]
            pre = _prefix(p)
            overrides = tuple(
                o.split("=", 1)[0] + "=" + pre + o.split("=", 1)[1] for o in v.overrides
            )
            out.append((Verb(_code(p) + v.english, pre + v.stem, overrides), pre, v))
        return out

    def hindi_noun(self, noun: Noun, number: str, case: str) -> str:
        """The dictionary's target token for this noun form."""
        slot = ("sg", "pl").index(number) * 2 + ("dir", "obl").index(case)
        return f"{noun.surfaces[slot]}|{noun.root}|{self.suffix[(noun.cls, number, case)]}"

    def noun_entries(self, noun: Noun) -> str:
        """The four dictionary lines build-dict writes for this noun."""
        return "".join(
            f"{noun.english}|{number}|{case}\t{self.hindi_noun(noun, number, case)}\n"
            for number in ("sg", "pl") for case in ("dir", "obl"))


# --- CoNLL-U clause templates ---------------------------------------------
#
# A token is (form, lemma, xpos, head, deprel, factors): head is an index
# into the clause, or None for the clause's main verb; factors is what a
# correct annotator yields, (number, case) for a noun, (number, person,
# tam) for a verb, () otherwise.

PRONOUNS = (("I", "1", "sg"), ("we", "1", "pl"), ("you", "2", "sg"), ("he", "3", "sg"),
            ("she", "3", "sg"), ("it", "3", "sg"), ("they", "3", "pl"))
VERBS = ("walk", "run", "see", "eat", "write", "read", "speak", "play", "drink", "call")
MODALS = ("can", "must", "should", "could", "may", "might")
FUNCTION_WORDS = (("ने", "ने"), ("को", "को"), ("है", "हो"), ("में", "में"),
                  ("और", "और"), ("था", "हो"), ("से", "से"), ("का", "का"))


def _noun_tok(noun, number, head, deprel, case):
    form = noun.english + ("s" if number == "pl" else "")
    return (form, noun.english, "NNS" if number == "pl" else "NN", head, deprel,
            (number, case), noun)


def _clause(rng: random.Random, kind: int, pick) -> list[tuple]:
    v = rng.choice(VERBS)
    n1, n2 = pick(), pick()
    num1, num2 = rng.choice(("sg", "pl")), rng.choice(("sg", "pl"))
    pron, person, pnum = rng.choice(PRONOUNS)
    the = ("the", "the", "DT", 1, "det", ())
    if kind == 0:    # The dog runs: subject, present tag
        return [the, _noun_tok(n1, num1, 2, "nsubj", "dir"),
                (v + "s", v, "VBZ" if num1 == "sg" else "VBP", None, "root", (num1, "3", "hab"))]
    if kind == 1:    # The dogs saw: ergative subject, past tag
        return [the, _noun_tok(n1, num1, 2, "nsubj", "obl"),
                (v + "ed", v, "VBD", None, "root", (num1, "3", "perf"))]
    if kind == 2:    # they will run: md_will
        return [(pron, pron.lower(), "PRP", 2, "nsubj", ()),
                ("will", "will", "MD", 2, "aux", ()),
                (v, v, "VB", None, "root", (pnum, person, "fut"))]
    if kind == 3:    # we can run: md_other
        m = rng.choice(MODALS)
        return [(pron, pron.lower(), "PRP", 2, "nsubj", ()),
                (m, m, "MD", 2, "aux", ()),
                (v, v, "VB", None, "root", (pnum, person, "subj"))]
    if kind == 4:    # the dog wants to eat: present tag, then to_infinitive
        w = rng.choice(VERBS)
        return [the, _noun_tok(n1, "sg", 2, "nsubj", "dir"),
                ("wants", "want", "VBZ", None, "root", ("sg", "3", "hab")),
                ("to", "to", "TO", 4, "mark", ()),
                (w, w, "VB", 2, "xcomp", ("sg", "3", "inf"))]
    if kind == 5:    # eat the kitchen dog: bare verb, default case, direct object
        return [(v, v, "VB", None, "root", ("sg", "3", "imp")),
                ("the", "the", "DT", 3, "det", ()),
                _noun_tok(n2, "sg", 3, "compound", "dir"),
                _noun_tok(n1, num1, 0, "dobj", "dir")]
    if kind == 6:    # The dog walked in the house: `case` child
        return [the, _noun_tok(n1, num1, 2, "nsubj", "obl"),
                (v + "ed", v, "VBD", None, "root", (num1, "3", "perf")),
                ("in", "in", "IN", 5, "case", ()),
                ("the", "the", "DT", 5, "det", ()),
                _noun_tok(n2, num2, 2, "nmod", "obl")]
    if kind == 7:    # the dog runs with dogs: Stanford prep/pobj
        return [the, _noun_tok(n1, "sg", 2, "nsubj", "dir"),
                (v + "s", v, "VBZ", None, "root", ("sg", "3", "hab")),
                ("with", "with", "IN", 2, "prep", ()),
                _noun_tok(n2, num2, 3, "pobj", "obl")]
    if kind == 8:    # they run home: obl
        return [(pron, pron.lower(), "PRP", 1, "nsubj", ()),
                (v, v, "VBP", None, "root", (pnum, person, "hab")),
                _noun_tok(n1, num1, 1, "obl", "obl")]
    if kind == 9:    # she is running: aux VBZ, VBG default
        return [(pron, pron.lower(), "PRP", 2, "nsubj", ()),
                ("is", "be", "VBZ", 2, "aux", ("sg", "3", "hab")),
                (v + "ing", v, "VBG", None, "root", (pnum, person, "hab"))]
    # the dog was seen: passive subject of VBN is ergative
    return [the, _noun_tok(n1, num1, 3, "nsubj:pass", "obl"),
            ("was", "be", "VBD", 3, "aux:pass", ("sg", "3", "perf")),
            (v + "en", v, "VBN", None, "root", (num1, "3", "hab"))]


CLAUSE_KINDS = 11


def sentence(rng: random.Random, length: int, pick) -> list[tuple]:
    """Clauses joined by `and` until `length` tokens, then a full stop.
    Returns tokens with absolute 1-based heads."""
    out: list[tuple] = []
    root = 0
    while len(out) < max(length - 1, 1):
        clause = _clause(rng, rng.randrange(CLAUSE_KINDS), pick)
        head_pos = next(i for i, t in enumerate(clause) if t[3] is None)
        if out:
            out.append(("and", "and", "CC", len(out) + head_pos + 2, "cc", ()))
        base = len(out)
        for form, lemma, xpos, head, deprel, factors, *noun in clause:
            if head is not None:
                head = base + head + 1
            elif root:
                head, deprel = root, "conj"
            else:
                root, head = base + head_pos + 1, 0
            out.append((form, lemma, xpos, head, deprel, factors, *noun))
    out.append((".", ".", ".", root, "punct", ()))
    return out


def _conllu(sentences: list[list[tuple]]) -> str:
    parts = []
    for s in sentences:
        for i, (form, lemma, xpos, head, deprel, *_rest) in enumerate(s, 1):
            upos = "NOUN" if xpos.startswith("NN") else "VERB" if xpos.startswith("VB") else "X"
            parts.append(f"{i}\t{form}\t{lemma}\t{upos}\t{xpos}\t_\t{head}\t{deprel}\t_\t_\n")
        parts.append("\n")
    return "".join(parts)


def _annotated(sentence: list[tuple], mode: str) -> str:
    width = 2 if mode == "noun" else 3
    out = []
    for form, lemma, xpos, _head, _deprel, factors, *_noun in sentence:
        if xpos.startswith("NN") or (mode == "both" and xpos.startswith("VB")):
            vals = list(factors)
            token = lemma
        else:
            vals, token = [], form
        out.append("|".join([token] + vals + ["null"] * (width - len(vals))))
    return " ".join(out)


# --- workloads ------------------------------------------------------------

def _pipeline(src: Sources, rng: random.Random, d: Path) -> Plan:
    nouns = src.grown_nouns(rng, PIPELINE_LEXICON + PIPELINE_OUTSIDE)
    lexicon, outside = nouns[:PIPELINE_LEXICON], nouns[PIPELINE_LEXICON:]

    def pick():
        return rng.choice(lexicon) if rng.random() < 0.8 else rng.choice(outside)

    sentences = [sentence(rng, rng.randint(10, 40), pick) for _ in range(PIPELINE_SENTENCES)]
    # one-token lines equal to dictionary entries, so inject's dedupe skips them
    for noun in rng.sample(lexicon, PIPELINE_PLANTED):
        number = rng.choice(("sg", "pl"))
        sentences.insert(rng.randrange(len(sentences) + 1),
                         [_noun_tok(noun, number, 0, "root", "dir")])

    def target(tok) -> str:
        if tok[2].startswith("NN"):
            return src.hindi_noun(tok[6], *tok[5])
        if tok[2].startswith("VB"):
            surface, stem = rng.choice(src.verb_forms)
            return f"{surface}|{stem}|null"
        word, root = rng.choice(FUNCTION_WORDS)
        return f"{word}|{root}|null"

    tgt_lines = [" ".join(target(t) for t in s) for s in sentences]
    (d / "train.conllu").write_text(_conllu(sentences), "utf-8")
    (d / "train.tgt").write_text("".join(ln + "\n" for ln in tgt_lines), "utf-8")
    (d / "nouns.tsv").write_text("".join(
        f"{n.english}\t{n.root}\t{n.gender}\t{n.countable}\n" for n in lexicon), "utf-8")

    probe_src, probe_tgt = [], []
    for _ in range(PIPELINE_PROBE_LINES):
        toks = [(pick(), rng.choice(("sg", "pl")), rng.choice(("dir", "obl"))) for _ in range(5)]
        probe_src.append(" ".join(f"{n.english}|{num}|{case}" for n, num, case in toks))
        probe_tgt.append(" ".join(src.hindi_noun(n, num, case) for n, num, case in toks))
    (d / "probe.src").write_text("".join(ln + "\n" for ln in probe_src), "utf-8")
    (d / "probe.tgt").write_text("".join(ln + "\n" for ln in probe_tgt), "utf-8")

    refs = [" ".join(t.split("|", 1)[0] for t in ln.split(" ")) for ln in tgt_lines]
    words = [w for ln in refs[:200] for w in ln.split(" ")]
    cands = []
    for ln in refs:
        toks = [w if rng.random() > 0.15 else rng.choice(words)
                for w in ln.split(" ") if rng.random() > 0.05]
        cands.append(" ".join(toks or [rng.choice(words)]))
    (d / "bleu.ref").write_text("".join(ln + "\n" for ln in refs), "utf-8")
    (d / "bleu.cand").write_text("".join(ln + "\n" for ln in cands), "utf-8")

    o = d / "out"
    steps = [
        ("annotate", ["annotate", "--mode", "noun", "--conllu", str(d / "train.conllu"),
                      "--out", str(o / "train.src")], [o / "train.src"]),
        ("build-dict", ["build-dict", "--kind", "noun", "--lexicon", str(d / "nouns.tsv"),
                        "--out", str(o / "nouns.dict")], [o / "nouns.dict"]),
        ("inject", ["inject", "--source", str(o / "train.src"), "--target", str(d / "train.tgt"),
                    "--dict", str(o / "nouns.dict"), "--out-source", str(o / "inj.src"),
                    "--out-target", str(o / "inj.tgt"), "--report", str(o / "inject.json"),
                    "--format", "json"], [o / "inj.src", o / "inj.tgt", o / "inject.json"]),
        ("sparsity", ["sparsity", "--scheme", "noun", "--train-source", str(o / "inj.src"),
                      "--train-target", str(o / "inj.tgt"), "--probe-source", str(d / "probe.src"),
                      "--probe-target", str(d / "probe.tgt"), "--format", "json",
                      "--out", str(o / "sparsity.json")], [o / "sparsity.json"]),
        ("oov", ["oov", "--tokens", str(d / "probe.tgt"), "--vocab", str(o / "inj.tgt"),
                 "--format", "json", "--out", str(o / "oov.json")], [o / "oov.json"]),
        ("bleu", ["bleu", "--candidates", str(d / "bleu.cand"), "--references", str(d / "bleu.ref"),
                  "--format", "json", "--out", str(o / "bleu.json")], [o / "bleu.json"]),
    ]
    n_tokens = sum(len(s) for s in sentences)
    return Plan(
        "pipeline", steps,
        items=2 * n_tokens,  # both sides of the corpus given to inject
        expect={
            "annotated": "".join(_annotated(s, "noun") + "\n" for s in sentences),
            "noun_dict": "".join(src.noun_entries(n) for n in lexicon),
            "offered": 4 * PIPELINE_LEXICON,
            "skipped": PIPELINE_PLANTED,
        },
    )


def _annotate_long(src: Sources, rng: random.Random, d: Path) -> Plan:
    nouns = src.grown_nouns(rng, 2_000)
    lengths = [200 + 600 * i // (LONG_SENTENCES - 1) for i in range(LONG_SENTENCES)]
    rng.shuffle(lengths)
    sentences = [sentence(rng, n, lambda: rng.choice(nouns)) for n in lengths]
    (d / "long.conllu").write_text(_conllu(sentences), "utf-8")
    o = d / "out"
    return Plan(
        "annotate-long",
        [("annotate", ["annotate", "--mode", "both", "--conllu", str(d / "long.conllu"),
                       "--out", str(o / "long.src")], [o / "long.src"])],
        items=sum(len(s) for s in sentences),
        expect={"annotated": "".join(_annotated(s, "both") + "\n" for s in sentences)},
    )


def _lexicon(src: Sources, rng: random.Random, d: Path) -> Plan:
    rows, bad = [], []
    nouns = src.grown_nouns(rng, LEXICON_NOUNS)
    for i, n in enumerate(nouns):
        if i % LEXICON_MALFORMED_EVERY == 7 and n.cls != "A":
            bad.append(i)  # a Latin letter in the root fails this row alone
            rows.append(f"{n.english}\t{n.root}x\t{n.gender}\t{n.countable}")
        elif rng.random() < 0.1:
            rows.append(f"{n.english}\t{n.root}\t{n.gender}\t{n.countable}\t{n.cls}")
        else:
            rows.append(f"{n.english}\t{n.root}\t{n.gender}\t{n.countable}")
    grown = src.grown_verbs(rng, LEXICON_VERBS)
    verb_forms = {
        f"{v.english}|{number}|{person}|{tam}": sorted(pre + s for s in surfaces)
        for v, pre, base in grown
        for (stem, tam, number, person), surfaces in src.verb_golden.items() if stem == base.stem
    }
    (d / "nouns.tsv").write_text("".join(r + "\n" for r in rows), "utf-8")
    (d / "verbs.tsv").write_text("".join(
        "\t".join((v.english, v.stem) + v.overrides) + "\n" for v, _, _ in grown), "utf-8")
    o = d / "out"
    steps = []
    for kind, lex in (("noun", "nouns.tsv"), ("verb", "verbs.tsv")):
        steps.append((f"build-dict {kind}", [
            "build-dict", "--kind", kind, "--lexicon", str(d / lex),
            "--out", str(o / f"{kind}.dict"), "--failures", str(o / f"{kind}.failures.json")],
            [o / f"{kind}.dict", o / f"{kind}.failures.json"]))
        steps.append((f"build-dict {kind} --surface", [
            "build-dict", "--kind", kind, "--lexicon", str(d / lex), "--surface",
            "--out", str(o / f"{kind}.surface")], [o / f"{kind}.surface"]))
    return Plan(
        "lexicon", steps,
        items=0,  # dictionary entries written; counted from the outputs
        expect={"noun_failures": bad,
                "noun_dict": "".join(src.noun_entries(n) for i, n in enumerate(nouns) if i not in bad),
                "verbs": [v.english for v, _, _ in grown], "verb_forms": verb_forms},
    )


GENERATORS = {"pipeline": _pipeline, "annotate-long": _annotate_long, "lexicon": _lexicon}


def generate(workload: str, seed: int, root: Path, workdir: Path) -> Plan:
    """Write the inputs of `workload` under `workdir` and return its plan."""
    (workdir / "out").mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}/{seed}")
    plan = GENERATORS[workload](Sources(root), rng, workdir)
    h = hashlib.sha256()
    for p in sorted(workdir.iterdir()):
        if p.is_file():
            h.update(p.name.encode() + b"\0" + p.read_bytes() + b"\0")
    plan.digest = h.hexdigest()
    return plan
