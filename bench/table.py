"""Re-measure the ROADMAP's baseline stage table through the library API.

    python3 bench/table.py [--out FILE]

Stages: corpus parse at about 100k tokens per side, inject, render (the
lines `cmd_inject` writes), build_noun_dict on 5k nouns, annotate at
sentence lengths 50/200/800, and BLEU on 20k sentences. Inputs
come from the benchmark's seeded generator. Each stage reports the
median and minimum of REPEATS timings with its work size; the inputs
are those of seed SEED. Run from the root of a source checkout.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import shutil
import statistics
import sys
import time
from pathlib import Path

import inputs

SEED = 1
REPEATS = 5


def _timed(fn) -> tuple[dict, object]:
    times, result = [], None
    for _ in range(REPEATS):
        t = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t)
    return {"median_s": statistics.median(times), "min_s": min(times), "repeats": REPEATS}, result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out")
    args = ap.parse_args()
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    from morphinject import bleu, build_noun_dict, inject, parse_factored_corpus
    from morphinject.noun_morph import parse_noun_lexicon
    from morphinject.source_factors import ConlluToken, annotate_sentence

    work = root / ".bench_work" / f"table-{SEED}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        pipe = inputs.generate("pipeline", SEED, root, work / "pipeline")
        lex = inputs.generate("lexicon", SEED, root, work / "lexicon")
        pairs = zip(pipe.expect["annotated"].splitlines(keepends=True),
                    (work / "pipeline" / "train.tgt").read_text("utf-8").splitlines(keepends=True))
        src_lines, tgt_lines, n = [], [], 0
        for s, t in itertools.cycle(list(pairs)):  # corpus lines, repeated to 100k tokens a side
            src_lines.append(s)
            tgt_lines.append(t)
            n += s.count(" ") + 1
            if n >= 100_000:
                break
        nouns = (work / "pipeline" / "nouns.tsv").read_text("utf-8").splitlines()
        big = (work / "lexicon" / "nouns.tsv").read_text("utf-8").splitlines()
        cands = (work / "pipeline" / "bleu.cand").read_text("utf-8").splitlines()
        refs = (work / "pipeline" / "bleu.ref").read_text("utf-8").splitlines()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / ".bench_work").rmdir()
        except OSError:
            pass

    rows = {}
    rows["parse_factored_corpus"], corpus = _timed(lambda: parse_factored_corpus(src_lines, tgt_lines))
    rows["parse_factored_corpus"]["tokens_per_side"] = sum(len(s) for s, _ in corpus.pairs)
    dictionary = build_noun_dict(parse_noun_lexicon(nouns))
    rows["inject"], (out, _) = _timed(lambda: inject(corpus, dictionary))
    rows["inject"]["entries"] = len(dictionary.entries)
    rows["render"], _ = _timed(lambda: (out.source_lines(), out.target_lines()))
    rows["render"]["lines"] = 2 * len(out.pairs)
    bad = set(lex.expect["noun_failures"])
    five_k = [ln for i, ln in enumerate(big) if i not in bad][:5000]
    rows["build_noun_dict"], _ = _timed(lambda: build_noun_dict(parse_noun_lexicon(five_k)))
    rows["build_noun_dict"]["nouns"] = len(five_k)

    rng = random.Random(SEED)
    pool = inputs.Sources(root).grown_nouns(rng, 200)
    for length in (50, 200, 800):
        toks = inputs.sentence(rng, length, lambda: rng.choice(pool))
        sent = [ConlluToken(i, t[0], t[1], t[2], t[3], t[4]) for i, t in enumerate(toks, 1)]
        row, _ = _timed(lambda: annotate_sentence(sent))
        row["tokens"] = len(sent)
        row["us_per_token"] = 1e6 * row["median_s"] / len(sent)
        rows[f"annotate_sentence_{length}"] = row

    c_tok = [ln.split() for ln in itertools.islice(itertools.cycle(cands), 20_000)]
    r_tok = [ln.split() for ln in itertools.islice(itertools.cycle(refs), 20_000)]
    rows["bleu"], _ = _timed(lambda: bleu(c_tok, r_tok))
    rows["bleu"]["sentences"] = len(c_tok)

    result = {"seed": SEED, "python": sys.version.split()[0], "stages": rows}
    text = json.dumps(result, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text, "utf-8")
    print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
