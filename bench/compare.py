"""Compare two benchmark result files.

    python3 bench/compare.py BASE.jsonl CHANGE.jsonl [--spec BENCHMARK.json]

A result file holds one JSON line per run, as `run.py --out` appends
them. For every workload x metric, each side's runs give a median and
quartiles. An end-to-end row is:

- `unresolved` when either side's run-to-run spread (quartile distance
  over median) exceeds the metric's bound, unless every run of the
  change reads better than every run of the base;
- `worse` when the change's median is worse than the base's by more
  than the bound;
- `within` otherwise. This is not a claim of a gain: a gain needs
  paired runs (see the choosing-metrics method).

Per-layer rows (from traced runs) carry no bound and no verdict. Runs
of one workload and seed, on either side and traced or not, must write
byte-identical outputs; any that do not are listed first.

The inputs grow from files outside the benchmark (the test fixtures and
the packaged suffix table), so a change to those changes what a seed
generates. For each workload and seed run on both sides the input
digests must agree; where they do not, the workload's rows get the
verdict `inputs differ` instead. A workload with no seed in common is
listed as unchecked: run both sides on the same seeds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def _load(path: str) -> dict[tuple[str, int], list[dict]]:
    runs = defaultdict(list)
    for line in Path(path).read_text("utf-8").splitlines():
        if line.strip():
            rec = json.loads(line)
            runs[(rec["workload"], rec["trace"])].append(rec)
    return runs


def _stats(values: list[float]) -> tuple[float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def _spread(med: float, q1: float, q3: float) -> float:
    return (q3 - q1) / abs(med) if med else 0.0


def _row(workload: str, metric: dict, base: list[float], change: list[float],
         same_inputs: bool) -> str:
    b, c = _stats(base), _stats(change)
    sign = 1 if metric["better"] == "lower" else -1
    worse_by = sign * (c[0] - b[0]) / abs(b[0]) if b[0] else 0.0
    verdict = ""
    if "bound" in metric and not same_inputs:
        verdict = "inputs differ"
    elif "bound" in metric:
        bound = metric["bound"]
        all_better = all(sign * x < sign * y for x in change for y in base)
        if max(_spread(*b), _spread(*c)) > bound and not all_better:
            verdict = "unresolved"
        elif worse_by > bound:
            verdict = "worse"
        else:
            verdict = "within"
    fmt = "{:.4g} [{:.4g}, {:.4g}]"
    return (f"{workload:14} {metric['name']:40} {fmt.format(*b):34} {fmt.format(*c):34} "
            f"{100 * worse_by:+7.1f}% worse  n={len(base)}/{len(change)}  {verdict}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--spec", default="BENCHMARK.json")
    args = ap.parse_args()
    spec = json.loads(Path(args.spec).read_text("utf-8"))
    base, change = _load(args.base), _load(args.change)

    outputs = defaultdict(set)
    for runs in (*base.values(), *change.values()):
        for r in runs:
            outputs[(r["workload"], r["seed"], r["input_digest"])].add(json.dumps(r["output_digests"]))
    for (w, seed, _), found in sorted(outputs.items()):
        if len(found) > 1:
            print(f"OUTPUTS DIFFER: {w} seed {seed} gave {len(found)} different output digests")

    inputs = [defaultdict(set), defaultdict(set)]
    for side, runs in zip(inputs, (base, change)):
        for r in (r for rs in runs.values() for r in rs):
            side[(r["workload"], r["seed"])].add(r["input_digest"])
    differ, common = set(), set()
    for w, seed in sorted(inputs[0].keys() & inputs[1].keys()):
        common.add(w)
        if inputs[0][(w, seed)] != inputs[1][(w, seed)]:
            print(f"INPUTS DIFFER: {w} seed {seed} generated different inputs on the two sides")
            differ.add(w)
    for w in sorted({w for w, _ in inputs[0].keys() | inputs[1].keys()} - common):
        print(f"INPUTS UNCHECKED: {w} has no seed run on both sides")

    print(f"{'workload':14} {'metric':40} {'base median [q1, q3]':34} {'change median [q1, q3]':34}")
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        for w in (w["name"] for w in spec["workloads"]):
            b_runs, c_runs = base.get((w, trace), []), change.get((w, trace), [])
            if not b_runs or not c_runs:
                continue
            for metric in spec[key]:
                name = metric["name"]
                b = [r["metrics"][name]["median"] for r in b_runs if name in r["metrics"]]
                c = [r["metrics"][name]["median"] for r in c_runs if name in r["metrics"]]
                if b and c:
                    print(_row(w, metric, b, c, w not in differ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
