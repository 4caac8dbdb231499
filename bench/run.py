"""Seeded benchmark for the morphinject CLI.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload pipeline --seed 1 --seconds 25 --trace 0

The workload's inputs are generated from --seed under .bench_work/. With
--trace 0 each pass runs the workload's `morphinject` commands as a user
would: one subprocess at a time, closed loop, one client. The first pass
warms caches and is not timed. Before each pass and after the last,
no-work set-up calls alternate with calls of a fixed reference program
that measure the machine's speed (see REFERENCE); within a pass one
reference call runs between two steps. A pass's wall_s is the sum of
its steps' wall times. Every output is checked, and the end-to-end
metrics are medians over the passes made in --seconds. With --trace 1 the same argv sequence runs in-process
through `morphinject.cli.main`: after an untimed warm-up pass, each
pass runs every step twice in a row, once untraced and once traced.
The per-layer metrics come from the spans of the traced runs (see
spans.py); trace.overhead_s is the traced minus the untraced time of a
pass, in seconds at the reference speed.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; metric names and units are the
ones BENCHMARK.json declares. --out FILE appends a detailed record
(per-metric quartiles and samples, input and output digests, why the
workload was chosen) to FILE as one JSON line; compare.py reads those.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs
from spans import Tracer

PROBES_PER_PASS = 3

# The machine's speed is measured with a fixed program that is not part
# of morphinject: on a shared machine the CPU speed drifts by tens of
# percent over seconds to minutes, and raw times would follow it. Times
# are reported in seconds at the reference speed: scaled by
# REFERENCE_NOMINAL_S over the median reference time measured next to
# the pass (raw times are kept in the --out record).
REFERENCE = [sys.executable, "-I", "-c", """
d = {}
for i in range(100000):
    a, b = f"w{i % 5003}|{i % 7}".split("|")
    d[a] = d.get(a, 0) + len(b)
sorted(d.items())
"""]
REFERENCE_NOMINAL_S = 0.2


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def _summary(samples: dict[str, list[float]]) -> dict[str, dict]:
    out = {}
    for name, values in samples.items():
        q1, _, q3 = _quartiles(values)
        out[name] = {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}
    return out


class Tally:
    """CLI calls attempted and failed (non-zero exit or a bad output)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] | None = None
        self.checked: dict[str, list[str]] = {}

    def record_pass(self, plan: inputs.Plan, workdir: Path, codes: dict[str, int]) -> None:
        """The first pass's outputs are checked in full; a later pass must
        write the same bytes, which then pass the same checks."""
        digests = checks.digests(plan)
        if self.digests is None:
            self.digests = digests
            self.checked = checks.check(plan, workdir)
        for label, _, _ in plan.steps:
            if digests[label] == self.digests[label]:
                bad = list(self.checked.get(label, []))
            else:
                bad = ["output differs from the first pass"]
            if codes[label] != 0:
                bad.append(f"exit code {codes[label]}")
            self.attempted += 1
            if bad:
                self.failed += 1
                self.problems += [f"{label}: {b}" for b in bad]


def _clean_outputs(plan: inputs.Plan) -> None:
    for _, _, outputs in plan.steps:
        for p in outputs:
            p.unlink(missing_ok=True)


# --- untraced: one subprocess per CLI call --------------------------------

def _child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("MORPHINJECT_DATA", None)   # measure the packaged tables
    env.pop("PYTHONHASHSEED", None)     # keep the determinism check meaningful
    env["PYTHONPATH"] = str(root / "src")
    return env


def _call(cmd: list[str], env: dict, root: Path, log: Path) -> tuple[int, float, float, float]:
    """Run one child; (exit code, wall s, cpu s, max RSS MB) of that child."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=root, stdin=subprocess.DEVNULL,
                                stdout=fh, stderr=subprocess.STDOUT)
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024


def run_untraced(plan, root, workdir, seconds, tally) -> tuple[dict[str, list[float]], dict]:
    env = _child_env(root)
    log = workdir / "child.log"
    cli = [sys.executable, "-m", "morphinject.cli"]
    # set-up: a call that does no work but load the default annotation tables
    empty, empty_out = workdir / "empty.conllu", workdir / "empty.out"
    empty.touch()
    setup = [*cli, "annotate", "--mode", "both", "--conllu", str(empty), "--out", str(empty_out)]

    def probes() -> tuple[list[float], list[float]]:
        """Set-up calls interleaved with reference calls: (set-up s, reference s)."""
        setups, refs = [], []
        for _ in range(PROBES_PER_PASS):
            refs.append(_call(REFERENCE, env, root, log)[1])
            empty_out.unlink(missing_ok=True)
            code, wall, _, _ = _call(setup, env, root, log)
            tally.attempted += 1
            if code != 0 or not empty_out.exists() or empty_out.stat().st_size:
                tally.failed += 1
                tally.problems.append(f"setup call: exit code {code} or output not empty")
            setups.append(wall)
        return setups, refs

    batches, passes = [], []
    deadline = None
    while deadline is None or time.perf_counter() < deadline or not passes:
        batches.append(probes())
        _clean_outputs(plan)
        codes, steps, between, rss = {}, [], [], 0.0
        for i, (label, argv, _) in enumerate(plan.steps):
            if i:  # the machine's speed between two steps
                between.append(_call(REFERENCE, env, root, log)[1])
            codes[label], wall, cpu, r = _call([*cli, *argv], env, root, log)
            steps.append((wall, cpu))
            rss = max(rss, r)
        tally.record_pass(plan, workdir, codes)
        if deadline is None:  # the first pass warms caches and bytecode; not timed
            deadline = time.perf_counter() + seconds
            batches.clear()
            continue
        passes.append((steps, between, rss))
    batches.append(probes())

    # Pass k ran between probe batches k and k + 1. Each of its steps is
    # scaled by the reference calls right before and after it: the speed
    # can change within a pass.
    samples: dict[str, list[float]] = {k: [] for k in ("wall_s", "cpu_s", "items_per_s", "peak_rss_mb")}
    for k, (steps, between, rss) in enumerate(passes):
        around = [batches[k][1], *([t] for t in between), batches[k + 1][1]]
        wall = cpu = 0.0
        for (w, c), before, after in zip(steps, around, around[1:]):
            scale = REFERENCE_NOMINAL_S / statistics.median(before + after)
            wall += w * scale
            cpu += c * scale
        samples["wall_s"].append(wall)
        samples["cpu_s"].append(cpu)
        samples["items_per_s"].append(checks.items_done(plan) / wall)
        samples["peak_rss_mb"].append(rss)
    samples["setup_s"] = [
        t * REFERENCE_NOMINAL_S / statistics.median(refs) for setups, refs in batches for t in setups]
    samples["ok_ratio"] = [(tally.attempted - tally.failed) / tally.attempted]
    raw = {"wall_s": [sum(w for w, _ in p[0]) for p in passes],
           "cpu_s": [sum(c for _, c in p[0]) for p in passes],
           "setup_s": [t for setups, _ in batches for t in setups],
           "reference_s": [t for _, refs in batches for t in refs] + [t for p in passes for t in p[1]]}
    return samples, {"raw_samples": raw}


# --- traced: in-process through morphinject.cli.main ----------------------

PER_LAYER_SPANS = {
    "corpus_inject.parse_s": ("corpus_inject.parse_factored_corpus",),
    "corpus_inject.inject_s": ("corpus_inject.inject",),
    "corpus_inject.render_s": ("corpus_inject.ParallelCorpus.source_lines",
                               "corpus_inject.ParallelCorpus.target_lines"),
    "evaluation.sparsity_s": ("evaluation.sparsity_report",),
    "evaluation.oov_s": ("evaluation.oov_count",),
    "evaluation.bleu_s": ("evaluation.bleu",),
    "source_factors.read_conllu_s": ("source_factors.read_conllu",),
    "source_factors.annotate_s": ("source_factors.annotate_sentence",),
    "dictionary_builder.build_noun_s": ("dictionary_builder.build_noun_dict",),
    "dictionary_builder.build_verb_s": ("dictionary_builder.build_verb_dict",),
    "dictionary_builder.strip_surface_s": ("dictionary_builder.strip_to_surface",),
    "dictionary_builder.parse_dictionary_s": ("dictionary_builder.parse_dictionary",),
    "noun_morph.paradigm_s": ("noun_morph.noun_paradigm",),
    "noun_morph.parse_lexicon_s": ("noun_morph.parse_noun_lexicon",),
    "verb_morph.paradigm_s": ("verb_morph.verb_paradigm",),
    "verb_morph.parse_lexicon_s": ("verb_morph.parse_verb_lexicon",),
    "script_core.normalize_s": ("script_core.normalize",),
}


def _layer_metrics(times: dict[str, tuple[float, int]], counts: dict[str, int]) -> dict[str, float]:
    def self_s(*names):
        return sum(times.get(n, (0.0, 0))[0] for n in names)

    m = {metric: self_s(*names) for metric, names in PER_LAYER_SPANS.items()}
    m["cli.io_s"] = sum(t for n, (t, _) in times.items() if n.startswith("cli.cmd_"))
    m["script_core.normalize_calls"] = times.get("script_core.normalize", (0.0, 0))[1]
    m["corpus_inject.parse_tokens"] = counts.get("corpus_inject.parse_tokens", 0)
    offered = counts.get("corpus_inject.offered", 0)
    m["corpus_inject.added_ratio"] = counts.get("corpus_inject.added", 0) / offered if offered else 0.0
    tokens = counts.get("source_factors.tokens", 0)
    m["source_factors.annotate_us_per_token"] = 1e6 * m["source_factors.annotate_s"] / tokens if tokens else 0.0
    m["dictionary_builder.entries"] = counts.get("dictionary_builder.entries", 0)
    m["dictionary_builder.row_failures"] = counts.get("dictionary_builder.row_failures", 0)
    return m


def run_traced(plan, root, workdir, seconds, tally) -> tuple[dict[str, list[float]], dict]:
    os.environ.pop("MORPHINJECT_DATA", None)
    sys.path.insert(0, str(root / "src"))
    t0 = time.perf_counter()
    from morphinject import cli  # first import in this process
    import_s = time.perf_counter() - t0
    tracer = Tracer()

    def one_pass(first_traced: bool) -> dict[bool, float]:
        """Each step runs twice in a row, untraced and traced, the order
        alternating from step to step: a pair's two runs see about the
        same machine speed. Returns the summed time of each kind."""
        _clean_outputs(plan)
        codes, wall = {}, {False: 0.0, True: 0.0}
        for i, (label, argv, _) in enumerate(plan.steps):
            first = first_traced != bool(i % 2)
            for traced in (first, not first):
                gc.collect()
                if traced:
                    tracer.install()
                t = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(io.StringIO()), \
                            contextlib.redirect_stderr(io.StringIO()):
                        code = cli.main(argv)
                finally:
                    wall[traced] += time.perf_counter() - t
                    tracer.uninstall()
                codes[label] = codes.get(label) or code
        tally.record_pass(plan, workdir, codes)
        return wall

    env, log = _child_env(root), workdir / "child.log"

    def references() -> list[float]:
        return [_call(REFERENCE, env, root, log)[1] for _ in range(PROBES_PER_PASS)]

    samples: dict[str, list[float]] = {"trace.overhead_s": [], "cli.startup_s": []}
    by_span: dict[str, list[float]] = {}
    one_pass(False)  # warm-up: loads the default tables; its spans are dropped
    refs = references()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not samples["cli.startup_s"]:
        lo = len(tracer)
        tracer.counts.clear()
        wall = one_pass(bool(len(samples["cli.startup_s"]) % 2))
        after = references()
        # like wall_s, in seconds at the reference speed around the pass
        scale = REFERENCE_NOMINAL_S / statistics.median(refs + after)
        refs = after
        times = tracer.self_times(lo, len(tracer))
        for name, value in _layer_metrics(times, tracer.counts).items():
            samples.setdefault(name, []).append(value)
        samples["trace.overhead_s"].append((wall[True] - wall[False]) * scale)
        build = times.get("cli.build_parser", (0.0, 1))
        samples["cli.startup_s"].append(import_s + build[0] / max(build[1], 1))
        for name, (t, _) in times.items():
            by_span.setdefault(name, []).append(t)
    top = sorted(((statistics.median(v), k) for k, v in by_span.items()), reverse=True)
    return samples, {"self_s_by_span": {k: v for v, k in top[:15]}, "spans": len(tracer)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(inputs.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append a detailed JSON-line record here")
    args = ap.parse_args()
    # on SIGTERM, unwind: stop the running child and remove the work files
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    for needed in (spec_path, root / "src" / "morphinject" / "cli.py", root / "tests" / "fixtures"):
        if not needed.exists():
            print(f"error: {needed} not found; run from the root of a morphinject checkout",
                  file=sys.stderr)
            return 2
    spec = json.loads(spec_path.read_text("utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]

    workdir = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        plan = inputs.generate(args.workload, args.seed, root, workdir)
        if inputs.generate(args.workload, args.seed, root, workdir / "again").digest != plan.digest:
            print("error: the generator gave two inputs for one seed", file=sys.stderr)
            return 2
        shutil.rmtree(workdir / "again")
        tally = Tally()
        if args.trace:
            samples, extra = run_traced(plan, root, workdir, args.seconds, tally)
        else:
            samples, extra = run_untraced(plan, root, workdir, args.seconds, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            (root / ".bench_work").rmdir()

    summary = _summary(samples)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "input_digest": plan.digest,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "output_digests": tally.digests, "python": sys.version.split()[0],
        "attempted": tally.attempted, "failed": tally.failed, "problems": tally.problems[:20],
        "metrics": {m["name"]: dict(summary[m["name"]], unit=m["unit"]) for m in declared},
        "samples": {m["name"]: samples[m["name"]] for m in declared}, **extra,
    }
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")
    for problem in tally.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, m in record["metrics"].items():
        print(f"{args.workload}\t{name}\t{m['median']:.6g} {m['unit']}\t"
              f"q1={m['q1']:.6g} q3={m['q3']:.6g} n={m['n']}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": m["median"], "unit": m["unit"]}
                    for name, m in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
