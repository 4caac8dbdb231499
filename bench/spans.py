"""Span recorder for the traced benchmark run.

`Tracer.install()` wraps every public function of the program's modules
(and the corpus rendering methods `cmd_inject` writes through), in
every module namespace that holds it, re-imports included. A call opens
a span only when it crosses a layer boundary: a call from a function of
the same module is part of its caller's self time. Spans carry a name,
start, end and parent and are kept in flat arrays until the run ends.
The program itself is not modified.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict

PACKAGE = "morphinject"
LAYERS = ("cli", "script_core", "noun_morph", "verb_morph", "dictionary_builder",
          "source_factors", "corpus_inject", "evaluation")
METHODS = {"corpus_inject": {"ParallelCorpus": ("source_lines", "target_lines")}}
ENTRY = "cli.main"  # the caller; every span it causes is a root span


def _built(d) -> dict[str, int]:
    return {"dictionary_builder.entries": len(d.entries),
            "dictionary_builder.row_failures": len(d.failures)}


# Counts taken from return values at the same boundaries as the spans.
HOOKS = {
    "corpus_inject.parse_factored_corpus": lambda c: {
        "corpus_inject.parse_tokens": sum(len(s) + len(t) for s, t in c.pairs)},
    "corpus_inject.inject": lambda r: {
        "corpus_inject.added": r[1].entries_added, "corpus_inject.offered": r[1].entries_offered},
    "source_factors.annotate_sentence": lambda r: {"source_factors.tokens": len(r)},
    "dictionary_builder.build_noun_dict": _built,
    "dictionary_builder.build_verb_dict": _built,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.sid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = defaultdict(int)
        self._cur = [-1, -1]  # open span index, its layer index
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, layer: int, hook):
        nid = len(self.names)
        self.names.append(name)
        cur, sid, parent, start, end = self._cur, self.sid, self.parent, self.start, self.end
        counts, perf = self.counts, time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            up, up_layer = cur
            if up_layer == layer:
                return fn(*args, **kwargs)
            i = len(start)
            sid.append(nid)
            parent.append(up)
            end.append(0.0)
            cur[0], cur[1] = i, layer
            start.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf()
                cur[0], cur[1] = up, up_layer
            if hook is not None:
                for key, value in hook(result).items():
                    counts[key] += value
            return result
        return span

    def install(self) -> None:
        wrapped = {}
        for layer, short in enumerate(LAYERS):
            mod = importlib.import_module(f"{PACKAGE}.{short}")
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name != ENTRY):
                    wrapped[obj] = self._wrap(obj, name, layer, HOOKS.get(name))
            for cls_name, methods in METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name)
                for m in methods:
                    fn = vars(cls)[m]
                    self._patch(cls, m, self._wrap(fn, f"{short}.{cls_name}.{m}", layer, None))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == PACKAGE or mod_name.startswith(PACKAGE + "."):
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrapped:
                        self._patch(mod, attr, wrapped[obj])

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    def __len__(self) -> int:
        return len(self.start)

    def self_times(self, lo: int, hi: int) -> dict[str, tuple[float, int]]:
        """(self seconds, calls) per span name over spans [lo, hi). Self
        time is a span's duration minus its child spans' durations."""
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                child[p - lo] += self.end[i] - self.start[i]
        out: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for i in range(lo, hi):
            acc = out[self.names[self.sid[i]]]
            acc[0] += self.end[i] - self.start[i] - child[i - lo]
            acc[1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}
