"""Evaluation: OOV counting, factor-sparsity coverage, corpus BLEU.

Sparsity is measured per mapping step of a factor scheme: a probe
source tuple is unseen when its projection onto a translation step's
input factors never occurs on the training source side; a probe target
(root, suffix) pair is unseen when absent from the training target
side. OOV reduction uses the plain relative formula
100 * (baseline - augmented) / baseline.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .corpus_inject import ParallelCorpus
from .dictionary_builder import FactoredToken, FactorScheme
from .errors import EmptyCorpus, InputError, LengthMismatch, ZeroBaseline


@dataclass
class VocabSet:
    entries: set[str]

    @classmethod
    def from_tokens(cls, tokens: Iterable[str]) -> "VocabSet":
        return cls(set(tokens))

    @classmethod
    def from_corpus_side(cls, corpus: ParallelCorpus, side: str = "target") -> "VocabSet":
        lines = (
            [src for src, _ in corpus.pairs]
            if side == "source"
            else [tgt for _, tgt in corpus.pairs]
        )
        return cls({t.surface for line in lines for t in line})

    def __contains__(self, item: str) -> bool:
        return item in self.entries


@dataclass
class OovReport:
    total_tokens: int
    oov_tokens: int
    oov_types: list[str]

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "total_tokens": self.total_tokens,
            "oov_tokens": self.oov_tokens,
            "oov_types": self.oov_types,
        }


def oov_count(tokens: Sequence[str], vocab: VocabSet) -> OovReport:
    """Count tokens absent from the vocabulary, as tokens and as types."""
    oov = [t for t in tokens if t not in vocab]
    return OovReport(
        total_tokens=len(tokens),
        oov_tokens=len(oov),
        oov_types=sorted(set(oov)),
    )


def oov_reduction(baseline: int, augmented: int) -> float:
    """Relative OOV reduction in percent: 100 * (base - aug) / base."""
    if baseline <= 0:
        raise ZeroBaseline(f"baseline count must be positive, got {baseline}")
    if augmented < 0:
        raise InputError(f"augmented count must be >= 0, got {augmented}")
    return 100.0 * (baseline - augmented) / baseline


@dataclass
class StepReport:
    step: str
    seen: int
    unseen: int
    unseen_tuples: list[str]

    def to_dict(self) -> dict:
        return {
            "step": self.step,
            "seen": self.seen,
            "unseen": self.unseen,
            "unseen_tuples": self.unseen_tuples,
        }


@dataclass
class SparsityReport:
    translation_steps: list[StepReport]
    generation_steps: list[StepReport]

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "translation_steps": [s.to_dict() for s in self.translation_steps],
            "generation_steps": [s.to_dict() for s in self.generation_steps],
        }


def _step_label(in_names: tuple[str, ...], out_names: tuple[str, ...]) -> str:
    return "|".join(in_names) + " -> " + "|".join(out_names)


def _train_projections(
    lines: list[str], declared: tuple[str, ...], names: tuple[str, ...]
) -> set[tuple[str, ...]]:
    """Project every training token at least as wide as the scheme.

    Padded corpora (width-normalized) still project: extra trailing null
    factors never shift the named positions.
    """
    positions = [declared.index(name) for name in names]
    known = set()
    for token in {t for line in lines if line for t in line.split(" ")}:
        parts = token.split("|")
        if len(parts) >= len(declared):
            known.add(tuple(parts[i] for i in positions))
    return known


def sparsity_report(
    train: ParallelCorpus,
    probe: Sequence[tuple[FactoredToken, FactoredToken]],
    scheme: FactorScheme,
) -> SparsityReport:
    """Coverage of the probe's factor combinations in the training data.

    Counts are over distinct probe tuples per step, so seen + unseen
    equals the number of distinct projections.
    """
    for src, tgt in probe:
        if src.width != scheme.source_width or tgt.width != scheme.target_width:
            raise InputError(
                f"probe pair {src.render()} / {tgt.render()} does not match "
                f"scheme widths {scheme.source_width}/{scheme.target_width}"
            )

    translation = []
    for in_names, out_names in scheme.translation_steps:
        known = _train_projections(train.src, scheme.source_factors, in_names)
        probe_tuples = {scheme.project(src, in_names, "source") for src, _ in probe}
        unseen = sorted("|".join(t) for t in probe_tuples if t not in known)
        translation.append(
            StepReport(_step_label(in_names, out_names),
                       len(probe_tuples) - len(unseen), len(unseen), unseen)
        )

    generation = []
    for in_names, out_names in scheme.generation_steps:
        known = _train_projections(train.tgt, scheme.target_factors, in_names)
        probe_tuples = {scheme.project(tgt, in_names, "target") for _, tgt in probe}
        unseen = sorted("|".join(t) for t in probe_tuples if t not in known)
        generation.append(
            StepReport(_step_label(in_names, out_names),
                       len(probe_tuples) - len(unseen), len(unseen), unseen)
        )
    return SparsityReport(translation, generation)


@dataclass
class BleuScore:
    score: float
    precisions: tuple[float, float, float, float]
    brevity_penalty: float
    candidate_length: int
    reference_length: int

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "score": self.score,
            "precisions": list(self.precisions),
            "brevity_penalty": self.brevity_penalty,
            "candidate_length": self.candidate_length,
            "reference_length": self.reference_length,
        }


def _ngrams(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu(
    candidates: Sequence[Sequence[str]],
    references: Sequence[Sequence[str]],
    smoothing: bool = False,
) -> BleuScore:
    """Corpus-level BLEU-4: uniform weights, clipped modified n-gram
    precision, brevity penalty exp(1 - r/c) for c < r.

    No smoothing by default (the original metric definition); with
    smoothing=True, add-one smoothing is applied to the n-gram counts
    for n > 1.
    """
    if len(candidates) != len(references):
        raise LengthMismatch(
            f"{len(candidates)} candidates vs {len(references)} references"
        )
    if not candidates:
        raise EmptyCorpus("no sentences to score")

    matches = [0] * 4
    totals = [0] * 4
    cand_len = 0
    ref_len = 0
    for cand, ref in zip(candidates, references):
        cand_len += len(cand)
        ref_len += len(ref)
        for n in range(1, 5):
            cand_counts = _ngrams(cand, n)
            ref_counts = _ngrams(ref, n)
            totals[n - 1] += max(len(cand) - n + 1, 0)
            for gram, count in cand_counts.items():
                matches[n - 1] += min(count, ref_counts.get(gram, 0))

    precisions = []
    for n in range(4):
        m, t = matches[n], totals[n]
        if smoothing and n > 0:
            m, t = m + 1, t + 1
        precisions.append(m / t if t > 0 else 0.0)

    if cand_len == 0:
        raise EmptyCorpus("candidate corpus has no tokens")
    if cand_len < ref_len:
        bp = math.exp(1.0 - ref_len / cand_len)
    else:
        bp = 1.0

    if all(p > 0 for p in precisions):
        score = bp * math.exp(sum(math.log(p) for p in precisions) / 4.0)
    else:
        score = 0.0
    return BleuScore(
        score=score,
        precisions=tuple(precisions),
        brevity_penalty=bp,
        candidate_length=cand_len,
        reference_length=ref_len,
    )
