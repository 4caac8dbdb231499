"""Evaluation: OOV counting, factor-sparsity coverage, corpus BLEU.

Sparsity is measured per mapping step of a factor scheme, over two
parallel corpora, train and probe, each read as its checked lines. Every
token on a probe side, however many a line holds, is projected onto the
step's input factors, the source side for translation steps and the
target side for generation steps; a projection is unseen when no token
on the same side of the training corpus projects to it. A parsed side
has one width, so its first token decides for the side: a probe side
of another width is an error, and a training side narrower than the
scheme projects nothing. Each distinct token is projected once. OOV
reduction uses the plain relative formula
100 * (baseline - augmented) / baseline.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from collections.abc import Iterable, Sequence
from itertools import chain, repeat
from operator import itemgetter

from .errors import InputError

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only: oov and bleu load no corpus layer
    from .corpus_inject import ParallelCorpus
    from .dictionary_builder import FactorScheme


class VocabSet:
    __slots__ = ("entries",)

    def __init__(self, entries: set[str]):
        self.entries = entries

    @classmethod
    def from_tokens(cls, tokens: Iterable[str]) -> "VocabSet":
        return cls(set(tokens))

    @classmethod
    def from_corpus_side(cls, corpus: ParallelCorpus, side: str = "target") -> "VocabSet":
        lines = corpus.src if side == "source" else corpus.tgt
        return cls({t.partition("|")[0] for line in lines if line for t in line.split(" ")})

    def __contains__(self, item: str) -> bool:
        return item in self.entries

    def __eq__(self, other):
        if type(other) is not VocabSet:
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self) -> str:
        return f"VocabSet({self.entries!r})"


class OovReport(namedtuple("OovReport", "total_tokens oov_tokens oov_types")):
    __slots__ = ()

    def to_dict(self) -> dict:
        return {"schema_version": 1, **self._asdict()}


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
        raise InputError(f"baseline count must be positive, got {baseline}")
    if augmented < 0:
        raise InputError(f"augmented count must be >= 0, got {augmented}")
    return 100.0 * (baseline - augmented) / baseline


class StepReport(namedtuple("StepReport", "step seen unseen unseen_tuples")):
    __slots__ = ()

    def to_dict(self) -> dict:
        return self._asdict()


class SparsityReport(namedtuple("SparsityReport", "translation_steps generation_steps")):
    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "translation_steps": [s.to_dict() for s in self.translation_steps],
            "generation_steps": [s.to_dict() for s in self.generation_steps],
        }


def _step_label(in_names: tuple[str, ...], out_names: tuple[str, ...]) -> str:
    return "|".join(in_names) + " -> " + "|".join(out_names)


def _projections(
    lines: list[str], declared: tuple[str, ...], names: tuple[str, ...]
) -> set[tuple[str, ...]]:
    """Project every distinct token of a side onto the named factors.

    A parsed side has one width, so its first token decides for all: a
    side narrower than the scheme projects nothing, and a padded one
    (width-normalized) still projects, since extra trailing null factors
    never shift the named positions.
    """
    tokens = set(chain.from_iterable(map(str.split, filter(None, lines), repeat(" "))))
    if not tokens or next(iter(tokens)).count("|") < len(declared) - 1:
        return set()
    parts = list(map(str.split, tokens, repeat("|")))
    return set(zip(*[map(itemgetter(declared.index(name)), parts) for name in names]))


def _check_probe_side(lines: list[str], name: str, width: int) -> None:
    """A parsed side has one width: its first token's is every token's."""
    for lineno, line in enumerate(lines, 1):
        if line:
            token = line.partition(" ")[0]
            if token.count("|") != width:
                raise InputError(
                    f"{name}:{lineno}: token {token!r} has "
                    f"{token.count('|')} factors, scheme declares {width}"
                )
            return


def sparsity_report(
    train: ParallelCorpus, probe: ParallelCorpus, scheme: FactorScheme
) -> SparsityReport:
    """Coverage of the probe's factor combinations in the training data.

    Each probe token must have exactly the scheme's width on its side;
    the first that has not is an error at the probe file's name:line.
    Counts are over distinct probe tuples per step, so seen + unseen
    equals the number of distinct projections.
    """
    sides = []
    for name, declared, train_lines, probe_lines, steps in (
        (probe.source_name, scheme.source_factors, train.src, probe.src, scheme.translation_steps),
        (probe.target_name, scheme.target_factors, train.tgt, probe.tgt, scheme.generation_steps),
    ):
        _check_probe_side(probe_lines, name, len(declared) - 1)
        reports = []
        for in_names, out_names in steps:
            known = _projections(train_lines, declared, in_names)
            probe_tuples = _projections(probe_lines, declared, in_names)
            unseen = sorted("|".join(t) for t in probe_tuples if t not in known)
            reports.append(
                StepReport(_step_label(in_names, out_names),
                           len(probe_tuples) - len(unseen), len(unseen), unseen)
            )
        sides.append(reports)
    return SparsityReport(*sides)


class BleuScore(namedtuple(
        "BleuScore", "score precisions brevity_penalty candidate_length reference_length")):
    __slots__ = ()

    def to_dict(self) -> dict:
        return {"schema_version": 1, **self._asdict(), "precisions": list(self.precisions)}


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
        raise InputError(f"{len(candidates)} candidates vs {len(references)} references")
    if not candidates:
        raise InputError("no sentences to score")

    matches = [0] * 4
    totals = [0] * 4
    cand_len = 0
    ref_len = 0
    for cand, ref in zip(candidates, references):
        cand_len += len(cand)
        ref_len += len(ref)
        cand_tails = [cand[i:] for i in range(4)]
        ref_tails = [ref[i:] for i in range(4)]
        for n in range(4):
            cand_grams = list(zip(*cand_tails[:n + 1]))
            ref_grams = zip(*ref_tails[:n + 1])
            distinct = set(cand_grams)
            totals[n] += len(cand_grams)
            if len(distinct) == len(cand_grams):  # each clipped count is 0 or 1
                matches[n] += len(distinct.intersection(ref_grams))
            else:  # each clipped count is the smaller of the two counts
                cand_counts, ref_counts = Counter(cand_grams), Counter(ref_grams)
                matches[n] += sum(map(min, cand_counts.values(),
                                      map(ref_counts.get, cand_counts, repeat(0))))

    precisions = []
    for n in range(4):
        m, t = matches[n], totals[n]
        if smoothing and n > 0:
            m, t = m + 1, t + 1
        precisions.append(m / t if t > 0 else 0.0)

    if cand_len == 0:
        raise InputError("candidate corpus has no tokens")
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
