"""Evaluation: OOV counting, factor-sparsity coverage, corpus BLEU.

Sparsity is measured per mapping step of a factor scheme, over two
parallel corpora, train and probe. Every token on a probe side, however
many a line holds, is projected onto the step's input factors, the
source side for translation steps and the target side for generation
steps; a projection is unseen when no token on the same side of the
training corpus projects to it. The tokens are read from the sets of
distinct tokens each corpus side keeps from the check that made it
(ParallelCorpus.src_tokens and tgt_tokens), so no line is split here
and each distinct token is projected once. A checked side has one
width, so its first token decides for the side: a probe side of
another width is an error at its first token's line, and a training
side narrower than the scheme projects nothing. An OOV count takes its
vocabulary as a set of token strings, and OOV reduction uses the plain
relative formula 100 * (baseline - augmented) / baseline. BLEU takes a
sentence's unigrams as its words and its longer n-grams from tails
sliced once per sentence.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from collections.abc import Sequence
from itertools import repeat
from operator import itemgetter

from .errors import InputError

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only: oov and bleu load no corpus layer
    from .corpus_inject import ParallelCorpus
    from .dictionary_builder import FactorScheme


OovReport = namedtuple("OovReport", "total_tokens oov_tokens oov_types")


def oov_count(tokens: Sequence[str], vocab: set[str]) -> OovReport:
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


StepReport = namedtuple("StepReport", "step seen unseen unseen_tuples")
SparsityReport = namedtuple("SparsityReport", "translation_steps generation_steps")


def _step_label(in_names: tuple[str, ...], out_names: tuple[str, ...]) -> str:
    return "|".join(in_names) + " -> " + "|".join(out_names)


def _projections(
    tokens: frozenset[str], declared: tuple[str, ...], names: tuple[str, ...]
) -> set[tuple[str, ...]]:
    """Project the distinct tokens of a side onto the named factors.

    A checked side has one width, so any of its tokens decides for all:
    a side narrower than the scheme projects nothing, and a padded one
    (width-normalized) still projects, since extra trailing null factors
    never shift the named positions.
    """
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
    for name, declared, probe_lines, train_tokens, probe_tokens, steps in (
        (probe.source_name, scheme.source_factors, probe.src,
         train.src_tokens, probe.src_tokens, scheme.translation_steps),
        (probe.target_name, scheme.target_factors, probe.tgt,
         train.tgt_tokens, probe.tgt_tokens, scheme.generation_steps),
    ):
        _check_probe_side(probe_lines, name, len(declared) - 1)
        reports = []
        for in_names, out_names in steps:
            known = _projections(train_tokens, declared, in_names)
            probe_tuples = _projections(probe_tokens, declared, in_names)
            unseen = sorted("|".join(t) for t in probe_tuples if t not in known)
            reports.append(
                StepReport(_step_label(in_names, out_names),
                           len(probe_tuples) - len(unseen), len(unseen), unseen)
            )
        sides.append(reports)
    return SparsityReport(*sides)


BleuScore = namedtuple(
    "BleuScore", "score precisions brevity_penalty candidate_length reference_length")


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
        # unigrams are the words themselves; the tails are sliced once
        c1, c2, c3 = cand[1:], cand[2:], cand[3:]
        r1, r2, r3 = ref[1:], ref[2:], ref[3:]
        for n, cand_grams, ref_grams in (
            (0, cand, ref),
            (1, list(zip(cand, c1)), zip(ref, r1)),
            (2, list(zip(cand, c1, c2)), zip(ref, r1, r2)),
            (3, list(zip(cand, c1, c2, c3)), zip(ref, r1, r2, r3)),
        ):
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
