"""Property test for the BLEU kernel.

bleu takes the unigrams as the words themselves and the longer n-grams
from tails sliced once per sentence, and clips each order's counts with
a set intersection when the candidate's n-grams are distinct, and with
Counters otherwise. The reference below is the Counter-per-order
implementation it replaced; the integer counts are the same, so every
BleuScore field must be exactly equal, and the same inputs must raise
the same errors.
"""

import math
from collections import Counter

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from morphinject.errors import InputError
from morphinject.evaluation import BleuScore, bleu


def _ngrams(tokens, n):
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def _ref_bleu(candidates, references, smoothing=False):
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
        raise InputError("candidate corpus has no tokens")
    bp = math.exp(1.0 - ref_len / cand_len) if cand_len < ref_len else 1.0
    if all(p > 0 for p in precisions):
        score = bp * math.exp(sum(math.log(p) for p in precisions) / 4.0)
    else:
        score = 0.0
    return BleuScore(score, tuple(precisions), bp, cand_len, ref_len)


@st.composite
def _sentences(draw, count):
    # 2-4 words, so repeated n-grams (the Counter path) are common
    words = draw(st.lists(st.sampled_from(["a", "b", "c", "क"]), min_size=2, max_size=4,
                          unique=True))
    out = []
    for _ in range(count):
        sentence = draw(st.lists(st.sampled_from(words), max_size=12))
        out.append(tuple(sentence) if draw(st.booleans()) else sentence)
    return out


@st.composite
def _corpora(draw):
    count = draw(st.integers(0, 6))
    # mostly aligned corpora, sometimes one of another length
    extra = draw(st.sampled_from([0, 0, draw(st.integers(0, 2))]))
    return draw(_sentences(count)), draw(_sentences(count + extra))


_SHORT = [[], ["a"], ["a", "b"], ("b", "a", "c")]
_EVERY_ORDER_REPEATS = ["a", "b"] * 4  # a, ab, aba and abab each come again


@given(_corpora(), st.booleans())
# 0 to 3 tokens a side, so that some orders have no n-grams on one side or both
@example((_SHORT, _SHORT[::-1]), False)
@example((_SHORT, _SHORT), True)
@example(([["a", "b", "c"]], [[]]), True)
@example(([[], []], [["a"], []]), False)  # no candidate token: an error
# repeats on every order, so that every order is clipped by the Counters
@example(([_EVERY_ORDER_REPEATS], [["a", "b", "a", "b", "b", "a"]]), False)
@example(([_EVERY_ORDER_REPEATS, ["a"] * 5], [_EVERY_ORDER_REPEATS[1:], ["a"] * 3]), True)
def test_bleu_matches_the_counter_reference(corpora, smoothing):
    candidates, references = corpora
    try:
        expected = _ref_bleu(candidates, references, smoothing)
    except InputError as exc:
        with pytest.raises(type(exc)) as raised:
            bleu(candidates, references, smoothing=smoothing)
        assert str(raised.value) == str(exc)
        return
    assert bleu(candidates, references, smoothing=smoothing) == expected
