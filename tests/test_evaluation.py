import io
import math
import random

import pytest

from conftest import ref_entries
from morphinject.corpus_inject import inject, parse_factored_corpus
from morphinject.dictionary_builder import NOUN_SCHEME, build_noun_dict
from morphinject.errors import InputError
from morphinject.evaluation import (
    bleu,
    oov_count,
    oov_reduction,
    sparsity_report,
)
from morphinject.noun_morph import BilingualNoun


def test_oov_count_basics():
    vocab = {"a", "b", "c"}
    report = oov_count(["a", "b", "a"], vocab)
    assert report.oov_tokens == 0 and report.total_tokens == 3
    report = oov_count(["x", "y"], set())
    assert report.oov_tokens == report.total_tokens == 2


def test_oov_count_planted_misses():
    # ten-token probe with three planted misses, checked by brute force
    vocab_words = ["w0", "w1", "w2", "w3", "w4", "w5", "w6"]
    probe = ["w0", "w1", "miss1", "w2", "miss2", "w3", "w4", "miss1", "w5", "w6"]
    vocab = set(vocab_words)
    brute = sum(1 for t in probe if t not in vocab_words)
    report = oov_count(probe, vocab)
    assert report.oov_tokens == brute == 3
    assert report.oov_types == ["miss1", "miss2"]


def test_oov_monotonicity():
    rng = random.Random(7)
    probe = [f"t{rng.randrange(50)}" for _ in range(200)]
    vocab: set[str] = set()
    last = None
    for i in range(50):
        vocab.add(f"t{i}")
        count = oov_count(probe, vocab).oov_tokens
        if last is not None:
            assert count <= last
        last = count


def test_oov_reduction():
    assert abs(oov_reduction(2130, 1839) - 13.66) < 0.01
    assert oov_reduction(10, 10) == 0.0
    assert oov_reduction(10, 0) == 100.0
    with pytest.raises(InputError, match=r"^baseline count must be positive, got 0$"):
        oov_reduction(0, 5)
    with pytest.raises(InputError, match=r"^augmented count must be >= 0, got -1$"):
        oov_reduction(10, -1)
    # antitone in the second argument
    values = [oov_reduction(1000, a) for a in range(0, 1001, 100)]
    assert values == sorted(values, reverse=True)


def _corpus(src_lines, tgt_lines):
    return parse_factored_corpus(
        io.StringIO("".join(ln + "\n" for ln in src_lines)),
        io.StringIO("".join(ln + "\n" for ln in tgt_lines)),
    )


def test_sparsity_subset_probe_is_fully_seen():
    train = _corpus(["dog|sg|dir cat|sg|obl"], ["कुत्ता|कुत्ता|null बिल्ली|बिल्ली|null"])
    probe = _corpus(["dog|sg|dir"], ["कुत्ता|कुत्ता|null"])
    report = sparsity_report(train, probe, NOUN_SCHEME)
    assert all(s.unseen == 0 for s in report.translation_steps)
    assert all(s.unseen == 0 for s in report.generation_steps)


def test_sparsity_counts_match_brute_force():
    train = _corpus(
        ["dog|sg|dir", "girl|sg|dir"],
        ["कुत्ता|कुत्ता|null", "लड़की|लड़की|null"],
    )
    probe_pairs = _corpus(
        ["dog|pl|obl", "dog|sg|dir", "girl|pl|dir"],
        ["कुत्तों|कुत्ता|ओं", "कुत्ता|कुत्ता|null", "लड़कियाँ|लड़की|याँ"],
    )
    report = sparsity_report(train, probe_pairs, NOUN_SCHEME)
    # brute force over the construction: train source tuples and target pairs
    train_src = {("dog", "sg", "dir"), ("girl", "sg", "dir")}
    train_gen = {("कुत्ता", "null"), ("लड़की", "null")}
    probe_src = {("dog", "pl", "obl"), ("dog", "sg", "dir"), ("girl", "pl", "dir")}
    probe_gen = {("कुत्ता", "ओं"), ("कुत्ता", "null"), ("लड़की", "याँ")}
    t = report.translation_steps[0]
    g = report.generation_steps[0]
    assert t.unseen == len(probe_src - train_src) == 2
    assert t.seen + t.unseen == len(probe_src)
    assert g.unseen == len(probe_gen - train_gen) == 2
    assert g.seen + g.unseen == len(probe_gen)


def test_sparsity_tolerates_padded_train_corpus():
    # a width-normalized corpus (trailing nulls) still projects correctly
    train = _corpus(["dog|sg|dir|null|null"], ["कुत्ता|कुत्ता|null|null|null"])
    probe = _corpus(["dog|sg|dir"], ["कुत्ता|कुत्ता|null"])
    report = sparsity_report(train, probe, NOUN_SCHEME)
    assert report.translation_steps[0].unseen == 0
    assert report.generation_steps[0].unseen == 0


def test_sparsity_closes_after_injection(noun_fixtures):
    nouns = [f for f in noun_fixtures if f.noun_class in "BCD"][:20]
    lexicon = [BilingualNoun(f.english, f.entry) for f in nouns]
    d = build_noun_dict(lexicon)
    train = _corpus(
        [e.source.render() for e in ref_entries(d) if e.source.factors == ("sg", "dir")],
        [e.target.render() for e in ref_entries(d) if e.source.factors == ("sg", "dir")],
    )
    probe = _corpus(
        [e.source.render() for e in ref_entries(d) if e.source.factors == ("pl", "obl")],
        [e.target.render() for e in ref_entries(d) if e.source.factors == ("pl", "obl")],
    )
    before = sparsity_report(train, probe, NOUN_SCHEME)
    assert before.generation_steps[0].unseen == len(probe.tgt)
    injected, _ = inject(train, d)
    after = sparsity_report(injected, probe, NOUN_SCHEME)
    assert after.generation_steps[0].unseen == 0
    assert after.translation_steps[0].unseen == 0


# --- BLEU, with an independent brute-force n-gram oracle ---


def _oracle_bleu(cands, refs):
    """Plain-loop BLEU-4 used only as a test oracle."""
    log_sum = 0.0
    c_total = sum(len(c) for c in cands)
    r_total = sum(len(r) for r in refs)
    for n in range(1, 5):
        match = 0
        total = 0
        for cand, ref in zip(cands, refs):
            cand_grams = [tuple(cand[i:i + n]) for i in range(len(cand) - n + 1)]
            ref_grams = [tuple(ref[i:i + n]) for i in range(len(ref) - n + 1)]
            total += len(cand_grams)
            for gram in set(cand_grams):
                match += min(cand_grams.count(gram), ref_grams.count(gram))
        if match == 0:
            return 0.0
        log_sum += math.log(match / total)
    bp = 1.0 if c_total >= r_total else math.exp(1.0 - r_total / c_total)
    return bp * math.exp(log_sum / 4.0)


def test_bleu_identity_is_one():
    corpus = [["the", "dog", "runs", "fast"], ["कुत्ता", "घर", "में", "है", "।"]]
    score = bleu(corpus, corpus)
    assert score.score == 1.0
    assert score.precisions == (1.0, 1.0, 1.0, 1.0)
    assert score.brevity_penalty == 1.0


def test_bleu_zero_overlap():
    assert bleu([["a", "b", "c", "d"]], [["w", "x", "y", "z"]]).score == 0.0


def test_bleu_two_sentence_hand_case():
    cands = [
        ["the", "dog", "runs", "in", "the", "park"],
        ["she", "read", "a", "big", "book"],
    ]
    refs = [
        ["the", "dog", "runs", "in", "the", "garden"],
        ["she", "read", "a", "big", "book", "today"],
    ]
    score = bleu(cands, refs)
    assert abs(score.score - _oracle_bleu(cands, refs)) < 1e-9
    assert 0.0 < score.score < 1.0
    # score decomposes as bp x geometric mean when all precisions > 0
    geo = math.exp(sum(math.log(p) for p in score.precisions) / 4)
    assert abs(score.score - score.brevity_penalty * geo) < 1e-12
    # and a case with no 4-gram overlap scores exactly zero
    sparse = bleu([["a", "b", "c", "d"]], [["a", "x", "c", "y"]])
    assert sparse.score == 0.0 and sparse.precisions[3] == 0.0


def test_bleu_permutation_invariance():
    rng = random.Random(3)
    vocab = ["a", "b", "c", "d", "e", "f"]
    cands = [[rng.choice(vocab) for _ in range(rng.randrange(4, 9))] for _ in range(6)]
    refs = [[rng.choice(vocab) for _ in range(rng.randrange(4, 9))] for _ in range(6)]
    base = bleu(cands, refs).score
    order = list(range(6))
    rng.shuffle(order)
    shuffled = bleu([cands[i] for i in order], [refs[i] for i in order]).score
    assert abs(base - shuffled) < 1e-12


def test_bleu_brevity_penalty():
    cands = [["the", "dog", "runs", "today"]]
    refs = [["the", "dog", "runs", "today", "again", "fast"]]
    score = bleu(cands, refs)
    assert score.brevity_penalty == pytest.approx(math.exp(1 - 6 / 4))
    assert abs(score.score - _oracle_bleu(cands, refs)) < 1e-9


def test_bleu_errors_and_bounds():
    with pytest.raises(InputError, match=r"^1 candidates vs 2 references$"):
        bleu([["a"]], [["a"], ["b"]])
    with pytest.raises(InputError, match=r"^no sentences to score$"):
        bleu([], [])
    with pytest.raises(InputError, match=r"^candidate corpus has no tokens$"):
        bleu([[]], [["a"]])  # no candidate tokens: BP undefined
    rng = random.Random(5)
    vocab = ["x", "y", "z"]
    for _ in range(20):
        cands = [[rng.choice(vocab) for _ in range(rng.randrange(1, 7))]]
        refs = [[rng.choice(vocab) for _ in range(rng.randrange(1, 7))]]
        s = bleu(cands, refs)
        assert 0.0 <= s.score <= 1.0
        assert abs(s.score - _oracle_bleu(cands, refs)) < 1e-9
