import io
import re
import sys
from pathlib import Path

import pytest

from conftest import FactoredToken, ref_pairs, validate_widths
from morphinject.corpus_inject import ParallelCorpus, inject, parse_factored_corpus
from morphinject.dictionary_builder import (
    NOUN_SCHEME,
    SURFACE_SCHEME,
    build_noun_dict,
    strip_to_surface,
)
from morphinject.errors import InputError
from morphinject.evaluation import sparsity_report
from morphinject.noun_morph import BilingualNoun, NounLexEntry

FIXTURES = Path(__file__).parent / "fixtures"


def _parse(src_text, tgt_text, **kw):
    return parse_factored_corpus(
        io.StringIO(src_text), io.StringIO(tgt_text), **kw
    )


def test_parse_basic():
    corpus = _parse("a|x b|y\nc|z\n", "प|है\nक|है\n")
    assert len(corpus.src) == len(corpus.tgt) == 2
    assert ref_pairs(corpus)[0][0][0] == FactoredToken("a", ("x",))
    assert corpus.source_width() == 1 and corpus.target_width() == 1


def test_parse_factor_layout():
    corpus = _parse("dog|sg|dir\n", "कुत्ता|कुत्ता|null\n")
    token = ref_pairs(corpus)[0][1][0]
    assert token.surface == "कुत्ता"
    assert token.factors == ("कुत्ता", "null")


def test_parse_line_count_mismatch():
    with pytest.raises(InputError, match=r"^source has 2 lines, target has 1$"):
        _parse("a\nb\n", "x\n")


def test_parse_malformed_tokens():
    with pytest.raises(InputError, match=r"^source:1:3: empty token \(double space\?\)$"):
        _parse("a  b\n", "x y\n")  # double space
    with pytest.raises(InputError, match=r"^source:2:1: token with empty surface$"):
        _parse("a\n|x\n", "x\ny\n")  # empty surface
    with pytest.raises(InputError, match=r"^source:1:2: trailing whitespace$"):
        _parse("a \n", "x\n")
    with pytest.raises(InputError, match=r"^source:1:1: empty factor in 'a\|\|b'$"):
        _parse("a||b\n", "x\n")


def test_parse_ragged_width():
    with pytest.raises(InputError, match=r"^target:2:1: factor width differs from first token$"):
        _parse("a|x\nb|y\n", "p|q\nr\n")
    corpus = _parse("a|x\nb|y\n", "p|q\nr\n", auto_normalize=True)
    assert corpus.tgt[1] == "r|null"
    assert not validate_widths(corpus)


def test_roundtrip_fixture_bytes():
    src_bytes = (FIXTURES / "corpus_src.txt").read_text("utf-8")
    tgt_bytes = (FIXTURES / "corpus_tgt.txt").read_text("utf-8")
    corpus = _parse(src_bytes, tgt_bytes)
    out_src, out_tgt = "\n".join(corpus.src) + "\n", "\n".join(corpus.tgt) + "\n"
    assert out_src == src_bytes
    assert out_tgt == tgt_bytes
    # the lines written back parse to the same corpus
    reparsed = _parse(out_src, out_tgt)
    assert reparsed == corpus


def _dog_dict():
    return build_noun_dict(
        [BilingualNoun("dog", NounLexEntry("कुत्ता", "m"))]
    )


def test_inject_empty_dict():
    corpus = _parse("dog|sg|dir\n", "कुत्ता|कुत्ता|null\n")
    empty = build_noun_dict([])
    out, report = inject(corpus, empty)
    assert out == corpus
    assert report.entries_offered == report.entries_added == 0
    assert report.duplicates_skipped == 0


def test_inject_appends_after_originals():
    corpus = _parse("the|null|null dog|sg|dir\n", "कुत्ता|कुत्ता|null है|हो|null\n")
    out, report = inject(corpus, _dog_dict())
    # sg-obl and pl-dir share a target but not a source, so all 4 are fresh
    assert report.entries_offered == 4
    assert report.entries_added == 4
    assert report.duplicates_skipped == 0
    assert len(out.src) == len(out.tgt) == 1 + 4
    assert (out.src[0], out.tgt[0]) == (corpus.src[0], corpus.tgt[0])  # prefix untouched
    assert out.src[1] == "dog|sg|dir"
    assert out.tgt[1] == "कुत्ता|कुत्ता|null"


def test_double_injection_all_duplicates():
    corpus = _parse("x|null|null\n", "य|null|null\n")
    d = _dog_dict()
    once, report1 = inject(corpus, d)
    assert report1.entries_added + report1.duplicates_skipped == report1.entries_offered
    twice, report2 = inject(once, d)
    assert report2.duplicates_skipped == report2.entries_offered == 4
    assert report2.entries_added == 0
    assert twice == once


def test_inject_width_normalization():
    # dictionary is narrower than the corpus: entries get padded
    corpus = _parse("a|x|y|z\n", "प|क|ख|ग\n")
    out, report = inject(corpus, _dog_dict())
    assert report.normalization_applied is True
    assert out.src[1] == "dog|sg|dir|null"
    assert not validate_widths(out)
    # dictionary wider than the corpus would force rewriting originals
    narrow = _parse("a|x\n", "प|क\n")
    with pytest.raises(InputError, match=r"^dictionary factors \(2/2\) exceed corpus widths \(1/1\)"):
        inject(narrow, _dog_dict())


def test_inject_surface_mode():
    corpus = _parse("the dog\n", "कुत्ता है\n")
    out, report = inject(corpus, strip_to_surface(_dog_dict()))
    assert report.entries_offered == 4  # dog, dogs x कुत्ता, कुत्ते, कुत्तों
    lines = out.source_lines()
    assert "dogs" in lines and "dog" in lines
    assert not validate_widths(out)


def test_inject_surface_mode_splits_periphrastic():
    # a "will walk" style entry becomes two plain tokens on the source line
    from morphinject.dictionary_builder import WordFormDictionary

    d = WordFormDictionary(["will walk\tचलेगा"], SURFACE_SCHEME)
    corpus = _parse("a\n", "क\n")
    out, _ = inject(corpus, strip_to_surface(d))
    assert out.source_lines()[-1] == "will walk"
    assert [t.render() for t in ref_pairs(out)[-1][0]] == ["will", "walk"]
    reparsed = _parse(
        "".join(ln + "\n" for ln in out.source_lines()),
        "".join(ln + "\n" for ln in out.target_lines()),
    )
    assert reparsed == out
    # a hand-built entry that is not one source TAB target pair, or one
    # with a side whose factor count is not its scheme's, is an input
    # error that names it, in inject as in strip_to_surface
    wide = _parse("a|b|c\n", "x|y|z\n")
    pair = "entry {!r}: expected 2 tab-separated fields (source, target), got {}"
    for lines, scheme, message in (
            (["a\t\tb"], SURFACE_SCHEME, pair.format("a\t\tb", 3)),
            (["x\ty", "a\t\tb"], SURFACE_SCHEME, pair.format("a\t\tb", 3)),
            (["ab"], SURFACE_SCHEME, pair.format("ab", 1)),
            (["dog|sg|dir\tकुत्ता|कुत्ता|null"], SURFACE_SCHEME,
             "entry 'dog|sg|dir' has 2 factors, scheme declares 0"),
            (["dog|sg|dir\tx"], NOUN_SCHEME, "entry 'x' has 0 factors, scheme declares 2")):
        for step in (inject, lambda _, d: strip_to_surface(d)):
            with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
                step(wide, WordFormDictionary(lines, scheme))


def test_a_corpus_made_by_hand_is_checked_when_it_is_made():
    # a ragged probe reached sparsity_report unchecked and raised IndexError
    train = parse_factored_corpus(["dog|sg|dir"], ["x|y|z"])
    with pytest.raises(InputError, match=r"^source:1:12: factor width differs from first token$"):
        sparsity_report(train, ParallelCorpus(["dog|sg|dir cat|sg"], ["x|y|z"]), NOUN_SCHEME)
    with pytest.raises(InputError, match=r"^p\.src has 1 lines, p\.tgt has 0$"):
        ParallelCorpus(["a"], [], "p.src", "p.tgt")
    with pytest.raises(InputError, match=r"^target:2:1: token with empty surface$"):
        ParallelCorpus(["a", "b"], ["c", "|x"])
    assert ParallelCorpus(["a|x b|y", ""], ["c", "d"]).src == ["a|x b|y", ""]


def test_unicode_preserved_exactly():
    tgt = "लड़कियाँ|लड़की|याँ\n"  # decomposed nukta stays decomposed
    corpus = _parse("girls|pl|dir\n", tgt)
    assert "\n".join(corpus.tgt) + "\n" == tgt


def test_regex_whitespace_is_isspace():
    # the one-pattern line check relies on \s meaning str.isspace()
    space = re.compile(r"\s")
    assert all(
        bool(space.match(chr(cp))) == chr(cp).isspace() for cp in range(sys.maxunicode + 1)
    )

