"""Property tests for the factored corpus path.

The reference below checks a corpus token by token with the token
rule written out (`_reference_token_error`), the way the line check is
specified; the string-level check must accept the same corpora and
fail with the same error.
"""

import io

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import DictEntry, FactoredToken, ref_entries, ref_pairs
from morphinject import script_core as sc
from morphinject.corpus_inject import ParallelCorpus, inject, parse_factored_corpus
from morphinject.dictionary_builder import (
    NOUN_SCHEME,
    SCHEMES,
    SURFACE_SCHEME,
    WordFormDictionary,
    strip_to_surface,
)
from morphinject.errors import InputError

# separators, control characters, non-space whitespace (no-break space,
# line separator, file separator, next line) and Devanagari
ALPHABET = ["a", "|", " ", "\t", "\r", "\xa0", "\u2028", "\x1c", "\x85", "क", "ि"]
WORD = ["a", "b", "क", "ि"]


def _reference_token_error(surface, factors):
    """FactoredToken's checks before the rule moved to script_core, but
    that a surface-only token may hold no whitespace other than " "."""
    if not surface:
        return "token with empty surface"
    if "|" in surface:
        return f"surface {surface!r} contains the factor separator"
    if factors and any(ch.isspace() for ch in surface):
        return f"factored token surface {surface!r} contains whitespace"
    if not factors and any(ch.isspace() and ch != " " for ch in surface):
        return f"surface {surface!r} contains whitespace other than ' '"
    for f in factors:
        if not f:
            return "empty factor string"
        if "|" in f or any(ch.isspace() for ch in f):
            return f"factor {f!r} contains separator or whitespace"
    return None


def _reference_line(line, name, lineno, pad_to=None):
    if "\r" in line or "\t" in line:
        col = min(i for i, ch in enumerate(line) if ch in "\r\t") + 1
        raise InputError(f"{name}:{lineno}:{col}: control character in line")
    if line != line.rstrip():
        raise InputError(f"{name}:{lineno}:{len(line.rstrip()) + 1}: trailing whitespace")
    tokens = []
    col = 1
    for raw in line.split(" ") if line else ():
        if raw == "":
            raise InputError(f"{name}:{lineno}:{col}: empty token (double space?)")
        surface, *factors = raw.split("|")
        if surface == "":
            raise InputError(f"{name}:{lineno}:{col}: token with empty surface")
        if "" in factors:
            raise InputError(f"{name}:{lineno}:{col}: empty factor in {raw!r}")
        if pad_to is not None:
            factors += ["null"] * (pad_to - len(factors))
        error = _reference_token_error(surface, factors)
        if error:
            raise InputError(f"{name}:{lineno}:{col}: {error}")
        tokens.append(FactoredToken(surface, tuple(factors)))
        col += len(raw) + 1
    return tokens


def _first_ragged(lines):
    """(line, column) of the first token whose width differs from the first."""
    widths = []
    for lineno, tokens in enumerate(lines, 1):
        col = 1
        for t in tokens:
            widths.append((t.width, lineno, col))
            col += len(t.render()) + 1
    return next(((ln, col) for w, ln, col in widths if w != widths[0][0]), None)


def reference_parse(src_lines, tgt_lines, auto_normalize):
    """Rendered (source, target) lines, or the error, token by token."""
    sides = ((src_lines, "source"), (tgt_lines, "target"))
    parsed = [[_reference_line(ln, name, i) for i, ln in enumerate(lines, 1)]
              for lines, name in sides]
    out = []
    for (lines, name), tokens in zip(sides, parsed):
        ragged_at = _first_ragged(tokens)
        if ragged_at and not auto_normalize:
            raise InputError(
                f"{name}:{ragged_at[0]}:{ragged_at[1]}: factor width differs from first token"
            )
        if ragged_at:
            widest = max(t.width for line in tokens for t in line)
            tokens = [_reference_line(ln, name, i, widest) for i, ln in enumerate(lines, 1)]
        out.append([" ".join(t.render() for t in line) for line in tokens])
    return tuple(out)


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except InputError as exc:
        return type(exc).__name__, str(exc)


def _parse_rendered(src_lines, tgt_lines, auto_normalize):
    corpus = parse_factored_corpus(src_lines, tgt_lines, auto_normalize=auto_normalize)
    return corpus.source_lines(), corpus.target_lines()


def _valid_token(width):
    return st.lists(st.text(st.sampled_from(WORD), min_size=1, max_size=2),
                    min_size=width + 1, max_size=width + 1).map("|".join)


_part = st.text(st.sampled_from(ALPHABET[:1] + ALPHABET[3:]), max_size=3)
_line = st.one_of(
    st.text(st.sampled_from(ALPHABET), max_size=10),
    st.lists(st.lists(_part, min_size=1, max_size=4).map("|".join), max_size=4).map(" ".join),
    st.lists(st.integers(0, 2).flatmap(_valid_token), max_size=4).map(" ".join),
    st.integers(0, 2).flatmap(lambda w: st.lists(_valid_token(w), max_size=4)).map(" ".join),
)


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 4).flatmap(lambda n: st.tuples(
    st.lists(_line, min_size=n, max_size=n), st.lists(_line, min_size=n, max_size=n))),
    st.booleans())
# one bad token on several lines: the first line that holds it is named
@example((["a|x", "b|\xa0x c|y", "b|\xa0x"], ["a", "a", "a"]), False)
# a ragged token on one side that is valid, at its width, on the other
@example((["a b", "a|x"], ["a|x", "b|y a|x"]), False)
@example((["a b", "a|x"], ["a|x", "b|y a|x"]), True)
@example((["", "a|x", ""], ["", "", "b"]), False)
@example((["a|x  b|y"], ["c"]), False)  # a double space
@example((["a|x "], ["c"]), False)  # a trailing space
@example((["a|\tx", "a\tb"], ["c", "c"]), False)  # a tab inside a token
def test_line_check_matches_token_reference(sides, auto_normalize):
    src, tgt = sides
    expected = _outcome(reference_parse, src, tgt, auto_normalize)
    assert _outcome(_parse_rendered, src, tgt, auto_normalize) == expected


@given(st.integers(0, 4).flatmap(lambda n: st.tuples(
    st.lists(_line, min_size=n, max_size=n), st.lists(_line, min_size=n, max_size=n))))
@example((["a b", "a|x"], ["c", "d"]))  # ragged
@example((["a"], []))  # a line short
def test_a_corpus_made_by_hand_is_checked_as_parse_factored_corpus_checks_it(sides):
    """ParallelCorpus(src, tgt) accepts exactly the lines that
    parse_factored_corpus accepts without auto_normalize, with the same
    first error, and holds them as given."""
    assert _outcome(ParallelCorpus, *sides) == _outcome(parse_factored_corpus, *sides)


def _valid_corpus(width):
    line = st.lists(_valid_token(width), max_size=4).map(" ".join)
    return st.integers(0, 5).flatmap(lambda n: st.tuples(
        st.lists(line, min_size=n, max_size=n), st.lists(line, min_size=n, max_size=n)))


def _text(lines):
    return "".join(ln + "\n" for ln in lines)


def _emit(corpus):
    """The text of the corpus's two files, as the CLI writes them."""
    return _text(corpus.src), _text(corpus.tgt)


@given(st.integers(0, 3).flatmap(_valid_corpus))
def test_emit_of_parse_is_identity(sides):
    src, tgt = _text(sides[0]), _text(sides[1])
    corpus = parse_factored_corpus(io.StringIO(src), io.StringIO(tgt))
    assert _emit(corpus) == (src, tgt)
    assert parse_factored_corpus(io.StringIO(src), io.StringIO(tgt)) == corpus


_entry = st.builds(
    DictEntry,
    st.builds(FactoredToken, st.sampled_from(WORD),
              st.tuples(st.sampled_from(["sg", "pl"]), st.sampled_from(["dir", "obl"]))),
    st.builds(FactoredToken, st.sampled_from(WORD), st.tuples(*[st.sampled_from(WORD)] * 2)),
)
_dictionary = st.lists(_entry, unique=True, max_size=12).map(
    lambda entries: WordFormDictionary(
        [f"{e.source.render()}\t{e.target.render()}" for e in entries], NOUN_SCHEME))


@pytest.mark.parametrize("mode", ["factored", "surface"])
@given(st.integers(2, 3).flatmap(_valid_corpus), _dictionary, st.data())
def test_inject_keeps_prefix_and_accounts_for_every_entry(mode, sides, dictionary, data):
    src_lines, tgt_lines = sides
    # some corpus lines are dictionary entries already, so dedupe has work
    for line in data.draw(st.lists(st.sampled_from(dictionary.lines), max_size=3)
                          if dictionary.lines else st.just([])):
        source, target = line.split("\t")
        src_lines.append(source)
        tgt_lines.append(target)
    corpus = parse_factored_corpus(src_lines, tgt_lines, auto_normalize=True)
    before = _emit(corpus)
    out, report = inject(corpus, strip_to_surface(dictionary) if mode == "surface" else dictionary)
    after = _emit(out)
    assert after[0].startswith(before[0]) and after[1].startswith(before[1])
    assert report.entries_added + report.duplicates_skipped == report.entries_offered
    added = list(zip(out.src, out.tgt))[len(corpus.src):]
    assert len(added) == report.entries_added
    assert len(set(zip(out.src, out.tgt))) == len(set(zip(corpus.src, corpus.tgt))) + len(added)


def _side(width):
    """A valid dictionary side with `width` factors; a surface-only one
    may be words joined by single spaces."""
    if width == 0:
        return st.lists(_valid_token(0), min_size=1, max_size=2).map(" ".join)
    return _valid_token(width)


# the closed value set of each source factor that has one
_CLOSED = {"number": sc.NUMBERS, "case": sc.CASES, "person": sc.PERSONS, "tam": sc.TAMS}


def _hand_built(scheme):
    """(scheme, lines) of valid sides, mostly of the scheme's widths,
    sometimes of any width from 0 to 3; a source factor with a closed
    value set holds one of its values or "xx"."""
    def side(width, names=()):
        def of_width(n):
            if n == 0:
                return _side(0)
            factors = [st.sampled_from((*_CLOSED[name], "xx")) if name in _CLOSED
                       else _valid_token(0) for name in (*names, *[None] * n)[:n]]
            return st.tuples(_valid_token(0), *factors).map("|".join)
        return st.one_of(st.just(width), st.integers(0, 3)).flatmap(of_width)

    entry = st.tuples(side(scheme.source_width, scheme.source_factors[1:]),
                      side(scheme.target_width)).map("\t".join)
    return st.tuples(st.just(scheme), st.lists(entry, max_size=4))


@given(st.integers(0, 3).flatmap(_valid_corpus),
       st.sampled_from(list(SCHEMES.values())).flatmap(_hand_built))
# a factored side in a surface-only dictionary, an unfactored one in a noun one
@example((["a|b|c"], ["x|y|z"]), (SURFACE_SCHEME, ["dog|sg|dir\tकुत्ता|कुत्ता|null"]))
@example((["a|b|c"], ["x|y|z"]), (NOUN_SCHEME, ["dog|sg|dir\tx"]))
def test_inject_of_a_hand_built_dictionary_re_parses(sides, drawn):
    """A dictionary of valid sides is made exactly when every entry has
    its scheme's factor counts and closed values; inject then either
    raises an input error, for a scheme wider than the corpus, or gives
    a corpus that parses as the same lines."""
    corpus = parse_factored_corpus(*sides)
    scheme, lines = drawn
    widths = (scheme.source_width, scheme.target_width)
    fits = all(tuple(side.count("|") for side in line.split("\t")) == widths for line in lines)
    in_sets = all(value in _CLOSED[name] for line in lines
                  for name, value in zip(scheme.source_factors[1:],
                                         line.partition("\t")[0].split("|")[1:])
                  if name in _CLOSED)
    try:
        dictionary = WordFormDictionary(lines, scheme)
    except InputError:
        assert not (fits and in_sets)
        return
    assert fits and in_sets
    wider = any(w is not None and w < dw
                for w, dw in zip((corpus.source_width(), corpus.target_width()), widths))
    try:
        out, _ = inject(corpus, dictionary)
    except InputError:
        assert wider
        return
    reparsed = parse_factored_corpus(out.src, out.tgt)
    assert (reparsed.src, reparsed.tgt) == (out.src, out.tgt)


@given(st.integers(0, 4).flatmap(lambda n: st.lists(_line, min_size=n, max_size=n)), st.booleans())
def test_split_gives_the_tokens_of_a_factored_line(lines, auto_normalize):
    """oov and bleu tokenize with str.split(). No corpus token, of any
    width, holds whitespace, so that is exactly the tokens the corpus
    parser reads: split(" "), and none for an empty line."""
    try:
        corpus = parse_factored_corpus(lines, lines, auto_normalize=auto_normalize)
    except InputError:
        return
    for line in corpus.src:
        assert line.split() == (line.split(" ") if line else [])


def _rendered_pairs(pairs):
    return [([t.render() for t in src], [t.render() for t in tgt]) for src, tgt in pairs]


# valid tokens of mixed widths, which auto_normalize pads
_mixed_line = st.lists(st.integers(0, 2).flatmap(_valid_token), max_size=4).map(" ".join)


@given(st.integers(0, 4).flatmap(lambda n: st.tuples(
    st.lists(_mixed_line, min_size=n, max_size=n), st.lists(_mixed_line, min_size=n, max_size=n))),
    _dictionary)
def test_views_hold_the_tokens_and_entries_of_the_reference_parse(sides, dictionary):
    """The benchmark counts the tokens of ParallelCorpus.pairs and the
    entries of WordFormDictionary.entries: as strings, they are the
    tokens and entries the reference parses, one for one. The token sets
    the sparsity report reads are those of the padded lines."""
    corpus = parse_factored_corpus(*sides, auto_normalize=True)
    assert corpus.pairs == _rendered_pairs(ref_pairs(corpus))
    assert corpus.src_tokens == {t for src, _ in corpus.pairs for t in src}
    assert corpus.tgt_tokens == {t for _, tgt in corpus.pairs for t in tgt}
    for d in (dictionary, strip_to_surface(dictionary)):
        assert d.entries == [(e.source.render(), e.target.render()) for e in ref_entries(d)]
