"""Property tests for the Devanagari kernels and the token rule.

`normalize` and `_check_word` have fast paths for input that needs no
work; the loop versions below are what they replaced, and the fast
paths must give the same result or the same error on any string.
`token_error` must name the error the FactoredToken class named before
the rule moved to script_core, but for a token with no factors whose surface
holds whitespace other than " ", and `token_pattern` must accept exactly the
tokens `token_error` passes.
"""

import re
import sys
import unicodedata

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import REF_GENDERS, REF_NOUN_CLASSES, FactoredToken
from morphinject import script_core as sc
from morphinject.errors import InputError
from morphinject.noun_morph import (
    NounLexEntry,
    classify_noun,
    join_noun,
    load_suffix_table,
    noun_paradigm,
)
from morphinject.verb_morph import VerbLexEntry, join_verb, load_verb_suffix_table, verb_paradigm


def _reference_normalize(text):
    text = unicodedata.normalize("NFC", text.replace("\u200c", "").replace("\u200d", ""))
    out = []
    for ch in text:
        if ch == sc.NUKTA and out and out[-1] in sc._NUKTA_COMPOSED:
            out[-1] = sc._NUKTA_COMPOSED[out[-1]]
        else:
            out.append(ch)
    return "".join(out)


def _reference_check_word(word):
    if not word:
        raise InputError("empty word")
    for i, ch in enumerate(word):
        if not 0x0900 <= ord(ch) <= 0x097F:
            raise InputError(f"non-Devanagari codepoint U+{ord(ch):04X} at offset {i}")
        if ch in ("।", "॥"):
            raise InputError(f"punctuation {ch!r} at offset {i}")


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)


# Devanagari letters and signs, the nukta, precomposed and decomposed
# nukta letters, ZWNJ, ZWJ, Latin (with a combining accent NFC composes)
_PIECES = [
    "क", "ख", "ग", "ज", "ड", "ढ", "फ", "य", "न", "र", "ळ", "त", "म",
    "अ", "आ", "इ", "ई", "उ", "ऊ", "ए", "ओ",
    "ा", "ि", "ी", "ु", "ू", "े", "ो", "ं", "ँ", "ः", "्", "़",
    "\u0958", "\u095c", "\u0929",  # precomposed क़ ड़ ऩ
    "\u0915\u093c", "\u0921\u093c", "\u0928\u093c",  # the same, decomposed
    "\u200c", "\u200d", "a", "e", "\u0301", " ",
]
_text = st.lists(st.sampled_from(_PIECES), max_size=8).map("".join)


@settings(deadline=None)
@given(_text)
@example("क\u200cत")
@example("क\u200dत")
@example("ड\u093c")
@example("\u0958")
def test_normalize_matches_loop_reference(text):
    assert sc.normalize(text) == _reference_normalize(text)


@settings(deadline=None)
@given(_text)
# a joiner between two combining marks: dropping it after NFC left the
# marks out of canonical order, and a second normalize changed them
@example("क\u094d\u200c\u093c")
@example("\u0301\u200c\u094d")
def test_normalize_is_idempotent(text):
    once = sc.normalize(text)
    assert sc.normalize(once) == once


_NOUN_TABLE, _VERB_TABLE = load_suffix_table(), load_verb_suffix_table()
_NOUN_SUFFIXES = sorted({s for s in _NOUN_TABLE.cells.values() if s is not None})
_VERB_SUFFIXES = sorted({c[4] for c in _VERB_TABLE.cells if c[4]})


@settings(deadline=None)
@given(_text, st.sampled_from(REF_NOUN_CLASSES), st.sampled_from([None] + _NOUN_SUFFIXES),
       st.sampled_from([None] + _VERB_SUFFIXES))
def test_normalize_is_idempotent_on_joiner_output(root, cls, noun_suffix, verb_suffix):
    for join in (lambda: join_noun(root, cls, noun_suffix, _NOUN_TABLE), lambda: join_verb(root, verb_suffix)):
        try:
            out = join()
        except InputError:
            continue
        assert sc.normalize(out) == out


# every code point of the Devanagari block (the dandas included), Latin
# and a space
_word = st.lists(st.one_of(st.integers(0x0900, 0x097F).map(chr), st.sampled_from("a ")),
                 max_size=6).map("".join)


@settings(deadline=None)
@given(_word)
def test_check_word_matches_loop_reference(word):
    assert _outcome(sc._check_word, word) == _outcome(_reference_check_word, word)


@settings(deadline=None)
@given(st.one_of(_word, _text), st.sampled_from((*REF_GENDERS, "F", "x")), st.booleans(),
       st.one_of(st.none(), st.sampled_from((*REF_NOUN_CLASSES, "a", "Z"))))
def test_morphology_returns_or_raises_an_input_error(root, gender, countable, override):
    """So `classify` and `paradigm` exit 1 on a bad root, gender or class
    override, never 2."""
    try:
        entry = NounLexEntry(root, gender, countable, override)
        classify_noun(entry)
        noun_paradigm(entry, _NOUN_TABLE)
    except InputError:
        pass
    try:
        verb_paradigm(VerbLexEntry(root, "x"), _VERB_TABLE)
    except InputError:
        pass


# --- the token rule ---

def _reference_token_error(surface, factors):
    """The FactoredToken class's check before the rule moved to
    script_core: the message it raised, or None."""
    if not surface:
        return "token with empty surface"
    if "|" in surface:
        return f"surface {surface!r} contains the factor separator"
    if factors and any(ch.isspace() for ch in surface):
        return f"factored token surface {surface!r} contains whitespace"
    for f in factors:
        if not f:
            return "empty factor string"
        if "|" in f or any(ch.isspace() for ch in f):
            return f"factor {f!r} contains separator or whitespace"
    return None


# every isspace() character (" " included), half the time; else the
# separator, Latin or Devanagari
_SPACES = [chr(cp) for cp in range(sys.maxunicode + 1) if chr(cp).isspace()]
_token_text = st.text(st.one_of(st.sampled_from(_SPACES), st.sampled_from(["a", "|", "क", "ि"])),
                      max_size=4)


@settings(deadline=None)
@given(_token_text, st.lists(_token_text, max_size=3))
@example("a\xa0b", [])
@example("will walk", [])
@example("will  walk", [])
@example(" a", [])
@example("a\u2028", ["x"])
@example("", ["a b"])
def test_token_error_is_the_factored_token_rule(surface, factors):
    got = sc.token_error(surface, factors)
    expected = _reference_token_error(surface, factors)
    if not factors and expected is None:
        # the one change: a surface with no factors is words joined by
        # single spaces, so it holds no whitespace but " ", and no " " at
        # either end or beside another
        if any(ch.isspace() and ch != " " for ch in surface):
            expected = f"surface {surface!r} contains whitespace other than ' '"
        elif "" in surface.split(" "):
            expected = f"surface-only side {surface!r} is not words joined by single spaces"
    assert got == expected
    # the tests' reference token checks with the same rule
    assert _outcome(FactoredToken, surface, tuple(factors)) == (
        ("InputError", got) if got else ("ok", FactoredToken(surface, tuple(factors))))
    # the line patterns accept exactly the tokens it passes; a corpus
    # token never holds " ", which separates tokens
    token = "|".join([surface, *factors])
    matched = re.fullmatch(sc.token_pattern(len(factors)), token) is not None
    assert matched == (got is None and " " not in token)
