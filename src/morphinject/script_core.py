"""Devanagari text utilities: ending classes, vowel forms, canonical text.

The joiners in the noun/verb modules rest on two primitives defined
here. `tail_match` checks a string as a Devanagari word and matches
the word's tail, the only part a joiner reads or rewrites.
`split_tail`, the one head/tail split both paradigms call, returns
(head, tail), so that they join each tail once, and raises an error
naming the first bad codepoint for a string that is not a word.
`ending_of` classifies a word's ending by the first codepoint of that
tail, so it checks the same rule and raises the same error. The
character classes the joiners read (CONSONANTS, INDEPENDENT_VOWELS,
MATRAS, NASALS) are frozensets of characters, tested by membership.
LONG_ENDINGS, the endings whose long vowel shortens before a suffix,
is stated here once for both joiners; `shorten_final_vowel` shortens
that vowel in a word whose ending is already classified, and checks
nothing. Words are kept in a canonical form: Unicode NFC, except that
consonant+nukta pairs are re-composed to the precomposed letter where
Unicode defines one (NFC itself decomposes U+0958..U+095F, which would
split e.g. ड़ into two codepoints).

The one token rule is here: `token_error` alone names the first
problem of a token surface|factor|..., or of a surface-only side (words
joined by single spaces), for the corpus, the dictionary and annotate
alike.

Every input file is read here too, from its path: `read_lines` holds
the one line rule (UTF-8, split on "\n" only, no "\r", no leading byte
order mark), and `table_rows` is the one row reader shared by the data
tables, the lexicons and the dictionary, so a bad row in any of them is
reported as file:line. The closed value sets
of the factors (NUMBERS, CASES, GENDERS, PERSONS, TAMS) are tuples of
strings, in order, and `table_value` checks a cell against one of them.
"""

from __future__ import annotations

import os
import re
import unicodedata
from collections.abc import Iterable, Iterator, Sequence
from contextlib import contextmanager
from functools import cache

from .errors import InputError

NULL_SUFFIX_MARK = "-"  # the null suffix in a data table

# the packaged data tables; read as files, since importlib.resources
# imports inspect on Python 3.12 and later
_DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

# the null factor, and a surface or a factor of a factored token: no
# separator, no whitespace (\s matches exactly the characters for which
# str.isspace() is true)
NULL_FACTOR = "null"
TOKEN_PART = r"[^\s|]+"
_SPACE_IN = re.compile(r"\s").search
_SPACE_BUT_SEPARATOR_IN = re.compile(r"[^\S ]").search

NUKTA = "़"
ANUSVARA = "ं"
CHANDRABINDU = "ँ"
VISARGA = "ः"

NASALS = frozenset({ANUSVARA, CHANDRABINDU})

# the character classes the joiners read
CONSONANTS = frozenset(map(chr, (
    *range(0x0915, 0x093A),  # क .. ह, ऩ ऱ ऴ among them
    *range(0x0958, 0x0960),  # precomposed nukta letters क़ .. य़
    *range(0x0979, 0x0980),  # rare extensions (ॹ etc.)
)))
INDEPENDENT_VOWELS = frozenset(map(chr, (*range(0x0904, 0x0915), 0x0960, 0x0961, 0x0972)))
MATRAS = frozenset(map(chr, (*range(0x093E, 0x094D), 0x094E, 0x094F, 0x0962, 0x0963)))

# consonant + nukta -> precomposed letter (the pairs Unicode defines)
_NUKTA_COMPOSED = {
    "न": "ऩ",
    "र": "ऱ",
    "ळ": "ऴ",
    "क": "क़",
    "ख": "ख़",
    "ग": "ग़",
    "ज": "ज़",
    "ड": "ड़",
    "ढ": "ढ़",
    "फ": "फ़",
    "य": "य़",
}

MATRA_OF_VOWEL = {
    "आ": "ा",
    "इ": "ि",
    "ई": "ी",
    "उ": "ु",
    "ऊ": "ू",
    "ऋ": "ृ",
    "ए": "े",
    "ऐ": "ै",
    "ओ": "ो",
    "औ": "ौ",
    "ऍ": "ॅ",
    "ऑ": "ॉ",
    "अ": "",        # अ is the inherent vowel: no matra
}
VOWEL_OF_MATRA = {m: v for v, m in MATRA_OF_VOWEL.items() if m}

# Matras rendered (partly) above the headline. A chandrabindu following
# one of these is conventionally written as anusvara (रातें, not रातेँ).
_ABOVE_LINE_MATRAS = frozenset(
    {"ि", "ी", "े", "ै", "ो", "ौ", "ॅ", "ॉ"}
)

# the endings whose long final vowel shortens before a suffix, and the
# vowel each long one shortens to
LONG_ENDINGS = ("ii", "uu")
_SHORTEN = {
    "ी": "ि",
    "ू": "ु",
    "ा": "",        # ा -> inherent अ
    "ई": "इ",
    "ऊ": "उ",
    "आ": "अ",
}


# the closed value sets of the factors, in order
NUMBERS = ("sg", "pl")
CASES = ("dir", "obl")
GENDERS = ("m", "f")
PERSONS = ("1", "2", "3")
TAMS = ("inf", "hab", "perf", "fut", "subj", "imp")

# a word's ending category (see ending_of) by its final vowel or vowel
# sign; a word may also end in "consonant" or "other"
_ENDING_BY_CODEPOINT = {
    "ा": "aa",
    "आ": "aa",
    "ी": "ii",
    "ई": "ii",
    "ि": "i",
    "इ": "i",
    "ू": "uu",
    "ऊ": "uu",
    "ु": "u",
    "उ": "u",
    "े": "e",
    "ए": "e",
    "ो": "o",
    "ओ": "o",
}


def normalize(text: str) -> str:
    """Bring text to the toolkit's canonical form.

    Zero-width (non-)joiners are dropped, then NFC is applied, then
    consonant+nukta pairs are re-composed to the precomposed letter
    (ड+़ -> ड़). Dropping the joiners first keeps the result in canonical
    order, so normalize(normalize(t)) == normalize(t). Note the result
    is deliberately *not* strict NFC for nukta letters: keeping them as
    single codepoints lets every joiner rule treat a consonant as one
    unit.
    """
    if (unicodedata.is_normalized("NFC", text)
            and NUKTA not in text and "\u200c" not in text and "\u200d" not in text):
        return text  # already canonical: nothing below would change it
    text = unicodedata.normalize("NFC", text.replace("\u200c", "").replace("\u200d", ""))
    out = []
    for ch in text:
        if ch == NUKTA and out and out[-1] in _NUKTA_COMPOSED:
            out[-1] = _NUKTA_COMPOSED[out[-1]]
        else:
            out.append(ch)
    return "".join(out)


def _check_word(word: str) -> None:
    if tail_match()(word):
        return
    # the first offending codepoint, for the message
    if not word:
        raise InputError("empty word")
    for i, ch in enumerate(word):
        if not "\u0900" <= ch <= "\u097f":
            raise InputError(f"non-Devanagari codepoint U+{ord(ch):04X} at offset {i}")
        if ch in ("।", "॥"):  # danda marks are punctuation, not word content
            raise InputError(f"punctuation {ch!r} at offset {i}")


@cache
def tail_match():
    """fullmatch for a Devanagari word, a run of the Devanagari block
    minus the danda marks (the rule `ending_of` checks), whose group 1
    is the word's tail: its last codepoint before any trailing marks
    (U+0900..U+0903) with those marks, or the whole word if it is only
    marks. The joiners read and rewrite only the tail, and a tail has
    the word's ending. Compiled on first use."""
    return re.compile(
        "(?:[\u0900-\u0963\u0966-\u097f]*(?=[\u0904-\u0963\u0966-\u097f]))?"
        "([\u0900-\u0963\u0966-\u097f][\u0900-\u0903]*)").fullmatch


def split_tail(word: str) -> tuple[str, str]:
    """(head, tail) with head + tail == word, the tail `tail_match`'s
    group 1; a string that is not a Devanagari word raises an error that
    names its first bad codepoint ("empty word" for "")."""
    match = tail_match()(word)
    if match is None:
        _check_word(word)
    start = match.start(1)
    return word[:start], word[start:]


def ending_of(word: str) -> str:
    """Classify a word by its final vowel sign / final codepoint: "aa",
    "ii", "i", "uu", "u", "e", "o", "consonant" or "other".

    Word-final nasalization and visarga are transparent: they belong to
    the final syllable, so the vowel beneath them, the first codepoint of
    the word's tail (see `split_tail`), decides the category. A word
    that is only those marks is "other".
    """
    last = split_tail(word)[1][0]
    return _ENDING_BY_CODEPOINT.get(last) or ("consonant" if last in CONSONANTS else "other")


def matra_form(suffix: str) -> str:
    """Rewrite a vowel-initial suffix for attachment to a consonant.

    The leading independent vowel becomes its matra (ओं -> ों); a
    chandrabindu directly after an above-the-line matra becomes anusvara
    (एँ -> ें). Consonant-initial suffixes pass through unchanged.
    """
    if not suffix or suffix[0] not in MATRA_OF_VOWEL:
        return suffix
    matra = MATRA_OF_VOWEL[suffix[0]]
    rest = suffix[1:]
    if rest[:1] == CHANDRABINDU and matra in _ABOVE_LINE_MATRAS:
        rest = ANUSVARA + rest[1:]
    return matra + rest


def independent_form(suffix: str) -> str:
    """Inverse of matra_form: rewrite a matra-initial suffix to start with
    an independent vowel, for attachment after a vowel (ें -> एँ)."""
    if not suffix or suffix[0] not in VOWEL_OF_MATRA:
        return suffix
    vowel = VOWEL_OF_MATRA[suffix[0]]
    rest = suffix[1:]
    if rest[:1] == ANUSVARA and vowel == "ए":
        # चलें -> खाएँ: anusvara reverts to chandrabindu over bare ए
        # (ओं keeps its anusvara: कुओं)
        rest = CHANDRABINDU + rest[1:]
    return vowel + rest


def shorten_final_vowel(body: str) -> str:
    """Shorten the final vowel of a word that ends in ा, ी, ू or an
    independent आ, ई, ऊ, with no nasal mark after it (लड़की -> लड़कि,
    भाई -> भाइ). Unchecked: the caller has classified the ending."""
    return body[:-1] + _SHORTEN[body[-1]]


# --- factored tokens ---

def token_pattern(width: int) -> str:
    """Regex for one token: a surface and `width` factors. It matches
    exactly the tokens `token_error` passes that hold no " ", which
    separates the tokens of a line."""
    return TOKEN_PART + rf"\|{TOKEN_PART}" * width  # unrolled: {width} matches slower


@cache
def token_match(width: int):
    """`token_pattern(width)`'s compiled fullmatch, compiled on first use:
    a match for a valid token, None for any other string, "" included."""
    return re.compile(token_pattern(width)).fullmatch


def token_error(surface: str, factors: Sequence[str]) -> str | None:
    """The first problem of a token, given as its text split at "|", or
    None: the one token rule. The surface and every factor are non-empty
    and hold no "|" and no whitespace, except that the surface of a
    token with no factors, a surface-only side, is words joined by single
    spaces ("will walk")."""
    if not surface:
        return "token with empty surface"
    if "|" in surface:
        return f"surface {surface!r} contains the factor separator"
    if not factors:
        if _SPACE_BUT_SEPARATOR_IN(surface):
            return f"surface {surface!r} contains whitespace other than ' '"
        if "" in surface.split(" "):
            return f"surface-only side {surface!r} is not words joined by single spaces"
        return None
    if _SPACE_IN(surface):
        return f"factored token surface {surface!r} contains whitespace"
    for f in factors:
        if not f:
            return "empty factor string"
        if "|" in f or _SPACE_IN(f):
            return f"factor {f!r} contains separator or whitespace"
    return None


# --- input files ---

def read_lines(path: str | os.PathLike, name: str | None = None) -> list[str]:
    """The lines of a UTF-8 text file, split on "\n" only; a final "\n"
    ends the last line. `path` is a str or a PathLike, and `name` (default:
    the path) starts every error: a file that cannot be read, bytes that
    are not UTF-8, a leading byte order mark or a "\r" anywhere is an
    InputError."""
    if name is None:
        name = os.fspath(path)
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
    except FileNotFoundError:
        raise InputError(f"{name}: no such file") from None
    except OSError as exc:
        raise InputError(f"{name}: cannot read: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise InputError(
            f"{name}:{line}: not UTF-8 (byte 0x{exc.object[exc.start]:02x})") from None
    if text.startswith("\ufeff"):  # rejected, not stripped: corpus bytes stay as read
        raise InputError(f"{name}:1:1: byte order mark")
    cr = text.find("\r")
    if cr >= 0:
        line, col = text.count("\n", 0, cr) + 1, cr - text.rfind("\n", 0, cr)
        raise InputError(f"{name}:{line}:{col}: control character in line")
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def read_table(
    path: str | os.PathLike | None, default_name: str, columns: tuple[str, ...],
) -> tuple[str, Iterator[tuple[str, list[str]]]]:
    """The name and data rows (see `table_rows`) of the TSV file at `path`,
    or of the packaged file `default_name` when `path` is None."""
    if path is None:
        name, path = default_name, os.path.join(_DATA_DIR, default_name)
    else:
        name = os.fspath(path)
    return name, table_rows(read_lines(path, name), name, columns)


def table_rows(
    lines: Iterable[str], name: str, columns: tuple[str, ...], more: bool = False,
) -> Iterator[tuple[str, list[str]]]:
    """The data rows of TSV lines as ("name:line", fields). Blank and "#"
    lines are skipped; a row must have one field per column (at least that
    many with `more`), else it is an error located by file and line."""
    for lineno, ln in enumerate(lines, 1):
        if not ln.strip() or ln.lstrip().startswith("#"):
            continue
        where = f"{name}:{lineno}"
        fields = ln.split("\t")
        if len(fields) < len(columns) or len(fields) > len(columns) and not more:
            raise InputError(
                f"{where}: expected {'at least ' if more else ''}{len(columns)} "
                f"tab-separated fields ({', '.join(columns)}), got {len(fields)}"
            )
        yield where, fields


def table_value(values: tuple[str, ...], what: str, value: str, where: str,
                null: str | None = None) -> str | None:
    """`value` if it is one of `values`, None for the `null` mark; any
    other value is an error at `where`."""
    if value == null:
        return None
    if value not in values:
        raise InputError(f"{where}: {bad_value(values + ((null,) if null else ()), what, value)}")
    return value


def bad_value(values: tuple[str, ...], what: str, value) -> str:
    """The message for a `what` that is none of `values`."""
    return f"bad {what} {value!r} (expected one of {', '.join(values)})"


def table_word(value: str, where: str, what: str) -> str:
    """`value` normalized, which must be a Devanagari word (the rule
    `ending_of` checks), else an error at `where` that names `what`."""
    word = normalize(value)
    try:
        _check_word(word)
    except InputError as exc:
        raise InputError(f"{where}: bad {what}: {exc}") from None
    return word


def table_suffix(value: str, where: str) -> str | None:
    """A suffix cell of a data table: None for the null mark, else the
    checked word (see `table_word`)."""
    if value == NULL_SUFFIX_MARK:
        return None
    return table_word(value, where, f"suffix {value!r}")


@contextmanager
def located(name: str):
    """Prefix an input error raised in the block with `name`."""
    try:
        yield
    except InputError as exc:
        raise InputError(f"{name}: {exc}") from None
