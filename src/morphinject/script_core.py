"""Devanagari text utilities: ending classes, vowel forms, canonical text.

The joiners in the noun/verb modules rest on two primitives defined
here. `ending_of` classifies a word's ending and checks it as a
Devanagari word, naming the first bad codepoint. `tail_match` checks
the same rule and splits off the word's tail, the only part a joiner
reads or rewrites, so the paradigms join each tail once; a root it
rejects goes to `ending_of` for its message.
`shorten_final_vowel` shortens the long final vowel of a word whose
ending is already classified, and checks nothing. Words are kept in a
canonical form: Unicode NFC, except that consonant+nukta pairs are
re-composed to the precomposed letter where Unicode defines one (NFC
itself decomposes U+0958..U+095F, which would split e.g. ड़ into two
codepoints).

The one factored-token rule is here: a token is the text
surface|factor|..., `token_pattern` matches a valid one, and
`token_error` names the first problem of any other, for the corpus,
the dictionary and annotate alike.

Every input file is read here too: `read_lines` holds the one line rule
(UTF-8, split on "\n" only, no "\r"), and `table_rows` is the one row
reader shared by the data tables, the lexicons and the dictionary, so a
bad row in any of them is reported as file:line. The closed value sets
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

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only: no call loads typing or pathlib
    from pathlib import Path
    from typing import TextIO

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

# Nasalization marks that may trail a word's final vowel; visarga behaves
# the same way for ending classification.
_TRAILING_MARKS = frozenset({ANUSVARA, CHANDRABINDU, VISARGA, "ऀ"})
_NASALS = frozenset({ANUSVARA, CHANDRABINDU})

_CONSONANT_RANGES = (
    (0x0915, 0x0939),  # क .. ह
    (0x0958, 0x095F),  # precomposed nukta letters क़ .. य़
    (0x0979, 0x097F),  # rare extensions (ॹ etc.)
)
_EXTRA_CONSONANTS = frozenset({0x0929, 0x0931, 0x0934})  # ऩ ऱ ऴ

_INDEPENDENT_VOWELS = frozenset(
    list(range(0x0904, 0x0915)) + [0x0960, 0x0961, 0x0972]
)
_MATRAS = frozenset(
    list(range(0x093E, 0x094D)) + [0x094E, 0x094F, 0x0962, 0x0963]
)

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


def is_consonant(ch: str) -> bool:
    cp = ord(ch)
    if cp in _EXTRA_CONSONANTS:
        return True
    return any(lo <= cp <= hi for lo, hi in _CONSONANT_RANGES)


def is_independent_vowel(ch: str) -> bool:
    return ord(ch) in _INDEPENDENT_VOWELS


def is_matra(ch: str) -> bool:
    return ord(ch) in _MATRAS


def is_devanagari(ch: str) -> bool:
    return 0x0900 <= ord(ch) <= 0x097F


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


# word content: the Devanagari block minus the danda marks (U+0964, U+0965)
_WORD = re.compile("[\u0900-\u0963\u0966-\u097f]+")


def _check_word(word: str) -> None:
    if _WORD.fullmatch(word):
        return
    # the first offending codepoint, for the message
    if not word:
        raise InputError("empty word")
    for i, ch in enumerate(word):
        if not is_devanagari(ch):
            raise InputError(f"non-Devanagari codepoint U+{ord(ch):04X} at offset {i}")
        if ch in ("।", "॥"):  # danda marks are punctuation, not word content
            raise InputError(f"punctuation {ch!r} at offset {i}")


@cache
def tail_match():
    """fullmatch for a Devanagari word (the rule `ending_of` checks)
    whose group 1 is the word's tail: its last codepoint before any
    trailing marks (U+0900..U+0903) with those marks, or the whole word
    if it is only marks. The joiners read and rewrite only the tail, and
    a tail has the word's ending. Compiled on first use."""
    return re.compile(
        "(?:[\u0900-\u0963\u0966-\u097f]*(?=[\u0904-\u0963\u0966-\u097f]))?"
        "([\u0900-\u0963\u0966-\u097f][\u0900-\u0903]*)").fullmatch


def strip_final_nasal(word: str) -> tuple[str, str]:
    """Split off word-final nasalization/visarga marks: ('कुआ', 'ँ')."""
    i = len(word)
    while i > 0 and word[i - 1] in _TRAILING_MARKS:
        i -= 1
    return word[:i], word[i:]


def ending_of(word: str) -> str:
    """Classify a word by its final vowel sign / final codepoint: "aa",
    "ii", "i", "uu", "u", "e", "o", "consonant" or "other".

    Word-final nasalization and visarga are transparent: they belong to
    the final syllable, so the vowel beneath them decides the category.
    """
    _check_word(word)
    body, _ = strip_final_nasal(word)
    if not body:
        return "other"
    last = body[-1]
    if last in _ENDING_BY_CODEPOINT:
        return _ENDING_BY_CODEPOINT[last]
    return "consonant" if is_consonant(last) else "other"


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


def contains_nasal(s: str) -> bool:
    return any(ch in _NASALS for ch in s)


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


@cache
def line_pattern(width: int) -> re.Pattern:
    """The compiled pattern of a valid line: tokens of `width` factors,
    one " " between two. Compiled on first use."""
    token = token_pattern(width)
    return re.compile(rf"{token}(?: {token})*")


def token_error(surface: str, factors: Sequence[str]) -> str | None:
    """The first problem of a token, given as its text split at "|", or
    None: the one token rule. The surface and every factor are non-empty
    and hold no "|" and no whitespace, except that the surface of a
    token with no factors may hold " " ("will walk")."""
    if not surface:
        return "token with empty surface"
    if "|" in surface:
        return f"surface {surface!r} contains the factor separator"
    if not factors:
        if _SPACE_BUT_SEPARATOR_IN(surface):
            return f"surface {surface!r} contains whitespace other than ' '"
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

def read_lines(source, name: str | None = None) -> list[str]:
    """The lines of a UTF-8 text file, split on "\n" only; a final "\n"
    ends the last line. `source` is a path (a str or a Path) or an open
    text stream, and `name` (default: the path) starts every error:
    a file that cannot be read, bytes that are not UTF-8, or a "\r"
    anywhere is an InputError."""
    if name is None:
        name = str(source)
    try:
        if hasattr(source, "read"):
            text = source.read()
        else:
            with open(os.fspath(source), "rb") as fh:
                text = fh.read().decode("utf-8")
    except FileNotFoundError:
        raise InputError(f"{name}: no such file") from None
    except OSError as exc:
        raise InputError(f"{name}: cannot read: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise InputError(
            f"{name}:{line}: not UTF-8 (byte 0x{exc.object[exc.start]:02x})") from None
    cr = text.find("\r")
    if cr >= 0:
        line, col = text.count("\n", 0, cr) + 1, cr - text.rfind("\n", 0, cr)
        raise InputError(f"{name}:{line}:{col}: control character in line")
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def read_table(
    source: str | Path | TextIO | None, default_name: str, columns: tuple[str, ...],
) -> tuple[str, Iterator[tuple[str, list[str]]]]:
    """The name and data rows (see `table_rows`) of a TSV table: the
    packaged file `default_name` when `source` is None, else a path or an
    open text stream."""
    if source is None:
        name, source = default_name, os.path.join(_DATA_DIR, default_name)
    elif hasattr(source, "read"):
        name = getattr(source, "name", "<stream>")
    else:
        name = str(source)
    return name, table_rows(read_lines(source, name), name, columns)


def table_rows(
    lines: Iterable[str], name: str, columns: tuple[str, ...], more: bool = False, start: int = 1,
) -> Iterator[tuple[str, list[str]]]:
    """The data rows of TSV lines as ("name:line", fields), the first
    line being line `start`. Blank and "#" lines are skipped; a row must
    have one field per column (at least that many with `more`), else it
    is an error located by file and line."""
    for lineno, ln in enumerate(lines, start):
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
