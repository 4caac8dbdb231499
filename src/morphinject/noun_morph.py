"""Hindi noun inflection: class prediction, suffix grid, joiner, paradigms.

Nouns fall into five inflection classes (A..E). Class A never inflects;
the others share a 2x2 number/case grid whose suffixes live in a TSV
data file so corrections never require code changes. The joiner builds
the surface form from root + suffix using only the root's ending and
the class as features.

A SuffixTable normalizes its suffixes and lays out each class's
paradigm as (number, case, suffix) string rows once, when it is built.
`noun_paradigm` walks those rows with a root that NounLexEntry has
already normalized, works out the root's ending once, so that every
root is checked as a Devanagari word whatever its class, and returns
(number, case, suffix, surface) string tuples. The public `join_noun`
normalizes its inputs and checks the suffix against the class's column;
a suffix taken from the table is legal by construction.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from functools import cache
from pathlib import Path
from typing import Iterable, TextIO

from . import script_core as sc
from .errors import EmptyRoot, IllegalSuffixForClass, InputError
from .script_core import NULL_SUFFIX_MARK


class NounClass(Enum):
    A = "A"
    B = "B"
    C = "C"
    D = "D"
    E = "E"


class Number(Enum):
    SINGULAR = "sg"
    PLURAL = "pl"


class Case(Enum):
    DIRECT = "dir"
    OBLIQUE = "obl"


class Gender(Enum):
    MASCULINE = "m"
    FEMININE = "f"


# Fixed paradigm slot order: sg-dir, sg-obl, pl-dir, pl-obl.
PARADIGM_SLOTS = (
    (Number.SINGULAR, Case.DIRECT),
    (Number.SINGULAR, Case.OBLIQUE),
    (Number.PLURAL, Case.DIRECT),
    (Number.PLURAL, Case.OBLIQUE),
)


class NounLexEntry(namedtuple("NounLexEntry", "hindi_root gender countable class_override")):
    """A noun's root, stored normalized, and what decides its class."""

    __slots__ = ()

    def __new__(cls, hindi_root: str, gender: Gender, countable: bool = True,
                class_override: NounClass | None = None):
        if not hindi_root.strip():
            raise EmptyRoot("noun entry with empty root")
        return tuple.__new__(cls, (sc.normalize(hindi_root), gender, countable, class_override))


class SuffixTable:
    """The class x number x case suffix grid (None = null suffix), its
    suffixes normalized. `rows[cls]` is that class's paradigm as
    (number, case, suffix) strings in PARADIGM_SLOTS order."""

    def __init__(self, cells: dict[tuple[NounClass, Number, Case], str | None]):
        for cls in NounClass:
            for number, case in PARADIGM_SLOTS:
                key = (cls, number, case)
                if key not in cells:
                    raise InputError(f"suffix table missing cell {cls.value}/{number.value}/{case.value}")
        for number, case in PARADIGM_SLOTS:
            if cells[(NounClass.A, number, case)] is not None:
                raise InputError("class A cells must all be null")
        for cls in NounClass:
            if cells[(cls, Number.SINGULAR, Case.DIRECT)] is not None:
                raise InputError("sg-dir cell must be null for every class")
        self.cells = {key: None if s is None else sc.normalize(s) for key, s in cells.items()}
        self.rows = {
            cls: tuple((number.value, case.value, self.cells[(cls, number, case)])
                       for number, case in PARADIGM_SLOTS)
            for cls in NounClass
        }
        self._legal = {
            cls: frozenset(s for _, _, s in rows if s is not None) for cls, rows in self.rows.items()
        }

    def legal_suffixes(self, cls: NounClass) -> frozenset[str]:
        return self._legal[cls]


def load_suffix_table(source: str | Path | TextIO | None = None) -> SuffixTable:
    """Load a suffix table from TSV (class, number, case, suffix); the
    packaged one when `source` is None. A suffix is "-" (null) or a
    Devanagari word."""
    name, rows = sc.read_table(source, "noun_suffixes.tsv", ("class", "number", "case", "suffix"))
    cells: dict[tuple[NounClass, Number, Case], str | None] = {}
    for where, (cls, number, case, suffix) in rows:
        key = (
            NounClass(sc.table_value(NounClass, "class", cls, where)),
            Number(sc.table_value(Number, "number", number, where)),
            Case(sc.table_value(Case, "case", case, where)),
        )
        if key in cells:
            raise InputError(f"{where}: duplicate cell {cls}/{number}/{case}")
        cells[key] = sc.table_suffix(suffix, where)
    with sc.located(name):
        return SuffixTable(cells)


@cache
def default_suffix_table() -> SuffixTable:
    """The packaged suffix table, loaded once."""
    return load_suffix_table()


_I_ENDINGS = (sc.EndingCategory.LONG_II, sc.EndingCategory.SHORT_I)
_LONG_ENDINGS = (sc.EndingCategory.LONG_II, sc.EndingCategory.LONG_UU)


def classify_noun(entry: NounLexEntry) -> NounClass:
    """Predict the inflection class from gender and the root's ending.

    An explicit override wins; uncountable (mass/abstract) nouns are
    class A, which is not recoverable from gender+ending alone, and an
    override of another class is an error. The root must be a Devanagari
    word whatever its class.
    """
    return _classify(entry, sc.ending_of(entry.hindi_root))


def _classify(entry: NounLexEntry, ending: sc.EndingCategory) -> NounClass:
    """The class of an entry whose root has this ending."""
    if entry.class_override is not None:
        if not entry.countable and entry.class_override is not NounClass.A:
            raise InputError(f"uncountable noun with class override {entry.class_override.value}: "
                             "uncountable nouns are class A")
        return entry.class_override
    if not entry.countable:
        return NounClass.A
    if entry.gender is Gender.FEMININE:
        return NounClass.B if ending in _I_ENDINGS else NounClass.C
    return NounClass.D if ending is sc.EndingCategory.LONG_A else NounClass.E


def join_noun(
    root: str,
    cls: NounClass,
    suffix: str | None,
    table: SuffixTable | None = None,
) -> str:
    """Synthesize the surface form from root + suffix (reverse morphology).

    Dispatch is keyed on (class, root ending):

    * D + aa-ending: the final vowel is replaced by the suffix vowel
      (कुत्ता -> कुत्ते, कुत्तों).
    * B/E + ii-ending: shorten ी -> ि, then append; class E realizes its
      ओं cell as यों on these roots (माली -> मालियों).
    * uu-ending: shorten ू -> ु, then append the independent-vowel
      suffix (बहू -> बहुएँ, आलू -> आलुओं).
    * consonant-ending: the suffix vowel is realized as a matra on the
      final consonant (रात -> रातें, घर -> घरों).
    * anything else: plain append (माला -> मालाएँ).
    """
    root = sc.normalize(root)
    if suffix is None:
        return root
    suffix = sc.normalize(suffix)
    if suffix not in (table or default_suffix_table()).legal_suffixes(cls):
        raise IllegalSuffixForClass(f"suffix {suffix!r} is not in the class-{cls.value} column")
    return _join(root, cls, suffix, sc.ending_of(root))


def _join(root: str, cls: NounClass, suffix: str, ending: sc.EndingCategory) -> str:
    """join_noun for a canonical root with this ending and a canonical,
    legal, non-null suffix."""
    if ending is sc.EndingCategory.CONSONANT:
        return root + sc.matra_form(suffix)
    body, nasal = sc.strip_final_nasal(root)
    if cls is NounClass.D and ending is sc.EndingCategory.LONG_A:
        # the suffix vowel replaces ा as a matra, or आ as a vowel of its own
        suffix = sc.matra_form(suffix) if body[-1] == "ा" else sc.independent_form(suffix)
        body = body[:-1]
    if suffix == "ओं" and cls is NounClass.E and ending in _I_ENDINGS:
        suffix = "यों"
    if ending in _LONG_ENDINGS:
        body = sc.shorten_final_vowel(body)
    # the root's nasal goes after the suffix, unless the suffix has its own
    if nasal and not sc.contains_nasal(suffix):
        suffix += nasal
    return body + suffix


def noun_paradigm(
    entry: NounLexEntry, table: SuffixTable | None = None,
) -> list[tuple[str, str, str | None, str]]:
    """Generate the four (number, case, suffix, surface) rows, in sg-dir,
    sg-obl, pl-dir, pl-obl order; a null suffix is None. The root is
    checked first, whatever its class."""
    table = table or default_suffix_table()
    root = entry.hindi_root
    ending = sc.ending_of(root)
    cls = _classify(entry, ending)
    return [(number, case, suffix, root if suffix is None else _join(root, cls, suffix, ending))
            for number, case, suffix in table.rows[cls]]


class BilingualNoun:
    """An English root, its noun entry, and the "file:line" of the
    lexicon row; two are equal when their roots and entries are."""

    __slots__ = ("english_root", "entry", "where")

    def __init__(self, english_root: str, entry: NounLexEntry, where: str = ""):
        self.english_root = english_root
        self.entry = entry
        self.where = where

    def __eq__(self, other):
        if type(other) is not BilingualNoun:
            return NotImplemented
        return (self.english_root, self.entry) == (other.english_root, other.entry)

    def __repr__(self) -> str:
        return f"BilingualNoun({self.english_root!r}, {self.entry!r}, {self.where!r})"


def parse_noun_lexicon(
    lines: Iterable[str], bilingual: bool = True, name: str = "<noun lexicon>",
) -> list[BilingualNoun]:
    """Parse a noun lexicon TSV; `name` locates errors as name:line.

    Bilingual rows: english_root, hindi_root, gender (m|f), countable
    (1|0), optional class override (A-E). Monolingual rows drop the
    english_root column. Rows without a gender are rejected, not
    guessed.
    """
    columns = ("english_root", "hindi_root", "gender")[0 if bilingual else 1:]
    out = []
    for where, fields in sc.table_rows(lines, name, columns, more=True):
        english = fields.pop(0) if bilingual else ""
        root, gender, *rest = fields
        gender = Gender(sc.table_value(Gender, "gender", gender, where))
        countable = True
        if rest and rest[0] != "":
            if rest[0] not in ("0", "1"):
                raise InputError(f"{where}: countable must be 1 or 0")
            countable = rest[0] == "1"
        override = None
        if len(rest) > 1 and rest[1] != "":
            override = sc.table_value(NounClass, "class", rest[1], where, null=NULL_SUFFIX_MARK)
            override = override and NounClass(override)
        with sc.located(where):
            out.append(BilingualNoun(
                english, NounLexEntry(root, gender, countable, override), where))
    return out
