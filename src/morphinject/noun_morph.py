"""Hindi noun inflection: class prediction, suffix grid, joiner, paradigms.

Nouns fall into five inflection classes (A..E). Class A never inflects;
the others share a 2x2 number/case grid whose suffixes live in a TSV
data file so corrections never require code changes. The joiner builds
the surface form from root + suffix using only the root's ending and
the class as features. A class is its letter, and a gender, number or
case its string (see script_core.GENDERS).

A SuffixTable normalizes its suffixes and lays out each class's
paradigm as (number, case, suffix) string rows once, when it is built.
`noun_paradigm` takes a root that NounLexEntry has already normalized,
checks it as a Devanagari word whatever its class, as
script_core.split_tail splits it into head and tail, and returns
(number, case, suffix, surface) string tuples. The joiner reads and
rewrites only the tail, so the table joins a tail to a class's
suffixes the first time it sees that (class, tail), and keeps the
tail's ending and the joined rows; a root's surface is its head plus
its joined tail. The public `join_noun` normalizes its inputs, checks
the root whatever the suffix, and checks the suffix against the class's
column; a suffix taken from the table is legal by construction. Both
take the table as an argument: `load_suffix_table` gives the packaged
one or one from a file, and the module keeps no table of its own.

`parse_noun_lexicon` checks each row once, cell by cell, as it is read:
it skips a blank or "#" line, and the first bad cell of any other is an
error at name:line. A row that passes becomes its entry directly, so
NounLexEntry does not repeat the checks.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable

from . import script_core as sc
from .errors import InputError
from .script_core import NULL_SUFFIX_MARK


NOUN_CLASSES = ("A", "B", "C", "D", "E")

# Fixed paradigm slot order: sg-dir, sg-obl, pl-dir, pl-obl.
PARADIGM_SLOTS = tuple((number, case) for number in sc.NUMBERS for case in sc.CASES)


class NounLexEntry(namedtuple("NounLexEntry", "hindi_root gender countable class_override")):
    """A noun's root, stored normalized, and what decides its class: its
    gender ("m" or "f"), whether it is countable, and a class letter that
    overrides the predicted one, or None."""

    __slots__ = ()

    def __new__(cls, hindi_root: str, gender: str, countable: bool = True,
                class_override: str | None = None):
        if gender not in sc.GENDERS:
            raise InputError(sc.bad_value(sc.GENDERS, "gender", gender))
        if class_override is not None and class_override not in NOUN_CLASSES:
            raise InputError(sc.bad_value(NOUN_CLASSES, "class", class_override))
        if not hindi_root.strip():
            raise InputError("noun entry with empty root")
        return tuple.__new__(cls, (sc.normalize(hindi_root), gender, countable, class_override))

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make, and so _replace, would skip __new__'s checks
        return cls(*iterable)


class SuffixTable:
    """The class x number x case suffix grid (None = null suffix), its
    suffixes normalized. `rows[cls]` is that class's paradigm as
    (number, case, suffix) strings in PARADIGM_SLOTS order. The table
    memoizes the ending of each root tail it sees (see
    script_core.split_tail) and, per (class, tail), the paradigm rows
    with the tail joined to each suffix, so `cells` and `rows` are
    read-only once it is built."""

    def __init__(self, cells: dict[tuple[str, str, str], str | None]):
        for cls in NOUN_CLASSES:
            for number, case in PARADIGM_SLOTS:
                if (cls, number, case) not in cells:
                    raise InputError(f"suffix table missing cell {cls}/{number}/{case}")
        for number, case in PARADIGM_SLOTS:
            if cells[("A", number, case)] is not None:
                raise InputError("class A cells must all be null")
        for cls in NOUN_CLASSES:
            if cells[(cls, "sg", "dir")] is not None:
                raise InputError("sg-dir cell must be null for every class")
        self.cells = {key: None if s is None else sc.normalize(s) for key, s in cells.items()}
        self.rows = {
            cls: tuple((number, case, self.cells[(cls, number, case)])
                       for number, case in PARADIGM_SLOTS)
            for cls in NOUN_CLASSES
        }
        self._legal = {
            cls: frozenset(s for _, _, s in rows if s is not None) for cls, rows in self.rows.items()
        }
        self._endings: dict[str, str] = {}
        self._forms: dict[tuple[str, str], list[tuple[str, str, str | None, str]]] = {}

    def legal_suffixes(self, cls: str) -> frozenset[str]:
        legal = self._legal.get(cls)
        if legal is None:
            raise InputError(sc.bad_value(NOUN_CLASSES, "class", cls))
        return legal


def load_suffix_table(path: str | None = None) -> SuffixTable:
    """Load a suffix table from the TSV file at `path` (class, number,
    case, suffix); the packaged one when `path` is None. A suffix is "-"
    (null) or a Devanagari word."""
    name, rows = sc.read_table(path, "noun_suffixes.tsv", ("class", "number", "case", "suffix"))
    cells: dict[tuple[str, str, str], str | None] = {}
    for where, (cls, number, case, suffix) in rows:
        key = (
            sc.table_value(NOUN_CLASSES, "class", cls, where),
            sc.table_value(sc.NUMBERS, "number", number, where),
            sc.table_value(sc.CASES, "case", case, where),
        )
        if key in cells:
            raise InputError(f"{where}: duplicate cell {cls}/{number}/{case}")
        cells[key] = sc.table_suffix(suffix, where)
    with sc.located(name):
        return SuffixTable(cells)


_I_ENDINGS = ("ii", "i")
_LONG_ENDINGS = ("ii", "uu")


def classify_noun(entry: NounLexEntry) -> str:
    """Predict the inflection class from gender and the root's ending.

    An explicit override wins; uncountable (mass/abstract) nouns are
    class A, which is not recoverable from gender+ending alone, and an
    override of another class is an error. The root must be a Devanagari
    word whatever its class.
    """
    return _classify(entry, sc.ending_of(entry.hindi_root))


def _classify(entry: NounLexEntry, ending: str) -> str:
    """The class of an entry whose root has this ending."""
    if entry.class_override is not None:
        if not entry.countable and entry.class_override != "A":
            raise InputError(f"uncountable noun with class override {entry.class_override}: "
                             "uncountable nouns are class A")
        return entry.class_override
    if not entry.countable:
        return "A"
    if entry.gender == "f":
        return "B" if ending in _I_ENDINGS else "C"
    return "D" if ending == "aa" else "E"


def join_noun(root: str, cls: str, suffix: str | None, table: SuffixTable) -> str:
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

    The root is checked as a Devanagari word whatever the suffix, after
    the class and the suffix, which must be in the class's column of
    `table`.
    """
    legal = table.legal_suffixes(cls)
    root = sc.normalize(root)
    if suffix is None:
        sc.ending_of(root)  # the root is checked whatever the suffix
        return root
    suffix = sc.normalize(suffix)
    if suffix not in legal:
        raise InputError(f"suffix {suffix!r} is not in the class-{cls} column")
    return _join(root, cls, suffix, sc.ending_of(root))


def _join(root: str, cls: str, suffix: str, ending: str) -> str:
    """join_noun for a canonical root with this ending and a canonical,
    legal, non-null suffix."""
    if ending == "consonant":
        return root + sc.matra_form(suffix)
    body, nasal = sc.strip_final_nasal(root)
    if cls == "D" and ending == "aa":
        # the suffix vowel replaces ा as a matra, or आ as a vowel of its own
        suffix = sc.matra_form(suffix) if body[-1] == "ा" else sc.independent_form(suffix)
        body = body[:-1]
    if suffix == "ओं" and cls == "E" and ending in _I_ENDINGS:
        suffix = "यों"
    if ending in _LONG_ENDINGS:
        body = sc.shorten_final_vowel(body)
    # the root's nasal goes after the suffix, unless the suffix has its own
    if nasal and not sc.contains_nasal(suffix):
        suffix += nasal
    return body + suffix


def noun_paradigm(
    entry: NounLexEntry, table: SuffixTable,
) -> list[tuple[str, str, str | None, str]]:
    """Generate the four (number, case, suffix, surface) rows, in sg-dir,
    sg-obl, pl-dir, pl-obl order; a null suffix is None. The root is
    checked first, whatever its class. A root joins as its head plus its
    joined tail, which the table works out once per (class, tail)."""
    head, tail = sc.split_tail(entry.hindi_root)
    ending = table._endings.get(tail)
    if ending is None:
        ending = table._endings[tail] = sc.ending_of(tail)
    cls = _classify(entry, ending)
    forms = table._forms.get((cls, tail))
    if forms is None:
        forms = table._forms[cls, tail] = [
            (number, case, suffix, tail if suffix is None else _join(tail, cls, suffix, ending))
            for number, case, suffix in table.rows[cls]]
    return [(number, case, suffix, head + form) for number, case, suffix, form in forms]


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
    english_root column. Rows without a gender, and rows with a column
    past the class, are rejected, not guessed or cut.
    """
    columns = ("english_root", "hindi_root", "gender", "countable", "class")[0 if bilingual else 1:]
    out = []
    for where, fields in sc.table_rows(lines, name, columns[:-2], more=True):
        if len(fields) > len(columns):
            raise InputError(f"{where}: expected at most {len(columns)} tab-separated fields "
                             f"({', '.join(columns)}), got {len(fields)}")
        english = fields.pop(0) if bilingual else ""
        root, gender, countable, override = (*fields, "", "")[:4]
        sc.table_value(sc.GENDERS, "gender", gender, where)
        if countable not in ("", "0", "1"):
            raise InputError(f"{where}: countable must be 1 or 0")
        if override:
            override = sc.table_value(NOUN_CLASSES, "class", override, where, null=NULL_SUFFIX_MARK)
        if not root.strip():
            raise InputError(f"{where}: noun entry with empty root")
        # the cells have passed NounLexEntry's checks: build it directly
        out.append(BilingualNoun(english, tuple.__new__(NounLexEntry, (
            sc.normalize(root), gender, countable != "0", override or None)), where))
    return out
