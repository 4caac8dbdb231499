"""Hindi verb inflection over a gender/number/person/TAM factor grid.

Unlike nouns, verbs need no pre-classification: one suffix table applies
to every verb, and the joiner keys only on the ending of the stem. The
table is data-driven TSV; "-" in a factor column collapses that
dimension. English has no grammatical gender on verbs, so the paradigm
holds every English-side factor tuple once per gender.

Factor values are strings, checked against script_core's closed value
sets (TAMS, GENDERS, NUMBERS, PERSONS), in their order, when a table or
lexicon is loaded. A table cell is (tam, gender, number, person,
suffix) in the TSV's column order, None marking a collapsed dimension, and an override
is (tam, gender, number, person, surface), None matching any value. The
table normalizes its suffixes and lays out the paradigm once, when it
is built. `verb_paradigm` takes a stem that VerbLexEntry has already
normalized and checks it as script_core.split_tail splits it into head
and tail. The joiner reads and rewrites only the tail, so the table
joins a tail to every row's suffix the first time it sees that tail,
and a stem's surfaces are its head plus its joined tails; only a verb
with irregular forms looks for an override per row.
`verb_paradigm` takes the table as an argument: `load_verb_suffix_table`
gives the packaged one or one from a file, and the module keeps no
table of its own. The public `join_verb` normalizes its inputs and
checks the stem whatever the suffix; it and the paradigm memo call one
unchecked joiner, as the noun module's do.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable

from . import script_core as sc
from .errors import InputError


# Representative values used for collapsed dimensions when a concrete
# factor tuple is needed (dictionary entries, paradigm rows). These are
# Hindi's least-marked values, matching the annotation defaults.
REPR_NUMBER = "sg"
REPR_PERSON = "3"

# (tam, gender, number, person, suffix) and (tam, gender, number, person, surface)
Cell = tuple[str, str | None, str | None, str | None, str | None]
Override = tuple[str, str | None, str | None, str | None, str]


class VerbLexEntry(namedtuple("VerbLexEntry", "hindi_root english_root irregular_forms")):
    """A verb's stem (the infinitive minus ना), stored normalized, its
    English root and its irregular-form overrides."""

    __slots__ = ()

    def __new__(cls, hindi_root: str, english_root: str,
                irregular_forms: tuple[Override, ...] = ()):
        if not hindi_root.strip():
            raise InputError("verb entry with empty stem")
        return tuple.__new__(cls, (sc.normalize(hindi_root), english_root, irregular_forms))

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make, and so _replace, would skip __new__'s checks
        return cls(*iterable)


# the values of each dimension, in order, by the dimension's cell position
_DIMS = {1: sc.GENDERS, 2: sc.NUMBERS, 3: sc.PERSONS}


class VerbSuffixTable:
    """A checked verb suffix table, its suffixes normalized, and the
    paradigm it declares.

    `rows` holds every verb's paradigm, built once, as (tam, gender,
    number, person, suffix) strings: TAMs in script_core.TAMS order,
    then every gender, then the declared numbers and persons. English
    verbs have no gender, so each English factor tuple appears once per
    gender, and a TAM that agrees in gender must name both. A collapsed number or
    person takes REPR_NUMBER or REPR_PERSON. The table memoizes, per
    root tail (see script_core.split_tail), the rows with the tail joined
    to each suffix, so `cells` and `rows` are read-only once it is built.
    """

    def __init__(self, cells: list[Cell]):
        if not cells:
            raise InputError("verb suffix table is empty")
        cells = [(*key, None if suffix is None else sc.normalize(suffix)) for *key, suffix in cells]
        self.cells = cells
        by_tam: dict[str, list[Cell]] = {}
        for cell in cells:
            by_tam.setdefault(cell[0], []).append(cell)
        for tam, tam_cells in by_tam.items():
            dims = [i for i in _DIMS if tam_cells[0][i] is not None]
            for cell in tam_cells:
                if [i for i in _DIMS if cell[i] is not None] != dims:
                    raise InputError(f"inconsistent collapsed dimensions in {tam} rows")
            seen = set()
            for cell in tam_cells:
                if cell[:4] in seen:
                    raise InputError("duplicate cell " + "/".join(
                        "-" if v is None else v for v in cell[:4]))
                seen.add(cell[:4])
            # totality over the declared grid: every combination of the
            # declared per-dimension values must have a cell
            if len(tam_cells) != math.prod(len({c[i] for c in tam_cells}) for i in dims):
                raise InputError(f"{tam} rows do not cover their declared grid")
        self.rows = [row for tam in sc.TAMS if tam in by_tam for row in _tam_rows(tam, by_tam[tam])]
        self._forms: dict[str, list[tuple[str, str, str, str, str | None, str]]] = {}


def _tam_rows(tam: str, cells: list[Cell]) -> list[Cell]:
    """The paradigm rows of one TAM whose cells passed the table checks."""
    suffixes = {cell[1:4]: cell[4] for cell in cells}
    genders, numbers, persons = (
        [v for v in values if any(c[i] == v for c in cells)] for i, values in _DIMS.items())
    if len(genders) == 1:
        raise InputError(f"{tam} rows name only gender {genders[0]}; "
                         "a TAM that agrees in gender needs both")
    return [
        (tam, gender, number or REPR_NUMBER, person or REPR_PERSON,
         suffixes[gender if genders else None, number, person])
        for gender in _DIMS[1] for number in numbers or [None] for person in persons or [None]
    ]


def load_verb_suffix_table(path: str | None = None) -> VerbSuffixTable:
    """Load a verb suffix table from the TSV file at `path` (tam, gender,
    number, person, suffix); the packaged one when `path` is None. "-" in
    a factor column collapses that dimension; a suffix is "-" (null) or a
    Devanagari word."""
    name, rows = sc.read_table(
        path, "verb_suffixes.tsv", ("tam", "gender", "number", "person", "suffix"))
    cells, seen = [], set()
    for where, (tam, gender, number, person, suffix) in rows:
        key = _slot(tam, gender, number, person, where)
        cell = (*key, sc.table_suffix(suffix, where))
        if key in seen:
            raise InputError(f"{where}: duplicate cell {tam}/{gender}/{number}/{person}")
        seen.add(key)
        cells.append(cell)
    with sc.located(name):
        return VerbSuffixTable(cells)


def _slot(tam: str, gender: str, number: str, person: str, where: str) -> tuple:
    """A checked (tam, gender, number, person); "-" is None."""
    return (sc.table_value(sc.TAMS, "TAM", tam, where),
            sc.table_value(sc.GENDERS, "gender", gender, where, null="-"),
            sc.table_value(sc.NUMBERS, "number", number, where, null="-"),
            sc.table_value(sc.PERSONS, "person", person, where, null="-"))


_U_ENDINGS = ("uu", "u")
_LONG_ENDINGS = ("ii", "uu")


def join_verb(root: str, suffix: str | None) -> str:
    """Attach a suffix to a verb stem, keyed only on the stem's ending.

    Consonant-final stems take the suffix directly, with a leading
    vowel realized as a matra (चल+ता -> चलता, चल+आ -> चला, चल+एगा ->
    चलेगा). Vowel-final stems keep the vowel independent; long ी/ू
    shorten first (पी -> पिया), a य glide is inserted before आ except
    after u-vowels (खाया, सोया vs छुआ), and ी + ई contracts back to ी
    (पी + ई -> पी). The stem is checked as a Devanagari word whatever
    the suffix.
    """
    root = sc.normalize(root)
    return _join(root, None if suffix is None else sc.normalize(suffix), sc.ending_of(root))


def _join(root: str, suffix: str | None, ending: str) -> str:
    """join_verb for a canonical stem with this ending and a canonical
    suffix or None. A null, empty or consonant-initial suffix is appended
    as it is; a matra-initial one has its first vowel written
    independently (ें -> एँ) before the vowel rules below."""
    if not suffix:
        return root
    if not sc.is_independent_vowel(suffix[0]):
        if not sc.is_matra(suffix[0]):
            return root + suffix
        suffix = sc.independent_form(suffix)
    if ending == "consonant":
        return root + sc.matra_form(suffix)
    stem = root
    if ending in _LONG_ENDINGS:
        body, nasal = sc.strip_final_nasal(root)
        stem = sc.shorten_final_vowel(body) + nasal
    if suffix[0] == "आ":  # आ: glide insertion, except after u-vowels
        if ending in _U_ENDINGS:
            return stem + suffix
        return stem + "य" + sc.matra_form(suffix)
    if ending == "ii" and suffix[0] == "ई":
        # ी + ई merges: पी+ई -> पी, पी+ईं -> पीं
        return root + suffix[1:]
    return stem + suffix


def verb_paradigm(
    entry: VerbLexEntry, table: VerbSuffixTable
) -> list[tuple[str, str, str, str, str | None, str]]:
    """Generate (tam, gender, number, person, suffix, surface) rows, one
    per row of the table's paradigm (see VerbSuffixTable), in its order.
    The first irregular-form override that matches a row replaces the
    joiner's output. The stem is checked first, whatever the suffixes. A
    stem joins as its head plus its joined tail, which the table works
    out once per tail.
    """
    head, tail = sc.split_tail(entry.hindi_root)
    forms = table._forms.get(tail)
    if forms is None:
        ending = sc.ending_of(tail)
        forms = table._forms[tail] = [(*row, _join(tail, row[4], ending)) for row in table.rows]
    overrides = entry.irregular_forms
    if not overrides:
        return [(tam, gender, number, person, suffix, head + form)
                for tam, gender, number, person, suffix, form in forms]
    rows = []
    for tam, gender, number, person, suffix, form in forms:
        surface = _override(overrides, tam, gender, number, person)
        rows.append((tam, gender, number, person, suffix,
                     head + form if surface is None else surface))
    return rows


def _override(overrides: tuple[Override, ...], tam: str, gender: str, number: str,
              person: str) -> str | None:
    """The surface of the first override that matches this row, or None."""
    for t, g, n, p, surface in overrides:
        if t == tam and g in (None, gender) and n in (None, number) and p in (None, person):
            return surface
    return None


def parse_verb_lexicon(lines: Iterable[str], name: str = "<verb lexicon>") -> list[VerbLexEntry]:
    """Parse a verb lexicon TSV: english_root, hindi_stem, then optional
    irregular overrides as slot=surface pairs (slot is
    tam[:gender][:number][:person] with "-" wildcards; a slot of more
    parts is an error, and a surface must be a Devanagari word). `name`
    locates errors as name:line."""
    out = []
    for where, (english, stem, *pairs) in sc.table_rows(
            lines, name, ("english_root", "hindi_stem"), more=True):
        overrides = []
        for pair in pairs:
            if not pair.strip():
                continue
            slot, _, surface = pair.partition("=")
            tam, *dims = slot.split(":")
            if "=" not in pair or len(dims) > 3:
                raise InputError(f"{where}: bad override {pair!r}")
            gender, number, person = (dims + ["-"] * 3)[:3]  # absent: a wildcard
            overrides.append((*_slot(tam, gender, number, person, where),
                              sc.table_word(surface, where, f"override {pair!r}")))
        with sc.located(where):
            out.append(VerbLexEntry(stem, english, tuple(overrides)))
    return out
