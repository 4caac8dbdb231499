"""Property test for the verb suffix table's precomputed paradigm.

The reference below is the table and paradigm that `VerbSuffixTable.rows`
replaced: the grid of each TAM derived again for every verb, with one
wildcard lookup per row. On tables drawn from the packaged one, the two
must give the same rows in the same order, the same lookups, or the same
error. The one allowed difference: a TAM that agrees in gender but names
only one gender loads in the reference and fails each verb's lookup, and
is rejected when the table is built.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import lookup
from morphinject.errors import InputError
from morphinject.noun_morph import Gender, Number
from morphinject.verb_morph import (
    REPR_NUMBER,
    REPR_PERSON,
    Person,
    TamSlot,
    VerbFactors,
    VerbSuffixTable,
    default_verb_suffix_table,
    join_verb,
    parse_verb_lexicon,
    verb_paradigm,
)

# --- the per-verb reference ---


class _RefTable:
    def __init__(self, cells):
        if not cells:
            raise InputError("verb suffix table is empty")
        self.cells = cells
        self.agreement_spec = {}
        by_tam = {}
        for cell in cells:
            by_tam.setdefault(cell.tam, []).append(cell)
        for tam, tam_cells in by_tam.items():
            dims = tuple(
                dim
                for dim in ("gender", "number", "person")
                if getattr(tam_cells[0], dim) is not None
            )
            for cell in tam_cells:
                cell_dims = tuple(
                    dim
                    for dim in ("gender", "number", "person")
                    if getattr(cell, dim) is not None
                )
                if cell_dims != dims:
                    raise InputError(
                        f"inconsistent collapsed dimensions in {tam.value} rows"
                    )
            seen = set()
            for cell in tam_cells:
                key = (cell.gender, cell.number, cell.person)
                if key in seen:
                    raise InputError("duplicate cell " + "/".join(
                        "-" if v is None else v.value for v in (tam, *key)))
                seen.add(key)
            expected = 1
            for dim in dims:
                expected *= len({getattr(c, dim) for c in tam_cells})
            if len(tam_cells) != expected:
                raise InputError(f"{tam.value} rows do not cover their declared grid")
            self.agreement_spec[tam] = dims
        self._by_tam = by_tam

    def tams(self):
        return [t for t in TamSlot if t in self._by_tam]

    def lookup(self, factors):
        for cell in self._by_tam.get(factors.tam, ()):
            if (
                (cell.gender is None or cell.gender is factors.gender)
                and (cell.number is None or cell.number is factors.number)
                and (cell.person is None or cell.person is factors.person)
            ):
                return cell.suffix
        raise InputError(
            f"factor tuple outside the declared grid: {factors.tam.value}"
            f"/{factors.gender.value}/{factors.number.value}/{factors.person.value}"
        )

    def declared_cells(self, tam):
        return self._by_tam.get(tam, [])


def _ref_paradigm(entry, table):
    rows = []
    for tam in table.tams():
        dims = table.agreement_spec[tam]
        cells = table.declared_cells(tam)
        if "number" in dims:
            numbers = [n for n in Number if any(c.number is n for c in cells)]
        else:
            numbers = [REPR_NUMBER]
        if "person" in dims:
            persons = [p for p in Person if any(c.person is p for c in cells)]
        else:
            persons = [REPR_PERSON]
        for gender in Gender:
            for number in numbers:
                for person in persons:
                    factors = VerbFactors(gender, number, person, tam)
                    suffix = table.lookup(factors)
                    surface = entry.override_for(factors)
                    if surface is None:
                        surface = join_verb(entry.hindi_root, suffix)
                    rows.append((factors, suffix, surface))
    return rows


# --- the property ---

_VERBS = parse_verb_lexicon(["walk\tचल", "go\tजा\tperf:m:sg=गया\tperf:f=गई\tfut:-:pl=जाएँगे"])
_GRID = [VerbFactors(g, n, p, t) for t in TamSlot for g in Gender for n in Number for p in Person]
_DIMS = ("gender", "number", "person")


def _outcome(fn):
    try:
        return ("ok", fn())
    except InputError as exc:
        return ("error", str(exc))


def _lookups(table):
    return [_outcome(lambda: table.lookup(f)) for f in _GRID]


def _cell_lookups(table):
    """The lookups of `_lookups`, found in the cells the table kept."""
    return [_outcome(lambda: lookup(table, f)) for f in _GRID]


@st.composite
def _cells(draw):
    """The packaged table's cells with cells dropped, duplicated,
    re-collapsed, reduced to one gender or reordered."""
    cells = list(default_verb_suffix_table().cells)
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(
            ["drop", "duplicate", "collapse", "collapse-tam", "one-gender"]))
        if not cells:
            break
        if op == "drop":
            del cells[draw(st.integers(0, len(cells) - 1))]
        elif op == "duplicate":
            cell = cells[draw(st.integers(0, len(cells) - 1))]
            cells.insert(draw(st.integers(0, len(cells))), dataclasses.replace(cell))
        elif op == "collapse":
            i = draw(st.integers(0, len(cells) - 1))
            cells[i] = dataclasses.replace(cells[i], **{draw(st.sampled_from(_DIMS)): None})
        elif op == "collapse-tam":
            # every cell of one TAM loses a dimension; the first cell of
            # each remaining key stays, so the result can load
            tam, dim = draw(st.sampled_from(TamSlot)), draw(st.sampled_from(_DIMS))
            keys, kept = set(), []
            for cell in cells:
                if cell.tam is tam:
                    cell = dataclasses.replace(cell, **{dim: None})
                    key = (cell.gender, cell.number, cell.person)
                    if key in keys:
                        continue
                    keys.add(key)
                kept.append(cell)
            cells = kept
        else:
            tam, gender = draw(st.sampled_from(TamSlot)), draw(st.sampled_from(Gender))
            cells = [c for c in cells if c.tam is not tam or c.gender is not gender]
    if draw(st.booleans()):
        cells = draw(st.permutations(cells))
    return cells


def _one_gender_tams(cells):
    return [tam for tam in TamSlot
            if len({c.gender for c in cells if c.tam is tam} - {None}) == 1]


@settings(deadline=None)
@given(_cells())
def test_table_rows_match_the_per_verb_reference(cells):
    new = _outcome(lambda: VerbSuffixTable(cells))
    ref = _outcome(lambda: _RefTable(cells))
    if new[0] == "ok":
        assert ref[0] == "ok"
        assert _cell_lookups(new[1]) == _lookups(ref[1])
        for verb in _VERBS:
            assert verb_paradigm(verb, new[1]) == _ref_paradigm(verb, ref[1])
        assert [(f, s) for f, s, _ in verb_paradigm(_VERBS[0], new[1])] == [
            (f, s) for f, _, s in new[1].rows]
        assert [values for _, values, _ in new[1].rows] == [
            (f.number.value, f.person.value, f.tam.value) for f, _, _ in new[1].rows]
    elif ref[0] == "error":
        assert new == ref
    else:
        # the one allowed difference: a one-gender TAM, rejected at load
        tam = _one_gender_tams(cells)[0]
        (gender,) = {c.gender for c in cells if c.tam is tam} - {None}
        assert new[1] == (f"{tam.value} rows name only gender {gender.value}; "
                          "a TAM that agrees in gender needs both")
        for verb in _VERBS:
            message = _outcome(lambda: _ref_paradigm(verb, ref[1]))[1]
            assert message.startswith(f"factor tuple outside the declared grid: {tam.value}/")
