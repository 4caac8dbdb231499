"""Property test for the verb suffix table's precomputed paradigm.

The reference below is the table and paradigm that `VerbSuffixTable.rows`
replaced: the grid of each TAM derived again for every verb, with one
wildcard lookup per row, over cells held as Cell records. On tables
drawn from the packaged one, the two must give the same rows in the
same order, the same lookups, or the same error. The one allowed difference: a TAM that
agrees in gender but names only one gender loads in the reference and
fails each verb's lookup, and is rejected when the table is built.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    REF_GENDERS,
    REF_NUMBERS,
    REF_PERSONS,
    REF_TAMS,
    Cell,
    VerbFactors,
    lookup,
    ref_verb_paradigm,
)
from morphinject.errors import InputError
from morphinject.verb_morph import (
    VerbSuffixTable,
    load_verb_suffix_table,
    parse_verb_lexicon,
    verb_paradigm,
)

# --- the per-verb reference ---


class _RefTable:
    def __init__(self, cells):
        if not cells:
            raise InputError("verb suffix table is empty")
        cells = [Cell.of(c) for c in cells]
        self.cells = cells
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
                        f"inconsistent collapsed dimensions in {tam} rows"
                    )
            seen = set()
            for cell in tam_cells:
                key = (cell.gender, cell.number, cell.person)
                if key in seen:
                    raise InputError("duplicate cell " + "/".join(
                        "-" if v is None else v for v in (tam, *key)))
                seen.add(key)
            expected = 1
            for dim in dims:
                expected *= len({getattr(c, dim) for c in tam_cells})
            if len(tam_cells) != expected:
                raise InputError(f"{tam} rows do not cover their declared grid")
        self._by_tam = by_tam

    def lookup(self, factors):
        for cell in self._by_tam.get(factors.tam, ()):
            if (
                (cell.gender is None or cell.gender == factors.gender)
                and (cell.number is None or cell.number == factors.number)
                and (cell.person is None or cell.person == factors.person)
            ):
                return cell.suffix
        raise InputError(
            f"factor tuple outside the declared grid: {factors.tam}"
            f"/{factors.gender}/{factors.number}/{factors.person}"
        )


def _ref_paradigm(entry, cells):
    """The reference paradigm, each row rendered as verb_paradigm's."""
    return [(*f.values(), suffix, surface)
            for f, suffix, surface in ref_verb_paradigm(entry, cells)]


# --- the property ---

_VERBS = parse_verb_lexicon(["walk\tचल", "go\tजा\tperf:m:sg=गया\tperf:f=गई\tfut:-:pl=जाएँगे"])
_GRID = [VerbFactors(g, n, p, t)
         for t in REF_TAMS for g in REF_GENDERS for n in REF_NUMBERS for p in REF_PERSONS]
_DIMS = (1, 2, 3)  # gender, number, person: their places in a cell


def _outcome(fn):
    try:
        return ("ok", fn())
    except InputError as exc:
        return ("error", str(exc))


def _lookups(table):
    return [_outcome(lambda: table.lookup(f)) for f in _GRID]


def _cell_lookups(table):
    """The lookups of `_lookups`, found in the cells the table kept."""
    return [_outcome(lambda: lookup(table.cells, f)) for f in _GRID]


@st.composite
def _cells(draw):
    """The packaged table's cells with cells dropped, duplicated,
    re-collapsed, reduced to one gender or reordered."""
    cells = list(load_verb_suffix_table().cells)
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(
            ["drop", "duplicate", "collapse", "collapse-tam", "one-gender"]))
        if not cells:
            break
        if op == "drop":
            del cells[draw(st.integers(0, len(cells) - 1))]
        elif op == "duplicate":
            cell = cells[draw(st.integers(0, len(cells) - 1))]
            cells.insert(draw(st.integers(0, len(cells))), cell)
        elif op == "collapse":
            i = draw(st.integers(0, len(cells) - 1))
            cells[i] = _collapsed(cells[i], draw(st.sampled_from(_DIMS)))
        elif op == "collapse-tam":
            # every cell of one TAM loses a dimension; the first cell of
            # each remaining key stays, so the result can load
            tam, dim = draw(st.sampled_from(REF_TAMS)), draw(st.sampled_from(_DIMS))
            keys, kept = set(), []
            for cell in cells:
                if cell[0] == tam:
                    cell = _collapsed(cell, dim)
                    if cell[1:4] in keys:
                        continue
                    keys.add(cell[1:4])
                kept.append(cell)
            cells = kept
        else:
            tam, gender = draw(st.sampled_from(REF_TAMS)), draw(st.sampled_from(["m", "f"]))
            cells = [c for c in cells if c[0] != tam or c[1] != gender]
    if draw(st.booleans()):
        cells = draw(st.permutations(cells))
    return cells


def _collapsed(cell, dim):
    return (*cell[:dim], None, *cell[dim + 1:])


def _one_gender_tams(cells):
    return [tam for tam in REF_TAMS
            if len({c[1] for c in cells if c[0] == tam} - {None}) == 1]


@settings(deadline=None)
@given(_cells())
def test_table_rows_match_the_per_verb_reference(cells):
    new = _outcome(lambda: VerbSuffixTable(cells))
    ref = _outcome(lambda: _RefTable(cells))
    if new[0] == "ok":
        assert ref[0] == "ok"
        assert _cell_lookups(new[1]) == _lookups(ref[1])
        for verb in _VERBS:
            assert verb_paradigm(verb, new[1]) == _ref_paradigm(verb, cells)
        assert [row[:5] for row in verb_paradigm(_VERBS[0], new[1])] == new[1].rows
        assert [(number, person, tam) for tam, _, number, person, _ in new[1].rows] == [
            (f.number, f.person, f.tam)
            for f, _, _ in ref_verb_paradigm(_VERBS[0], cells)]
    elif ref[0] == "error":
        assert new == ref
    else:
        # the one allowed difference: a one-gender TAM, rejected at load
        tam = _one_gender_tams(cells)[0]
        (gender,) = {c[1] for c in cells if c[0] == tam} - {None}
        assert new[1] == (f"{tam} rows name only gender {gender}; "
                          "a TAM that agrees in gender needs both")
        for verb in _VERBS:
            message = _outcome(lambda: _ref_paradigm(verb, cells))[1]
            assert message.startswith(f"factor tuple outside the declared grid: {tam}/")
