from collections import Counter

import pytest

from conftest import REF_GENDERS, REF_NUMBERS, REF_PERSONS, Cell, VerbFactors, lookup, ref_override
from morphinject import script_core as sc
from morphinject.errors import InputError
from morphinject.verb_morph import (
    VerbLexEntry,
    VerbSuffixTable,
    join_verb,
    load_verb_suffix_table,
    parse_verb_lexicon,
    verb_paradigm,
)

TABLE = load_verb_suffix_table()


def _english_tuples(table):
    """Distinct (number, person, tam) tuples declared by the table."""
    return {(cell.number, cell.person, cell.tam) for cell in map(Cell.of, table.cells)}


def test_agreement_spec():
    spec = {
        cell.tam: tuple(
            dim for dim in ("gender", "number", "person") if getattr(cell, dim) is not None)
        for cell in map(Cell.of, TABLE.cells)
    }
    assert spec["inf"] == ()
    assert spec["hab"] == ("gender", "number")
    assert spec["fut"] == ("gender", "number", "person")
    assert spec["imp"] == ("number", "person")


def test_verb_table_normalizes_the_suffixes_it_is_given():
    cells = [c if c[4] is None else (*c[:4], c[4] + "\u200d") for c in TABLE.cells]
    assert VerbSuffixTable(cells).rows == TABLE.rows


def test_verb_suffix_examples():
    assert lookup(TABLE.cells, VerbFactors("m", "sg", "3", "hab")) == "ता"
    # infinitive collapses every dimension
    for gender in REF_GENDERS:
        for number in REF_NUMBERS:
            for person in REF_PERSONS:
                assert lookup(TABLE.cells, VerbFactors(gender, number, person, "inf")) == "ना"
    assert lookup(TABLE.cells, VerbFactors("f", "sg", "2", "imp")) is None


def test_verb_suffix_outside_grid():
    with pytest.raises(InputError):
        lookup(TABLE.cells, VerbFactors("m", "sg", "1", "imp"))


def test_table_validation(tmp_path):
    path = tmp_path / "verb_suffixes.tsv"
    for text in [
        "",  # empty
        "hab\tm\tsg\t-\tता\nhab\t-\tpl\t-\tते\n",  # inconsistent collapsing within a TAM
        "inf\t-\t-\t-\tना\ninf\t-\t-\t-\tना\n",  # duplicate cell
        "hab\tm\tsg\t-\tता\nhab\tf\tpl\t-\tतीं\n",  # grid not total
    ]:
        path.write_text(text, "utf-8")
        with pytest.raises(InputError):
            load_verb_suffix_table(path)


def test_join_verb_examples():
    assert join_verb("चल", "ता") == "चलता"
    assert join_verb("खा", "आ") == "खाया"
    assert join_verb("कर", None) == "कर"
    assert join_verb("चल", "आ") == "चला"  # vowel realized as matra on consonant
    assert join_verb("पी", "आ") == "पिया"  # shorten then glide
    assert join_verb("पी", "ई") == "पी"  # ी+ई contraction
    assert join_verb("छू", "आ") == "छुआ"  # no glide after u-vowel
    assert join_verb("खा", "एँ") == "खाएँ"
    assert join_verb("चल", "एँ") == "चलें"


@pytest.mark.parametrize("suffix", [None, "ता"])
def test_join_verb_checks_the_root_whatever_the_suffix(suffix):
    with pytest.raises(InputError) as raised:
        join_verb("abc", suffix)
    assert str(raised.value) == "non-Devanagari codepoint U+0061 at offset 0"


def test_verb_forms_fixture_suite(verb_form_fixtures, verb_lexicon_lines):
    lexicon = {e.hindi_root: e for e in parse_verb_lexicon(verb_lexicon_lines)}
    assert len(lexicon) >= 10
    for fx in verb_form_fixtures:
        stem = sc.normalize(fx.stem)
        entry = lexicon[stem]
        factors = VerbFactors(fx.gender, fx.number, fx.person, fx.tam)
        surface = ref_override(entry, factors)
        if surface is None:
            surface = join_verb(stem, lookup(TABLE.cells, factors))
        assert surface == sc.normalize(fx.surface), (
            f"{stem} {fx.tam}/{fx.gender}/{fx.number}/{fx.person}: "
            f"{surface!r} != {fx.surface!r}"
        )


def test_fixture_forms_appear_in_paradigm(verb_form_fixtures, verb_lexicon_lines):
    lexicon = {e.hindi_root: e for e in parse_verb_lexicon(verb_lexicon_lines)}
    paradigms = {
        stem: {(tam, surf) for tam, *_, surf in verb_paradigm(entry, TABLE)}
        for stem, entry in lexicon.items()
    }
    for fx in verb_form_fixtures:
        stem = sc.normalize(fx.stem)
        pair = (fx.tam, sc.normalize(fx.surface))
        assert pair in paradigms[stem], f"{pair} missing from {stem} paradigm"


def test_paradigm_row_count_and_replication():
    entry = VerbLexEntry("चल", "walk")
    rows = verb_paradigm(entry, TABLE)
    tuples = _english_tuples(TABLE)
    assert len(rows) == 2 * len(tuples)  # once per gender
    projected = Counter((number, person, tam) for tam, _, number, person, _, _ in rows)
    assert all(count == 2 for count in projected.values())
    # completeness: every (gender, tuple) combination exactly once
    keyed = Counter(row[:4] for row in rows)
    assert all(count == 1 for count in keyed.values())


def test_paradigm_surfaces_canonical(verb_lexicon_lines):
    # every generated surface is a Devanagari word in canonical form
    for entry in parse_verb_lexicon(verb_lexicon_lines):
        for *_, surface in verb_paradigm(entry, TABLE):
            assert surface == sc.normalize(surface)
            assert sc.tail_match()(surface)


def test_paradigm_habitual_surfaces():
    entry = VerbLexEntry("चल", "walk")
    hab = {
        surf
        for tam, *_, surf in verb_paradigm(entry, TABLE)
        if tam == "hab"
    }
    assert {"चलता", "चलती", "चलते"} <= hab


def test_irregular_override_soundness():
    plain = VerbLexEntry("हो", "be")
    irregular_lines = ["be\tहो\tperf:m:sg=हुआ"]
    irregular = parse_verb_lexicon(irregular_lines)[0]
    rows_plain = verb_paradigm(plain, TABLE)
    rows_irr = verb_paradigm(irregular, TABLE)
    assert len(rows_plain) == len(rows_irr)
    for (*f1, surf1), (*f2, surf2) in zip(rows_plain, rows_irr):
        assert f1 == f2  # the factors and the suffix
        if f1[:3] == ["perf", "m", "sg"]:
            assert surf2 == "हुआ"
        else:
            assert surf1 == surf2  # untouched rows are identical


def test_verb_lexicon_parser():
    entries = parse_verb_lexicon(
        ["# c", "walk\tचल", "go\tजा\tperf:m:sg=गया\tperf:f:sg=गई"]
    )
    assert entries[0].english_root == "walk"
    assert len(entries[1].irregular_forms) == 2
    with pytest.raises(InputError):
        parse_verb_lexicon(["walk"])
    with pytest.raises(InputError):
        parse_verb_lexicon(["walk\tचल\tbadslot"])
    with pytest.raises(InputError) as exc:  # a fifth slot part is not dropped
        parse_verb_lexicon(["walk\tचल", "go\tजा\tperf:m:sg:3:zzz=गया"], "lex.tsv")
    assert str(exc.value) == "lex.tsv:2: bad override 'perf:m:sg:3:zzz=गया'"
