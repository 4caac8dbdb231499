import io

import pytest

from morphinject import script_core as sc
from morphinject.errors import EmptyRoot, IllegalSuffixForClass, InputError
from morphinject.noun_morph import (
    Case,
    Gender,
    NounClass,
    NounLexEntry,
    Number,
    PARADIGM_SLOTS,
    SuffixTable,
    classify_noun,
    default_suffix_table,
    join_noun,
    load_suffix_table,
    noun_paradigm,
    parse_noun_lexicon,
)

TABLE = default_suffix_table()
SLOT_VALUES = [(number.value, case.value) for number, case in PARADIGM_SLOTS]

# the fifteen classifier examples from the classification table
CLASSIFIER_GOLDEN = [
    ("भूख", "f", False, NounClass.A),
    ("क्रोध", "m", False, NounClass.A),
    ("प्यार", "m", False, NounClass.A),
    ("लड़की", "f", True, NounClass.B),
    ("शक्ति", "f", True, NounClass.B),
    ("नदी", "f", True, NounClass.B),
    ("रात", "f", True, NounClass.C),
    ("माला", "f", True, NounClass.C),
    ("बहू", "f", True, NounClass.C),
    ("लड़का", "m", True, NounClass.D),
    ("धागा", "m", True, NounClass.D),
    ("भांजा", "m", True, NounClass.D),
    ("आलू", "m", True, NounClass.E),
    ("साधू", "m", True, NounClass.E),
    ("माली", "m", True, NounClass.E),
]


def test_table_complete():
    assert len(TABLE.cells) == 20
    for number, case in PARADIGM_SLOTS:
        assert TABLE.cells[(NounClass.A, number, case)] is None
    for cls in NounClass:
        assert TABLE.cells[(cls, Number.SINGULAR, Case.DIRECT)] is None


def test_table_validation():
    with pytest.raises(InputError):
        load_suffix_table(io.StringIO("A\tsg\tdir\t-\n"))  # missing cells
    bad = "\n".join(
        f"{c.value}\t{n.value}\t{k.value}\tए"
        for c in NounClass
        for n, k in PARADIGM_SLOTS
    )
    with pytest.raises(InputError):
        load_suffix_table(io.StringIO(bad))  # class A must stay null


@pytest.mark.parametrize("root,gender,countable,expected", CLASSIFIER_GOLDEN)
def test_classifier_golden(root, gender, countable, expected):
    entry = NounLexEntry(root, Gender(gender), countable)
    assert classify_noun(entry) is expected


def test_classifier_override_and_errors():
    entry = NounLexEntry("पानी", Gender.MASCULINE, class_override=NounClass.A)
    assert classify_noun(entry) is NounClass.A
    with pytest.raises(EmptyRoot):
        NounLexEntry("  ", Gender.FEMININE)


def test_suffix_table_normalizes_the_suffixes_it_is_given():
    cells = dict(TABLE.cells)
    cells[(NounClass.D, Number.PLURAL, Case.OBLIQUE)] = "ओ\u200dं"
    table = SuffixTable(cells)
    assert table.cells[(NounClass.D, Number.PLURAL, Case.OBLIQUE)] == "ओं"
    assert table.rows == TABLE.rows
    rows = noun_paradigm(NounLexEntry("कुत्ता", Gender.MASCULINE), table)
    assert rows[3] == ("pl", "obl", "ओं", "कुत्तों")


def test_noun_suffix_examples():
    assert TABLE.cells[(NounClass.D, Number.PLURAL, Case.OBLIQUE)] == "ओं"
    assert TABLE.cells[(NounClass.A, Number.PLURAL, Case.OBLIQUE)] is None
    assert TABLE.cells[(NounClass.B, Number.PLURAL, Case.DIRECT)] == "याँ"


def test_join_examples():
    assert join_noun("कुत्ता", NounClass.D, "ए") == "कुत्ते"
    assert join_noun("कुत्ता", NounClass.D, None) == "कुत्ता"
    assert join_noun("कुत्ता", NounClass.D, "ओं") == "कुत्तों"
    # generated surfaces are in canonical form (precomposed nukta)
    assert join_noun("लड़की", NounClass.B, "याँ") == sc.normalize("लड़कियाँ")
    assert join_noun("रात", NounClass.C, "एँ") == "रातें"
    with pytest.raises(IllegalSuffixForClass):
        join_noun("कुत्ता", NounClass.D, "याँ")


def test_paradigm_dog_golden():
    rows = noun_paradigm(NounLexEntry("कुत्ता", Gender.MASCULINE), TABLE)
    assert [(number, case) for number, case, _, _ in rows] == SLOT_VALUES
    assert [suffix for _, _, suffix, _ in rows] == [None, "ए", "ए", "ओं"]
    assert [surface for *_, surface in rows] == ["कुत्ता", "कुत्ते", "कुत्ते", "कुत्तों"]


def test_paradigm_fixture_suite(noun_fixtures):
    per_class = {c: 0 for c in NounClass}
    for fx in noun_fixtures:
        assert classify_noun(fx.entry) is fx.noun_class, fx.entry.hindi_root
        rows = noun_paradigm(fx.entry, TABLE)
        got = tuple(surface for *_, surface in rows)
        want = tuple(sc.normalize(s) for s in fx.surfaces)
        assert got == want, f"{fx.entry.hindi_root}: {got} != {want}"
        per_class[fx.noun_class] += 1
    for cls in (NounClass.B, NounClass.C, NounClass.D, NounClass.E):
        assert per_class[cls] >= 20


def test_paradigm_invariants(noun_fixtures):
    for fx in noun_fixtures:
        rows = noun_paradigm(fx.entry, TABLE)
        assert len(rows) == 4
        assert {(number, case) for number, case, _, _ in rows} == set(SLOT_VALUES)
        assert rows[0][3] == fx.entry.hindi_root  # sg-dir == root
        for *_, surface in rows:
            normalized = sc.normalize(surface)
            assert surface == normalized
            assert sc._WORD.fullmatch(surface)


def test_class_a_never_inflects():
    entry = NounLexEntry("भूख", Gender.FEMININE, countable=False)
    rows = noun_paradigm(entry, TABLE)
    assert all(surface == "भूख" and suffix is None for _, _, suffix, surface in rows)


def test_joiner_deterministic():
    expected = sc.normalize("लड़कियों")
    for _ in range(5):
        assert join_noun("लड़की", NounClass.B, "यों") == expected


def test_lexicon_parser():
    lines = [
        "# comment",
        "dog\tकुत्ता\tm\t1",
        "hunger\tभूख\tf\t0",
        "water\tपानी\tm\t1\tA",
    ]
    nouns = parse_noun_lexicon(lines)
    assert [n.english_root for n in nouns] == ["dog", "hunger", "water"]
    assert nouns[1].entry.countable is False
    assert nouns[2].entry.class_override is NounClass.A
    with pytest.raises(InputError):
        parse_noun_lexicon(["dog\tकुत्ता\tx\t1"])  # bad gender
    with pytest.raises(InputError):
        parse_noun_lexicon(["dog\tकुत्ता"])  # no gender column
