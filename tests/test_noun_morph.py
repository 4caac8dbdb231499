import pytest

from morphinject import script_core as sc
from morphinject.errors import InputError
from morphinject.noun_morph import (
    NOUN_CLASSES,
    NounLexEntry,
    PARADIGM_SLOTS,
    SuffixTable,
    classify_noun,
    join_noun,
    load_suffix_table,
    noun_paradigm,
    parse_noun_lexicon,
)

TABLE = load_suffix_table()
SLOT_VALUES = [("sg", "dir"), ("sg", "obl"), ("pl", "dir"), ("pl", "obl")]

# the fifteen classifier examples from the classification table
CLASSIFIER_GOLDEN = [
    ("भूख", "f", False, "A"),
    ("क्रोध", "m", False, "A"),
    ("प्यार", "m", False, "A"),
    ("लड़की", "f", True, "B"),
    ("शक्ति", "f", True, "B"),
    ("नदी", "f", True, "B"),
    ("रात", "f", True, "C"),
    ("माला", "f", True, "C"),
    ("बहू", "f", True, "C"),
    ("लड़का", "m", True, "D"),
    ("धागा", "m", True, "D"),
    ("भांजा", "m", True, "D"),
    ("आलू", "m", True, "E"),
    ("साधू", "m", True, "E"),
    ("माली", "m", True, "E"),
]


def test_table_complete():
    assert len(TABLE.cells) == 20
    for number, case in PARADIGM_SLOTS:
        assert TABLE.cells[("A", number, case)] is None
    for cls in NOUN_CLASSES:
        assert TABLE.cells[(cls, "sg", "dir")] is None


def test_table_validation(tmp_path):
    path = tmp_path / "noun_suffixes.tsv"
    path.write_text("A\tsg\tdir\t-\n", "utf-8")
    with pytest.raises(InputError):
        load_suffix_table(path)  # missing cells
    bad = "\n".join(
        f"{c}\t{n}\t{k}\tए"
        for c in NOUN_CLASSES
        for n, k in PARADIGM_SLOTS
    )
    path.write_text(bad, "utf-8")
    with pytest.raises(InputError):
        load_suffix_table(path)  # class A must stay null


# the ids name the class as "NounClass.<letter>", as they did when it
# was an enum member, so that each example keeps its test name
@pytest.mark.parametrize("root,gender,countable,expected", CLASSIFIER_GOLDEN,
                         ids=["-".join((*map(str, row[:3]), f"NounClass.{row[3]}"))
                              for row in CLASSIFIER_GOLDEN])
def test_classifier_golden(root, gender, countable, expected):
    entry = NounLexEntry(root, gender, countable)
    assert classify_noun(entry) == expected


def test_classifier_override_and_errors():
    entry = NounLexEntry("पानी", "m", class_override="A")
    assert classify_noun(entry) == "A"
    with pytest.raises(InputError, match=r"^noun entry with empty root$"):
        NounLexEntry("  ", "f")


def test_gender_and_class_are_strings():
    # a feminine ii-ending noun is class B, whose plurals end in याँ and यों
    girl = sc.normalize("लड़की")
    assert noun_paradigm(NounLexEntry(girl, "f"), TABLE) == [
        ("sg", "dir", None, girl), ("sg", "obl", None, girl),
        ("pl", "dir", "याँ", sc.normalize("लड़कियाँ")),
        ("pl", "obl", "यों", sc.normalize("लड़कियों"))]
    assert classify_noun(NounLexEntry("माली", "m", class_override="E")) == "E"


@pytest.mark.parametrize("gender, override, message", [
    ("x", None, "bad gender 'x' (expected one of m, f)"),
    ("F", None, "bad gender 'F' (expected one of m, f)"),
    ("f", "b", "bad class 'b' (expected one of A, B, C, D, E)"),
    ("f", "-", "bad class '-' (expected one of A, B, C, D, E)"),
])
def test_noun_entry_rejects_a_value_outside_its_set(gender, override, message):
    with pytest.raises(InputError) as raised:
        NounLexEntry("लड़की", gender, class_override=override)
    assert str(raised.value) == message


@pytest.mark.parametrize("suffix", [None, "ए"])
def test_an_unknown_class_is_an_input_error(suffix):
    message = "bad class 'X' (expected one of A, B, C, D, E)"
    with pytest.raises(InputError) as raised:
        TABLE.legal_suffixes("X")
    assert str(raised.value) == message
    with pytest.raises(InputError) as raised:
        join_noun("कुत्ता", "X", suffix, TABLE)
    assert str(raised.value) == message


def test_suffix_table_normalizes_the_suffixes_it_is_given():
    cells = dict(TABLE.cells)
    cells[("D", "pl", "obl")] = "ओ\u200dं"
    table = SuffixTable(cells)
    assert table.cells[("D", "pl", "obl")] == "ओं"
    assert table.rows == TABLE.rows
    rows = noun_paradigm(NounLexEntry("कुत्ता", "m"), table)
    assert rows[3] == ("pl", "obl", "ओं", "कुत्तों")


def test_noun_suffix_examples():
    assert TABLE.cells[("D", "pl", "obl")] == "ओं"
    assert TABLE.cells[("A", "pl", "obl")] is None
    assert TABLE.cells[("B", "pl", "dir")] == "याँ"


def test_join_examples():
    assert join_noun("कुत्ता", "D", "ए", TABLE) == "कुत्ते"
    assert join_noun("कुत्ता", "D", None, TABLE) == "कुत्ता"
    assert join_noun("कुत्ता", "D", "ओं", TABLE) == "कुत्तों"
    # generated surfaces are in canonical form (precomposed nukta)
    assert join_noun("लड़की", "B", "याँ", TABLE) == sc.normalize("लड़कियाँ")
    assert join_noun("रात", "C", "एँ", TABLE) == "रातें"
    with pytest.raises(InputError, match=r"^suffix 'याँ' is not in the class-D column$"):
        join_noun("कुत्ता", "D", "याँ", TABLE)


def test_join_noun_checks_the_root_whatever_the_suffix():
    with pytest.raises(InputError) as raised:
        join_noun("abc", "B", None, TABLE)
    assert str(raised.value) == "non-Devanagari codepoint U+0061 at offset 0"


def test_paradigm_dog_golden():
    rows = noun_paradigm(NounLexEntry("कुत्ता", "m"), TABLE)
    assert [(number, case) for number, case, _, _ in rows] == SLOT_VALUES
    assert [suffix for _, _, suffix, _ in rows] == [None, "ए", "ए", "ओं"]
    assert [surface for *_, surface in rows] == ["कुत्ता", "कुत्ते", "कुत्ते", "कुत्तों"]


def test_paradigm_fixture_suite(noun_fixtures):
    per_class = dict.fromkeys(NOUN_CLASSES, 0)
    for fx in noun_fixtures:
        assert classify_noun(fx.entry) == fx.noun_class, fx.entry.hindi_root
        rows = noun_paradigm(fx.entry, TABLE)
        got = tuple(surface for *_, surface in rows)
        want = tuple(sc.normalize(s) for s in fx.surfaces)
        assert got == want, f"{fx.entry.hindi_root}: {got} != {want}"
        per_class[fx.noun_class] += 1
    for cls in ("B", "C", "D", "E"):
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
            assert sc.tail_match()(surface)


def test_class_a_never_inflects():
    entry = NounLexEntry("भूख", "f", countable=False)
    rows = noun_paradigm(entry, TABLE)
    assert all(surface == "भूख" and suffix is None for _, _, suffix, surface in rows)


def test_joiner_deterministic():
    expected = sc.normalize("लड़कियों")
    for _ in range(5):
        assert join_noun("लड़की", "B", "यों", TABLE) == expected


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
    assert nouns[2].entry.class_override == "A"
    with pytest.raises(InputError):
        parse_noun_lexicon(["dog\tकुत्ता\tx\t1"])  # bad gender
    with pytest.raises(InputError):
        parse_noun_lexicon(["dog\tकुत्ता"])  # no gender column
