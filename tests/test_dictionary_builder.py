import re
from pathlib import Path

import pytest

from conftest import FactoredToken, ref_entries
from morphinject import dictionary_builder as db
from morphinject import script_core as sc
from morphinject.dictionary_builder import (
    NOUN_SCHEME,
    SURFACE_SCHEME,
    VERB_SCHEME,
    WordFormDictionary,
    build_noun_dict,
    build_verb_dict,
    parse_dictionary,
    strip_to_surface,
)
from morphinject.errors import InputError
from morphinject.noun_morph import (
    BilingualNoun,
    NounLexEntry,
    classify_noun,
    join_noun,
    load_suffix_table,
)
from morphinject.verb_morph import (
    VerbLexEntry,
    join_verb,
    load_verb_suffix_table,
    parse_verb_lexicon,
    verb_paradigm,
)


def test_factored_token_validation():
    token = FactoredToken("कुत्ता", ("कुत्ता", "null"))
    assert token.render() == "कुत्ता|कुत्ता|null"
    assert FactoredToken.parse("कुत्ता|कुत्ता|null") == token
    with pytest.raises(InputError):
        FactoredToken("")
    with pytest.raises(InputError):
        FactoredToken("dog|x")
    with pytest.raises(InputError):
        FactoredToken("dog", ("a b",))
    with pytest.raises(InputError):
        FactoredToken("two words", ("sg",))  # spaces only allowed surface-only
    FactoredToken("will walk")  # periphrastic surface-only is fine


def test_build_noun_dict_dog():
    lexicon = [BilingualNoun("dog", NounLexEntry("कुत्ता", "m"))]
    d = build_noun_dict(lexicon)
    assert len(d.lines) == 4
    assert [e.source.render() for e in ref_entries(d)] == [
        "dog|sg|dir", "dog|sg|obl", "dog|pl|dir", "dog|pl|obl",
    ]
    assert [e.target.render() for e in ref_entries(d)] == [
        "कुत्ता|कुत्ता|null", "कुत्ते|कुत्ता|ए", "कुत्ते|कुत्ता|ए", "कुत्तों|कुत्ता|ओं",
    ]
    assert not d.failures


def test_build_noun_dict_girl_and_empty():
    assert build_noun_dict([]).lines == []
    d = build_noun_dict([BilingualNoun("girl", NounLexEntry("लड़की", "f"))])
    pl_obl = ref_entries(d)[-1]
    assert pl_obl.source.render() == "girl|pl|obl"
    assert pl_obl.target.render() == sc.normalize("लड़कियों|लड़की|यों")


@pytest.fixture
def exception_table(tmp_path, monkeypatch):
    """Append a row to a copy of a packaged English exception table and
    load the tables from the copy; their cached loads are cleared around
    the test."""
    def append(name: str, row: str) -> str:
        for table in Path(sc._DATA_DIR).glob("*.tsv"):
            (tmp_path / table.name).write_bytes(table.read_bytes())
        path = tmp_path / name
        path.write_text(path.read_text("utf-8") + row + "\n", "utf-8")
        monkeypatch.setattr(sc, "_DATA_DIR", tmp_path)
        return f"{name}:{len(path.read_text('utf-8').splitlines())}"

    loaders = (db._noun_exceptions, db._verb_exceptions)
    for loader in loaders:
        loader.cache_clear()
    yield append
    for loader in loaders:
        loader.cache_clear()


def test_a_surface_build_checks_a_plural_from_the_exception_table(exception_table):
    # the plurals are checked as the table loads, so every surface-only
    # line a build keeps is valid without a check of its own
    where = exception_table("noun_plural_exceptions.tsv", "dog\tdog  s")
    message = f"{where}: bad plural 'dog  s' (not words joined by single spaces)"
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        build_noun_dict([BilingualNoun("cat", NounLexEntry("बिल्ली", "f"))], surface=True)


@pytest.mark.parametrize("row, what", [
    ("dig\tdigs\tdug\tx", None),  # four fields
    ("dig\td|igs\tdug", "third-person form 'd|igs'"),
    ("dig\t-\t", "past form ''"),
])
def test_a_bad_verb_exception_row_fails_the_surface_build_at_its_line(exception_table, row, what):
    # an error of the table, not a failed lexicon row
    where = exception_table("verb_exceptions.tsv", row)
    message = f"{where}: expected 3" if what is None else f"{where}: bad {what} "
    with pytest.raises(InputError, match=f"^{re.escape(message)}"):
        build_verb_dict([VerbLexEntry("चल", "walk")], surface=True)


@pytest.mark.parametrize("name, row, message", [
    ("noun_plural_exceptions.tsv", "child\tchilds", "duplicate singular 'child'"),
    ("noun_plural_exceptions.tsv", "Ox\toxen", "singular 'Ox' is not lower-case"),
    ("verb_exceptions.tsv", "go\t-\tgoed", "duplicate root 'go'"),
    ("verb_exceptions.tsv", "Dig\t-\tdug", "root 'Dig' is not lower-case"),
    ("noun_plural_exceptions.tsv", " ox\toxes", "singular ' ox' is not a single factor"),
    ("noun_plural_exceptions.tsv", "fish \tfishes", "singular 'fish ' is not a single factor"),
    ("noun_plural_exceptions.tsv", "\tmice", "singular '' is not a single factor"),
    ("noun_plural_exceptions.tsv", "o|x\toxes", "singular 'o|x' is not a single factor"),
    ("verb_exceptions.tsv", " go\t-\twent", "root ' go' is not a single factor"),
    ("verb_exceptions.tsv", "go \t-\twent", "root 'go ' is not a single factor"),
    ("verb_exceptions.tsv", "\t-\twent", "root '' is not a single factor"),
], ids=["noun-duplicate", "noun-upper-case", "verb-duplicate", "verb-upper-case",
        "noun-leading-space", "noun-trailing-space", "noun-empty", "noun-separator",
        "verb-leading-space", "verb-trailing-space", "verb-empty"])
def test_an_exception_row_that_never_takes_effect_is_an_error_at_its_line(
        exception_table, name, row, message):
    # a second row would replace the first, and the lookups lower-case the
    # root, so an upper-case one would never match; a looked-up root is a
    # single factor, so one with whitespace or a "|", or an empty one,
    # would never match either
    where = exception_table(name, row)
    with pytest.raises(InputError, match=f"^{re.escape(f'{where}: {message}')}$"):
        if name == "verb_exceptions.tsv":
            db.english_verb_surface("go", "sg", "3", "perf")
        else:
            db.english_noun_surface("child", "pl")


def test_build_noun_dict_dedupe_and_failures():
    noun = BilingualNoun("dog", NounLexEntry("कुत्ता", "m"))
    bad = BilingualNoun("cat", NounLexEntry("cat", "f"))  # Latin root
    d = build_noun_dict([noun, noun, bad])
    assert len(d.lines) == 4  # duplicate row collapses
    assert len(d.failures) == 1
    assert d.failures[0].english_root == "cat"


@pytest.mark.parametrize("surface", [False, True], ids=["factored", "surface"])
@pytest.mark.parametrize("build, row, first", [
    (build_noun_dict, BilingualNoun("#dog", NounLexEntry("कुत्ता", "m")), "#dog|sg|dir"),
    (build_verb_dict, VerbLexEntry("चल", "#walk"), "#walk|sg|3|inf"),
], ids=["noun", "verb"])
def test_an_english_root_led_by_a_hash_fails_its_row(build, row, first, surface):
    # a dictionary file reads a line that starts with "#" as a comment, so
    # such an entry would be written and then lost when the file is read
    d = build([row], surface=surface)
    assert d.lines == []
    assert [(f.index, f.english_root, f.error) for f in d.failures] == [
        (0, row.english_root, f"entry {first!r} starts with '#', as a comment line does")]


@pytest.mark.parametrize("line, scheme, entry", [
    ("#a\tb", SURFACE_SCHEME, "#a"),
    ("#a b\tc", SURFACE_SCHEME, "#a b"),
    ("#dog|sg|dir\tक|क|null", NOUN_SCHEME, "#dog|sg|dir"),
    ("#walk|sg|3|hab\tक|क|null", VERB_SCHEME, "#walk|sg|3|hab"),
])
def test_a_dictionary_entry_led_by_a_hash_is_an_error(line, scheme, entry):
    with pytest.raises(InputError) as raised:
        WordFormDictionary([line], scheme)
    assert str(raised.value) == f"entry {entry!r} starts with '#', as a comment line does"
    # "#" inside a side, or leading the target side, is no comment mark
    assert WordFormDictionary(["a#\t#b"], SURFACE_SCHEME).lines == ["a#\t#b"]


def test_noun_dict_cardinality(noun_fixtures):
    lexicon = [BilingualNoun(f.english, f.entry) for f in noun_fixtures]
    d = build_noun_dict(lexicon)
    distinct = set()
    expected = 0
    for f in noun_fixtures:
        for number, case, surface in zip(
            ("sg", "sg", "pl", "pl"), ("dir", "obl", "dir", "obl"), f.surfaces
        ):
            key = (f.english, number, case, sc.normalize(surface))
            if key not in distinct:
                distinct.add(key)
                expected += 1
    assert len(d.lines) == expected
    assert not d.failures


def test_generation_step_closure(noun_fixtures):
    # every emitted (root, suffix) -> surface must re-derive via the joiner
    lexicon = [BilingualNoun(f.english, f.entry) for f in noun_fixtures]
    classes = {f.entry.hindi_root: classify_noun(f.entry) for f in noun_fixtures}
    table = load_suffix_table()
    d = build_noun_dict(lexicon, table)
    for e in ref_entries(d):
        root, suffix = e.target.factors
        rebuilt = join_noun(root, classes[root], None if suffix == "null" else suffix, table)
        assert rebuilt == e.target.surface


def test_build_verb_dict(verb_lexicon_lines):
    lexicon = parse_verb_lexicon(verb_lexicon_lines)
    table = load_verb_suffix_table()
    d = build_verb_dict(lexicon, table)
    assert not d.failures
    one = build_verb_dict([lexicon[0]], table)
    # one entry per distinct collapsed cell after exact-duplicate removal
    distinct_pairs = {
        ((number, person, tam), (surf, suffix))
        for tam, _, number, person, suffix, surf in verb_paradigm(lexicon[0], table)
    }
    assert len(one.lines) == len(distinct_pairs)
    walk_hab = next(
        e for e in ref_entries(one) if e.source.render() == "walk|sg|3|hab"
    )
    assert walk_hab.target.render() == "चलता|चल|ता"
    # duplicate lexicon rows collapse to a single entry set
    assert build_verb_dict([lexicon[0], lexicon[0]], table).lines == one.lines


def test_verb_generation_closure(verb_lexicon_lines):
    # regular rows re-derive through the joiner (irregulars are overrides)
    entry = parse_verb_lexicon(["walk\tचल"])[0]
    d = build_verb_dict([entry])
    for e in ref_entries(d):
        root, suffix = e.target.factors
        assert join_verb(root, None if suffix == "null" else suffix) == e.target.surface


def test_strip_to_surface_nouns():
    lexicon = [BilingualNoun("dog", NounLexEntry("कुत्ता", "m"))]
    stripped = strip_to_surface(build_noun_dict(lexicon))
    rendered = [(e.source.render(), e.target.render()) for e in ref_entries(stripped)]
    # sg-obl and pl-dir collapse onto distinct pairs; duplicates are gone
    assert ("dog", "कुत्ता") in rendered
    assert ("dog", "कुत्ते") in rendered
    assert ("dogs", "कुत्ते") in rendered
    assert ("dogs", "कुत्तों") in rendered
    assert len(rendered) == 4
    again = strip_to_surface(stripped)
    assert again.lines == stripped.lines  # idempotent


def test_strip_to_surface_verbs():
    d = build_verb_dict([VerbLexEntry("चल", "walk")])
    stripped = strip_to_surface(d)
    rendered = dict(
        (e.target.render(), e.source.render()) for e in ref_entries(stripped)
    )
    assert rendered["चलना"] == "to walk"
    assert rendered["चलेगा"] == "will walk"
    assert rendered["चलता"] == "walks"  # 3sg representative
    assert stripped.scheme == SURFACE_SCHEME


@pytest.mark.parametrize("scheme, sources, message", [
    # each distinct factor string is read once: the first entry holding it is named
    (NOUN_SCHEME, ["dog|sg|dir", "dog|xx|dir", "cat|xx|dir"],
     "entry 'dog|xx|dir': bad number 'xx' (expected one of sg, pl)"),
    (VERB_SCHEME, ["walk|sg|3|hab", "run|sg|3|zz", "walk|sg|3|zz"],
     "entry 'run|sg|3|zz': bad tam 'zz'"),
    (VERB_SCHEME, ["walk|sg|9|zz"], "entry 'walk|sg|9|zz': bad person '9'"),
    # a hand-built dictionary obeys parse_dictionary's rule, case included
    (NOUN_SCHEME, ["dog|pl|zz", "dog|sg|zz"],
     "entry 'dog|pl|zz': bad case 'zz' (expected one of dir, obl)"),
    # a verb entry too short to hold the factors read
    (VERB_SCHEME, ["walk|sg"], "entry 'walk|sg' has 1 factors, scheme declares 3"),
    # any other factor count than the scheme's, though the factors read are valid
    (NOUN_SCHEME, ["dog|pl"], "entry 'dog|pl' has 1 factors, scheme declares 2"),
    (VERB_SCHEME, ["walk|sg|3|hab|x"], "entry 'walk|sg|3|hab|x' has 4 factors, scheme declares 3"),
    # an entry that is not one source TAB target pair, or a bad surface side
    (SURFACE_SCHEME, ["a\t\tb"],
     "entry 'a\\t\\tb': expected 2 tab-separated fields (source, target), got 3"),
    (SURFACE_SCHEME, ["a b"], "entry 'a b': expected 2 tab-separated fields (source, target), got 1"),
    # a target side with other than the scheme's number of factors
    (SURFACE_SCHEME, ["dog\tकुत्ता|कुत्ता|null"],
     "entry 'कुत्ता|कुत्ता|null' has 2 factors, scheme declares 0"),
    (SURFACE_SCHEME, ["will  walk\tx"],
     "surface-only side 'will  walk' is not words joined by single spaces"),
])
def test_strip_to_surface_checks_the_values_it_reads(scheme, sources, message):
    # a surface-only case gives whole lines, any other its source sides;
    # the dictionary is checked when it is made
    with pytest.raises(InputError) as raised:
        strip_to_surface(WordFormDictionary(sources if scheme is SURFACE_SCHEME
                                            else [f"{s}\tक|क|null" for s in sources], scheme))
    assert str(raised.value).startswith(message)


def test_dictionary_roundtrip_and_widths(verb_lexicon_lines):
    d = build_verb_dict(parse_verb_lexicon(verb_lexicon_lines))
    reparsed = parse_dictionary(d.lines)
    assert reparsed.lines == d.lines
    assert reparsed.scheme == VERB_SCHEME
    with pytest.raises(InputError, match=re.escape("no scheme matches factor widths (1, 0)")):
        parse_dictionary(["a|b\tc"])
    # duplicate lines collapse to one entry
    assert parse_dictionary(["a|sg|dir\td|e|f"] * 2) == WordFormDictionary(
        ["a|sg|dir\td|e|f"], NOUN_SCHEME
    )
