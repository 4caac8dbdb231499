"""Property test: the factor values the package gives are the ones the
references in conftest decide.

The package keeps factor values as strings from the moment a loader
checks them. The references decide with their own value sets, one
factor at a time: a verb's paradigm with per-cell lookups and override
matching, the English surface of a verb for its factors, and the
annotation rules as whole-sentence scans. On verbs with overrides,
tables that keep some of the packaged TAMs, and sentences annotated
with drawn rules, `verb_paradigm`, `build_verb_dict(surface=True)` and
`annotate_sentence` must give what the references give.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    REF_GENDERS,
    REF_NUMBERS,
    REF_PERSONS,
    REF_TAMS,
    EnglishVerbFactors,
    ref_annotate_sentence,
    ref_english_verb_surface,
    ref_verb_paradigm,
)
from morphinject.dictionary_builder import build_verb_dict
from morphinject.source_factors import annotate_sentence, annotation_tables
from morphinject.verb_morph import (
    VerbLexEntry,
    VerbSuffixTable,
    load_verb_suffix_table,
    verb_paradigm,
)
from test_annotate_properties import CASE_RULES, PRONOUNS, TAM_RULES, sentences

_override = st.tuples(
    st.sampled_from(REF_TAMS),
    st.one_of(st.none(), st.sampled_from(REF_GENDERS)),
    st.one_of(st.none(), st.sampled_from(REF_NUMBERS)),
    st.one_of(st.none(), st.sampled_from(REF_PERSONS)),
    st.sampled_from(["गया", "गई", "हुआ", "जाएगा"]),
)
# English roots with irregular, -es, -ies and -ied forms
_verb = st.builds(
    VerbLexEntry,
    st.sampled_from(["चल", "खा", "पी", "सो", "छू", "हो", "कर", "जा"]),
    st.sampled_from(["walk", "go", "be", "try", "watch", "love", "see"]),
    st.lists(_override, max_size=3).map(tuple),
)


@st.composite
def _verb_table(draw):
    """The packaged table, or the cells of some of its TAMs."""
    cells = load_verb_suffix_table().cells
    tams = draw(st.sets(st.sampled_from(REF_TAMS), min_size=1))
    return VerbSuffixTable([c for c in cells if c[0] in tams])


def _ref_surface_lines(lexicon, table):
    lines = {}
    for verb in lexicon:
        for f, _, surface in ref_verb_paradigm(verb, table.cells):
            english = EnglishVerbFactors(f.number, f.person, f.tam)
            lines[f"{ref_english_verb_surface(verb.english_root, english)}\t{surface}"] = None
    return list(lines)


@settings(deadline=None)
@given(st.lists(_verb, max_size=3), _verb_table(), sentences(),
       st.sampled_from(["noun", "verb", "both"]), CASE_RULES, TAM_RULES)
def test_factor_values_are_the_references_value_renderings(
        lexicon, table, sentence, mode, case_rules, tam_rules):
    for verb in lexicon:
        assert verb_paradigm(verb, table) == [
            (*f.values(), suffix, surface)
            for f, suffix, surface in ref_verb_paradigm(verb, table.cells)]
    built = build_verb_dict(lexicon, table, surface=True)
    assert (built.lines, built.failures) == (_ref_surface_lines(lexicon, table), [])
    assert (annotate_sentence(sentence, mode, annotation_tables(PRONOUNS, case_rules, tam_rules))
            == ref_annotate_sentence(sentence, mode, PRONOUNS, case_rules, tam_rules))
