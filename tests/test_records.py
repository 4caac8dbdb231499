"""The record types: field order, defaults, equality, the lexicon
entries' checks, and what bench/spans.py and bench/table.py read and
patch."""

import pytest

from morphinject.corpus_inject import InjectionReport, ParallelCorpus
from morphinject.dictionary_builder import (
    SCHEMES,
    SURFACE_SCHEME,
    EntryFailure,
    FactorScheme,
    WordFormDictionary,
)
from morphinject.errors import InputError
from morphinject.evaluation import BleuScore, OovReport, SparsityReport, StepReport, VocabSet
from morphinject.noun_morph import BilingualNoun, Gender, NounClass, NounLexEntry
from morphinject.verb_morph import VerbLexEntry

_ENTRY = NounLexEntry("कुत्ता", Gender.MASCULINE)
_OVERRIDE = ("perf", "m", "sg", None, "किया")

# each record type, positional arguments, and the fields they fill in order
RECORDS = [
    (ParallelCorpus, (["a|b"], ["c|d"], "train.src", "train.tgt"),
     ("src", "tgt", "source_name", "target_name")),
    (InjectionReport, (4, 3, 1, True),
     ("entries_offered", "entries_added", "duplicates_skipped", "normalization_applied")),
    (FactorScheme, (("surface",), ("surface",), ((("surface",), ("surface",)),), ()),
     ("source_factors", "target_factors", "translation_steps", "generation_steps")),
    (EntryFailure, (2, "dog", "कुत्ता", "bad root"),
     ("index", "english_root", "hindi_root", "error")),
    (WordFormDictionary, (["a\tb"], SURFACE_SCHEME, [EntryFailure(0, "x", "y", "z")]),
     ("lines", "scheme", "failures")),
    (VocabSet, ({"a", "b"},), ("entries",)),
    (OovReport, (5, 2, ["x", "y"]), ("total_tokens", "oov_tokens", "oov_types")),
    (StepReport, ("root -> surface", 3, 1, ["x"]), ("step", "seen", "unseen", "unseen_tuples")),
    (SparsityReport, ([StepReport("a -> b", 1, 0, [])], []),
     ("translation_steps", "generation_steps")),
    (BleuScore, (0.5, (0.9, 0.7, 0.5, 0.3), 1.0, 10, 9),
     ("score", "precisions", "brevity_penalty", "candidate_length", "reference_length")),
    (NounLexEntry, ("कुत्ता", Gender.MASCULINE, False, NounClass.A),
     ("hindi_root", "gender", "countable", "class_override")),
    (BilingualNoun, ("dog", _ENTRY, "nouns.tsv:3"), ("english_root", "entry", "where")),
    (VerbLexEntry, ("चल", "walk", (_OVERRIDE,)), ("hindi_root", "english_root", "irregular_forms")),
]


@pytest.mark.parametrize("cls, args, fields", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_positional_arguments_fill_the_fields_in_order(cls, args, fields):
    record = cls(*args)
    assert tuple(getattr(record, name) for name in fields) == args
    assert record == cls(*args) == cls(**dict(zip(fields, args)))


def test_defaults():
    assert (_ENTRY.countable, _ENTRY.class_override) == (True, None)
    corpus = ParallelCorpus([], [])
    assert (corpus.source_name, corpus.target_name) == ("source", "target")
    assert BilingualNoun("dog", _ENTRY).where == ""
    scheme = FactorScheme(("surface",), ("surface",))
    assert (scheme.translation_steps, scheme.generation_steps) == ((), ())
    first, second = WordFormDictionary([], SURFACE_SCHEME), WordFormDictionary([], SURFACE_SCHEME)
    assert first.failures == [] and first.failures is not second.failures


def test_equality_ignores_the_names_that_locate_errors():
    assert ParallelCorpus(["a"], ["b"], "x.src", "x.tgt") == ParallelCorpus(["a"], ["b"])
    assert ParallelCorpus(["a"], ["b"]) != ParallelCorpus(["a"], ["c"])
    assert ParallelCorpus(["a"], ["b"]) != ParallelCorpus(["c"], ["b"])
    assert BilingualNoun("dog", _ENTRY, "n.tsv:1") == BilingualNoun("dog", _ENTRY, "n.tsv:9")
    assert BilingualNoun("dog", _ENTRY) != BilingualNoun("hound", _ENTRY)
    assert BilingualNoun("dog", _ENTRY) != BilingualNoun("dog", NounLexEntry("कुत्ता", Gender.FEMININE))


def test_dictionary_equality_ignores_failures():
    failure = EntryFailure(0, "cat", "cat", "non-Devanagari")
    assert WordFormDictionary(["a\tb"], SURFACE_SCHEME, [failure]) \
        == WordFormDictionary(["a\tb"], SURFACE_SCHEME)
    assert WordFormDictionary(["a\tb"], SURFACE_SCHEME) != WordFormDictionary(["a\tc"], SURFACE_SCHEME)
    assert WordFormDictionary([], SURFACE_SCHEME) != WordFormDictionary([], SCHEMES["noun"])


def test_records_with_other_values_differ():
    assert ParallelCorpus([], []) != WordFormDictionary([], SURFACE_SCHEME)
    assert VocabSet({"a"}) != VocabSet({"b"})
    assert OovReport(1, 0, []) != OovReport(1, 1, ["x"])


@pytest.mark.parametrize("make", [
    lambda root: NounLexEntry(root, Gender.MASCULINE),
    lambda root: VerbLexEntry(root, "walk"),
], ids=["noun", "verb"])
def test_lexicon_entries_normalize_and_check_the_root(make):
    # a decomposed nukta letter and a zero-width joiner: stored canonical
    assert make("ल\u0921\u093cकी\u200d").hindi_root == "ल\u095cकी"
    for empty in ("", "  "):
        with pytest.raises(InputError, match="empty"):
            make(empty)


@pytest.mark.parametrize("entry, field", [
    (_ENTRY, "hindi_root"),
    (_ENTRY, "countable"),
    (VerbLexEntry("चल", "walk"), "hindi_root"),
    (VerbLexEntry("चल", "walk"), "irregular_forms"),
], ids=["noun-root", "noun-countable", "verb-root", "verb-overrides"])
def test_lexicon_entries_refuse_attribute_assignment(entry, field):
    before = getattr(entry, field)
    with pytest.raises(AttributeError):
        setattr(entry, field, "x")
    assert getattr(entry, field) == before


def test_every_scheme_step_names_a_known_factor():
    for name, scheme in SCHEMES.items():
        for in_names, out_names in scheme.translation_steps:
            assert set(in_names) <= set(scheme.source_factors), name
            assert set(out_names) <= set(scheme.target_factors), name
        for in_names, out_names in scheme.generation_steps:
            assert set(in_names + out_names) <= set(scheme.target_factors), name
        assert scheme.source_width == len(scheme.source_factors) - 1
        assert scheme.target_width == len(scheme.target_factors) - 1


def test_what_the_bench_reads_and_patches(monkeypatch):
    corpus = ParallelCorpus(["a|x b|y", ""], ["c|z", "d|w"])
    assert corpus.pairs == [(["a|x", "b|y"], ["c|z"]), ([], ["d|w"])]
    assert corpus.source_lines() == corpus.src and corpus.source_lines() is not corpus.src
    assert corpus.target_lines() == corpus.tgt and corpus.target_lines() is not corpus.tgt
    calls = []
    for name in ("source_lines", "target_lines"):
        method = vars(ParallelCorpus)[name]
        monkeypatch.setattr(ParallelCorpus, name,
                            lambda self, method=method: calls.append(method) or method(self))
    assert (corpus.source_lines(), corpus.target_lines()) == (corpus.src, corpus.tgt)
    assert len(calls) == 2
    failure = EntryFailure(1, "cat", "cat", "bad")
    dictionary = WordFormDictionary(["dog\tकुत्ता", "dogs\tकुत्ते"], SURFACE_SCHEME, [failure])
    assert dictionary.entries == [("dog", "कुत्ता"), ("dogs", "कुत्ते")]
    assert dictionary.failures == [failure] and len(dictionary) == 2
    report = InjectionReport(entries_offered=4, entries_added=3, duplicates_skipped=1,
                             normalization_applied=False)
    assert (report.entries_offered, report.entries_added) == (4, 3)


def test_vocab_membership():
    vocab = VocabSet.from_tokens(["a", "b", "a"])
    assert vocab == VocabSet({"a", "b"}) and "a" in vocab and "c" not in vocab
    corpus = ParallelCorpus(["x|1 y|2"], ["z|3"])
    assert VocabSet.from_corpus_side(corpus, "source").entries == {"x", "y"}
    assert VocabSet.from_corpus_side(corpus).entries == {"z"}
