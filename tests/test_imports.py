"""The import graph: a CLI call loads only the layers its subcommand runs,
none of them loads dataclasses, inspect, logging, typing, pathlib,
tempfile or random, and the package's public names load their module on
first access.

Each call runs in a fresh interpreter, which calls cli.main and reports
the modules in sys.modules; a bare interpreter reports its own, so that
what a site .pth file imports is not counted against a call. The probe
for typing, pathlib, tempfile and random runs under -S instead, since a
site .pth file may import all four.
"""

import argparse
import functools
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import morphinject
from morphinject.cli import build_parser
from morphinject.dictionary_builder import SCHEMES
from morphinject.noun_morph import NOUN_CLASSES
from morphinject.script_core import GENDERS

ROOT = Path(__file__).parents[1]
FIXTURES = ROOT / "tests" / "fixtures"

# every name the package exported when it imported all of its modules,
# less those that are gone: a token is its text, so FactoredToken and
# DictEntry are no more, paradigm_space had no caller, and a factor value
# is a string, so VerbFactors is no more; the joiners rewrite the endings
# they classify, so rewrite_ending, RewriteRule, RuleNotApplicable and
# split_syllables are no more; a closed value set is a tuple of strings
# (script_core.GENDERS, noun_morph.NOUN_CLASSES, ...), so the enums
# Case, Gender, NounClass, Number, Person and TamSlot are no more; every
# error is an InputError, which nothing told apart by subclass, so
# MorphinjectError and its thirteen marker subclasses are no more;
# annotate_sentence alone decides what a noun or verb is and computes its
# factors, so the per-token is_noun, is_verb, noun_number, noun_case and
# verb_factors, which nothing in the package called, are no more; the CLI
# writes every output file, so emit_factored_corpus is no more; and a
# rule is defined once, so script_core's _WORD (tail_match's word rule)
# and line_pattern (one surface-only side pattern, now the builder's) are
# no more; and a table is a value the caller passes, got from its load_*,
# so the cached loaders of the packaged tables are no more; and verbs join
# as nouns do, in one unchecked _join, so _attach and _vowel_form are no more
RETIRED_ERRORS = ("MorphinjectError", "EmptyInput", "NonDevanagariContent", "EmptyRoot",
                  "IllegalSuffixForClass", "NotANoun", "NotAVerb", "LineCountMismatch",
                  "RaggedFactorWidth", "MalformedToken", "WidthIncompatible", "ZeroBaseline",
                  "LengthMismatch", "EmptyCorpus")
GONE = ("normalize_factors", "paradigm_space", "DictEntry", "FactoredToken", "VerbFactors",
        "rewrite_ending", "RewriteRule", "RuleNotApplicable", "split_syllables",
        "Case", "Gender", "NounClass", "Number", "Person", "TamSlot", *RETIRED_ERRORS,
        "is_noun", "is_verb", "noun_number", "noun_case", "verb_factors",
        "emit_factored_corpus", "_WORD", "line_pattern", "entry_sides",
        "default_suffix_table", "default_verb_suffix_table", "default_pronoun_table",
        "default_case_rules", "default_tam_rules", "_attach", "_vowel_form",
        "is_consonant", "is_independent_vowel", "is_matra", "is_devanagari",
        "contains_nasal", "_LONG_ENDINGS", "FACTOR_SEP", "strip_final_nasal", "_TRAILING_MARKS")
EXPORTS = {
    "noun_morph": ["NounLexEntry", "SuffixTable", "classify_noun", "join_noun",
                   "load_suffix_table", "noun_paradigm"],
    "verb_morph": ["VerbLexEntry", "VerbSuffixTable", "join_verb", "load_verb_suffix_table",
                   "verb_paradigm"],
    "dictionary_builder": ["FactorScheme", "WordFormDictionary", "build_noun_dict",
                           "build_verb_dict", "strip_to_surface"],
    "corpus_inject": ["InjectionReport", "ParallelCorpus", "inject", "parse_factored_corpus"],
    "evaluation": ["BleuScore", "OovReport", "SparsityReport", "bleu", "oov_count",
                   "oov_reduction", "sparsity_report"],
}

_PROBE = """\
import sys
from morphinject import cli
code = cli.main(sys.argv[1:])
print(code, *sys.modules)
"""
_BARE = "import sys; print(0, *sys.modules)"


def _modules(*args, site: bool = True) -> set[str]:
    """The modules loaded at the end of `python -c *args`, run with the
    site module or, with `site` false, under -S; it must exit 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    python = [sys.executable] if site else [sys.executable, "-S"]
    proc = subprocess.run([*python, "-c", *args], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    code, *modules = proc.stdout.splitlines()[-1].split(" ")
    assert code == "0", proc.stderr
    return set(modules)


@functools.cache
def _bare() -> set[str]:
    return _modules(_BARE)


def _loaded(*argv) -> set[str]:
    """The morphinject modules a CLI call loads."""
    return {m for m in _modules(_PROBE, *argv) if m.partition(".")[0] == "morphinject"}


def _calls(tmp_path) -> dict[str, list[str]]:
    """One call of every subcommand that reads files, on small inputs, and
    the calls named by a subcommand and an option that changes the layers
    it runs."""
    nouns, text = tmp_path / "nouns.tsv", tmp_path / "text.txt"
    nouns.write_text("dog\tकुत्ता\tm\t1\n", "utf-8")
    text.write_text("the dog walks\n", "utf-8")
    dictionary = tmp_path / "dict.tsv"
    dictionary.write_text("dog|sg|dir\tकुत्ता|कुत्ता|null\n", "utf-8")
    src, tgt = str(FIXTURES / "corpus_src.txt"), str(FIXTURES / "corpus_tgt.txt")
    out = str(tmp_path / "out")
    return {
        "annotate": ["--conllu", str(FIXTURES / "sample.conllu"), "--out", out],
        "build-dict": ["--kind", "noun", "--lexicon", str(nouns), "--out", out,
                       "--failures", out + ".json"],
        "inject": ["--source", src, "--target", tgt, "--dict", str(dictionary),
                   "--out-source", out + ".src", "--out-target", out + ".tgt",
                   "--report", out + ".json", "--format", "json"],
        "sparsity": ["--train-source", src, "--train-target", tgt, "--probe-source", src,
                     "--probe-target", tgt, "--scheme", "noun", "--format", "json", "--out", out],
        "oov": ["--tokens", str(text), "--vocab", str(text), "--format", "json", "--out", out],
        "bleu": ["--candidates", str(text), "--references", str(text), "--format", "json",
                 "--out", out],
        "paradigm": ["--root", "कुत्ता", "--gender", "m", "--out", out],
        "classify": ["--lexicon", str(nouns), "--bilingual", "--out", out],
        "build-dict --kind verb": ["--kind", "verb", "--lexicon", str(FIXTURES / "verb_lexicon.tsv"),
                                   "--surface", "--out", out],
        "paradigm --verb": ["--verb", "--stem", "चल", "--out", out],
    }


@pytest.mark.parametrize("subcommand", ["annotate", "build-dict", "inject", "sparsity", "oov",
                                        "bleu", "paradigm", "classify"])
def test_no_call_loads_dataclasses_inspect_or_logging(tmp_path, subcommand):
    loaded = _modules(_PROBE, subcommand, *_calls(tmp_path)[subcommand]) - _bare()
    assert "morphinject.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "logging"}


@pytest.mark.parametrize("subcommand, first, second", [
    ("bleu", "--candidates", "--references"),
    ("oov", "--tokens", "--vocab"),
])
def test_evaluation_subcommands_load_only_evaluation(tmp_path, subcommand, first, second):
    text = tmp_path / "text.txt"
    text.write_text("the dog walks\na girl\n", "utf-8")
    loaded = _loaded(subcommand, first, str(text), second, str(text),
                     "--out", str(tmp_path / "report.txt"))
    assert loaded == {"morphinject", "morphinject.cli", "morphinject.errors",
                      "morphinject.script_core", "morphinject.evaluation"}


def test_annotate_loads_only_source_factors(tmp_path):
    loaded = _loaded("annotate", "--conllu", str(FIXTURES / "sample.conllu"),
                     "--out", str(tmp_path / "out.txt"))
    assert loaded == {"morphinject", "morphinject.cli", "morphinject.errors",
                      "morphinject.script_core", "morphinject.source_factors"}


# the layers each call loads besides the CLI's own modules: the
# dictionary format loads no morphology and no annotator, and build-dict
# loads the morphology of its kind only
_CLI = {"morphinject", "morphinject.cli", "morphinject.errors", "morphinject.script_core"}
_LAYERS = {
    "build-dict": ("dictionary_builder", "noun_morph"),
    "build-dict --kind verb": ("dictionary_builder", "verb_morph"),
    "inject": ("dictionary_builder", "corpus_inject"),
    "sparsity": ("dictionary_builder", "corpus_inject", "evaluation"),
    "paradigm": ("noun_morph",),
    "paradigm --verb": ("verb_morph",),
    "classify": ("noun_morph",),
}


@pytest.mark.parametrize("call", list(_LAYERS))
def test_each_subcommand_loads_only_the_layers_it_runs(tmp_path, call):
    loaded = _loaded(call.split(" ")[0], *_calls(tmp_path)[call])
    assert loaded == _CLI | {f"morphinject.{layer}" for layer in _LAYERS[call]}


@pytest.mark.parametrize("call", ["annotate", "oov", "bleu", *_LAYERS])
def test_no_call_loads_typing_pathlib_tempfile_or_random(tmp_path, call):
    # run without site: a site .pth file may import any of them before the
    # package runs, and a probe that subtracts what bare Python loads then
    # cannot see them. argparse loads shutil itself, so shutil is not here
    loaded = _modules(_PROBE, call.split(" ")[0], *_calls(tmp_path)[call], site=False)
    assert "morphinject.cli" in loaded
    assert not loaded & {"typing", "pathlib", "tempfile", "random"}


def test_the_corpus_layer_loads_no_dictionary_layer():
    # inject takes any WordFormDictionary, factored or surface-only, so
    # the corpus layer names the dictionary layer only in its annotations
    loaded = _modules("import sys, morphinject.corpus_inject; print(0, *sys.modules)")
    assert "morphinject.corpus_inject" in loaded
    assert "morphinject.dictionary_builder" not in loaded


def test_english_inflection_lives_in_the_dictionary_layer():
    annotator, builder = (import_module(f"morphinject.{m}")
                          for m in ("source_factors", "dictionary_builder"))
    for name in ("english_noun_surface", "english_verb_surface", "_noun_exceptions",
                 "_verb_exceptions", "_add_s", "_surface_form", "_SIBILANT_ENDINGS", "_VOWELS"):
        assert hasattr(builder, name) and not hasattr(annotator, name), name


def test_package_names_resolve_on_first_access():
    for module, names in EXPORTS.items():
        namespace = {}
        exec(f"from morphinject import {', '.join(names)}", namespace)
        for name in names:
            assert namespace[name] is getattr(import_module(f"morphinject.{module}"), name)
            assert name in dir(morphinject) and name in morphinject.__all__
    for name in GONE:
        assert name not in morphinject.__all__
        with pytest.raises(AttributeError):
            getattr(morphinject, name)
        for module in ("script_core", "errors", "source_factors", *EXPORTS):
            assert not hasattr(import_module(f"morphinject.{module}"), name), (module, name)


def test_input_error_is_the_only_exception_class():
    errors = import_module("morphinject.errors")
    classes = [name for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, BaseException)]
    assert classes == ["InputError"]
    assert errors.InputError.__bases__ == (Exception,)


def test_unknown_package_name_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        morphinject.no_such_name
    with pytest.raises(ImportError):
        exec("from morphinject import no_such_name", {})


def _choices(subcommand: str, dest: str) -> list[str]:
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return next(a.choices for a in sub.choices[subcommand]._actions if a.dest == dest)


def test_literal_parser_choices_match_their_definitions():
    assert _choices("sparsity", "scheme") == sorted(SCHEMES)
    assert _choices("paradigm", "gender") == GENDERS
    assert _choices("paradigm", "noun_class") == NOUN_CLASSES
