"""The import graph: a CLI call loads only the layers its subcommand runs,
and the package's public names load their module on first access.

Each call runs in a fresh interpreter, which calls cli.main and reports
the morphinject modules in sys.modules.
"""

import argparse
import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import morphinject
from morphinject.cli import build_parser
from morphinject.dictionary_builder import SCHEMES
from morphinject.noun_morph import NounClass

ROOT = Path(__file__).parents[1]
FIXTURES = ROOT / "tests" / "fixtures"

# every name the package exported when it imported all of its modules,
# less those that are gone: a token is its text, so FactoredToken and
# DictEntry are no more, paradigm_space had no caller, and a factor value
# is a string, so VerbFactors is no more; the joiners rewrite the endings
# they classify, so rewrite_ending, RewriteRule, RuleNotApplicable and
# split_syllables are no more
GONE = ("normalize_factors", "paradigm_space", "DictEntry", "FactoredToken", "VerbFactors",
        "rewrite_ending", "RewriteRule", "RuleNotApplicable", "split_syllables")
EXPORTS = {
    "noun_morph": ["Case", "Gender", "NounClass", "NounLexEntry", "Number", "SuffixTable",
                   "classify_noun", "default_suffix_table", "join_noun", "noun_paradigm"],
    "verb_morph": ["Person", "TamSlot", "VerbLexEntry", "VerbSuffixTable",
                   "default_verb_suffix_table", "join_verb", "verb_paradigm"],
    "dictionary_builder": ["FactorScheme", "WordFormDictionary", "build_noun_dict",
                           "build_verb_dict", "strip_to_surface"],
    "corpus_inject": ["InjectionReport", "ParallelCorpus", "emit_factored_corpus", "inject",
                      "parse_factored_corpus"],
    "evaluation": ["BleuScore", "OovReport", "SparsityReport", "VocabSet", "bleu", "oov_count",
                   "oov_reduction", "sparsity_report"],
}

_PROBE = """\
import json, sys
from morphinject import cli
code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.partition(".")[0] == "morphinject")]))
"""


def _loaded(*argv) -> set[str]:
    env = {k: v for k, v in os.environ.items() if k != "MORPHINJECT_DATA"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _PROBE, *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0, proc.stderr
    return set(modules)


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


def test_annotate_loads_no_dictionary_corpus_or_evaluation_layer(tmp_path):
    loaded = _loaded("annotate", "--conllu", str(FIXTURES / "sample.conllu"),
                     "--out", str(tmp_path / "out.txt"))
    assert "morphinject.source_factors" in loaded
    assert not loaded & {"morphinject.dictionary_builder", "morphinject.corpus_inject",
                         "morphinject.evaluation"}


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
        for module in ("script_core", "errors", *EXPORTS):
            assert not hasattr(import_module(f"morphinject.{module}"), name), (module, name)


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
    assert _choices("paradigm", "noun_class") == [c.value for c in NounClass]
