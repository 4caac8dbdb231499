"""The exact bytes of every report the CLI writes, in both formats, and
the JSON keys each subcommand's --help lists.

A JSON report is schema_version 1 first, then the record's fields in
the order they are declared, a nested record as an object and a tuple
as a list; the text report is one `key: value` line per field and one
`key: k=v, ...` line per nested record.
"""

import json
import re

import pytest

from morphinject.cli import main

NOUN_DICT = (
    "dog|sg|dir\tकुत्ता|कुत्ता|null\n"
    "dog|pl|obl\tकुत्तों|कुत्ता|ओं\n"
    "girl|sg|dir\tलड़की|लड़की|null\n"
)
# NOUN_DICT stripped to surface forms, as build-dict --surface writes it
SURFACE_DICT = "dog\tकुत्ता\ndogs\tकुत्तों\ngirl\tलड़की\n"
SOURCE = "the|null|null dog|sg|dir\ndog|sg|dir\n"
TARGET = "कुत्ता|कुत्ता|null है|हो|null\nकुत्ता|कुत्ता|null\n"
PROBE_SOURCE = "dog|pl|obl girl|sg|dir\n"
PROBE_TARGET = "कुत्तों|कुत्ता|ओं\n"
TOKENS = "कुत्ता कुत्तों घर\nकुत्तों\n"
VOCAB = "कुत्ता\n"
CANDIDATES = "the dog runs home today\nthe girl sees a dog\n"
REFERENCES = "the dog runs home today now\nthe girl sees the dog\n"


@pytest.fixture
def files(tmp_path):
    texts = {"dict.tsv": NOUN_DICT, "surface.tsv": SURFACE_DICT, "src": SOURCE, "tgt": TARGET,
             "probe.src": PROBE_SOURCE, "probe.tgt": PROBE_TARGET,
             "tokens": TOKENS, "vocab": VOCAB, "cand": CANDIDATES, "ref": REFERENCES}
    for name, text in texts.items():
        (tmp_path / name).write_text(text, "utf-8")
    return tmp_path


def _argv(d, call):
    """The argv of one report-writing call; its report goes to d/report."""
    report = str(d / "report")
    return {
        "inject": ["inject", "--source", str(d / "src"), "--target", str(d / "tgt"),
                   "--dict", str(d / "dict.tsv"), "--out-source", str(d / "o.src"),
                   "--out-target", str(d / "o.tgt"), "--report", report],
        "inject --dict surface.tsv": ["inject", "--source", str(d / "src"),
                                      "--target", str(d / "tgt"), "--dict", str(d / "surface.tsv"),
                                      "--out-source", str(d / "o.src"),
                                      "--out-target", str(d / "o.tgt"), "--report", report],
        "sparsity": ["sparsity", "--scheme", "noun", "--train-source", str(d / "src"),
                     "--train-target", str(d / "tgt"), "--probe-source", str(d / "probe.src"),
                     "--probe-target", str(d / "probe.tgt"), "--out", report],
        "sparsity --scheme surface": [
            "sparsity", "--scheme", "surface", "--train-source", str(d / "tokens"),
            "--train-target", str(d / "tokens"), "--probe-source", str(d / "vocab"),
            "--probe-target", str(d / "vocab"), "--out", report],
        "oov": ["oov", "--tokens", str(d / "tokens"), "--vocab", str(d / "vocab"),
                "--out", report],
        "bleu": ["bleu", "--candidates", str(d / "cand"), "--references", str(d / "ref"),
                 "--out", report],
    }[call]


TEXT = {
    "inject": (
        "schema_version: 1\n"
        "entries_offered: 3\n"
        "entries_added: 2\n"
        "duplicates_skipped: 1\n"
        "normalization_applied: False\n"
    ),
    "inject --dict surface.tsv": (
        "schema_version: 1\n"
        "entries_offered: 3\n"
        "entries_added: 3\n"
        "duplicates_skipped: 0\n"
        "normalization_applied: True\n"
    ),
    "sparsity": (
        "schema_version: 1\n"
        "translation_steps: step=root|number|case -> root|suffix, seen=0, unseen=2, "
        "unseen_tuples=['dog|pl|obl', 'girl|sg|dir']\n"
        "generation_steps: step=root|suffix -> surface, seen=0, unseen=1, "
        "unseen_tuples=['कुत्ता|ओं']\n"
    ),
    "sparsity --scheme surface": (
        "schema_version: 1\n"
        "translation_steps: step=surface -> surface, seen=1, unseen=0, unseen_tuples=[]\n"
        "generation_steps: []\n"
    ),
    "oov": (
        "schema_version: 1\n"
        "total_tokens: 4\n"
        "oov_tokens: 3\n"
        "oov_types: ['कुत्तों', 'घर']\n"
    ),
    "bleu": (
        "schema_version: 1\n"
        "score: 0.6231838376616489\n"
        "precisions: [0.9, 0.75, 0.6666666666666666, 0.5]\n"
        "brevity_penalty: 0.9048374180359595\n"
        "candidate_length: 10\n"
        "reference_length: 11\n"
    ),
}

JSON = {
    "inject": (
        '{\n'
        '  "schema_version": 1,\n'
        '  "entries_offered": 3,\n'
        '  "entries_added": 2,\n'
        '  "duplicates_skipped": 1,\n'
        '  "normalization_applied": false\n'
        '}\n'
    ),
    "inject --dict surface.tsv": (
        '{\n'
        '  "schema_version": 1,\n'
        '  "entries_offered": 3,\n'
        '  "entries_added": 3,\n'
        '  "duplicates_skipped": 0,\n'
        '  "normalization_applied": true\n'
        '}\n'
    ),
    "sparsity": (
        '{\n'
        '  "schema_version": 1,\n'
        '  "translation_steps": [\n'
        '    {\n'
        '      "step": "root|number|case -> root|suffix",\n'
        '      "seen": 0,\n'
        '      "unseen": 2,\n'
        '      "unseen_tuples": [\n'
        '        "dog|pl|obl",\n'
        '        "girl|sg|dir"\n'
        '      ]\n'
        '    }\n'
        '  ],\n'
        '  "generation_steps": [\n'
        '    {\n'
        '      "step": "root|suffix -> surface",\n'
        '      "seen": 0,\n'
        '      "unseen": 1,\n'
        '      "unseen_tuples": [\n'
        '        "कुत्ता|ओं"\n'
        '      ]\n'
        '    }\n'
        '  ]\n'
        '}\n'
    ),
    "sparsity --scheme surface": (
        '{\n'
        '  "schema_version": 1,\n'
        '  "translation_steps": [\n'
        '    {\n'
        '      "step": "surface -> surface",\n'
        '      "seen": 1,\n'
        '      "unseen": 0,\n'
        '      "unseen_tuples": []\n'
        '    }\n'
        '  ],\n'
        '  "generation_steps": []\n'
        '}\n'
    ),
    "oov": (
        '{\n'
        '  "schema_version": 1,\n'
        '  "total_tokens": 4,\n'
        '  "oov_tokens": 3,\n'
        '  "oov_types": [\n'
        '    "कुत्तों",\n'
        '    "घर"\n'
        '  ]\n'
        '}\n'
    ),
    "bleu": (
        '{\n'
        '  "schema_version": 1,\n'
        '  "score": 0.6231838376616489,\n'
        '  "precisions": [\n'
        '    0.9,\n'
        '    0.75,\n'
        '    0.6666666666666666,\n'
        '    0.5\n'
        '  ],\n'
        '  "brevity_penalty": 0.9048374180359595,\n'
        '  "candidate_length": 10,\n'
        '  "reference_length": 11\n'
        '}\n'
    ),
}


@pytest.mark.parametrize("fmt, expected", [("text", TEXT), ("json", JSON)])
@pytest.mark.parametrize("call", list(TEXT))
def test_each_report_has_its_exact_bytes(files, capsys, call, fmt, expected):
    code = main([*_argv(files, call), "--format", fmt])
    assert (code, *capsys.readouterr()) == (0, "", "")
    assert (files / "report").read_bytes() == expected[call].encode("utf-8")


@pytest.mark.parametrize("subcommand", ["inject", "sparsity", "oov", "bleu"])
def test_each_help_lists_the_keys_of_its_json_report(files, capsys, subcommand):
    with pytest.raises(SystemExit) as exit_:
        main([subcommand, "--help"])
    assert exit_.value.code == 0
    help_text = " ".join(capsys.readouterr().out.split())
    (listed,) = re.findall(r"JSON report keys: ([^.]*)\.", help_text)
    top, _, nested = listed.partition("; each step has ")
    assert main([*_argv(files, subcommand), "--format", "json"]) == 0
    report = json.loads((files / "report").read_text("utf-8"))
    assert top.split(", ") == list(report)
    steps = [step for key in ("translation_steps", "generation_steps")
             for step in report.get(key, ())]
    assert [nested.split(", ")] * len(steps) == [list(step) for step in steps]
    assert bool(nested) == bool(steps)
