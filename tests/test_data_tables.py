"""The data-table loaders: located errors on any malformed row, empty rule
files rejected, packaged defaults loaded once."""

import contextlib
import io
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphinject import noun_morph as nm
from morphinject import script_core as sc
from morphinject import source_factors as sf
from morphinject import verb_morph as vm
from morphinject.cli import main
from morphinject.errors import InputError

DATA = Path(__file__).parents[1] / "src/morphinject/data"
FIXTURES = Path(__file__).parent / "fixtures"

# per overridable data file: its loader and a command that reads it
# through the flag appended to the argv
TABLES = {
    "noun_suffixes.tsv": (nm.load_suffix_table, [
        "build-dict", "--kind", "noun", "--lexicon", str(FIXTURES / "noun_lexicon.tsv"),
        "--table"]),
    "verb_suffixes.tsv": (vm.load_verb_suffix_table, [
        "build-dict", "--kind", "verb", "--lexicon", str(FIXTURES / "verb_lexicon.tsv"),
        "--table"]),
    "pronouns.tsv": (sf.load_pronoun_table, [
        "annotate", "--conllu", str(FIXTURES / "sample.conllu"), "--pronouns"]),
    "case_rules.tsv": (sf.load_case_rules, [
        "annotate", "--conllu", str(FIXTURES / "sample.conllu"), "--case-rules"]),
    "tam_rules.tsv": (sf.load_tam_rules, [
        "annotate", "--conllu", str(FIXTURES / "sample.conllu"), "--tam-rules"]),
}

# empty, the null mark, tab, NEL (a line break to str.splitlines), no-break
# space, a lone virama, the comment mark
JUNK = ["", "-", "\t", "\x85", "\xa0", "्", "#"]


@st.composite
def mutated_table(draw, name):
    """The packaged file with one data row mutated."""
    lines = (DATA / name).read_text("utf-8").split("\n")
    rows = [i for i, ln in enumerate(lines) if ln.strip() and not ln.startswith("#")]
    i = draw(st.sampled_from(rows))
    fields = lines[i].split("\t")
    op = draw(st.sampled_from(["drop", "add", "replace", "extend"]))
    junk = draw(st.sampled_from(JUNK))
    if op == "drop":
        del fields[draw(st.integers(0, len(fields) - 1))]
    elif op == "add":
        fields.insert(draw(st.integers(0, len(fields))), junk)
    elif op == "replace":
        fields[draw(st.integers(0, len(fields) - 1))] = junk
    else:
        fields[draw(st.integers(0, len(fields) - 1))] += junk
    lines[i] = "\t".join(fields)
    return "\n".join(lines)


@pytest.mark.parametrize("name", sorted(TABLES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_table_loads_or_names_file_and_line(tmp_path_factory, name, data):
    text = data.draw(mutated_table(name))
    path = tmp_path_factory.mktemp("table") / name
    path.write_text(text, "utf-8")
    load, argv = TABLES[name]
    try:
        load(str(path))
    except InputError as exc:
        message = str(exc)
        assert re.match(rf"{re.escape(str(path))}(:[1-9][0-9]*)?: ", message), message
    else:
        message = None

    out = path.with_suffix(".out")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([*argv, str(path), "--out", str(out)])
    if message is None:
        assert code in (0, 1), stderr.getvalue()
    else:
        assert code == 1
        assert stderr.getvalue() == f"error: {message}\n"


@pytest.mark.parametrize("default", [
    nm.default_suffix_table, vm.default_verb_suffix_table, sf.default_pronoun_table,
    sf.default_case_rules, sf.default_tam_rules,
])
def test_packaged_defaults_load_once(default):
    assert default() is default()


@pytest.mark.parametrize("name", list(TABLES))
def test_a_table_and_its_lines_load_the_same_from_a_path_as_from_a_str(name):
    loader = TABLES[name][0]
    by_path, by_str = loader(DATA / name), loader(str(DATA / name))
    assert (by_path == by_str) if isinstance(by_str, list) else vars(by_path) == vars(by_str)
    assert sc.read_lines(DATA / name) == sc.read_lines(str(DATA / name))
    missing = DATA / "missing" / name
    with pytest.raises(InputError, match=f"^{re.escape(str(missing))}: no such file$"):
        loader(missing)


def test_empty_rule_file_is_an_error_and_empty_rules_are_used_as_given():
    with pytest.raises(InputError, match=r"^<stream>: no case rules$"):
        sf.load_case_rules(io.StringIO("# no rules\n"))
    with pytest.raises(InputError, match=r"^<stream>: no TAM rules$"):
        sf.load_tam_rules(io.StringIO("# no rules\n"))
    # "dogs bark at cats": with no case rules every noun takes the fallback,
    # direct; the packaged rules make "cats" oblique
    sentence = [
        sf.ConlluToken(1, "dogs", "dog", "NNS", 2, "nsubj"),
        sf.ConlluToken(2, "bark", "bark", "VBP", 0, "root"),
        sf.ConlluToken(3, "at", "at", "IN", 4, "case"),
        sf.ConlluToken(4, "cats", "cat", "NNS", 2, "obl"),
    ]
    assert sf.annotate_sentence(sentence, "noun")[3] == ("cat", ("pl", "obl"))
    assert sf.annotate_sentence(sentence, "noun", case_rules=[])[3] == ("cat", ("pl", "dir"))
    assert sf.annotate_sentence(sentence, case_rules=[])[3] == ("cat", ("pl", "dir"))
    assert sf.annotate_sentence(sentence, "verb", tam_rules=[])[1] == ("bark", ("pl", "3", "hab"))
