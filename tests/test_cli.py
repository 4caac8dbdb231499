import atexit
import gc
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphinject import cli
from morphinject.cli import main
from morphinject.errors import InputError

ROOT = Path(__file__).parents[1]
FIXTURES = Path(__file__).parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_paradigm_dog(capsys):
    code, out, err = run(capsys, "paradigm", "--root", "कुत्ता", "--gender", "m")
    assert code == 0 and err == ""
    assert out == (
        "sg\tdir\t-\tकुत्ता\n"
        "sg\tobl\tए\tकुत्ते\n"
        "pl\tdir\tए\tकुत्ते\n"
        "pl\tobl\tओं\tकुत्तों\n"
    )


def test_paradigm_verb(capsys):
    code, out, _ = run(capsys, "paradigm", "--verb", "--stem", "चल")
    assert code == 0
    assert "hab\tm\tsg\t3\tता\tचलता" in out


# an option of the other kind of paradigm is an error, not ignored
@pytest.mark.parametrize("argv, message", [
    (["--verb", "--stem", "चल", "--root", "कुत्ता"], "--root cannot be given with --verb"),
    (["--verb", "--stem", "चल", "--gender", "m"], "--gender cannot be given with --verb"),
    (["--verb", "--stem", "चल", "--uncountable"], "--uncountable cannot be given with --verb"),
    (["--verb", "--stem", "चल", "--noun-class", "D"], "--noun-class cannot be given with --verb"),
    (["--verb", "--stem", "चल", "--root", ""], "--root cannot be given with --verb"),
    (["--root", "कुत्ता", "--gender", "m", "--stem", "चल"], "--stem needs --verb"),
], ids=["root", "gender", "uncountable", "noun-class", "empty-root", "stem"])
def test_paradigm_option_of_the_other_kind_exits_1(tmp_path, capsys, argv, message):
    out = tmp_path / "p.tsv"
    code, stdout, err = run(capsys, "paradigm", *argv, "--out", str(out))
    assert (code, stdout, err) == (1, "", f"error: {message}\n")
    assert not out.exists()


# a missing root or stem is named as a missing option; an empty or blank
# one that was given gets the entry's own diagnostic
@pytest.mark.parametrize("argv, message", [
    (["--gender", "m"], "--root and --gender are required for noun paradigms"),
    (["--root", "कुत्ता"], "--root and --gender are required for noun paradigms"),
    (["--verb"], "--stem is required for verb paradigms"),
    (["--root", "", "--gender", "m"], "noun entry with empty root"),
    (["--root", " ", "--gender", "f"], "noun entry with empty root"),
    (["--verb", "--stem", ""], "verb entry with empty stem"),
    (["--verb", "--stem", " "], "verb entry with empty stem"),
], ids=["no-root", "no-gender", "no-stem", "empty-root", "blank-root", "empty-stem",
        "blank-stem"])
def test_paradigm_missing_or_empty_root_or_stem_exits_1(tmp_path, capsys, argv, message):
    out = tmp_path / "p.tsv"
    code, stdout, err = run(capsys, "paradigm", *argv, "--out", str(out))
    assert (code, stdout, err) == (1, "", f"error: {message}\n")
    assert not out.exists()


def test_classify(tmp_path, capsys):
    lex = tmp_path / "nouns.tsv"
    lex.write_text("dog\tकुत्ता\tm\t1\nhunger\tभूख\tf\t0\n", "utf-8")
    code, out, _ = run(capsys, "classify", "--lexicon", str(lex), "--bilingual")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].endswith("\tD") and lines[1].endswith("\tA")


def test_missing_file_exits_1(capsys):
    code, _, err = run(capsys, "bleu", "--candidates", "nope.txt", "--references", "nope.txt")
    assert code == 1
    assert "no such file" in err


def test_diagnostics_name_file_and_line(tmp_path, capsys):
    lex = tmp_path / "bad.tsv"
    lex.write_text("dog\tकुत्ता\tx\t1\n", "utf-8")
    code, _, err = run(capsys, "classify", "--lexicon", str(lex), "--bilingual")
    assert code == 1
    assert err == f"error: {lex}:1: bad gender 'x' (expected one of m, f)\n"


# a column past the class is an error, not cut off
@pytest.mark.parametrize("row, flags, columns", [
    ("six\tघर\tm\t1\tE\textra\tmore", ("--bilingual",),
     "at most 5 tab-separated fields (english_root, hindi_root, gender, countable, class), got 7"),
    ("घर\tm\t1\tE\t", (),
     "at most 4 tab-separated fields (hindi_root, gender, countable, class), got 5"),
], ids=["bilingual", "monolingual"])
def test_a_noun_row_with_a_column_past_the_class_exits_1(tmp_path, capsys, row, flags, columns):
    lex = tmp_path / "nouns.tsv"
    lex.write_text(f"# nouns\n{row}\n", "utf-8")
    code, out, err = run(capsys, "classify", "--lexicon", str(lex), *flags)
    assert (code, out, err) == (1, "", f"error: {lex}:2: expected {columns}\n")


def test_verb_override_with_a_fifth_slot_part_exits_1(tmp_path, capsys):
    lex = tmp_path / "verbs.tsv"
    lex.write_text("walk\tचल\ngo\tजा\tperf:m:sg:3:zzz=गया\n", "utf-8")
    out = tmp_path / "dict.txt"
    code, _, err = run(capsys, "build-dict", "--kind", "verb", "--lexicon", str(lex), "--out", str(out))
    assert code == 1
    assert err == f"error: {lex}:2: bad override 'perf:m:sg:3:zzz=गया'\n"
    assert not out.exists()


# an override's surface is checked as a suffix is: a Devanagari word
@pytest.mark.parametrize("pair, message", [
    ("perf:m:sg=gaya", "non-Devanagari codepoint U+0067 at offset 0"),
    ("perf:m:sg=गया।", "punctuation '।' at offset 3"),
    ("perf:m:sg=", "empty word"),
], ids=["latin", "danda", "empty"])
def test_verb_override_surface_that_is_not_a_word_exits_1(tmp_path, capsys, pair, message):
    lex = tmp_path / "verbs.tsv"
    lex.write_text(f"walk\tचल\ngo\tजा\t{pair}\n", "utf-8")
    out = tmp_path / "dict.txt"
    code, _, err = run(capsys, "build-dict", "--kind", "verb", "--lexicon", str(lex), "--out", str(out))
    assert code == 1
    assert err == f"error: {lex}:2: bad override {pair!r}: {message}\n"
    assert not out.exists()


# a root or stem is checked whatever its class or suffixes: an uncountable
# noun, a class-A override, and a stem whose table has only consonant-initial
# suffixes
_LATIN = "non-Devanagari codepoint U+0077 at offset 0"


@pytest.mark.parametrize("row, error", [
    ("water\twater\tm\t0", _LATIN),
    ("x\tपा।नी\tm\t0", "punctuation '।' at offset 2"),
    ("water\twater\tf\t1\tA", _LATIN),
], ids=["uncountable-latin", "uncountable-danda", "class-a"])
def test_a_noun_root_that_is_not_a_word_fails_whatever_its_class(tmp_path, capsys, row, error):
    lex = tmp_path / "nouns.tsv"
    lex.write_text(f"dog\tकुत्ता\tm\t1\n{row}\n", "utf-8")
    out, failures = tmp_path / "dict.txt", tmp_path / "failures.json"
    code, _, err = run(capsys, "build-dict", "--kind", "noun", "--lexicon", str(lex),
                       "--out", str(out), "--failures", str(failures))
    assert (code, err) == (0, "warning: 1 lexicon rows failed\n")
    assert out.read_text("utf-8").count("\n") == 4  # the dog's entries only
    assert [(f["row"], f["error"]) for f in json.loads(failures.read_text("utf-8"))["failures"]] \
        == [(1, error)]
    code, out, err = run(capsys, "classify", "--lexicon", str(lex), "--bilingual")
    assert (code, out, err) == (1, "", f"error: {lex}:2: {error}\n")


_UNCOUNTABLE_D = "uncountable noun with class override D: uncountable nouns are class A"


def test_an_uncountable_noun_takes_no_class_override_but_a(tmp_path, capsys):
    code, out, err = run(capsys, "paradigm", "--root", "कुत्ता", "--gender", "m",
                         "--uncountable", "--noun-class", "D")
    assert (code, out, err) == (1, "", f"error: {_UNCOUNTABLE_D}\n")
    code, out, _ = run(capsys, "paradigm", "--root", "कुत्ता", "--gender", "m",
                       "--uncountable", "--noun-class", "A")
    assert (code, out) == (0, "sg\tdir\t-\tकुत्ता\nsg\tobl\t-\tकुत्ता\n"
                              "pl\tdir\t-\tकुत्ता\npl\tobl\t-\tकुत्ता\n")
    lex = tmp_path / "nouns.tsv"
    lex.write_text("boy\tलड़का\tm\t1\tD\nwater\tपानी\tm\t0\tA\ndog\tकुत्ता\tm\t0\tD\n", "utf-8")
    code, out, err = run(capsys, "classify", "--lexicon", str(lex), "--bilingual")
    assert (code, out, err) == (1, "", f"error: {lex}:3: {_UNCOUNTABLE_D}\n")
    dictionary, failures = tmp_path / "dict.txt", tmp_path / "failures.json"
    code, _, err = run(capsys, "build-dict", "--kind", "noun", "--lexicon", str(lex),
                       "--out", str(dictionary), "--failures", str(failures))
    assert (code, err) == (0, "warning: 1 lexicon rows failed\n")
    assert dictionary.read_text("utf-8").count("\n") == 8  # the boy's and the water's entries
    assert json.loads(failures.read_text("utf-8"))["failures"] == [
        {"row": 2, "english_root": "dog", "hindi_root": "कुत्ता", "error": _UNCOUNTABLE_D}]


def test_a_verb_stem_that_is_not_a_word_fails_without_a_vowel_initial_suffix(tmp_path, capsys):
    table = tmp_path / "verb_suffixes.tsv"
    table.write_text("inf\t-\t-\t-\tना\nhab\tm\t-\t-\tता\nhab\tf\t-\t-\tती\n", "utf-8")
    code, out, err = run(capsys, "paradigm", "--verb", "--stem", "walk", "--table", str(table))
    assert (code, out, err) == (1, "", f"error: {_LATIN}\n")


@pytest.mark.parametrize("english, flags", [("", ()), ("dog\t", ("--bilingual",))])
def test_classify_locates_a_non_devanagari_root(tmp_path, capsys, english, flags):
    lex = tmp_path / "nouns.tsv"
    lex.write_text(f"# nouns\n{english}कुत्ता\tm\t1\n{english}kutta\tm\t1\n", "utf-8")
    code, out, err = run(capsys, "classify", "--lexicon", str(lex), *flags)
    assert (code, out) == (1, "")
    assert err == f"error: {lex}:3: non-Devanagari codepoint U+006B at offset 0\n"


def test_unknown_flag_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["paradigm", "--root", "x", "--gender", "m", "--bogus"])
    assert exc.value.code == 1


def test_bleu_identity(tmp_path, capsys):
    f = tmp_path / "text.txt"
    f.write_text("the dog runs\nकुत्ता घर में है\n", "utf-8")
    code, out, _ = run(
        capsys, "bleu", "--candidates", str(f), "--references", str(f), "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["score"] == 1.0


def test_bleu_smoothing_is_the_library_smoothed_score(tmp_path, capsys):
    # no 4-gram matches: the unsmoothed score is 0.0, the smoothed one is not
    from morphinject.evaluation import bleu

    cands, refs = tmp_path / "cands.txt", tmp_path / "refs.txt"
    cands.write_text("a b c d\n", "utf-8")
    refs.write_text("a b x d\n", "utf-8")
    scores = {}
    for flags in ((), ("--smoothing",)):
        code, out, err = run(capsys, "bleu", "--candidates", str(cands), "--references",
                             str(refs), *flags, "--format", "json")
        assert (code, err) == (0, "")
        scores[flags] = json.loads(out)
    smoothed = bleu([["a", "b", "c", "d"]], [["a", "b", "x", "d"]], smoothing=True)
    assert scores[("--smoothing",)] == {"schema_version": 1, **cli._plain(smoothed)}
    assert scores[()]["score"] == 0.0
    assert scores[("--smoothing",)]["score"] != scores[()]["score"]


def test_build_dict_and_inject_roundtrip(tmp_path, capsys):
    lex = tmp_path / "nouns.tsv"
    lex.write_text("dog\tकुत्ता\tm\t1\n", "utf-8")
    dict_path = tmp_path / "dict.tsv"
    code, _, _ = run(
        capsys, "build-dict", "--kind", "noun", "--lexicon", str(lex),
        "--out", str(dict_path),
    )
    assert code == 0
    assert dict_path.read_text("utf-8").splitlines()[0] == "dog|sg|dir\tकुत्ता|कुत्ता|null"

    src = tmp_path / "src.txt"
    tgt = tmp_path / "tgt.txt"
    src.write_text("the|null|null dog|sg|dir\n", "utf-8")
    tgt.write_text("कुत्ता|कुत्ता|null है|हो|null\n", "utf-8")
    out_src = tmp_path / "out.src"
    out_tgt = tmp_path / "out.tgt"
    code, out, _ = run(
        capsys, "inject", "--source", str(src), "--target", str(tgt),
        "--dict", str(dict_path), "--out-source", str(out_src),
        "--out-target", str(out_tgt), "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["entries_offered"] == 4
    assert report["entries_added"] + report["duplicates_skipped"] == 4
    emitted = out_src.read_text("utf-8")
    assert emitted.startswith("the|null|null dog|sg|dir\n")  # prefix intact
    assert "dog|pl|obl" in emitted


@pytest.mark.parametrize("kind", ["noun", "verb"])
def test_a_surface_build_then_inject_is_the_library_surface_injection(tmp_path, capsys, kind):
    # the surface-only injection of the phrase-based runs: build-dict
    # --surface, then inject, writes what inject(corpus,
    # strip_to_surface(factored dictionary)) gives
    from morphinject.corpus_inject import inject, parse_factored_corpus
    from morphinject.dictionary_builder import parse_dictionary, strip_to_surface
    from morphinject.script_core import read_lines

    dicts = {flags: tmp_path / f"{kind}{len(flags)}.dict" for flags in ((), ("--surface",))}
    for flags, path in dicts.items():
        code, _, err = run(capsys, "build-dict", "--kind", kind, *flags,
                           "--lexicon", str(FIXTURES / f"{kind}_lexicon.tsv"), "--out", str(path))
        assert (code, err) == (0, "")
    src, tgt = str(FIXTURES / "corpus_src.txt"), str(FIXTURES / "corpus_tgt.txt")
    out_src, out_tgt = tmp_path / "out.src", tmp_path / "out.tgt"
    code, out, err = run(capsys, "inject", "--source", src, "--target", tgt,
                         "--dict", str(dicts[("--surface",)]), "--out-source", str(out_src),
                         "--out-target", str(out_tgt), "--format", "json")
    assert (code, err) == (0, "")

    corpus = parse_factored_corpus(read_lines(src), read_lines(tgt))
    factored = parse_dictionary(read_lines(str(dicts[()])), str(dicts[()]))
    injected, report = inject(corpus, strip_to_surface(factored))
    assert report.entries_added > 0
    assert out_src.read_text("utf-8") == "".join(ln + "\n" for ln in injected.source_lines())
    assert out_tgt.read_text("utf-8") == "".join(ln + "\n" for ln in injected.target_lines())
    assert json.loads(out) == {"schema_version": 1, **report._asdict()}


def test_inject_has_no_mode(capsys):
    # a surface-only injection injects a build-dict --surface dictionary
    with pytest.raises(SystemExit) as exc:
        main(["inject", "--source", "s", "--target", "t", "--dict", "d",
              "--mode", "surface", "--out-source", "o.s", "--out-target", "o.t"])
    assert exc.value.code == 1
    assert capsys.readouterr().err.endswith("error: unrecognized arguments: --mode surface\n")


def test_inject_auto_normalize_pads_a_ragged_corpus(tmp_path, capsys):
    src, tgt, dictionary = (tmp_path / name for name in ("src.txt", "tgt.txt", "d.tsv"))
    src.write_text("the dog|sg|dir\nbig|null|null cat|sg|dir\n", "utf-8")
    tgt.write_text("कुत्ता|कुत्ता|null\nबिल्ली|बिल्ली|null\n", "utf-8")
    dictionary.write_text("dog|pl|dir\tकुत्ते|कुत्ता|ए\n", "utf-8")
    out_src, out_tgt = tmp_path / "out.src", tmp_path / "out.tgt"
    argv = ["inject", "--source", str(src), "--target", str(tgt), "--dict", str(dictionary),
            "--out-source", str(out_src), "--out-target", str(out_tgt)]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {src}:1:5: factor width differs from first token\n")
    assert not out_src.exists() and not out_tgt.exists()

    code, out, err = run(capsys, *argv, "--auto-normalize")
    # stderr counts the corpus lines the padding rewrote, per side
    assert (code, err) == (0, "warning: --auto-normalize padded 1 source and 0 target lines\n")
    assert out_src.read_text("utf-8") == (
        "the|null|null dog|sg|dir\nbig|null|null cat|sg|dir\ndog|pl|dir\n")
    assert out_tgt.read_text("utf-8") == tgt.read_text("utf-8") + "कुत्ते|कुत्ता|ए\n"
    # normalization_applied counts the padding of dictionary entries, not
    # of the corpus: the entries already have the padded corpus's widths
    assert "entries_added: 1\n" in out and "normalization_applied: False\n" in out

    # an even-width corpus is not rewritten, and no warning is printed
    src.write_text("the|null|null dog|sg|dir\nbig|null|null cat|sg|dir\n", "utf-8")
    code, out, err = run(capsys, *argv, "--auto-normalize")
    assert (code, err) == (0, "")
    assert out_src.read_text("utf-8") == src.read_text("utf-8") + "dog|pl|dir\n"


def test_inject_empty_dict_identity(tmp_path, capsys):
    src = tmp_path / "src.txt"
    tgt = tmp_path / "tgt.txt"
    src_bytes = "a|x b|y\nc|z\n"
    tgt_bytes = "क|x\nख|y\n"
    src.write_text(src_bytes, "utf-8")
    tgt.write_text(tgt_bytes, "utf-8")
    empty = tmp_path / "empty.tsv"
    empty.write_text("", "utf-8")
    out_src = tmp_path / "out.src"
    out_tgt = tmp_path / "out.tgt"
    code, _, _ = run(
        capsys, "inject", "--source", str(src), "--target", str(tgt),
        "--dict", str(empty), "--out-source", str(out_src), "--out-target", str(out_tgt),
    )
    assert code == 0
    assert out_src.read_text("utf-8") == src_bytes
    assert out_tgt.read_text("utf-8") == tgt_bytes


def test_inject_failure_leaves_no_partial_output(tmp_path, capsys):
    src = tmp_path / "src.txt"
    tgt = tmp_path / "tgt.txt"
    src.write_text("a|x\nb|y\n", "utf-8")
    tgt.write_text("क|x\n", "utf-8")  # line count mismatch
    d = tmp_path / "d.tsv"
    d.write_text("", "utf-8")
    out_src = tmp_path / "out.src"
    out_tgt = tmp_path / "out.tgt"
    code, _, err = run(
        capsys, "inject", "--source", str(src), "--target", str(tgt),
        "--dict", str(d), "--out-source", str(out_src), "--out-target", str(out_tgt),
    )
    assert code == 1
    assert "lines" in err
    assert not out_src.exists() and not out_tgt.exists()


def test_build_dict_bad_failures_path_leaves_no_output(tmp_path, capsys):
    out = tmp_path / "out.dict"
    code, _, err = run(
        capsys, "build-dict", "--kind", "verb", "--lexicon", str(FIXTURES / "verb_lexicon.tsv"),
        "--out", str(out), "--failures", str(tmp_path / "nodir" / "f.json"),
    )
    assert code == 1
    assert err.startswith(f"error: {tmp_path / 'nodir' / 'f.json'}: cannot write: ")
    assert sorted(tmp_path.iterdir()) == []


@pytest.fixture
def umask_022():
    old = os.umask(0o022)
    yield
    os.umask(old)


def test_outputs_get_the_mode_open_gives(tmp_path, capsys, umask_022):
    # every output is staged in a temp file and renamed: a new one gets
    # the mode of a sibling written by open(), an existing one keeps its own
    with open(tmp_path / "sibling", "w") as fh:
        fh.write("x\n")
    kept = tmp_path / "kept.dict"
    kept.write_text("", "utf-8")
    kept.chmod(0o640)
    for out in ("new.dict", "kept.dict"):
        code, _, err = run(
            capsys, "build-dict", "--kind", "verb", "--lexicon", str(FIXTURES / "verb_lexicon.tsv"),
            "--out", str(tmp_path / out), "--failures", str(tmp_path / (out + ".json")),
        )
        assert (code, err) == (0, "")
    mode = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert mode == {"sibling": 0o644, "new.dict": 0o644, "new.dict.json": 0o644,
                    "kept.dict": 0o640, "kept.dict.json": 0o644}


@settings(max_examples=100, deadline=None)
@given(umask=st.integers(0, 0o177),
       modes=st.lists(st.none() | st.integers(0o600, 0o777), min_size=1, max_size=3),
       fail=st.booleans())
def test_staged_outputs_get_the_mode_open_gives_and_a_failure_leaves_no_temp(
        tmp_path_factory, umask, modes, fail):
    # output i is new (mode None) or written over a file of that mode; with
    # `fail`, one more output in a missing directory fails the whole call
    folder = tmp_path_factory.mktemp("outputs")
    outputs = []
    for i, mode in enumerate(modes):
        path = folder / f"out{i}"
        if mode is not None:
            path.write_bytes(b"old\n")
            path.chmod(mode)
        outputs.append((str(path), f"new {i}\n"))
    if fail:
        outputs.append((str(folder / "missing" / "out"), ""))

    def files():
        return {p.name: (p.read_bytes(), stat.S_IMODE(p.stat().st_mode)) for p in folder.iterdir()}

    before = files()
    old = os.umask(umask)
    try:
        if fail:
            with pytest.raises(InputError, match="/missing/out: cannot write: "):
                cli._write_atomic(outputs)
        else:
            cli._write_atomic(outputs)
    finally:
        os.umask(old)
    assert files() == before if fail else {
        f"out{i}": (f"new {i}\n".encode(), 0o666 & ~umask if mode is None else mode)
        for i, mode in enumerate(modes)}


def _env(**extra) -> dict[str, str]:
    """A CLI subprocess's environment: this checkout's package, the
    packaged tables, and stdout buffered unless `extra` says otherwise."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return {**env, **extra}


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_stdout_that_cannot_be_written_leaves_no_output(tmp_path, unbuffered):
    # inject with no --report writes its report to stdout, here a pipe whose
    # reader is gone: neither corpus side is renamed into place, no temp is
    # left, and shutdown prints nothing more
    (tmp_path / "d.tsv").write_text("", "utf-8")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "morphinject.cli", "inject",
             "--source", str(FIXTURES / "corpus_src.txt"),
             "--target", str(FIXTURES / "corpus_tgt.txt"), "--dict", str(tmp_path / "d.tsv"),
             "--out-source", str(tmp_path / "o.src"), "--out-target", str(tmp_path / "o.tgt")],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env=_env(**({"PYTHONUNBUFFERED": "1"} if unbuffered else {})))
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "error: <stdout>: cannot write: Broken pipe\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.tsv"]


def test_an_output_naming_a_fifo_is_written_in_place(tmp_path, capsys):
    # renamed over, the FIFO would become a regular file; it is written in
    # place once both corpus sides are staged. The read end is open before
    # the call, so the writer's open does not block, and the report fits in
    # the pipe's buffer; it is drained after the call
    (tmp_path / "d.tsv").write_text("", "utf-8")
    fifo = tmp_path / "report.fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        code, out, err = run(
            capsys, "inject", "--source", str(FIXTURES / "corpus_src.txt"),
            "--target", str(FIXTURES / "corpus_tgt.txt"), "--dict", str(tmp_path / "d.tsv"),
            "--out-source", str(tmp_path / "o.src"), "--out-target", str(tmp_path / "o.tgt"),
            "--report", str(fifo), "--format", "json")
        report = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert (code, out, err) == (0, "", "")
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert json.loads(report)["entries_offered"] == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.tsv", "o.src", "o.tgt", "report.fifo"]
    assert (tmp_path / "o.src").read_bytes() == (FIXTURES / "corpus_src.txt").read_bytes()


@pytest.mark.parametrize("dangling", [False, True], ids=["to-a-file", "dangling"])
def test_an_output_naming_a_symlink_is_written_through_it(tmp_path, capsys, dangling):
    # open() would write the link's target and leave the link as it is; so
    # does the staged write, which stages beside the target and renames onto it
    real = tmp_path / "real.txt"
    if not dangling:
        real.write_text("old\n", "utf-8")
        real.chmod(0o640)
    link = tmp_path / "link.txt"
    link.symlink_to("real.txt")
    code, out, err = run(capsys, "paradigm", "--root", "कुत्ता", "--gender", "m",
                         "--out", str(link))
    assert (code, out, err) == (0, "", "")
    assert link.is_symlink() and os.readlink(link) == "real.txt"
    assert real.read_text("utf-8").startswith("sg\tdir\t-\tकुत्ता\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "real.txt"]
    if not dangling:
        assert stat.S_IMODE(real.stat().st_mode) == 0o640


@pytest.mark.parametrize("name", ["a" * 250 + ".tsv", "कुत्ता" * 13 + "कुत्.tsv"],
                         ids=["ascii-254-bytes", "devanagari-250-bytes"])
def test_an_output_with_a_long_name_is_written(tmp_path, capsys, name):
    # open() writes a name up to NAME_MAX bytes; so does the staged write,
    # whose temp's name is short whatever the output's
    assert len(name.encode()) in (254, 250)
    out = tmp_path / name
    code, stdout, err = run(capsys, "paradigm", "--root", "कुत्ता", "--gender", "m",
                            "--out", str(out))
    assert (code, stdout, err) == (0, "", "")
    assert out.read_text("utf-8").startswith("sg\tdir\t-\tकुत्ता\n")
    assert [p.name for p in tmp_path.iterdir()] == [name]


@pytest.mark.parametrize("kind,rows,failure", [
    ("noun", "dog\tकुत्ता\tm\t1\ncat\tबिल्लीx\tf\t1\nbird\tचिड़िया\tf\t1\n",
     {"row": 1, "english_root": "cat", "hindi_root": "बिल्लीx",
      "error": "non-Devanagari codepoint U+0078 at offset 6"}),
    ("verb", "walk\tचल\neat\tखाx\ngo\tजा\n",
     {"row": 1, "english_root": "eat", "hindi_root": "खाx",
      "error": "non-Devanagari codepoint U+0078 at offset 2"}),
], ids=["noun", "verb"])
def test_build_dict_surface_reports_failed_rows_like_the_factored_build(
        tmp_path, capsys, kind, rows, failure):
    lex = tmp_path / "lexicon.tsv"
    lex.write_text(rows, "utf-8")
    reports = {}
    for flags in ((), ("--surface",)):
        report = tmp_path / f"failures{len(flags)}.json"
        code, _, err = run(capsys, "build-dict", "--kind", kind, "--lexicon", str(lex),
                           "--out", str(tmp_path / "out.dict"), "--failures", str(report), *flags)
        assert (code, err) == (0, "warning: 1 lexicon rows failed\n")
        reports[flags] = report.read_bytes()
    assert reports[("--surface",)] == reports[()]
    assert json.loads(reports[()])["failures"] == [failure]


def test_inject_bad_report_path_leaves_no_output(tmp_path, capsys):
    d = tmp_path / "d.tsv"
    d.write_text("", "utf-8")
    out_src = tmp_path / "out.src"
    out_tgt = tmp_path / "out.tgt"
    report = tmp_path / "nodir" / "r.json"
    code, out, err = run(
        capsys, "inject", "--source", str(FIXTURES / "corpus_src.txt"),
        "--target", str(FIXTURES / "corpus_tgt.txt"), "--dict", str(d),
        "--out-source", str(out_src), "--out-target", str(out_tgt), "--report", str(report),
    )
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {report}: cannot write: ")
    assert sorted(tmp_path.iterdir()) == [d]


@pytest.mark.parametrize("outputs", [
    ("--out-source", "o.txt", "--out-target", "o.txt"),
    ("--out-source", "o.src", "--out-target", "o.txt", "--report", "sub/../o.txt"),
    ("build-dict", "--out", "o.txt", "--failures", "o.txt"),
], ids=["inject-corpus-sides", "inject-report", "build-dict-failures"])
def test_two_outputs_naming_one_file_exit_1(tmp_path, capsys, monkeypatch, outputs):
    # one file given for two outputs would hold only the last one written
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    (tmp_path / "o.txt").write_text("kept\n", "utf-8")
    (tmp_path / "d.tsv").write_text("", "utf-8")
    if outputs[0] == "build-dict":
        argv = ["build-dict", "--kind", "verb", "--lexicon", str(FIXTURES / "verb_lexicon.tsv"),
                *outputs[1:]]
    else:
        argv = ["inject", "--source", str(FIXTURES / "corpus_src.txt"),
                "--target", str(FIXTURES / "corpus_tgt.txt"), "--dict", "d.tsv", *outputs]
    before = sorted(tmp_path.iterdir())
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: {outputs[-1]}: named by two outputs\n"
    assert sorted(tmp_path.iterdir()) == before  # no temp file is left
    assert (tmp_path / "o.txt").read_text("utf-8") == "kept\n"


def test_inject_rejects_crlf_corpus(tmp_path, capsys):
    src = tmp_path / "src.txt"
    tgt = tmp_path / "tgt.txt"
    src.write_bytes("a|x\r\nb|y\r\n".encode("utf-8"))
    tgt.write_bytes("क|x\r\nख|y\r\n".encode("utf-8"))
    d = tmp_path / "d.tsv"
    d.write_text("", "utf-8")
    out_src = tmp_path / "out.src"
    out_tgt = tmp_path / "out.tgt"
    code, _, err = run(
        capsys, "inject", "--source", str(src), "--target", str(tgt),
        "--dict", str(d), "--out-source", str(out_src), "--out-target", str(out_tgt),
    )
    assert code == 1
    assert err == f"error: {src}:1:4: control character in line\n"
    assert not out_src.exists() and not out_tgt.exists()


# a factor with a no-break space; a factored surface with a line separator
@pytest.mark.parametrize("bad, message", [
    ("dog|x\xa0y", "factor 'x\\xa0y' contains separator or whitespace"),
    ("do\u2028g|sg", "factored token surface 'do\\u2028g' contains whitespace"),
])
@pytest.mark.parametrize("subcommand", ["inject", "sparsity"])
def test_corpus_whitespace_diagnostic_has_location(tmp_path, capsys, subcommand, bad, message):
    src = tmp_path / "src.txt"
    tgt = tmp_path / "tgt.txt"
    src.write_text("the|x|y\nthe|x|y " + bad + "|z\n", "utf-8")
    tgt.write_text("क|x|y\nक|x|y\n", "utf-8")
    if subcommand == "inject":
        d = tmp_path / "d.tsv"
        d.write_text("", "utf-8")
        argv = ["inject", "--source", str(src), "--target", str(tgt), "--dict", str(d),
                "--out-source", str(tmp_path / "o.src"), "--out-target", str(tmp_path / "o.tgt")]
    else:
        argv = ["sparsity", "--scheme", "noun", "--train-source", str(src),
                "--train-target", str(tgt), "--probe-source", str(src),
                "--probe-target", str(tgt)]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err == f"error: {src}:2:9: {message}\n"


def test_surface_only_corpus_token_with_whitespace_exits_1(tmp_path, capsys):
    # a token of any width holds no whitespace: the separating spaces are
    # the only whitespace in a corpus line, as oov and bleu's split() reads it
    src, tgt, d = tmp_path / "src.txt", tmp_path / "tgt.txt", tmp_path / "d.tsv"
    src.write_text("the dog\na\xa0b c\n", "utf-8")
    tgt.write_text("कुत्ता\nक ख\n", "utf-8")
    d.write_text("", "utf-8")
    code, _, err = run(capsys, "inject", "--source", str(src), "--target", str(tgt),
                       "--dict", str(d), "--out-source", str(tmp_path / "o.src"),
                       "--out-target", str(tmp_path / "o.tgt"))
    assert code == 1
    assert err == f"error: {src}:2:1: surface 'a\\xa0b' contains whitespace other than ' '\n"


# a surface-only dictionary side is words joined by single spaces
@pytest.mark.parametrize("side, message", [
    (" will walk", "surface-only side ' will walk' is not words joined by single spaces"),
    ("will  walk", "surface-only side 'will  walk' is not words joined by single spaces"),
    ("will\xa0walk", "surface 'will\\xa0walk' contains whitespace other than ' '"),
])
def test_surface_only_dictionary_side_with_bad_spacing_exits_1(tmp_path, capsys, side, message):
    src, tgt, d = tmp_path / "src.txt", tmp_path / "tgt.txt", tmp_path / "d.tsv"
    src.write_text("the dog\n", "utf-8")
    tgt.write_text("कुत्ता\n", "utf-8")
    d.write_text(f"will walk\tचलेगा\n{side}\tचलेगी\n", "utf-8")
    out_src = tmp_path / "o.src"
    code, _, err = run(capsys, "inject", "--source", str(src), "--target", str(tgt),
                       "--dict", str(d), "--out-source", str(out_src),
                       "--out-target", str(tmp_path / "o.tgt"))
    assert code == 1
    assert err == f"error: {d}:2: {message}\n"
    assert not out_src.exists()


def test_annotate(tmp_path, capsys):
    code, out, _ = run(
        capsys, "annotate", "--conllu", str(FIXTURES / "sample.conllu"), "--mode", "both"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "The|null|null|null dog|sg|dir|null run|sg|3|hab .|null|null|null"
    assert len(lines) == 9


def test_annotate_calls_the_public_annotator_once_per_sentence(monkeypatch, capsys):
    # a traced run times annotate_sentence: annotate must go through it
    from morphinject import source_factors as sf

    conllu = str(FIXTURES / "sample.conllu")
    _, expected, _ = run(capsys, "annotate", "--conllu", conllu)
    calls = []
    annotate = sf.annotate_sentence
    monkeypatch.setattr(sf, "annotate_sentence",
                        lambda *args: calls.append(args[0]) or annotate(*args))
    assert run(capsys, "annotate", "--conllu", conllu) == (0, expected, "")
    assert calls == list(sf.read_conllu((FIXTURES / "sample.conllu").read_text("utf-8")
                                        .splitlines()))


def test_annotate_unspecified_lemma_falls_back_to_the_form(tmp_path, capsys):
    # "_" is CoNLL-U's unspecified LEMMA: the form stands in, as for an
    # empty lemma
    conllu = tmp_path / "nolemma.conllu"
    conllu.write_text("1\tdogs\t_\tNOUN\tNNS\t_\t2\tnsubj\t_\t_\n"
                      "2\tran\t_\tVERB\tVBD\t_\t0\troot\t_\t_\n"
                      "3\t.\t_\tPUNCT\t.\t_\t2\tpunct\t_\t_\n", "utf-8")
    code, out, err = run(capsys, "annotate", "--conllu", str(conllu))
    assert (code, out, err) == (0, "dogs|pl|obl|null ran|pl|3|perf .|null|null|null\n", "")


@pytest.mark.parametrize("tid, head", [
    ("abc-def", "1"), ("-1", "1"), ("1.x", "1"), ("1_0", "1"), ("٣", "1"),
    ("3", "+2"), ("3", "-2"), ("3", " 2"),
])
def test_annotate_rejects_an_id_or_head_that_is_not_digits(tmp_path, capsys, tid, head):
    # only a range (2-3) or an empty node (2.1) is skipped; any other row
    # whose ID or HEAD is not ASCII digits is an error at its line
    conllu = tmp_path / "ids.conllu"
    conllu.write_text("1\tdogs\tdog\tNOUN\tNNS\t_\t2\tnsubj\t_\t_\n"
                      "2-3\tdon't\t_\t_\t_\t_\t_\t_\t_\t_\n"
                      "2.1\tcan\tcan\tAUX\tMD\t_\t_\t_\t_\t_\n"
                      f"{tid}\tbark\tbark\tVERB\tVBP\t_\t{head}\tdep\t_\t_\n"
                      "2\tran\trun\tVERB\tVBD\t_\t0\troot\t_\t_\n", "utf-8")
    code, out, err = run(capsys, "annotate", "--conllu", str(conllu))
    assert (code, out, err) == (1, "", f"error: {conllu}:4: bad ID or HEAD field\n")
    conllu.write_text(conllu.read_text("utf-8").replace(f"{tid}\tbark", "3\tbark")
                      .replace(f"\t{head}\tdep", "\t2\tdep"), "utf-8")
    code, out, err = run(capsys, "annotate", "--conllu", str(conllu))
    assert (code, err) == (0, "")
    assert out == "dog|pl|obl|null bark|sg|3|hab run|pl|3|perf\n"


def test_oov_and_sparsity(tmp_path, capsys):
    toks = tmp_path / "probe.txt"
    vocab = tmp_path / "vocab.txt"
    toks.write_text("कुत्ता कुत्तों\n", "utf-8")
    vocab.write_text("कुत्ता\n", "utf-8")
    code, out, _ = run(
        capsys, "oov", "--tokens", str(toks), "--vocab", str(vocab), "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["oov_tokens"] == 1 and report["oov_types"] == ["कुत्तों"]

    train_src = tmp_path / "train.src"
    train_tgt = tmp_path / "train.tgt"
    train_src.write_text("dog|sg|dir\n", "utf-8")
    train_tgt.write_text("कुत्ता|कुत्ता|null\n", "utf-8")
    probe_src = tmp_path / "probe.src"
    probe_tgt = tmp_path / "probe.tgt"
    probe_src.write_text("dog|pl|obl\n", "utf-8")
    probe_tgt.write_text("कुत्तों|कुत्ता|ओं\n", "utf-8")
    code, out, _ = run(
        capsys, "sparsity",
        "--train-source", str(train_src), "--train-target", str(train_tgt),
        "--probe-source", str(probe_src), "--probe-target", str(probe_tgt),
        "--scheme", "noun", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["translation_steps"][0]["unseen"] == 1
    assert report["generation_steps"][0]["unseen"] == 1


def _sparsity(tmp_path, capsys, probe_src, probe_tgt):
    """sparsity --scheme noun of the probe against a train corpus that
    holds no dog."""
    files = {"train.src": "the|null|null\n", "train.tgt": "कुत्ता|कुत्ता|null\n",
             "probe.src": probe_src, "probe.tgt": probe_tgt}
    for name, text in files.items():
        (tmp_path / name).write_text(text, "utf-8")
    return run(
        capsys, "sparsity", "--scheme", "noun", "--format", "json",
        "--train-source", str(tmp_path / "train.src"), "--train-target", str(tmp_path / "train.tgt"),
        "--probe-source", str(tmp_path / "probe.src"), "--probe-target", str(tmp_path / "probe.tgt"),
    )


def test_sparsity_counts_tokens_past_the_shorter_side(tmp_path, capsys):
    code, out, err = _sparsity(tmp_path, capsys, "the|null|null dog|sg|dir\n", "कुत्ता|कुत्ता|null\n")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["translation_steps"][0] == {
        "step": "root|number|case -> root|suffix", "seen": 1, "unseen": 1,
        "unseen_tuples": ["dog|sg|dir"],
    }
    assert report["generation_steps"][0] == {
        "step": "root|suffix -> surface", "seen": 1, "unseen": 0, "unseen_tuples": [],
    }


@pytest.mark.parametrize("probe_src, probe_tgt, message", [
    ("\ndog|sg\n", "कुत्ता|कुत्ता|null\nकुत्ता|कुत्ता|null\n",
     "probe.src:2: token 'dog|sg' has 1 factors, scheme declares 2"),
    ("dog|sg|dir\ndog|sg|dir\n", "\nकुत्ता|कुत्ता|null|null कुत्ता|कुत्ता|null|null\n",
     "probe.tgt:2: token 'कुत्ता|कुत्ता|null|null' has 3 factors, scheme declares 2"),
], ids=["source", "target"])
def test_sparsity_locates_a_probe_token_of_another_width(tmp_path, capsys, probe_src,
                                                        probe_tgt, message):
    code, out, err = _sparsity(tmp_path, capsys, probe_src, probe_tgt)
    assert (code, out) == (1, "")
    assert err == f"error: {tmp_path / message}\n"


# a dictionary row with a factor value outside its enum, and the error
_BAD_FACTOR_VALUES = pytest.mark.parametrize("entry, message", [
    ("dog|xx|dir\tकुत्ता|कुत्ता|null", "bad number 'xx' (expected one of sg, pl)"),
    ("dog|sg|xx\tकुत्ता|कुत्ता|null", "bad case 'xx' (expected one of dir, obl)"),
    ("walk|xx|3|hab\tचलता|चल|ता", "bad number 'xx' (expected one of sg, pl)"),
    ("walk|sg|4|hab\tचलता|चल|ता", "bad person '4' (expected one of 1, 2, 3)"),
    ("walk|sg|3|xx\tचलता|चल|ता", "bad tam 'xx' (expected one of inf, hab, perf, fut, subj, imp)"),
], ids=["noun-number", "noun-case", "verb-number", "verb-person", "verb-tam"])


@_BAD_FACTOR_VALUES
def test_inject_factored_names_a_bad_factor_value(tmp_path, capsys, entry, message):
    d = tmp_path / "d.tsv"
    d.write_text("# entries\n" + entry + "\n", "utf-8")
    out_src, out_tgt = tmp_path / "o.src", tmp_path / "o.tgt"
    code, out, err = run(
        capsys, "inject", "--dict", str(d),
        "--source", str(FIXTURES / "corpus_src.txt"), "--target", str(FIXTURES / "corpus_tgt.txt"),
        "--out-source", str(out_src), "--out-target", str(out_tgt),
    )
    assert (code, out) == (1, "")
    assert err == f"error: {d}:2: {message}\n"
    assert not out_src.exists() and not out_tgt.exists()


DATA =Path(__file__).parents[1] / "src/morphinject/data"
SAMPLE = str(FIXTURES / "sample.conllu")

# per data file: the flag that names it, a command that reads it, one
# packaged row, its replacement and an output line the replacement gives
_OVERRIDES = [
    ("noun_suffixes.tsv", "--table", ["paradigm", "--root", "कुत्ता", "--gender", "m"],
     "D\tsg\tobl\tए", "D\tsg\tobl\t-", "sg\tobl\t-\tकुत्ता"),
    ("verb_suffixes.tsv", "--table", ["paradigm", "--verb", "--stem", "चल"],
     "hab\tm\tsg\t-\tता", "hab\tm\tsg\t-\tते", "hab\tm\tsg\t3\tते\tचलते"),
    ("pronouns.tsv", "--pronouns", ["annotate", "--conllu", SAMPLE],
     "i\t1\tsg", "i\t1\tpl", "I|null|null|null walk|pl|1|hab .|null|null|null"),
    ("case_rules.tsv", "--case-rules", ["annotate", "--conllu", SAMPLE],
     "subject\tdir", "subject\tobl", "The|null|null|null dog|sg|obl|null run|sg|3|hab .|null|null|null"),
    ("tam_rules.tsv", "--tam-rules", ["annotate", "--conllu", SAMPLE],
     "present_tag\thab", "present_tag\tperf", "The|null|null|null dog|sg|dir|null run|sg|3|perf .|null|null|null"),
]


def _altered_table(folder, name, row, replacement):
    """A copy of the packaged table `name` in `folder`, `row` replaced."""
    packaged = (DATA / name).read_text("utf-8")
    assert packaged.count(row + "\n") == 1
    path = folder / name
    path.write_text(packaged.replace(row + "\n", replacement + "\n"), "utf-8")
    return path


@pytest.mark.parametrize("name, flag, argv, row, replacement, line", _OVERRIDES,
                         ids=[override[0] for override in _OVERRIDES])
def test_each_table_flag_names_the_table_loaded(tmp_path, capsys, name, flag, argv, row,
                                                replacement, line):
    # the altered copy changes the output, and the packaged file gives the
    # output of a call that names no table
    code, default_out, _ = run(capsys, *argv)
    assert code == 0 and line not in default_out.splitlines()
    code, out, _ = run(capsys, *argv, flag, str(_altered_table(tmp_path, name, row, replacement)))
    assert code == 0 and line in out.splitlines()
    assert run(capsys, *argv, flag, str(DATA / name)) == (0, default_out, "")


def test_a_data_dir_in_the_environment_changes_no_output(tmp_path, capsys, monkeypatch):
    # each table is named by its flag alone: a MORPHINJECT_DATA directory of
    # altered tables leaves every call on the packaged ones
    default_outs = [run(capsys, *argv) for _, _, argv, _, _, _ in _OVERRIDES]
    for name, _, _, row, replacement, _ in _OVERRIDES:
        _altered_table(tmp_path, name, row, replacement)
    monkeypatch.setenv("MORPHINJECT_DATA", str(tmp_path))
    for (name, _, argv, _, _, _), default_out in zip(_OVERRIDES, default_outs):
        assert run(capsys, *argv) == default_out, name


def test_annotate_locates_bad_surface(tmp_path, capsys):
    conllu = tmp_path / "bad.conllu"
    conllu.write_text(
        "1\tdogs\tdog\tNOUN\tNNS\t_\t0\troot\t_\t_\n\n"
        "1\tin\tin\tADP\tIN\t_\t2\tcase\t_\t_\n"
        "2\tNew York\tNew York\tPROPN\tNNP\t_\t0\troot\t_\t_\n",
        "utf-8",
    )
    out = tmp_path / "out.src"
    code, _, err = run(capsys, "annotate", "--conllu", str(conllu), "--out", str(out))
    assert code == 1
    assert err == (f"error: {conllu}: sentence 2, token 2: "
                   "factored token surface 'New York' contains whitespace\n")
    assert not out.exists()


# three sentences; the last row of the last one (line 10) is replaced by
# one row or two
_THREE_SENTENCES = (
    "# one\n1\tdogs\tdog\tNOUN\tNNS\t_\t2\tnsubj\t_\t_\n2\tbark\tbark\tVERB\tVBP\t_\t0\troot\t_\t_\n\n"
    "1\tI\tI\tPRON\tPRP\t_\t2\tnsubj\t_\t_\n2\tran\trun\tVERB\tVBD\t_\t0\troot\t_\t_\n\n"
    "# three\n1\tthe\tthe\tDET\tDT\t_\t2\tdet\t_\t_\n{last}\n"
)


@pytest.mark.parametrize("last, message", [
    ("2\tcats\tcat\tNOUN\tNNS\t_\tx\troot\t_\t_", ":10: bad ID or HEAD field"),
    # IDs start at 1: HEAD 0 names the root, not a token of ID 0
    ("0\tcats\tcat\tNOUN\tNNS\t_\t0\troot\t_\t_", ":10: bad ID or HEAD field"),
    ("2\ta|b\ta|b\tX\tFW\t_\t0\troot\t_\t_",
     ": sentence 3, token 2: surface 'a|b' contains the factor separator"),
    # token 2 takes no factors, so only its null padding makes its
    # whitespace an error; it still comes before token 3's separator
    ("2\ta\xa0b\ta\xa0b\tDET\tDT\t_\t0\troot\t_\t_\n3\tc|d\tc|d\tX\tFW\t_\t2\tdep\t_\t_",
     ": sentence 3, token 2: factored token surface 'a\\xa0b' contains whitespace"),
], ids=["bad-head", "id-zero", "separator-in-surface", "first-bad-token-in-order"])
@pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
def test_annotate_error_in_the_last_sentence_writes_nothing(tmp_path, capsys, last, message,
                                                             to_file):
    conllu = tmp_path / "late.conllu"
    conllu.write_text(_THREE_SENTENCES.format(last=last), "utf-8")
    out = tmp_path / "out.src"
    out.write_bytes(b"kept\n")
    before = sorted(tmp_path.iterdir())
    code, stdout, err = run(capsys, "annotate", "--conllu", str(conllu),
                            *(["--out", str(out)] if to_file else []))
    assert (code, stdout) == (1, "")
    assert err == f"error: {conllu}{message}\n"
    assert out.read_bytes() == b"kept\n"
    assert sorted(tmp_path.iterdir()) == before  # no out.src.* temp file left


_PRONOUNS = (DATA / "pronouns.tsv").read_text("utf-8")


# each malformed row is on line 2 of its file
@pytest.mark.parametrize("flag, text, message", [
    ("--pronouns", "# pronouns\ni\t1\n",
     "expected 3 tab-separated fields (pronoun, person, number), got 2"),
    ("--pronouns", "# pronouns\nthou\t4\tsg\n" + _PRONOUNS,
     "bad person '4' (expected one of 1, 2, 3)"),
    ("--case-rules", "subject\tdir\nprep_object\tbogus\ndefault\tdir\n",
     "bad case 'bogus' (expected one of dir, obl)"),
    ("--case-rules", "subject\tdir\nnope\tdir\n", "unknown case rule 'nope'"),
    ("--tam-rules", "past_tag\tperf\npresent_tag\tzzz\n",
     "bad TAM 'zzz' (expected one of inf, hab, perf, fut, subj, imp)"),
    ("--tam-rules", "past_tag\tperf\nnope\thab\n", "unknown TAM rule 'nope'"),
], ids=["pronoun-fields", "person", "case", "case-rule", "tam", "tam-rule"])
def test_annotate_config_errors_name_file_and_line(tmp_path, capsys, flag, text, message):
    config = tmp_path / "config.tsv"
    config.write_text(text, "utf-8")
    code, out, err = run(capsys, "annotate", "--conllu", str(FIXTURES / "sample.conllu"),
                         flag, str(config))
    assert code == 1 and out == ""
    assert err == f"error: {config}:2: {message}\n"


def test_an_empty_out_path_names_the_current_directory(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "paradigm", "--root", "कुत्ता", "--gender", "m", "--out", "")
    assert (code, out, err) == (1, "", "error: : cannot write: is a directory\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("subcommand", ["annotate", "inject"])
@pytest.mark.parametrize("target", ["missing/x.out", "existing-dir"])
def test_unwritable_out_path_exits_1(tmp_path, capsys, subcommand, target):
    out = tmp_path / target
    (tmp_path / "existing-dir").mkdir()
    if subcommand == "annotate":
        argv = ["annotate", "--conllu", str(FIXTURES / "sample.conllu"), "--out", str(out)]
    else:
        # the first output can be staged; it must be removed again
        (tmp_path / "src.txt").write_text("a|x\n", "utf-8")
        (tmp_path / "tgt.txt").write_text("क|x\n", "utf-8")
        (tmp_path / "d.tsv").write_text("", "utf-8")
        argv = ["inject", "--source", str(tmp_path / "src.txt"),
                "--target", str(tmp_path / "tgt.txt"), "--dict", str(tmp_path / "d.tsv"),
                "--out-source", str(tmp_path / "o.src"), "--out-target", str(out)]
    before = sorted(tmp_path.iterdir())
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith(f"error: {out}: cannot write: ") and err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == before


_NOUN_TABLE = (DATA / "noun_suffixes.tsv").read_text("utf-8")
_NOUN_COMMANDS = {
    "build-dict": ["build-dict", "--kind", "noun", "--lexicon", str(FIXTURES / "noun_lexicon.tsv")],
    "paradigm": ["paradigm", "--root", "कुत्ता", "--gender", "m"],
}
_VERB_COMMANDS = {
    "build-dict": ["build-dict", "--kind", "verb", "--lexicon", str(FIXTURES / "verb_lexicon.tsv")],
    "paradigm": ["paradigm", "--verb", "--stem", "चल"],
}


def test_the_noun_lexicon_fixture_is_the_paradigm_fixtures_lexicon_columns():
    # line for line, comments included, so both name a row by one line number
    lexicon = (FIXTURES / "noun_lexicon.tsv").read_text("utf-8").splitlines()
    paradigms = (FIXTURES / "noun_paradigms.tsv").read_text("utf-8").splitlines()
    assert [ln[0] == "#" or ln for ln in lexicon] == \
        [ln[0] == "#" or "\t".join(ln.split("\t")[:5]) for ln in paradigms]


# a row error names the file and line, a whole-table error the file
_SUFFIX_TABLE_ERRORS = [
    (_NOUN_COMMANDS, "# grid\nA\tsg\tdir\n",
     ":2: expected 4 tab-separated fields (class, number, case, suffix), got 3"),
    (_NOUN_COMMANDS, "# grid\nF\tsg\tdir\t-\n", ":2: bad class 'F' (expected one of A, B, C, D, E)"),
    (_NOUN_COMMANDS, "A\tsg\tdir\t-\nA\tsg\tdir\t-\n", ":2: duplicate cell A/sg/dir"),
    (_NOUN_COMMANDS, "A\tsg\tdir\t-\n", ": suffix table missing cell A/sg/obl"),
    (_NOUN_COMMANDS, _NOUN_TABLE.replace("A\tpl\tobl\t-", "A\tpl\tobl\tओं"),
     ": class A cells must all be null"),
    (_NOUN_COMMANDS, _NOUN_TABLE.replace("D\tsg\tdir\t-", "D\tsg\tdir\tआ"),
     ": sg-dir cell must be null for every class"),
    (_NOUN_COMMANDS, "# no rows\n", ": suffix table missing cell A/sg/dir"),
    (_VERB_COMMANDS, "inf\t-\t-\t-\n",
     ":1: expected 5 tab-separated fields (tam, gender, number, person, suffix), got 4"),
    (_VERB_COMMANDS, "inf\t-\t-\t-\tना\nhab\tx\tsg\t-\tता\n",
     ":2: bad gender 'x' (expected one of m, f, -)"),
    (_VERB_COMMANDS, "inf\t-\t-\t-\tना\nhab\tm\tq\t-\tता\n",
     ":2: bad number 'q' (expected one of sg, pl, -)"),
    (_VERB_COMMANDS, "hab\tm\tsg\t-\tता\nhab\tm\tsg\t-\tते\n",
     ":2: duplicate cell hab/m/sg/-"),
    (_VERB_COMMANDS, "hab\tm\tsg\t-\tता\nhab\t-\tpl\t-\tते\n",
     ": inconsistent collapsed dimensions in hab rows"),
    (_VERB_COMMANDS, "hab\tm\tsg\t-\tता\nhab\tf\tpl\t-\tतीं\n",
     ": hab rows do not cover their declared grid"),
    (_VERB_COMMANDS, "# no rows\n", ": verb suffix table is empty"),
    (_VERB_COMMANDS, "inf\t-\t-\t-\tना\nhab\tm\tsg\t-\tता\nhab\tm\tpl\t-\tते\n",
     ": hab rows name only gender m; a TAM that agrees in gender needs both"),
    # a suffix is "-" or a Devanagari word: a blank cell is not a null suffix
    (_NOUN_COMMANDS, "A\tsg\tdir\t-\nD\tsg\tobl\t\n", ":2: bad suffix '': empty word"),
    (_NOUN_COMMANDS, "C\tpl\tdir\tx\n",
     ":1: bad suffix 'x': non-Devanagari codepoint U+0078 at offset 0"),
    (_VERB_COMMANDS, "inf\t-\t-\t-\tना\nhab\tm\tsg\t-\t\n", ":2: bad suffix '': empty word"),
    (_VERB_COMMANDS, "inf\t-\t-\t-\tना।\n", ":1: bad suffix 'ना।': punctuation '।' at offset 2"),
]


@pytest.mark.parametrize("command", ["build-dict", "paradigm"])
@pytest.mark.parametrize("commands, text, message", _SUFFIX_TABLE_ERRORS, ids=[
    "noun-fields", "noun-class", "noun-duplicate", "noun-missing-cell", "noun-class-a",
    "noun-sg-dir", "noun-empty", "verb-fields", "verb-gender", "verb-number", "verb-duplicate",
    "verb-collapsed", "verb-grid", "verb-empty", "verb-one-gender", "noun-blank-suffix",
    "noun-latin-suffix", "verb-blank-suffix", "verb-danda-suffix"])
def test_suffix_table_errors_name_file_and_line(tmp_path, capsys, command, commands, text, message):
    table = tmp_path / "table.tsv"
    table.write_text(text, "utf-8")
    out = tmp_path / "out.txt"
    code, _, err = run(capsys, *commands[command], "--table", str(table), "--out", str(out))
    assert code == 1
    assert err == f"error: {table}{message}\n"
    assert not out.exists()


@pytest.mark.parametrize("flag, what", [("--case-rules", "case"), ("--tam-rules", "TAM")])
def test_empty_rules_file_exits_1(tmp_path, capsys, flag, what):
    # comments only: not a silent fallback to the packaged rules
    rules = tmp_path / "rules.tsv"
    rules.write_text("# no rules\n", "utf-8")
    code, out, err = run(capsys, "annotate", "--conllu", SAMPLE, flag, str(rules))
    assert code == 1 and out == ""
    assert err == f"error: {rules}: no {what} rules\n"


# a row that could never take effect: a second row for a pronoun (in any
# case) would replace the first, and the first matching rule wins
@pytest.mark.parametrize("flag, text, message", [
    ("--pronouns", _PRONOUNS + "She\t3\tpl\n",
     f":{_PRONOUNS.count(chr(10)) + 1}: duplicate pronoun 'She'"),
    ("--case-rules", "subject\tdir\ndefault\tdir\nprep_object\tobl\n",
     ":3: case rule 'prep_object' after default"),
    ("--case-rules", "subject\tdir\nsubject\tobl\ndefault\tdir\n",
     ":2: duplicate case rule 'subject'"),
    ("--tam-rules", "default\thab\npast_tag\tperf\n", ":2: TAM rule 'past_tag' after default"),
    ("--tam-rules", "past_tag\tperf\ndefault\thab\ndefault\tfut\n",
     ":3: duplicate TAM rule 'default'"),
], ids=["pronoun", "case-after-default", "case-twice", "tam-after-default", "tam-default-twice"])
def test_data_table_row_that_never_takes_effect_exits_1(tmp_path, capsys, flag, text, message):
    config = tmp_path / "config.tsv"
    config.write_text(text, "utf-8")
    code, out, err = run(capsys, "annotate", "--conllu", SAMPLE, flag, str(config))
    assert code == 1 and out == ""
    assert err == f"error: {config}{message}\n"


# a table missing a required pronoun is an error at the table's name
def test_a_pronoun_table_without_we_names_the_table(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("p.tsv").write_text("i\t1\tsg\n", "utf-8")
    code, out, err = run(capsys, "annotate", "--conllu", SAMPLE, "--pronouns", "p.tsv")
    assert (code, out, err) == (
        1, "", "error: p.tsv: pronoun table is missing or misclassifies 'we'\n")


# registered before the CLI's own atexit hook, so it runs after it
_FREEZE_PROBE = """\
import atexit, gc, sys
atexit.register(lambda: print("frozen" if gc.get_freeze_count() else "not frozen"))
from morphinject import cli
sys.exit(cli.main({}))
"""


@pytest.mark.parametrize("argv, code", [
    (["paradigm", "--root", "कुत्ता", "--gender", "m", "--out", "p.tsv"], 0),
    (["paradigm", "--no-such-option"], 1),
    (["paradigm", "--help"], 0),
], ids=["call", "usage-error", "help"])
@pytest.mark.parametrize("own", [True, False], ids=["main()", "main(argv)"])
def test_a_call_on_its_own_command_line_freezes_the_heap_at_exit(tmp_path, argv, code, own):
    # main() with no argv runs the process's own command line, and skips
    # the interpreter's last collection of the import-time heap, argparse's
    # exits included; main(argv) leaves the collector as it was
    probe = _FREEZE_PROBE.format("" if own else "sys.argv[1:]")
    proc = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True,
                          text=True, env=_env(), cwd=tmp_path)
    assert proc.returncode == code, proc.stderr
    assert proc.stdout.splitlines()[-1] == ("frozen" if own else "not frozen")


def test_an_in_process_call_registers_nothing_at_exit(capsys, monkeypatch):
    registered = []
    monkeypatch.setattr(atexit, "register", lambda *args, **kwargs: registered.append(args))
    frozen = gc.get_freeze_count()
    code, _, _ = run(capsys, "paradigm", "--root", "कुत्ता", "--gender", "m")
    assert (code, registered, gc.get_freeze_count()) == (0, [], frozen)
