import json
from pathlib import Path

import pytest

from morphinject.cli import main

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
    assert err.count("\n") == 1  # one-line diagnostic
    assert "bad.tsv" in err and "line 1" in err


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


def test_annotate(tmp_path, capsys):
    code, out, _ = run(
        capsys, "annotate", "--conllu", str(FIXTURES / "sample.conllu"), "--mode", "both"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "The|null|null|null dog|sg|dir|null run|sg|3|hab .|null|null|null"
    assert len(lines) == 9


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


def test_jobs_flag_validated(capsys):
    code, _, err = run(capsys, "paradigm", "--root", "घर", "--gender", "m", "--jobs", "0")
    assert code == 1 and "--jobs" in err


def test_data_dir_env_override(tmp_path, capsys, monkeypatch):
    # a data dir whose table makes class D pl-obl null changes the output
    table = tmp_path / "noun_suffixes.tsv"
    rows = []
    for cls in "ABCDE":
        for num, case in (("sg", "dir"), ("sg", "obl"), ("pl", "dir"), ("pl", "obl")):
            suffix = "-"
            if cls == "D" and (num, case) == ("pl", "obl"):
                suffix = "ओं"
            rows.append(f"{cls}\t{num}\t{case}\t{suffix}")
    table.write_text("\n".join(rows) + "\n", "utf-8")
    monkeypatch.setenv("MORPHINJECT_DATA", str(tmp_path))
    code, out, _ = run(capsys, "paradigm", "--root", "कुत्ता", "--gender", "m")
    assert code == 0
    assert out.splitlines()[1] == "sg\tobl\t-\tकुत्ता"  # sg-obl now null
    assert out.splitlines()[3] == "pl\tobl\tओं\tकुत्तों"


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


_PRONOUNS = (Path(__file__).parents[1] / "src/morphinject/data/pronouns.tsv").read_text("utf-8")


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
