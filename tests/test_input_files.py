"""The one reader for every input file: UTF-8, split on LF only, a CR
and a leading byte order mark rejected, every failure to read an exit 1
that names the file; and the one row reader, whose errors name the file
and the LF line."""

import contextlib
import io
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphinject.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
DATA = Path(__file__).parents[1] / "src/morphinject/data"
DICTIONARY = "dog|sg|dir\tकुत्ता|कुत्ता|null\ndog|pl|obl\tकुत्तों|कुत्ता|ओं\n"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _inject(tmp, source=FIXTURES / "corpus_src.txt", dictionary=None):
    if dictionary is None:
        dictionary = tmp / "d.tsv"
        dictionary.write_text(DICTIONARY, "utf-8")
    return ["inject", "--source", str(source), "--target", str(FIXTURES / "corpus_tgt.txt"),
            "--dict", str(dictionary),
            "--out-source", str(tmp / "o.src"), "--out-target", str(tmp / "o.tgt")]


# per input kind: the argv that reads `path` (in the directory `tmp`) and
# a valid file of that kind
KINDS = {
    "lexicon": (lambda tmp, path: ["build-dict", "--kind", "noun", "--lexicon", str(path)],
                "dog\tकुत्ता\tm\t1\n"),
    "table": (lambda tmp, path: ["paradigm", "--root", "कुत्ता", "--gender", "m",
                                 "--table", str(path)],
              (DATA / "noun_suffixes.tsv").read_text("utf-8")),
    "conllu": (lambda tmp, path: ["annotate", "--conllu", str(path)],
               (FIXTURES / "sample.conllu").read_text("utf-8")),
    "corpus": (lambda tmp, path: _inject(tmp, source=path),
               (FIXTURES / "corpus_src.txt").read_text("utf-8")),
    "dictionary": (lambda tmp, path: _inject(tmp, dictionary=path), DICTIONARY),
    "oov": (lambda tmp, path: ["oov", "--tokens", str(path), "--vocab", str(path)],
            "कुत्ता कुत्तों\nthe dog\n"),
    "bleu": (lambda tmp, path: ["bleu", "--candidates", str(path), "--references", str(path)],
             "the dog runs\nकुत्ता घर में है\n"),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_undecodable_input_exits_1_at_its_line(tmp_path, kind):
    argv, text = KINDS[kind]
    path = tmp_path / "input.txt"
    path.write_text(text, "utf-8")
    code, _, err = run(argv(tmp_path, path))
    assert code == 0, err  # the file as given is valid
    lines = text.split("\n")
    path.write_bytes((lines[0] + "\n").encode("utf-8") + b"\xff\xfe"
                     + "\n".join(lines[1:]).encode("utf-8"))
    code, out, err = run(argv(tmp_path, path))
    assert (code, out) == (1, "")
    assert err == f"error: {path}:2: not UTF-8 (byte 0xff)\n"


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_cr_in_input_exits_1_at_its_line_and_column(tmp_path, kind):
    argv, text = KINDS[kind]
    path = tmp_path / "crlf.txt"
    path.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
    code, out, err = run(argv(tmp_path, path))
    assert (code, out) == (1, "")
    col = len(text.split("\n")[0]) + 1
    assert err == f"error: {path}:1:{col}: control character in line\n"


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_leading_byte_order_mark_exits_1_at_line_1_column_1(tmp_path, kind):
    # rejected, not stripped: a corpus is written back byte for byte, and a
    # BOM read as text would become part of a token or a misleading error
    argv, text = KINDS[kind]
    path = tmp_path / "bom.txt"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    code, out, err = run(argv(tmp_path, path))
    assert (code, out) == (1, "")
    assert err == f"error: {path}:1:1: byte order mark\n"


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_unreadable_input_exits_1(tmp_path, kind):
    argv, _ = KINDS[kind]
    directory = tmp_path / "a-directory"
    directory.mkdir()
    code, out, err = run(argv(tmp_path, directory))
    assert (code, out) == (1, "")
    assert err == f"error: {directory}: cannot read: Is a directory\n"


# the characters other than LF (and the rejected CR) that str.splitlines
# breaks a line at
LINE_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]

# per kind: a line that holds the break character, a malformed row after
# it, and the error that row gives on line 2
LOCATED = {
    "table": ("# grid {}\n" + "F\tsg\tdir\t-\n", "bad class 'F' (expected one of A, B, C, D, E)"),
    "lexicon": ("# nouns {}\n" + "dog\tकुत्ता\tx\t1\n", "bad gender 'x' (expected one of m, f)"),
    "dictionary": ("# entries {}\n" + "a\tb\tc\n",
                   "expected 2 tab-separated fields (source, target), got 3"),
    "conllu": ("1\tdog\tdog\tNOUN\tNN\t_\t0\troot\t_\ta{}b\n" + "2\truns\trun\n",
               "expected 10 columns, got 3"),
}


@pytest.mark.parametrize("char", LINE_BREAKS, ids=[f"U+{ord(c):04X}" for c in LINE_BREAKS])
@pytest.mark.parametrize("kind", sorted(LOCATED))
def test_row_error_names_its_lf_line(tmp_path, kind, char):
    template, message = LOCATED[kind]
    path = tmp_path / "input.txt"
    path.write_text(template.format(char), "utf-8")
    code, _, err = run(KINDS[kind][0](tmp_path, path))
    assert code == 1
    assert err == f"error: {path}:2: {message}\n"


def test_hash_lines_in_a_dictionary_are_comments(tmp_path):
    path = tmp_path / "d.tsv"
    path.write_text("# noun entries\n" + DICTIONARY, "utf-8")
    code, out, err = run(_inject(tmp_path, dictionary=path) + ["--format", "json"])
    assert code == 0, err
    assert '"entries_offered": 2' in out


# --- no input file makes a subcommand exit 2 ---

NOUNS = (FIXTURES / "noun_lexicon.tsv").read_text("utf-8").split("\n")[:12]
INJECT = ["inject", "--source", str(FIXTURES / "corpus_src.txt"),
          "--target", str(FIXTURES / "corpus_tgt.txt"), "--dict", "F",
          "--out-source", "{tmp}/o.src", "--out-target", "{tmp}/o.tgt"]
# per command: the argv around the drawn file F, and the file it grows from;
# inject-surface grows from a surface-only dictionary, as build-dict
# --surface writes one
COMMANDS = {
    "classify": (["classify", "--lexicon", "F"], "\n".join(
        "\t".join(ln.split("\t")[1:]) for ln in NOUNS)),
    "classify-bilingual": (["classify", "--bilingual", "--lexicon", "F"], "\n".join(NOUNS)),
    "build-dict-noun": (["build-dict", "--kind", "noun", "--lexicon", "F"], "\n".join(NOUNS)),
    "build-dict-noun-surface": (["build-dict", "--kind", "noun", "--surface", "--lexicon", "F"],
                                "\n".join(NOUNS)),
    "build-dict-verb": (["build-dict", "--kind", "verb", "--lexicon", "F"],
                        (FIXTURES / "verb_lexicon.tsv").read_text("utf-8")),
    "build-dict-verb-surface": (["build-dict", "--kind", "verb", "--surface", "--lexicon", "F"],
                                (FIXTURES / "verb_lexicon.tsv").read_text("utf-8")),
    "annotate": (["annotate", "--conllu", "F"],
                 (FIXTURES / "sample.conllu").read_text("utf-8")),
    "inject": (INJECT, DICTIONARY),
    "inject-surface": (INJECT, "dog\tकुत्ता\ndogs\tकुत्तों\n"),
    "inject-surface-verb": (INJECT, "walks\tचलता\nwalked\tचले\nwill walk\tचलेगा\n"),
    "sparsity": (["sparsity", "--scheme", "noun", "--train-source", str(FIXTURES / "corpus_src.txt"),
                  "--train-target", str(FIXTURES / "corpus_tgt.txt"),
                  "--probe-source", "F", "--probe-target", "F"],
                 (FIXTURES / "corpus_src.txt").read_text("utf-8")),
    "oov": (["oov", "--tokens", "F", "--vocab", str(FIXTURES / "corpus_tgt.txt")],
            (FIXTURES / "corpus_tgt.txt").read_text("utf-8")),
    "bleu": (["bleu", "--candidates", "F", "--references", "F"],
             (FIXTURES / "corpus_tgt.txt").read_text("utf-8")),
}

# bytes that are not UTF-8, line and field breaks, the separators and marks
# the readers treat specially, and Devanagari
ATOMS = [b"\xff", b"\xfe", b"\xe0\xa4", b"\r", "\x85".encode(), "\u2028".encode(), b"\x1c",
         b"\x0b", b"\t", b"\n", b"|", b"#", b"-", b"=", b":", b" ", b"0",
         "कुत्ता".encode(), "्".encode(), "\ufeff".encode()]


@st.composite
def input_file(draw, text: str) -> bytes:
    """A few atoms inserted between the characters of `text`, or atoms
    and random bytes alone."""
    if draw(st.booleans()):
        pieces = [draw(st.sampled_from(ATOMS)) for _ in range(draw(st.integers(1, 4)))]
        cuts = sorted(draw(st.integers(0, len(text))) for _ in pieces)
        out, start = [], 0
        for cut, piece in zip(cuts, pieces):
            out += [text[start:cut].encode("utf-8"), piece]
            start = cut
        return b"".join(out) + text[start:].encode("utf-8")
    return b"".join(draw(st.lists(st.one_of(st.sampled_from(ATOMS), st.binary(max_size=3)),
                                  max_size=40)))


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(deadline=None)
@given(data=st.data())
def test_no_input_file_exits_2(tmp_path_factory, command, data):
    argv, text = COMMANDS[command]
    tmp = tmp_path_factory.mktemp("fuzz")
    path = tmp / "input"
    path.write_bytes(data.draw(input_file(text)))
    argv = [str(path) if a == "F" else a.format(tmp=tmp) for a in argv]
    code, _, err = run(argv)
    assert code in (0, 1), err
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, err
