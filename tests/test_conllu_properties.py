"""Property tests for the CoNLL-U reader.

The reference below is the reader `read_conllu` replaced: it returned
every sentence at once, as lists of frozen-dataclass tokens. The
streaming reader must give the same sentences, field by field, or
raise the same InputError, on any lines: blank, whitespace-only,
comments, ranges, empty nodes, rows of the wrong width and bad ID or
HEAD fields. The reference is given the rules the reader added since:
only a real range (N-M) or empty node (N.M) is skipped, any other ID,
and a HEAD other than "_", must be ASCII digits, an ID of value 0 (the
root a HEAD of 0 names) is a bad field, and so is an ID or HEAD of more
digits than int() converts.
"""

import dataclasses
import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from morphinject.errors import InputError
from morphinject.source_factors import ConlluToken, read_conllu

FIELDS = ("id", "form", "lemma", "xpos", "head", "deprel")

# --- the list-returning reader read_conllu replaced ---


@dataclasses.dataclass(frozen=True)
class _RefToken:
    id: int
    form: str
    lemma: str
    xpos: str
    head: int
    deprel: str


def _ref_read_conllu(lines, name="<conllu>"):
    sentences = []
    tokens = []
    for lineno, line in enumerate(lines, 1):
        line = line.rstrip("\n")
        if not line.strip():
            if tokens:
                sentences.append(tokens)
                tokens = []
            continue
        if line.startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) != 10:
            raise InputError(f"{name}:{lineno}: expected 10 columns, got {len(cols)}")
        # only a real range (1-2) or empty node (1.1) is skipped; any other
        # ID, and a HEAD other than "_", is ASCII digits
        if re.fullmatch(r"[0-9]+[-.][0-9]+", cols[0]):
            continue
        if not re.fullmatch(r"[0-9]+", cols[0]) or not re.fullmatch(r"[0-9]+|_", cols[6]):
            raise InputError(f"{name}:{lineno}: bad ID or HEAD field")
        try:
            tid, head = int(cols[0]), int(cols[6]) if cols[6] != "_" else 0
        except ValueError:  # more digits than int() converts
            raise InputError(f"{name}:{lineno}: bad ID or HEAD field") from None
        if tid == 0:  # IDs start at 1
            raise InputError(f"{name}:{lineno}: bad ID or HEAD field")
        tokens.append(
            _RefToken(id=tid, form=cols[1], lemma=cols[2], xpos=cols[4], head=head,
                      deprel=cols[7])
        )
    if tokens:
        sentences.append(tokens)
    return sentences


def _outcome(read, lines, fields):
    """The sentences as field tuples, `fields` of each token, or the error
    message."""
    try:
        return "ok", [[fields(t) for t in s] for s in read(lines, "f.conllu")]
    except InputError as exc:
        return "error", str(exc)


# --- inputs ---

_space = st.sampled_from([" ", "\t", "\x85", "\xa0"])
_field = st.text(st.sampled_from(["a", "B", "_", " ", "\xa0", "#"]), max_size=3)
# IDs and HEADs around 4096 and far past it, and more digits than int()
# converts (on Python 3.11 and later), each read once and then again
_LARGE = st.sampled_from(["4095", "4096", "4097", str(10**6), "7" * 5000])
_id = st.one_of(
    st.integers(0, 12).map(str),
    _LARGE,
    st.sampled_from(["1-2", "3-3", "1.1", "2.0", "x", "", " 2", "-1", "1_0", "٣",
                     "abc-def", "1.x", "-", "1-", ".1", "1-2-3", "+1", "01", "_"]),
)
_head = st.one_of(st.integers(0, 12).map(str), _LARGE,
                  st.sampled_from(["_", "x", "", "1.5", " 0", "+2", "-2", "1_0", "٣", "1-2"]))


@st.composite
def _row(draw):
    cols = [draw(_id)] + [draw(_field) for _ in range(9)]
    cols[6] = draw(_head)
    width = draw(st.sampled_from([10, 10, 10, 10, 9, 11]))
    return "\t".join((cols + [draw(_field)])[:width])


_line = st.one_of(
    _row(), _row(), _row(),
    st.just(""),
    st.text(_space, min_size=1, max_size=3),
    st.text(st.sampled_from(["a", "\t", " "]), max_size=4).map("#".__add__),
)
# a trailing "\n" is what iterating over an open file gives
_lines = st.lists(st.tuples(_line, st.booleans()).map(lambda p: p[0] + "\n" * p[1]), max_size=25)

_ROW = "1\tdogs\tdog\tNOUN\tNNS\t_\t2\tnsubj\t_\t_"
_ROOT = _ROW.replace("\t2\t", "\t_\t")  # its HEAD is "_"


@given(_lines)
@example(["", "  ", "\x85", "\xa0", "#\t", _ROW, "1-2\t" + "_\t" * 9, "1.1\t" + "_\t" * 9])
@example([_ROW, "\t", _ROW.replace("\t2\t", "\t_\t"), "# c", _ROW.replace("1\t", "x\t", 1)])
@example([_ROW, _ROW + "\t_"])
@example([_ROW.rsplit("\t", 1)[0]])
@example([_ROW.replace("\t2\t", "\t\t")])
# the reader remembers each ID and HEAD string it has read: "01" and "1"
# are two strings with one value, a HEAD string is then read as an ID,
# and "_", a HEAD, is still no ID
@example([_ROW.replace("1\t", "01\t", 1), _ROW])
@example([_ROW, "2\tbark\tbark\tVERB\tVBP\t_\t0\troot\t_\t_"])
@example([_ROOT, _ROOT.replace("1\t", "_\t", 1)])
@example([_ROW, _ROW.replace("\t2\t", "\t" + "7" * 5000 + "\t")])
# ID 0, written "0" or "00", is no token; the empty node 0.1 is skipped
@example([_ROW.replace("1\t", "0.1\t", 1), _ROW, "", _ROW.replace("1\t", "00\t", 1)])
def test_reader_matches_the_list_reference(lines):
    new = _outcome(lambda ls, name: list(read_conllu(ls, name)), lines, tuple)
    assert new == _outcome(_ref_read_conllu, lines, dataclasses.astuple)
    if new[0] == "ok":
        for sentence in read_conllu(lines):
            assert sentence and all(type(t) is tuple and len(t) == 6 for t in sentence)
            assert all(type(t[0]) is int and type(t[4]) is int for t in sentence)


def test_the_first_sentence_is_yielded_before_a_later_bad_row():
    read = []

    def lines():
        for line in [_ROW, "2\tbark\tbark\tVERB\tVBP\t_\t0\troot\t_\t_", "",
                     "# two", "x\tcats\tcat\tNOUN\tNNS\t_\t0\troot\t_\t_", _ROW]:
            read.append(line)
            yield line

    sentences = read_conllu(lines(), "f.conllu")
    assert [t[1] for t in next(sentences)] == ["dogs", "bark"]
    assert len(read) == 3  # the blank line that ends the sentence, nothing after it
    with pytest.raises(InputError, match=r"^f\.conllu:5: bad ID or HEAD field$"):
        next(sentences)


def test_a_token_is_an_immutable_six_field_tuple():
    assert ConlluToken._fields == FIELDS == tuple(f.name for f in dataclasses.fields(_RefToken))
    token = ConlluToken(1, "dogs", "dog", "NNS", 2, "nsubj")
    assert token == ConlluToken(id=1, form="dogs", lemma="dog", xpos="NNS", head=2, deprel="nsubj")
    assert (token.id, token.form, token.lemma, token.xpos, token.head, token.deprel) == (
        1, "dogs", "dog", "NNS", 2, "nsubj")
    with pytest.raises(AttributeError):
        token.head = 0
    # read_conllu yields a plain tuple in the same field order
    [[read]] = read_conllu([_ROW])
    assert type(read) is tuple and read == ConlluToken(1, "dogs", "dog", "NNS", 2, "nsubj")
