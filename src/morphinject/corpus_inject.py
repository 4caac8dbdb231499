"""Factored parallel corpus I/O and word-form dictionary injection.

Corpus format (bit-exact): UTF-8, LF line endings only, tokens separated
by single spaces, factors by "|", no trailing whitespace. A "\r" or
"\t" anywhere in a line is rejected, so a CRLF file fails instead of
being rewritten. "Whitespace" means any character for which
str.isspace() is true; a token of any width holds none, so the
separating spaces are the only whitespace in a line. Dictionary entries
are appended as one-token pseudo-sentence pairs after the original
lines; the original prefix is never touched or reordered, and a pair
already present anywhere in the corpus is skipped.

A ParallelCorpus holds the checked lines as strings. Each distinct
token of a file is checked once, against one token pattern of the
corpus width; only a file that holds a bad or ragged token is checked
line by line, against the full-line pattern, and a line that fails it
is split into tokens, so script_core.token_error names the first bad
one at name:line:column. Padding (auto_normalize, injection), emission
and the sparsity report work on the strings, and ParallelCorpus.pairs,
the lines split into token strings, is built each time it is read.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from itertools import chain, repeat

from . import script_core as sc
from .dictionary_builder import WordFormDictionary, strip_to_surface
from .errors import InputError
from .script_core import NULL_FACTOR

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only: no call loads typing
    from typing import IO


class ParallelCorpus:
    """Checked, line-aligned source and target lines, without newlines,
    and the names that locate an error in them as name:line. Two are
    equal when their lines are: the names are not compared."""

    __slots__ = ("src", "tgt", "source_name", "target_name")

    def __init__(self, src: list[str], tgt: list[str],
                 source_name: str = "source", target_name: str = "target"):
        self.src = src
        self.tgt = tgt
        self.source_name = source_name
        self.target_name = target_name

    def __eq__(self, other):
        if type(other) is not ParallelCorpus:
            return NotImplemented
        return (self.src, self.tgt) == (other.src, other.tgt)

    def __repr__(self) -> str:
        return (f"ParallelCorpus({self.src!r}, {self.tgt!r}, "
                f"{self.source_name!r}, {self.target_name!r})")

    @property
    def pairs(self) -> list[tuple[list[str], list[str]]]:
        # counted by bench/spans.py and bench/table.py; nothing else reads it
        return [(s.split(), t.split()) for s, t in zip(self.src, self.tgt)]

    def source_width(self) -> int | None:
        return _width(self.src)

    def target_width(self) -> int | None:
        return _width(self.tgt)

    def source_lines(self) -> list[str]:
        return list(self.src)

    def target_lines(self) -> list[str]:
        return list(self.tgt)


class InjectionReport(namedtuple(
        "InjectionReport",
        "entries_offered entries_added duplicates_skipped normalization_applied")):
    __slots__ = ()

    def to_dict(self) -> dict:
        return {"schema_version": 1, **self._asdict()}


def _width(lines: list[str]) -> int | None:
    """Factor width of the first token of the first non-empty line."""
    for line in lines:
        if line:
            return line.partition(" ")[0].count("|")
    return None


def _parse_line(line: str, name: str, lineno: int) -> list[str]:
    """The tokens of a line, checked one by one: the first problem is an
    error at name:line:column."""
    if "\r" in line or "\t" in line:
        col = min(i for i, ch in enumerate(line) if ch in "\r\t") + 1
        raise InputError(f"{name}:{lineno}:{col}: control character in line")
    if line != line.rstrip():
        raise InputError(f"{name}:{lineno}:{len(line.rstrip()) + 1}: trailing whitespace")
    tokens = line.split(" ") if line else []
    col = 1
    for raw in tokens:
        if raw == "":
            raise InputError(f"{name}:{lineno}:{col}: empty token (double space?)")
        surface, *factors = raw.split("|")
        error = sc.token_error(surface, factors)
        if surface and "" in factors:  # the corpus names the whole token
            error = f"empty factor in {raw!r}"
        if error:
            raise InputError(f"{name}:{lineno}:{col}: {error}")
        col += len(raw) + 1
    return tokens


def _check_lines(lines: list[str], name: str) -> tuple[tuple[int, int] | None, int]:
    """Check every line; return where the first ragged token is, if any
    (line, column), and the widest token's width."""
    width = _width(lines)
    if width is None:
        return None, 0
    # a line is valid if and only if each token of its split(" ") is, and
    # "" never is: if every distinct token is valid, so is every line
    tokens = set(chain.from_iterable(map(str.split, filter(None, lines), repeat(" "))))
    if all(map(sc.token_match(width), tokens)):
        return None, width
    valid = sc.line_pattern(width).fullmatch
    ragged_at = None
    widest = width
    for lineno, line in enumerate(lines, 1):
        if valid(line):
            continue
        col = 1
        for token in _parse_line(line, name, lineno):
            token_width = token.count("|")
            if token_width != width and ragged_at is None:
                ragged_at = (lineno, col)
            widest = max(widest, token_width)
            col += len(token) + 1
    return ragged_at, widest


def _settle_width(
    lines: list[str], name: str, check: tuple[tuple[int, int] | None, int], auto_normalize: bool
) -> list[str]:
    ragged_at, widest = check
    if ragged_at is None:
        return lines
    if not auto_normalize:
        raise InputError(
            f"{name}:{ragged_at[0]}:{ragged_at[1]}: factor width differs from first token"
        )
    # a checked line holds no whitespace but its separators: split() is split(" ")
    return [" ".join(t + f"|{NULL_FACTOR}" * (widest - t.count("|")) for t in ln.split())
            for ln in lines]


def parse_factored_corpus(
    source: Iterable[str] | IO[str],
    target: Iterable[str] | IO[str],
    auto_normalize: bool = False,
    source_name: str = "source",
    target_name: str = "target",
) -> ParallelCorpus:
    """Parse parallel source/target streams into a validated corpus.

    The first violation is reported as name:line:column. Ragged factor
    widths are an error unless auto_normalize pads them out. A trailing
    "\n" is removed from each line; open files with newline="" so that
    a "\r" reaches the check instead of being translated away.
    """
    src_lines = [ln.rstrip("\n") for ln in source]
    tgt_lines = [ln.rstrip("\n") for ln in target]
    if len(src_lines) != len(tgt_lines):
        raise InputError(
            f"{source_name} has {len(src_lines)} lines, {target_name} has {len(tgt_lines)}"
        )
    # every malformed token, on either side, is reported before a ragged width
    src_check = _check_lines(src_lines, source_name)
    tgt_check = _check_lines(tgt_lines, target_name)
    return ParallelCorpus(
        _settle_width(src_lines, source_name, src_check, auto_normalize),
        _settle_width(tgt_lines, target_name, tgt_check, auto_normalize),
        source_name, target_name,
    )


def _entry_side(text: str, pad: str) -> str:
    """One side of a dictionary line as a corpus line, each token padded
    with `pad`: a surface-only periphrastic form ("will walk") becomes
    one token per word."""
    return " ".join(w + pad for w in text.split(" "))


def inject(
    corpus: ParallelCorpus,
    dictionary: WordFormDictionary,
    mode: str = "factored",
) -> tuple[ParallelCorpus, InjectionReport]:
    """Append dictionary entries as pseudo-sentence pairs.

    Entries are width-normalized to the corpus (never the reverse: the
    original lines must stay byte-identical); an entry whose line pair
    already exists anywhere in the corpus is skipped.
    """
    if mode not in ("factored", "surface"):
        raise InputError(f"bad injection mode {mode!r}")
    if mode == "surface":
        dictionary = strip_to_surface(dictionary)

    src_width = corpus.source_width()
    tgt_width = corpus.target_width()
    first = dictionary.lines[0].split("\t") if dictionary.lines else ("", "")
    dict_src_width, dict_tgt_width = (side.count("|") for side in first)
    if src_width is None:
        src_width = dict_src_width
    if tgt_width is None:
        tgt_width = dict_tgt_width
    if dict_src_width > src_width or dict_tgt_width > tgt_width:
        raise InputError(
            f"dictionary factors ({dict_src_width}/{dict_tgt_width}) exceed corpus "
            f"widths ({src_width}/{tgt_width}); widening the corpus would rewrite "
            "original lines"
        )

    src_pad = f"|{NULL_FACTOR}" * (src_width - dict_src_width)
    tgt_pad = f"|{NULL_FACTOR}" * (tgt_width - dict_tgt_width)
    existing = set(zip(corpus.src, corpus.tgt))
    out_src, out_tgt = list(corpus.src), list(corpus.tgt)
    for line in dictionary.lines:
        source, target = line.split("\t")
        src_line, tgt_line = key = (_entry_side(source, src_pad), _entry_side(target, tgt_pad))
        if key in existing:
            continue
        existing.add(key)
        out_src.append(src_line)
        out_tgt.append(tgt_line)
    added = len(out_src) - len(corpus.src)
    report = InjectionReport(
        entries_offered=len(dictionary.lines),
        entries_added=added,
        duplicates_skipped=len(dictionary.lines) - added,
        normalization_applied=bool(dictionary.lines and (src_pad or tgt_pad)),
    )
    return ParallelCorpus(out_src, out_tgt), report


def emit_factored_corpus(corpus: ParallelCorpus, source: IO[str], target: IO[str]) -> None:
    """Write the corpus back out; parse(emit(c)) == c, byte for byte."""
    source.writelines(ln + "\n" for ln in corpus.src)
    target.writelines(ln + "\n" for ln in corpus.tgt)
