"""Factored parallel corpus parsing and word-form dictionary injection.

Corpus format (bit-exact): UTF-8, LF line endings only, tokens separated
by single spaces, factors by "|", no trailing whitespace. A "\r" or
"\t" anywhere in a line is rejected, so a CRLF file fails instead of
being rewritten. "Whitespace" means any character for which
str.isspace() is true; a token of any width holds none, so the
separating spaces are the only whitespace in a line. Dictionary entries
are appended as one-token pseudo-sentence pairs after the original
lines; the original prefix is never touched or reordered, and a pair
already present anywhere in the corpus is skipped. `inject` takes any
WordFormDictionary and imports no dictionary layer: a dictionary's
lines were checked against its scheme when it was made, so inject only
splits each at its tab and pads each word with one replace. A
surface-only injection is
`inject(corpus, strip_to_surface(dictionary))`, which writes what
injecting a `build-dict --surface` dictionary writes.

A ParallelCorpus holds the checked lines as strings. One made by hand
is checked by its constructor, as `parse_factored_corpus` checks lines
without auto_normalize; the parser and `inject` make theirs with no
second check. Each distinct token of a file is checked once, against
one token pattern of the corpus width; only a file that holds a bad or
ragged token is split line by line into tokens, so
script_core.token_error names the first bad one at name:line:column
and the first ragged one is found. The check's sets of distinct tokens
stay with the corpus as src_tokens and tgt_tokens, which the sparsity
report projects: auto_normalize pads each distinct token once, and
`inject`'s output holds its input's sets and the tokens of the lines
it added. Padding (auto_normalize, injection) works on the strings,
and ParallelCorpus.pairs, the lines split into token strings, is built
each time it is read. The parser takes lines, as script_core.read_lines
gives them, and the CLI writes the result: this module opens no file.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from itertools import chain, repeat

from . import script_core as sc
from .errors import InputError
from .script_core import NULL_FACTOR

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only: inject imports no dictionary layer
    from .dictionary_builder import WordFormDictionary


class ParallelCorpus:
    """Checked, line-aligned source and target lines, without newlines,
    and the names that locate an error in them as name:line. The lines
    are checked when it is made, as `parse_factored_corpus` checks them
    without auto_normalize; src_tokens and tgt_tokens are the distinct
    tokens of each side's lines as made, kept from that check. Two are
    equal when their lines are: the names and token sets are not
    compared."""

    __slots__ = ("src", "tgt", "source_name", "target_name", "src_tokens", "tgt_tokens")

    def __init__(self, src: list[str], tgt: list[str],
                 source_name: str = "source", target_name: str = "target"):
        (self.src, self.src_tokens), (self.tgt, self.tgt_tokens) = _checked(
            src, tgt, source_name, target_name, False)
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


InjectionReport = namedtuple(
    "InjectionReport", "entries_offered entries_added duplicates_skipped normalization_applied")


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


def _check_lines(
    lines: list[str], name: str
) -> tuple[tuple[int, int] | None, int, frozenset[str]]:
    """Check every line; return where the first ragged token is, if any
    (line, column), the widest token's width and the distinct tokens."""
    width = _width(lines)
    if width is None:
        return None, 0, frozenset()
    # a line is valid if and only if each token of its split(" ") is, and
    # "" never is: if every distinct token is valid, so is every line
    tokens = frozenset(chain.from_iterable(map(str.split, filter(None, lines), repeat(" "))))
    if all(map(sc.token_match(width), tokens)):
        return None, width, tokens
    ragged_at = None
    widest = width
    for lineno, line in enumerate(lines, 1):
        col = 1
        for token in _parse_line(line, name, lineno):
            token_width = token.count("|")
            if token_width != width and ragged_at is None:
                ragged_at = (lineno, col)
            widest = max(widest, token_width)
            col += len(token) + 1
    return ragged_at, widest, tokens


def _settle_width(
    lines: list[str], name: str, check: tuple[tuple[int, int] | None, int, frozenset[str]],
    auto_normalize: bool,
) -> tuple[list[str], frozenset[str]]:
    ragged_at, widest, tokens = check
    if ragged_at is None:
        return lines, tokens
    if not auto_normalize:
        raise InputError(
            f"{name}:{ragged_at[0]}:{ragged_at[1]}: factor width differs from first token"
        )
    padded = {t: t + f"|{NULL_FACTOR}" * (widest - t.count("|")) for t in tokens}
    # a checked line holds no whitespace but its separators: split() is split(" ")
    return ([" ".join(map(padded.__getitem__, ln.split())) for ln in lines],
            frozenset(padded.values()))


def _checked(
    src: list[str], tgt: list[str], source_name: str, target_name: str, auto_normalize: bool
) -> tuple[tuple[list[str], frozenset[str]], tuple[list[str], frozenset[str]]]:
    """Both sides checked, each with its distinct tokens, and with
    auto_normalize padded to the widest token's width; without it a side
    is returned as given."""
    if len(src) != len(tgt):
        raise InputError(f"{source_name} has {len(src)} lines, {target_name} has {len(tgt)}")
    # every malformed token, on either side, is reported before a ragged width
    src_check = _check_lines(src, source_name)
    tgt_check = _check_lines(tgt, target_name)
    return (_settle_width(src, source_name, src_check, auto_normalize),
            _settle_width(tgt, target_name, tgt_check, auto_normalize))


def _made(src: tuple[list[str], frozenset[str]], tgt: tuple[list[str], frozenset[str]],
          source_name: str = "source", target_name: str = "target") -> ParallelCorpus:
    """A ParallelCorpus of lines, each side with its distinct tokens,
    checked as read or valid by construction."""
    corpus = object.__new__(ParallelCorpus)
    (corpus.src, corpus.src_tokens), (corpus.tgt, corpus.tgt_tokens) = src, tgt
    corpus.source_name, corpus.target_name = source_name, target_name
    return corpus


def parse_factored_corpus(
    source: Iterable[str],
    target: Iterable[str],
    auto_normalize: bool = False,
    source_name: str = "source",
    target_name: str = "target",
) -> ParallelCorpus:
    """Parse parallel source/target lines into a validated corpus.

    The first violation is reported as name:line:column. Ragged factor
    widths are an error unless auto_normalize pads them out. A trailing
    "\n" is removed from each line, so lines split with their ends kept
    parse as the same lines without them.
    """
    return _made(*_checked([ln.rstrip("\n") for ln in source],
                           [ln.rstrip("\n") for ln in target],
                           source_name, target_name, auto_normalize),
                 source_name, target_name)


def inject(
    corpus: ParallelCorpus, dictionary: WordFormDictionary,
) -> tuple[ParallelCorpus, InjectionReport]:
    """Append dictionary entries as pseudo-sentence pairs.

    Entries are width-normalized to the corpus (never the reverse: the
    original lines must stay byte-identical); an entry whose line pair
    already exists anywhere in the corpus is skipped. The dictionary's
    lines were checked against its scheme when it was made.
    """
    src_width = corpus.source_width()
    tgt_width = corpus.target_width()
    dict_src_width = dictionary.scheme.source_width
    dict_tgt_width = dictionary.scheme.target_width
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
        source, _, target = line.partition("\t")
        src_line, tgt_line = key = (source.replace(" ", src_pad + " ") + src_pad,
                                    target.replace(" ", tgt_pad + " ") + tgt_pad)
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
    # the output's tokens are the input's and those of the lines added,
    # which hold no whitespace but their separators
    kept = len(corpus.src)
    return _made((out_src, corpus.src_tokens.union(" ".join(out_src[kept:]).split())),
                 (out_tgt, corpus.tgt_tokens.union(" ".join(out_tgt[kept:]).split()))), report
