"""Word-form dictionary construction: the injection payload.

A dictionary pairs factored English tokens (root|number|case for nouns,
root|number|person|tam for verbs) with factored Hindi tokens
(surface|root|suffix). Factor separator is "|" and the null factor is
the literal string "null". Entries are generated lexicon-row by
lexicon-row in paradigm order, so builds are reproducible byte for
byte; bad rows are collected as failures instead of aborting the batch.

A WordFormDictionary holds its entries as rendered "source\ttarget"
lines. Every line, built or read, is checked by one full-line pattern
for its pair of factor widths; only a line that fails it is replayed
side by side through script_core.token_error, which names the first
error, and a line whose sides are both valid has ragged widths. A
surface-only side is words joined by single spaces ("will walk").
WordFormDictionary.entries, the same lines as (source, target) string
pairs, is built each time it is read.

The builders render lines from the paradigms' string rows. With
`surface=True` they still check each factored line, then keep its
surface-only form, the line `strip_to_surface` would make of it, so a
surface-only build never holds the factored dictionary and reports the
same failed rows. `strip_to_surface` serves `inject --mode surface` and
library callers.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import cache
from typing import Iterable, Sequence

from . import script_core as sc
from . import source_factors as sf
from .errors import InputError
from .noun_morph import (
    BilingualNoun,
    Case,
    Number,
    SuffixTable,
    default_suffix_table,
    noun_paradigm,
)
from .script_core import NULL_FACTOR
from .verb_morph import (
    Person,
    TamSlot,
    VerbLexEntry,
    VerbSuffixTable,
    default_verb_suffix_table,
    verb_paradigm,
)

FACTOR_SEP = "|"


class FactorScheme(namedtuple(
        "FactorScheme",
        "source_factors target_factors translation_steps generation_steps",
        defaults=((), ()))):
    """Named factor positions plus the mapping steps between them.

    Position 0 on each side is the surface slot; steps name subsets of
    these positions. Translation steps map source positions to target
    positions; generation steps are target-side only.
    """

    __slots__ = ()

    @property
    def source_width(self) -> int:
        return len(self.source_factors) - 1

    @property
    def target_width(self) -> int:
        return len(self.target_factors) - 1


NOUN_SCHEME = FactorScheme(
    source_factors=("root", "number", "case"),
    target_factors=("surface", "root", "suffix"),
    translation_steps=((("root", "number", "case"), ("root", "suffix")),),
    generation_steps=((("root", "suffix"), ("surface",)),),
)

VERB_SCHEME = FactorScheme(
    source_factors=("root", "number", "person", "tam"),
    target_factors=("surface", "root", "suffix"),
    translation_steps=((("root", "number", "person", "tam"), ("root", "suffix")),),
    generation_steps=((("root", "suffix"), ("surface",)),),
)

SURFACE_SCHEME = FactorScheme(
    source_factors=("surface",),
    target_factors=("surface",),
    translation_steps=((("surface",), ("surface",)),),
    generation_steps=(),
)

SCHEMES = {"noun": NOUN_SCHEME, "verb": VERB_SCHEME, "surface": SURFACE_SCHEME}

# the closed set of values of each source factor that has one
_FACTOR_VALUES = {"number": Number, "case": Case, "person": Person, "tam": TamSlot}


EntryFailure = namedtuple("EntryFailure", "index english_root hindi_root error")


class WordFormDictionary:
    """Entries as "source\ttarget" lines, in build order and without
    duplicates, plus the factor scheme and the lexicon rows that failed.
    Two are equal when their lines and schemes are: the failures are not
    compared."""

    __slots__ = ("lines", "scheme", "failures")

    def __init__(self, lines: list[str], scheme: FactorScheme,
                 failures: list[EntryFailure] | None = None):
        self.lines = lines
        self.scheme = scheme
        self.failures = [] if failures is None else failures

    def __eq__(self, other):
        if type(other) is not WordFormDictionary:
            return NotImplemented
        return (self.lines, self.scheme) == (other.lines, other.scheme)

    def __repr__(self) -> str:
        return f"WordFormDictionary({self.lines!r}, {self.scheme!r}, {self.failures!r})"

    @property
    def entries(self) -> list[tuple[str, str]]:
        # counted by bench/spans.py and bench/table.py; nothing else reads it
        return [tuple(ln.split("\t")) for ln in self.lines]

    def __len__(self) -> int:
        return len(self.lines)


def _side_pattern(width: int) -> str:
    """A surface-only side is tokens joined by single spaces ("will walk")."""
    token = sc.token_pattern(width)
    return rf"{token}(?: {token})*" if width == 0 else token


def _side_error(surface: str, factors: Sequence[str]) -> str | None:
    """The first problem of one side, or None; `_side_pattern` accepts
    exactly the sides with none."""
    error = sc.token_error(surface, factors)
    if error is None and not factors and "" in surface.split(" "):
        error = f"surface-only side {surface!r} is not words joined by single spaces"
    return error


@cache
def _line_check(source_width: int, target_width: int):
    """fullmatch for one dictionary line of these factor widths. A line
    it accepts is two valid sides; any other goes to `_side_error`."""
    return re.compile(rf"{_side_pattern(source_width)}\t{_side_pattern(target_width)}").fullmatch


def _line_error(source: Sequence[str], target: Sequence[str]) -> InputError:
    """The error of a rendered entry that its line check rejected."""
    return InputError(_side_error(source[0], source[1:]) or _side_error(target[0], target[1:]))


def parse_dictionary(
    lines: Iterable[str], scheme: FactorScheme | None = None, name: str = "<dictionary>",
) -> WordFormDictionary:
    """Read a dictionary file: one entry per line, source TAB target;
    blank and "#" lines are skipped. `name` locates errors as name:line."""
    out: dict[str, None] = {}
    first_at: dict[str, str] = {}  # each distinct source side: where it first appears
    widths: tuple[int, int] | None = None
    for where, (source, target) in sc.table_rows(lines, name, ("source", "target")):
        line = f"{source}\t{target}"
        first_at.setdefault(source, where)
        if widths is None:
            widths = (source.count(FACTOR_SEP), target.count(FACTOR_SEP))
            valid = _line_check(*widths)
        if not valid(line):
            for side in (source, target):
                surface, *factors = side.split(FACTOR_SEP)
                error = _side_error(surface, factors)
                if error:
                    raise InputError(f"{where}: {error}")
            # two valid sides that the first line's pattern rejects
            raise InputError(f"{where}: ragged factor widths")
        out[line] = None
    if scheme is None:
        if widths == (2, 2):
            scheme = NOUN_SCHEME
        elif widths == (3, 2):
            scheme = VERB_SCHEME
        elif widths in ((0, 0), None):
            scheme = SURFACE_SCHEME
        else:
            raise InputError(f"{name}: no scheme matches factor widths {widths}")
    elif out:  # every line has the first line's widths
        first = next(iter(out)).split("\t")
        for side, width, declared in zip(first, widths, (scheme.source_width, scheme.target_width)):
            if width != declared:
                raise InputError(f"entry {side!r} has {width} factors, scheme declares {declared}")
    _check_factor_values(first_at, scheme)
    return WordFormDictionary(list(out), scheme)


def _check_factor_values(first_at: dict[str, str], scheme: FactorScheme) -> None:
    """Each enum factor of the scheme's source side must hold a value of
    its enum. Source sides are visited in file order, so the first bad
    value is reported at the first line that holds it; each distinct
    value of a position is checked once."""
    checks = [(i, what, _FACTOR_VALUES[what], set())
              for i, what in enumerate(scheme.source_factors) if what in _FACTOR_VALUES]
    if not checks:
        return
    for source, where in first_at.items():
        factors = source.split(FACTOR_SEP)
        for i, what, kind, seen in checks:
            value = factors[i]
            if value not in seen:
                sc.table_value(kind, what, value, where)
                seen.add(value)


def build_noun_dict(
    lexicon: list[BilingualNoun], table: SuffixTable | None = None, *, surface: bool = False,
) -> WordFormDictionary:
    """Four entries per noun pair, in sg-dir, sg-obl, pl-dir, pl-obl
    order; per-row failures are collected on the result, and the entries
    of a row made before its failing cell are kept. With `surface`, each
    checked entry is kept as its surface-only line (see `strip_to_surface`)."""
    table = table or default_suffix_table()
    valid = _line_check(NOUN_SCHEME.source_width, NOUN_SCHEME.target_width)
    lines: dict[str, None] = {}
    failures: list[EntryFailure] = []
    for idx, noun in enumerate(lexicon):
        english, root = noun.english_root, noun.entry.hindi_root
        if surface:
            plural = sf.english_noun_surface(english, "pl")
        try:
            for number, case, suffix, form in noun_paradigm(noun.entry, table):
                suffix = NULL_FACTOR if suffix is None else suffix
                line = f"{english}|{number}|{case}\t{form}|{root}|{suffix}"
                if not valid(line):
                    raise _line_error((english, number, case), (form, root, suffix))
                if surface:
                    line = f"{plural if number == 'pl' else english}\t{form}"
                lines[line] = None
        except InputError as exc:
            failures.append(EntryFailure(idx, english, root, str(exc)))
    if surface:
        return _surface_only(lines, failures)
    return WordFormDictionary(list(lines), NOUN_SCHEME, failures)


def build_verb_dict(
    lexicon: list[VerbLexEntry], table: VerbSuffixTable | None = None, *, surface: bool = False,
) -> WordFormDictionary:
    """One entry per collapsed grid cell per verb; every English factor
    tuple appears once per gender, then exact duplicates collapse. With
    `surface`, each checked entry is kept as its surface-only line (see
    `strip_to_surface`)."""
    table = table or default_verb_suffix_table()
    valid = _line_check(VERB_SCHEME.source_width, VERB_SCHEME.target_width)
    lines: dict[str, None] = {}
    failures: list[EntryFailure] = []
    for idx, verb in enumerate(lexicon):
        english, root = verb.english_root, verb.hindi_root
        try:
            for tam, _, number, person, suffix, form in verb_paradigm(verb, table):
                suffix = NULL_FACTOR if suffix is None else suffix
                line = f"{english}|{number}|{person}|{tam}\t{form}|{root}|{suffix}"
                if not valid(line):
                    raise _line_error((english, number, person, tam), (form, root, suffix))
                if surface:
                    line = f"{sf.english_verb_surface(english, number, person, tam)}\t{form}"
                lines[line] = None
        except InputError as exc:
            failures.append(EntryFailure(idx, english, root, str(exc)))
    if surface:
        return _surface_only(lines, failures)
    return WordFormDictionary(list(lines), VERB_SCHEME, failures)


def _surface_only(lines: dict[str, None], failures: list[EntryFailure]) -> WordFormDictionary:
    """The surface-only dictionary of a build's distinct lines, each
    checked as `strip_to_surface` checks its lines, in the same order."""
    valid = _line_check(0, 0)
    for line in lines:
        if not valid(line):
            source, _, target = line.partition("\t")
            raise _line_error((source,), (target,))
    return WordFormDictionary(list(lines), SURFACE_SCHEME, failures)


def strip_to_surface(dictionary: WordFormDictionary) -> WordFormDictionary:
    """Drop all factors, keeping (and synthesizing) surface forms only.

    The English surface is rebuilt from the factored source (dogs for
    dog|pl|*, walked for walk|*|*|perf); a factor value it reads that is
    outside its enum is an error naming the entry, each distinct factor
    string checked once. Collapsed distinctions produce exact
    duplicates, which are removed. The result keeps the input's
    failures. Idempotent.
    """
    scheme = dictionary.scheme
    verb = scheme.source_width > 0 and "tam" in scheme.source_factors
    noun = scheme.source_width > 0 and not verb and "case" in scheme.source_factors
    valid = _line_check(0, 0)
    lines: dict[str, None] = {}
    # each distinct factor string, checked once, and its values
    checked: dict[str, list[str]] = {}
    for line in dictionary.lines:
        source, target = line.split("\t")
        surface, _, factor_text = source.partition(FACTOR_SEP)
        if verb or noun:
            factors = checked.get(factor_text)
            if factors is None:
                factors = factor_text.split(FACTOR_SEP)
                where = f"entry {source!r}"
                sc.table_value(Number, "number", factors[0], where)
                if verb:
                    sc.table_value(Person, "person", factors[1], where)
                    sc.table_value(TamSlot, "tam", factors[2], where)
                checked[factor_text] = factors
            if verb:
                surface = sf.english_verb_surface(surface, *factors[:3])
            else:
                surface = sf.english_noun_surface(surface, factors[0])
        target_surface = target.partition(FACTOR_SEP)[0]
        line = f"{surface}\t{target_surface}"
        if not valid(line):
            raise _line_error((surface,), (target_surface,))
        lines[line] = None
    return WordFormDictionary(list(lines), SURFACE_SCHEME, list(dictionary.failures))
