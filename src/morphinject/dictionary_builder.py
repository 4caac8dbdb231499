"""Word-form dictionary construction: the injection payload.

A dictionary pairs factored English tokens (root|number|case for nouns,
root|number|person|tam for verbs) with factored Hindi tokens
(surface|root|suffix). Factor separator is "|" and the null factor is
the literal string "null". Entries are generated lexicon-row by
lexicon-row in paradigm order, so builds are reproducible byte for
byte; bad rows are collected as failures instead of aborting the batch.

A WordFormDictionary holds its entries as rendered "source\ttarget"
lines. A surface-only side is words joined by single spaces ("will
walk"). WordFormDictionary.entries, the same lines as (source, target)
string pairs, is built each time it is read.

Each input is checked once, where it enters. A line read from a file
is checked by one full-line pattern for its pair of factor widths;
only a line that fails it is replayed side by side through
script_core.token_error, which names the first error, and a line whose
sides are both valid has ragged widths. The builders compose lines of
parts checked before (the Hindi root by its paradigm, a loaded table's
suffixes by the loader, factor values by their closed sets) and check
what can reach them unchecked: the English root and irregular forms
once per row, the table's suffixes once per build. Only a row with one
of these that is not a valid factor, and a line whose form is empty,
get the full-line check, which names the same first error.

With `surface=True` the builders keep each entry's surface-only form,
the line `strip_to_surface` would make of it, so a surface-only build
never holds the factored dictionary and reports the same failed rows.
Those lines are valid by construction and go unchecked: a kept line's
English root and Hindi form are valid, the English rules only add
letters or a word to the root ("dogs", "will walk"), and an irregular
form from the English exception tables was checked when they loaded.
`strip_to_surface` serves `inject --mode surface` and library callers.

The English inflection of those surfaces lives here, its only user.
The dictionary format loads no morphology and no annotator: the
builders import noun_morph or verb_morph when called.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Iterable, Sequence
from functools import cache

from . import script_core as sc
from .errors import InputError
from .script_core import NULL_FACTOR

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only: the builders import their morphology
    from .noun_morph import BilingualNoun, SuffixTable
    from .verb_morph import VerbLexEntry, VerbSuffixTable

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
_FACTOR_VALUES = {"number": sc.NUMBERS, "case": sc.CASES, "person": sc.PERSONS, "tam": sc.TAMS}


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
    return sc.line_pattern(0).pattern if width == 0 else sc.token_pattern(width)


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
        # the scheme of the first line's widths; an empty dictionary is surface-only
        scheme = SURFACE_SCHEME if widths is None else next(
            (s for s in SCHEMES.values() if (s.source_width, s.target_width) == widths), None)
        if scheme is None:
            raise InputError(f"{name}: no scheme matches factor widths {widths}")
    elif out:  # every line has the first line's widths
        first = next(iter(out)).split("\t")
        for side, width, declared in zip(first, widths, (scheme.source_width, scheme.target_width)):
            if width != declared:
                raise InputError(f"entry {side!r} has {width} factors, scheme declares {declared}")
    _check_factor_values(first_at, scheme)
    return WordFormDictionary(list(out), scheme)


def _check_factor_values(first_at: dict[str, str], scheme: FactorScheme) -> None:
    """Each source factor of the scheme that has a closed value set must
    hold one of its values. Source sides are visited in file order, so
    the first bad value is reported at the first line that holds it;
    each distinct value of a position is checked once."""
    checks = [(i, what, _FACTOR_VALUES[what], set())
              for i, what in enumerate(scheme.source_factors) if what in _FACTOR_VALUES]
    if not checks:
        return
    for source, where in first_at.items():
        factors = source.split(FACTOR_SEP)
        for i, what, values, seen in checks:
            value = factors[i]
            if value not in seen:
                sc.table_value(values, what, value, where)
                seen.add(value)


# --- English surface synthesis (for the surface-only dictionary) ---

_SIBILANT_ENDINGS = ("s", "x", "z", "ch", "sh")
_VOWELS = "aeiou"


def _surface_form(form: str, what: str, where: str) -> str:
    """`form` if it is a valid surface-only side, else an error at
    `where`: every English surface the two tables below give is valid."""
    if not sc.line_pattern(0).fullmatch(form):
        raise InputError(f"{where}: bad {what} {form!r} (not words joined by single spaces)")
    return form


@cache
def _noun_exceptions() -> dict[str, str]:
    _, rows = sc.read_table(None, "noun_plural_exceptions.tsv", ("singular", "plural"))
    return {sg: _surface_form(pl, "plural", where) for where, (sg, pl) in rows}


@cache
def _verb_exceptions() -> dict[str, tuple[str | None, str]]:
    _, rows = sc.read_table(None, "verb_exceptions.tsv", ("root", "third", "past"))
    return {root: (None if third == "-" else _surface_form(third, "third-person form", where),
                   _surface_form(past, "past form", where))
            for where, (root, third, past) in rows}


def _add_s(root: str) -> str:
    if root.endswith(_SIBILANT_ENDINGS):
        return root + "es"
    if root.endswith("y") and len(root) > 1 and root[-2] not in _VOWELS:
        return root[:-1] + "ies"
    return root + "s"


def english_noun_surface(root: str, number: str) -> str:
    """Inflect an English noun lemma for a number ("sg" or "pl"): identity
    for singular, exception list then orthographic rules for plural."""
    if number == "sg":
        return root
    exc = _noun_exceptions().get(root.lower())
    if exc is not None:
        return exc
    return _add_s(root)


def english_verb_surface(root: str, number: str, person: str, tam: str) -> str:
    """Inflect an English verb lemma for the given factor values.

    Future and modal forms are periphrastic ("will walk"); downstream
    corpus emission splits them into separate tokens.
    """
    if tam == "inf":
        return "to " + root
    if tam == "fut":
        return "will " + root
    if tam == "subj":
        return "would " + root
    if tam == "imp":
        return root
    if tam == "perf":
        exc = _verb_exceptions().get(root.lower())
        if exc is not None:
            return exc[1]
        if root.endswith("e"):
            return root + "d"
        if root.endswith("y") and len(root) > 1 and root[-2] not in _VOWELS:
            return root[:-1] + "ied"
        return root + "ed"
    # present habitual
    if person == "3" and number == "sg":
        exc = _verb_exceptions().get(root.lower())
        if exc is not None and exc[0] is not None:
            return exc[0]
        return _add_s(root)
    return root


def build_noun_dict(
    lexicon: list[BilingualNoun], table: SuffixTable | None = None, *, surface: bool = False,
) -> WordFormDictionary:
    """Four entries per noun pair, in sg-dir, sg-obl, pl-dir, pl-obl
    order; per-row failures are collected on the result, and the entries
    of a row made before its failing cell are kept. With `surface`, each
    entry is kept as its surface-only line (see `strip_to_surface`). A
    row's lines are checked only if its English root or a table suffix
    is not a valid factor, and a line whose form is empty always is."""
    from .noun_morph import default_suffix_table, noun_paradigm

    table = table or default_suffix_table()
    valid = _line_check(NOUN_SCHEME.source_width, NOUN_SCHEME.target_width)
    part = sc.token_match(0)
    suffixes_valid = all(part(s) for rows in table.rows.values() for *_, s in rows if s is not None)
    lines: dict[str, None] = {}
    failures: list[EntryFailure] = []
    for idx, noun in enumerate(lexicon):
        english, root = noun.english_root, noun.entry.hindi_root
        if surface:
            plural = english_noun_surface(english, "pl")
        try:
            rows = noun_paradigm(noun.entry, table)
            check = not (suffixes_valid and part(english))
            for number, case, suffix, form in rows:
                suffix = NULL_FACTOR if suffix is None else suffix
                line = f"{english}|{number}|{case}\t{form}|{root}|{suffix}"
                if (check or not form) and not valid(line):
                    raise _line_error((english, number, case), (form, root, suffix))
                if surface:
                    line = f"{plural if number == 'pl' else english}\t{form}"
                lines[line] = None
        except InputError as exc:
            failures.append(EntryFailure(idx, english, root, str(exc)))
    return WordFormDictionary(list(lines), SURFACE_SCHEME if surface else NOUN_SCHEME, failures)


def build_verb_dict(
    lexicon: list[VerbLexEntry], table: VerbSuffixTable | None = None, *, surface: bool = False,
) -> WordFormDictionary:
    """One entry per collapsed grid cell per verb; every English factor
    tuple appears once per gender, then exact duplicates collapse. With
    `surface`, each entry is kept as its surface-only line (see
    `strip_to_surface`). Lines are checked as in `build_noun_dict`, and
    also when an irregular form of the row is not a valid factor."""
    from .verb_morph import default_verb_suffix_table, verb_paradigm

    table = table or default_verb_suffix_table()
    valid = _line_check(VERB_SCHEME.source_width, VERB_SCHEME.target_width)
    part = sc.token_match(0)
    suffixes_valid = all(part(row[4]) for row in table.rows if row[4] is not None)
    if surface:  # the exception table loads before the rows: a bad form is fatal
        _verb_exceptions()
        # each English factor tuple once, though the rows hold it once per gender
        keys = dict.fromkeys((number, person, tam) for tam, _, number, person, _ in table.rows)
    lines: dict[str, None] = {}
    failures: list[EntryFailure] = []
    for idx, verb in enumerate(lexicon):
        english, root = verb.english_root, verb.hindi_root
        try:
            rows = verb_paradigm(verb, table)
            check = not (suffixes_valid and part(english)
                         and all(part(o[4]) for o in verb.irregular_forms))
            if surface:
                english_of = {key: english_verb_surface(english, *key) for key in keys}
            for tam, _, number, person, suffix, form in rows:
                suffix = NULL_FACTOR if suffix is None else suffix
                line = f"{english}|{number}|{person}|{tam}\t{form}|{root}|{suffix}"
                if (check or not form) and not valid(line):
                    raise _line_error((english, number, person, tam), (form, root, suffix))
                if surface:
                    line = f"{english_of[number, person, tam]}\t{form}"
                lines[line] = None
        except InputError as exc:
            failures.append(EntryFailure(idx, english, root, str(exc)))
    return WordFormDictionary(list(lines), SURFACE_SCHEME if surface else VERB_SCHEME, failures)


def strip_to_surface(dictionary: WordFormDictionary) -> WordFormDictionary:
    """Drop all factors, keeping (and synthesizing) surface forms only.

    The English surface is rebuilt from the factored source (dogs for
    dog|pl|*, walked for walk|*|*|perf); an entry with other than the
    scheme's number of factors, or a factor value it reads that is
    outside its closed value set, is an error naming the entry, each
    distinct factor string checked once. Collapsed distinctions produce
    exact duplicates, which are removed. The result keeps the input's
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
                if source.count(FACTOR_SEP) != scheme.source_width:
                    raise InputError(f"{where} has {source.count(FACTOR_SEP)} factors, "
                                     f"scheme declares {scheme.source_width}")
                sc.table_value(sc.NUMBERS, "number", factors[0], where)
                if verb:
                    sc.table_value(sc.PERSONS, "person", factors[1], where)
                    sc.table_value(sc.TAMS, "tam", factors[2], where)
                checked[factor_text] = factors
            if verb:
                surface = english_verb_surface(surface, *factors)
            else:
                surface = english_noun_surface(surface, factors[0])
        target_surface = target.partition(FACTOR_SEP)[0]
        line = f"{surface}\t{target_surface}"
        if not valid(line):
            raise _line_error((surface,), (target_surface,))
        lines[line] = None
    return WordFormDictionary(list(lines), SURFACE_SCHEME, list(dictionary.failures))
