"""Word-form dictionary construction: the injection payload.

A dictionary pairs factored English tokens (root|number|case for nouns,
root|number|person|tam for verbs) with factored Hindi tokens
(surface|root|suffix). Factor separator is "|" and the null factor is
the literal string "null". Entries are generated lexicon-row by
lexicon-row in paradigm order, so builds are reproducible byte for
byte; bad rows are collected as failures instead of aborting the batch.

A WordFormDictionary holds its entries as rendered "source\ttarget"
lines. A surface-only side is words joined by single spaces ("will
walk"). No source side starts with "#", since a file line that does is
a comment: a built row or a line made by hand that would is an error.
WordFormDictionary.entries, the same lines as (source, target) string
pairs, is built each time it is read.

Each input is checked once, where it enters. A line read from a file
is checked by one full-line pattern for its pair of factor widths;
only a line that fails it is replayed side by side through
script_core.token_error, which names the first error, and a line whose
sides are both valid has ragged widths. A WordFormDictionary made by
hand is checked the same way, at its scheme's widths. The builders
compose lines of parts checked before (the Hindi root by its paradigm,
a loaded table's suffixes by the loader, factor values by their closed
sets) and check what can reach them unchecked: the English root and
irregular forms once per row, the table's suffixes once per build. Only
a row with one of these that is not a valid factor, and a cell whose
form is empty, is checked field by field by `_line_error`, which names
the first error the full-line check would.

A paradigm is its root's head plus the paradigm of its tail (see
script_core.split_tail), so a build inflects each tail once: the first
row with a tail (and, for a noun, a gender, countability and class
override) calls the public paradigm on the entry with the tail as its
root and renders each paradigm row as pieces, and every row with that
key composes its lines as English root + factors + head + joined tail +
"|" + root + suffix, with no row tuple. A row checked field by field,
one whose head is empty and whose tail joins to "" in some cell, and a
verb with irregular forms take their whole paradigm and compose cell by
cell, so a failure, its message and the entries kept before its failing
cell are the same.

With `surface=True` the builders compose each entry's surface-only line,
the one `strip_to_surface` would make of it, and not its factored line:
a surface-only build reports the same failed rows.
Those lines are valid by construction and go unchecked: a kept line's
English root and Hindi form are valid, the English rules only add
letters or a word to the root ("dogs", "will walk"), and an irregular
form from the English exception tables was checked when they loaded.
So are `strip_to_surface`'s, from its checked input. It serves library
callers, who strip a factored dictionary they hold; the CLI's
surface-only injection injects a `--surface` build.

The English inflection of those surfaces lives here, its only user.
The dictionary format loads no morphology and no annotator: the
builders import noun_morph or verb_morph when called.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from functools import cache

from . import script_core as sc
from .errors import InputError
from .script_core import NULL_FACTOR

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only: the builders import their morphology
    from .noun_morph import BilingualNoun, SuffixTable
    from .verb_morph import VerbLexEntry, VerbSuffixTable

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
    The lines are checked as `parse_dictionary` checks a file of the
    scheme; the first bad entry is an error that names it. Two are equal
    when their lines and schemes are: the failures are not compared."""

    __slots__ = ("lines", "scheme", "failures")

    def __init__(self, lines: list[str], scheme: FactorScheme,
                 failures: list[EntryFailure] | None = None):
        widths = (scheme.source_width, scheme.target_width)
        valid = _line_check(*widths)
        for line in lines:
            if valid(line):
                continue
            sides = line.split("\t")  # split only to name the error
            if len(sides) != 2:
                raise InputError(f"entry {line!r}: expected 2 tab-separated fields "
                                 f"(source, target), got {len(sides)}")
            raise InputError(_line_error(*(side.split("|") for side in sides)) or next(
                f"entry {side!r} has {side.count('|')} factors, scheme declares {width}"
                for side, width in zip(sides, widths) if side.count("|") != width))
        _check_factor_values({s: f"entry {s!r}" for s in (ln.partition("\t")[0] for ln in lines)},
                             scheme)
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


# a surface-only side: words joined by single spaces ("will walk")
_SURFACE_SIDE = rf"{sc.TOKEN_PART}(?: {sc.TOKEN_PART})*"


def _side_pattern(width: int) -> str:
    """Regex for one side: exactly the sides `sc.token_error` passes."""
    return _SURFACE_SIDE if width == 0 else sc.token_pattern(width)


@cache
def _line_check(source_width: int, target_width: int):
    """fullmatch for one dictionary line of these factor widths. A line
    it accepts is two valid sides, the source not led by "#"; any other
    goes to `_line_error`."""
    return re.compile(
        rf"(?!#){_side_pattern(source_width)}\t{_side_pattern(target_width)}").fullmatch


def _line_error(source: Sequence[str], target: Sequence[str]) -> str | None:
    """The first problem of an entry's two sides, each split at "|", or None."""
    error = sc.token_error(source[0], source[1:]) or sc.token_error(target[0], target[1:])
    if error is None and source[0].startswith("#"):
        # a file line that starts with "#" is a comment: the entry would be lost
        error = f"entry {'|'.join(source)!r} starts with '#', as a comment line does"
    return error


def _made(lines: list[str], scheme: FactorScheme,
          failures: list[EntryFailure]) -> WordFormDictionary:
    """A WordFormDictionary of lines checked as read or valid by construction."""
    dictionary = object.__new__(WordFormDictionary)
    dictionary.lines, dictionary.scheme, dictionary.failures = lines, scheme, failures
    return dictionary


def parse_dictionary(lines: Iterable[str], name: str = "<dictionary>") -> WordFormDictionary:
    """Read a dictionary file: one entry per line, source TAB target;
    blank and "#" lines are skipped. `name` locates errors as name:line.
    The scheme is the one whose widths are the first line's; an empty
    dictionary is surface-only."""
    out: dict[str, None] = {}
    first_at: dict[str, str] = {}  # each distinct source side: where it first appears
    widths: tuple[int, int] | None = None
    for where, (source, target) in sc.table_rows(lines, name, ("source", "target")):
        line = f"{source}\t{target}"
        first_at.setdefault(source, where)
        if widths is None:
            widths = (source.count("|"), target.count("|"))
            valid = _line_check(*widths)
        if not valid(line):
            # two valid sides that the first line's pattern rejects are ragged
            error = _line_error(source.split("|"), target.split("|"))
            raise InputError(f"{where}: {error or 'ragged factor widths'}")
        out[line] = None
    scheme = SURFACE_SCHEME if widths is None else next(
        (s for s in SCHEMES.values() if (s.source_width, s.target_width) == widths), None)
    if scheme is None:
        raise InputError(f"{name}: no scheme matches factor widths {widths}")
    _check_factor_values(first_at, scheme)
    return _made(list(out), scheme, [])


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
        factors = source.split("|")
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
    if sc.token_error(form, ()):
        raise InputError(f"{where}: bad {what} {form!r} (not words joined by single spaces)")
    return form


def _exception_rows(name: str, columns: tuple[str, ...]) -> Iterator[tuple[str, str, list[str]]]:
    """(where, root, forms) of each row of a packaged exception table. The
    lookups take a single-factor root and lower-case it, so a root that is
    not a single factor or not lower-case, or one given a second row, is
    an error at its line."""
    _, rows = sc.read_table(None, name, columns)
    roots = set()
    for where, (root, *forms) in rows:
        if not sc.token_match(0)(root):
            raise InputError(f"{where}: {columns[0]} {root!r} is not a single factor")
        if root != root.lower():
            raise InputError(f"{where}: {columns[0]} {root!r} is not lower-case")
        if root in roots:
            raise InputError(f"{where}: duplicate {columns[0]} {root!r}")
        roots.add(root)
        yield where, root, forms


@cache
def _noun_exceptions() -> dict[str, str]:
    return {sg: _surface_form(pl, "plural", where) for where, sg, (pl,) in _exception_rows(
        "noun_plural_exceptions.tsv", ("singular", "plural"))}


@cache
def _verb_exceptions() -> dict[str, tuple[str | None, str]]:
    return {root: (None if third == "-" else _surface_form(third, "third-person form", where),
                   _surface_form(past, "past form", where))
            for where, root, (third, past) in _exception_rows(
                "verb_exceptions.tsv", ("root", "third", "past"))}


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

    Future and modal forms are periphrastic ("will walk"); injection
    splits them into separate tokens.
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
    row is checked field by field only if its English root or a table
    suffix is not a valid factor, and a cell whose form is empty always is.
    A `table` of None loads the packaged one for this call: a caller
    that builds more than once passes a loaded table."""
    from .noun_morph import load_suffix_table, noun_paradigm

    table = table or load_suffix_table()
    part = sc.token_match(0)
    suffixes_valid = all(part(s) for rows in table.rows.values() for *_, s in rows if s is not None)
    # (tail, gender, countable, class override) -> each paradigm row's line
    # pieces, and whether the tail joins to "" in one of them
    tails: dict[tuple, tuple[list[tuple], bool]] = {}
    lines: dict[str, None] = {}
    failures: list[EntryFailure] = []
    for idx, noun in enumerate(lexicon):
        english, entry = noun.english_root, noun.entry
        root = entry.hindi_root
        if surface:
            plural = english_noun_surface(english, "pl")
        check = not (suffixes_valid and part(english) and not english.startswith("#"))
        try:
            if not check:
                head, tail = sc.split_tail(root)
                key = (tail, entry.gender, entry.countable, entry.class_override)
                pieces = tails.get(key)
                if pieces is None:
                    rows = noun_paradigm(entry._replace(hindi_root=tail), table)
                    pieces = tails[key] = ([
                        (number == "pl", form) if surface
                        else (f"|{number}|{case}\t", form, f"|{NULL_FACTOR if s is None else s}")
                        for number, case, s, form in rows], any(not row[3] for row in rows))
                rendered, joins_empty = pieces
                if head or not joins_empty:
                    if surface:
                        for plural_row, form in rendered:
                            lines[f"{plural if plural_row else english}\t{head}{form}"] = None
                    else:
                        for number_case, form, suffix in rendered:
                            lines[f"{english}{number_case}{head}{form}|{root}{suffix}"] = None
                    continue
            for number, case, suffix, form in noun_paradigm(entry, table):
                suffix = NULL_FACTOR if suffix is None else suffix
                if (check or not form) and (error := _line_error(
                        (english, number, case), (form, root, suffix))):
                    raise InputError(error)
                lines[f"{plural if number == 'pl' else english}\t{form}" if surface
                      else f"{english}|{number}|{case}\t{form}|{root}|{suffix}"] = None
        except InputError as exc:
            failures.append(EntryFailure(idx, english, root, str(exc)))
    return _made(list(lines), SURFACE_SCHEME if surface else NOUN_SCHEME, failures)


def build_verb_dict(
    lexicon: list[VerbLexEntry], table: VerbSuffixTable | None = None, *, surface: bool = False,
) -> WordFormDictionary:
    """One entry per collapsed grid cell per verb; every English factor
    tuple appears once per gender, then exact duplicates collapse. With
    `surface`, each entry is kept as its surface-only line (see
    `strip_to_surface`). Cells are checked as in `build_noun_dict`, and
    also when an irregular form of the row is not a valid factor. A
    `table` of None loads the packaged one for this call."""
    from .verb_morph import load_verb_suffix_table, verb_paradigm

    table = table or load_verb_suffix_table()
    part = sc.token_match(0)
    suffixes_valid = all(part(row[4]) for row in table.rows if row[4] is not None)
    if surface:  # the exception table loads before the rows: a bad form is fatal
        _verb_exceptions()
        # each English factor tuple once, though the rows hold it once per gender
        keys = dict.fromkeys((number, person, tam) for tam, _, number, person, _ in table.rows)
    # tail -> each paradigm row's line pieces, and whether it joins to "" in one of them
    tails: dict[str, tuple[list[tuple], bool]] = {}
    lines: dict[str, None] = {}
    failures: list[EntryFailure] = []
    for idx, verb in enumerate(lexicon):
        english, root = verb.english_root, verb.hindi_root
        check = not (suffixes_valid and part(english) and not english.startswith("#")
                     and all(part(o[4]) for o in verb.irregular_forms))
        if surface:
            english_of = {key: english_verb_surface(english, *key) for key in keys}
        try:
            if not (check or verb.irregular_forms):
                head, tail = sc.split_tail(root)
                pieces = tails.get(tail)
                if pieces is None:
                    rows = verb_paradigm(verb._replace(hindi_root=tail), table)
                    pieces = tails[tail] = ([
                        ((number, person, tam), form) if surface
                        else (f"|{number}|{person}|{tam}\t", form,
                              f"|{NULL_FACTOR if s is None else s}")
                        for tam, _, number, person, s, form in rows],
                        any(not row[5] for row in rows))
                rendered, joins_empty = pieces
                if head or not joins_empty:
                    if surface:
                        for key, form in rendered:
                            lines[f"{english_of[key]}\t{head}{form}"] = None
                    else:
                        for factors, form, suffix in rendered:
                            lines[f"{english}{factors}{head}{form}|{root}{suffix}"] = None
                    continue
            for tam, _, number, person, suffix, form in verb_paradigm(verb, table):
                suffix = NULL_FACTOR if suffix is None else suffix
                if (check or not form) and (error := _line_error(
                        (english, number, person, tam), (form, root, suffix))):
                    raise InputError(error)
                lines[f"{english_of[number, person, tam]}\t{form}" if surface
                      else f"{english}|{number}|{person}|{tam}\t{form}|{root}|{suffix}"] = None
        except InputError as exc:
            failures.append(EntryFailure(idx, english, root, str(exc)))
    return _made(list(lines), SURFACE_SCHEME if surface else VERB_SCHEME, failures)


def strip_to_surface(dictionary: WordFormDictionary) -> WordFormDictionary:
    """Drop all factors, keeping (and synthesizing) surface forms only.

    The English surface is rebuilt from the factored source (dogs for
    dog|pl|*, walked for walk|*|*|perf). The input's lines were checked
    when it was made, so each output side is valid for the reason a
    `surface=True` build's is (see the module docstring). Collapsed
    distinctions produce exact duplicates, which are removed. The result
    keeps the input's failures. Idempotent.
    """
    scheme = dictionary.scheme
    verb = scheme.source_width > 0 and "tam" in scheme.source_factors
    noun = scheme.source_width > 0 and not verb and "case" in scheme.source_factors
    lines: dict[str, None] = {}
    for line in dictionary.lines:
        source, _, target = line.partition("\t")
        surface, *factors = source.split("|")
        if verb:
            surface = english_verb_surface(surface, *factors)
        elif noun:
            surface = english_noun_surface(surface, factors[0])
        lines[f"{surface}\t{target.partition('|')[0]}"] = None
    return _made(list(lines), SURFACE_SCHEME, list(dictionary.failures))
