"""Word-form dictionary construction: the injection payload.

A dictionary pairs factored English tokens (root|number|case for nouns,
root|number|person|tam for verbs) with factored Hindi tokens
(surface|root|suffix). Factor separator is "|" and the null factor is
the literal string "null". Entries are generated lexicon-row by
lexicon-row in paradigm order, so builds are reproducible byte for
byte; bad rows are collected as failures instead of aborting the batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from . import script_core as sc
from . import source_factors as sf
from .errors import InputError, TokenTooWide
from .noun_morph import (
    BilingualNoun,
    Number,
    SuffixTable,
    default_suffix_table,
    noun_paradigm,
)
from .verb_morph import (
    Person,
    TamSlot,
    VerbLexEntry,
    VerbSuffixTable,
    default_verb_suffix_table,
    verb_paradigm,
)

FACTOR_SEP = "|"
NULL_FACTOR = "null"
# a surface or a factor of a factored token: no separator, no whitespace
# (\s matches exactly the characters for which str.isspace() is true)
TOKEN_PART = r"[^\s|]+"


@dataclass(frozen=True)
class FactoredToken:
    surface: str
    factors: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.surface:
            raise InputError("token with empty surface")
        if FACTOR_SEP in self.surface:
            raise InputError(f"surface {self.surface!r} contains the factor separator")
        if self.factors and any(ch.isspace() for ch in self.surface):
            raise InputError(f"factored token surface {self.surface!r} contains whitespace")
        for f in self.factors:
            if not f:
                raise InputError("empty factor string")
            if FACTOR_SEP in f or any(ch.isspace() for ch in f):
                raise InputError(f"factor {f!r} contains separator or whitespace")
        object.__setattr__(self, "factors", tuple(self.factors))

    @property
    def width(self) -> int:
        return len(self.factors)

    def render(self) -> str:
        return FACTOR_SEP.join((self.surface,) + self.factors)

    @classmethod
    def parse(cls, text: str) -> "FactoredToken":
        parts = text.split(FACTOR_SEP)
        return cls(parts[0], tuple(parts[1:]))


@dataclass(frozen=True)
class FactorScheme:
    """Named factor positions plus the mapping steps between them.

    Position 0 on each side is the surface slot; steps name subsets of
    these positions. Translation steps map source positions to target
    positions; generation steps are target-side only.
    """

    source_factors: tuple[str, ...]
    target_factors: tuple[str, ...]
    translation_steps: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...] = ()
    generation_steps: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...] = ()

    def __post_init__(self):
        for src_names, tgt_names in self.translation_steps:
            for name in src_names:
                if name not in self.source_factors:
                    raise InputError(f"translation step names unknown source factor {name!r}")
            for name in tgt_names:
                if name not in self.target_factors:
                    raise InputError(f"translation step names unknown target factor {name!r}")
        for in_names, out_names in self.generation_steps:
            for name in in_names + out_names:
                if name not in self.target_factors:
                    raise InputError(f"generation step names unknown target factor {name!r}")

    @property
    def source_width(self) -> int:
        return len(self.source_factors) - 1

    @property
    def target_width(self) -> int:
        return len(self.target_factors) - 1

    def project(self, token: FactoredToken, names: Iterable[str], side: str) -> tuple[str, ...]:
        declared = self.source_factors if side == "source" else self.target_factors
        positions = (token.surface,) + token.factors
        out = []
        for name in names:
            idx = declared.index(name)
            if idx >= len(positions):
                raise InputError(
                    f"token {token.render()!r} too narrow for factor {name!r}"
                )
            out.append(positions[idx])
        return tuple(out)


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


@dataclass(frozen=True)
class DictEntry:
    source: FactoredToken
    target: FactoredToken


@dataclass
class EntryFailure:
    index: int
    english_root: str
    hindi_root: str
    error: str


@dataclass
class WordFormDictionary:
    entries: list[DictEntry]
    scheme: FactorScheme
    failures: list[EntryFailure] = field(default_factory=list, compare=False)

    def __post_init__(self):
        seen = set()
        for e in self.entries:
            if e.source.width != self.scheme.source_width:
                raise InputError(
                    f"entry {e.source.render()!r} has {e.source.width} factors, "
                    f"scheme declares {self.scheme.source_width}"
                )
            if e.target.width != self.scheme.target_width:
                raise InputError(
                    f"entry {e.target.render()!r} has {e.target.width} factors, "
                    f"scheme declares {self.scheme.target_width}"
                )
            if e in seen:
                raise InputError(f"duplicate entry {e.source.render()} -> {e.target.render()}")
            seen.add(e)

    def __len__(self) -> int:
        return len(self.entries)

    def to_lines(self) -> list[str]:
        return [f"{e.source.render()}\t{e.target.render()}" for e in self.entries]


def parse_dictionary(
    lines: Iterable[str], scheme: FactorScheme | None = None, name: str = "<dictionary>",
) -> WordFormDictionary:
    """Read a dictionary file: one entry per line, source TAB target;
    blank and "#" lines are skipped. `name` locates errors as name:line."""
    entries = []
    seen: set[DictEntry] = set()
    widths: tuple[int, int] | None = None
    for where, (source, target) in sc.table_rows(lines, name, ("source", "target")):
        with sc.located(where):
            entry = DictEntry(FactoredToken.parse(source), FactoredToken.parse(target))
        if widths is None:
            widths = (entry.source.width, entry.target.width)
        elif widths != (entry.source.width, entry.target.width):
            raise InputError(f"{where}: ragged factor widths")
        if entry not in seen:
            seen.add(entry)
            entries.append(entry)
    if scheme is None:
        if widths == (2, 2):
            scheme = NOUN_SCHEME
        elif widths == (3, 2):
            scheme = VERB_SCHEME
        elif widths in ((0, 0), None):
            scheme = SURFACE_SCHEME
        else:
            raise InputError(f"{name}: no scheme matches factor widths {widths}")
    return WordFormDictionary(entries, scheme)


def build_noun_dict(
    lexicon: list[BilingualNoun], table: SuffixTable | None = None
) -> WordFormDictionary:
    """Four entries per noun pair, in sg-dir, sg-obl, pl-dir, pl-obl
    order; per-row failures are collected on the result."""
    table = table or default_suffix_table()
    entries: list[DictEntry] = []
    seen: set[DictEntry] = set()
    failures: list[EntryFailure] = []
    for idx, noun in enumerate(lexicon):
        try:
            rows = noun_paradigm(noun.entry, table)
            for row in rows:
                entry = DictEntry(
                    FactoredToken(noun.english_root, (row.number.value, row.case.value)),
                    FactoredToken(
                        row.surface,
                        (noun.entry.hindi_root, row.suffix if row.suffix is not None else NULL_FACTOR),
                    ),
                )
                if entry not in seen:
                    seen.add(entry)
                    entries.append(entry)
        except InputError as exc:
            failures.append(
                EntryFailure(idx, noun.english_root, noun.entry.hindi_root, str(exc))
            )
    return WordFormDictionary(entries, NOUN_SCHEME, failures)


def build_verb_dict(
    lexicon: list[VerbLexEntry], table: VerbSuffixTable | None = None
) -> WordFormDictionary:
    """One entry per collapsed grid cell per verb; every English factor
    tuple appears once per gender, then exact duplicates collapse."""
    table = table or default_verb_suffix_table()
    entries: list[DictEntry] = []
    seen: set[DictEntry] = set()
    failures: list[EntryFailure] = []
    for idx, verb in enumerate(lexicon):
        try:
            for factors, suffix, surface in verb_paradigm(verb, table):
                entry = DictEntry(
                    FactoredToken(
                        verb.english_root,
                        (factors.number.value, factors.person.value, factors.tam.value),
                    ),
                    FactoredToken(
                        surface,
                        (verb.hindi_root, suffix if suffix is not None else NULL_FACTOR),
                    ),
                )
                if entry not in seen:
                    seen.add(entry)
                    entries.append(entry)
        except InputError as exc:
            failures.append(EntryFailure(idx, verb.english_root, verb.hindi_root, str(exc)))
    return WordFormDictionary(entries, VERB_SCHEME, failures)


def normalize_factors(tokens: Iterable[FactoredToken], width: int) -> list[FactoredToken]:
    """Pad every token's factor list with "null" to exactly `width`."""
    out = []
    for token in tokens:
        if token.width > width:
            raise TokenTooWide(
                f"token {token.render()!r} has {token.width} factors, width is {width}"
            )
        if token.width == width:
            out.append(token)
        else:
            out.append(
                FactoredToken(token.surface, token.factors + (NULL_FACTOR,) * (width - token.width))
            )
    return out


def strip_to_surface(dictionary: WordFormDictionary) -> WordFormDictionary:
    """Drop all factors, keeping (and synthesizing) surface forms only.

    The English surface is rebuilt from the factored source (dogs for
    dog|pl|*, walked for walk|*|*|perf). Collapsed distinctions produce
    exact duplicates, which are removed. Idempotent.
    """
    scheme = dictionary.scheme
    entries: list[DictEntry] = []
    seen: set[DictEntry] = set()
    for e in dictionary.entries:
        if scheme.source_width == 0:
            surface = e.source.surface
        elif "tam" in scheme.source_factors:
            factors = sf.EnglishVerbFactors(
                Number(e.source.factors[0]),
                Person(e.source.factors[1]),
                TamSlot(e.source.factors[2]),
            )
            surface = sf.english_verb_surface(e.source.surface, factors)
        elif "case" in scheme.source_factors:
            surface = sf.english_noun_surface(e.source.surface, Number(e.source.factors[0]))
        else:
            surface = e.source.surface
        entry = DictEntry(FactoredToken(surface), FactoredToken(e.target.surface))
        if entry not in seen:
            seen.add(entry)
            entries.append(entry)
    return WordFormDictionary(entries, SURFACE_SCHEME)
