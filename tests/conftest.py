from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import settings

from morphinject import script_core as sc
from morphinject.errors import InputError
from morphinject.noun_morph import Gender, NounClass, NounLexEntry

FIXTURES = Path(__file__).parent / "fixtures"

# `pytest --hypothesis-profile=ci`: properties that do not set their own
# example count search ten times deeper than the default 100
settings.register_profile("ci", max_examples=1000)


@dataclass
class NounFixture:
    english: str
    entry: NounLexEntry
    noun_class: NounClass
    surfaces: tuple[str, str, str, str]  # sg-dir, sg-obl, pl-dir, pl-obl


@dataclass
class VerbFormFixture:
    stem: str
    tam: str
    gender: str
    number: str
    person: str
    surface: str


# --- reference oracles: the package keeps tokens as text, the tests
# read them back through these ---

@dataclass(frozen=True)
class FactoredToken:
    """One token as a checked object, surface|factor|... parsed: the
    reference for the token strings of corpora and dictionaries."""

    surface: str
    factors: tuple[str, ...] = ()

    def __post_init__(self):
        error = sc.token_error(self.surface, self.factors)
        if error:
            raise InputError(error)
        object.__setattr__(self, "factors", tuple(self.factors))

    @property
    def width(self) -> int:
        return len(self.factors)

    def render(self) -> str:
        return "|".join((self.surface,) + self.factors)

    @classmethod
    def parse(cls, text: str) -> "FactoredToken":
        surface, *factors = text.split("|")
        return cls(surface, tuple(factors))


@dataclass(frozen=True)
class DictEntry:
    source: FactoredToken
    target: FactoredToken


def ref_tokens(line: str) -> list[FactoredToken]:
    return [FactoredToken.parse(t) for t in line.split(" ")] if line else []


def ref_pairs(corpus) -> list[tuple[list[FactoredToken], list[FactoredToken]]]:
    """A corpus's line pairs, each token parsed by the reference."""
    return [(ref_tokens(s), ref_tokens(t)) for s, t in zip(corpus.src, corpus.tgt)]


def ref_entries(dictionary) -> list[DictEntry]:
    """A dictionary's lines, each side parsed by the reference."""
    return [DictEntry(*(FactoredToken.parse(side) for side in ln.split("\t")))
            for ln in dictionary.lines]


def validate_widths(corpus) -> list[str]:
    """Human-readable violations of the uniform-width invariant."""
    problems = []
    for side, width, lines in (
        ("source", corpus.source_width(), corpus.src),
        ("target", corpus.target_width(), corpus.tgt),
    ):
        for lineno, line in enumerate(lines, 1):
            for token in line.split(" ") if line else ():
                token_width = token.count("|")
                if token_width != width:
                    problems.append(
                        f"{side}:{lineno}: token {token!r} has width "
                        f"{token_width}, corpus width is {width}"
                    )
    return problems


def lookup(table, factors):
    """A verb table's suffix for a concrete factor tuple, found by a scan
    of its cells (collapsed dimensions match any value)."""
    for cell in table.cells:
        if (
            cell.tam is factors.tam
            and (cell.gender is None or cell.gender is factors.gender)
            and (cell.number is None or cell.number is factors.number)
            and (cell.person is None or cell.person is factors.person)
        ):
            return cell.suffix
    raise InputError(
        f"factor tuple outside the declared grid: {factors.tam.value}"
        f"/{factors.gender.value}/{factors.number.value}/{factors.person.value}"
    )


def _data_lines(name: str) -> list[str]:
    return [
        ln
        for ln in (FIXTURES / name).read_text("utf-8").splitlines()
        if ln.strip() and not ln.startswith("#")
    ]


@pytest.fixture(scope="session")
def noun_fixtures() -> list[NounFixture]:
    rows = []
    for ln in _data_lines("noun_paradigms.tsv"):
        english, root, gender, countable, cls, *surfaces = ln.split("\t")
        assert len(surfaces) == 4
        rows.append(
            NounFixture(
                english,
                NounLexEntry(root, Gender(gender), countable == "1"),
                NounClass(cls),
                tuple(surfaces),
            )
        )
    return rows


@pytest.fixture(scope="session")
def verb_form_fixtures() -> list[VerbFormFixture]:
    return [VerbFormFixture(*ln.split("\t")) for ln in _data_lines("verb_forms.tsv")]


@pytest.fixture(scope="session")
def verb_lexicon_lines() -> list[str]:
    return (FIXTURES / "verb_lexicon.tsv").read_text("utf-8").splitlines()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if not RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num, name, status in sorted(RESULTS):
        terminalreporter.write_line(f"{status} criterion {num}: {name}")
