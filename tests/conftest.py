from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import settings

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
