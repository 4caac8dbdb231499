from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import pytest
from hypothesis import settings

from morphinject import dictionary_builder as db
from morphinject import script_core as sc
from morphinject import source_factors as sf
from morphinject.errors import InputError
from morphinject.noun_morph import NounLexEntry
from morphinject.verb_morph import VerbLexEntry, join_verb

FIXTURES = Path(__file__).parent / "fixtures"

# `pytest --hypothesis-profile=ci`: properties that do not set their own
# example count search ten times deeper than the default 100
settings.register_profile("ci", max_examples=1000)


@dataclass
class NounFixture:
    english: str
    entry: NounLexEntry
    noun_class: str
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


# --- reference: the ending rewrite the joiners used before they
# rewrote the endings they classify themselves ---


class RewriteRule(Enum):
    DROP_FINAL_VOWEL = "drop"
    SHORTEN_FINAL_VOWEL = "shorten"
    REPLACE_WITH = "replace"


# the marks that may trail a word's final vowel: inverted candrabindu,
# candrabindu, anusvara and visarga
REF_TRAILING_MARKS = frozenset("\u0900\u0901\u0902\u0903")


def ref_strip_final_nasal(word: str) -> tuple[str, str]:
    """Split off word-final nasalization/visarga marks: ('कुआ', 'ँ')."""
    i = len(word)
    while i > 0 and word[i - 1] in REF_TRAILING_MARKS:
        i -= 1
    return word[:i], word[i:]


def rewrite_ending(word: str, rule: RewriteRule, sign: str | None = None) -> str:
    """Apply a single deterministic rewrite to the word's ending.

    Word-final nasalization is peeled off first and re-attached after
    the rewrite, except when a REPLACE_WITH sign carries its own nasal
    mark (कुआँ + ओं -> कुओं, not कुओंँ).
    """
    sc._check_word(word)
    body, nasal = ref_strip_final_nasal(word)
    if not body:
        raise InputError(f"{word!r} has no rewritable ending")
    last = body[-1]

    if rule is RewriteRule.DROP_FINAL_VOWEL:
        if last not in sc.MATRAS:
            raise InputError(f"{word!r} does not end in a vowel sign")
        new_body = body[:-1]
    elif rule is RewriteRule.SHORTEN_FINAL_VOWEL:
        if last not in sc._SHORTEN:
            raise InputError(f"{word!r} does not end in a long vowel")
        new_body = body[:-1] + sc._SHORTEN[last]
    else:
        if sign is None:
            raise InputError("REPLACE_WITH needs a replacement sign")
        if last in sc.MATRAS:
            new_body = body[:-1] + sc.matra_form(sign)
        elif last in sc.INDEPENDENT_VOWELS:
            # after another vowel the replacement is written independently
            new_body = body[:-1] + sc.independent_form(sign)
        else:
            raise InputError(f"{word!r} does not end in a vowel")

    if nasal and not sc.NASALS.isdisjoint(new_body[len(body[:-1]):]):
        nasal = ""  # replacement brought its own nasalization
    return new_body + nasal


# --- reference: the Devanagari character classes as the inclusive
# code-point ranges they were defined by, before they became sets ---

REF_CONSONANT_RANGES = ((0x0915, 0x0939), (0x0958, 0x095F), (0x0979, 0x097F))
REF_INDEPENDENT_VOWEL_RANGES = ((0x0904, 0x0914), (0x0960, 0x0961), (0x0972, 0x0972))
REF_MATRA_RANGES = ((0x093E, 0x094C), (0x094E, 0x094F), (0x0962, 0x0963))


def in_ranges(ch: str, ranges) -> bool:
    return any(lo <= ord(ch) <= hi for lo, hi in ranges)


# --- reference: factor values. The package keeps them as the strings
# they are written as; the reference holds its own value sets, in order ---

REF_NOUN_CLASSES = ("A", "B", "C", "D", "E")
REF_GENDERS = ("m", "f")
REF_NUMBERS = ("sg", "pl")
REF_CASES = ("dir", "obl")
REF_PERSONS = ("1", "2", "3")
REF_TAMS = ("inf", "hab", "perf", "fut", "subj", "imp")
REF_NOUN_TAGS = ("NN", "NNS", "NNP", "NNPS")
REF_PLURAL_TAGS = ("NNS", "NNPS")


@dataclass(frozen=True)
class VerbFactors:
    gender: str
    number: str
    person: str
    tam: str

    def values(self) -> tuple[str, str, str, str]:
        """(tam, gender, number, person), as a paradigm row holds them."""
        return self.tam, self.gender, self.number, self.person


@dataclass(frozen=True)
class Cell:
    """One verb table cell: collapsed (None) dimensions match any value."""

    tam: str
    gender: str | None
    number: str | None
    person: str | None
    suffix: str | None

    @classmethod
    def of(cls, cell) -> "Cell":
        return cls(*cell)


@dataclass(frozen=True)
class IrregularForm:
    """One override row: wildcard (None) fields match any value."""

    tam: str
    gender: str | None
    number: str | None
    person: str | None
    surface: str

    def matches(self, factors: VerbFactors) -> bool:
        return (
            factors.tam == self.tam
            and (self.gender is None or factors.gender == self.gender)
            and (self.number is None or factors.number == self.number)
            and (self.person is None or factors.person == self.person)
        )


def ref_override(entry, factors: VerbFactors) -> str | None:
    """The surface of the entry's first override that matches, or None."""
    for form in (IrregularForm(*o) for o in entry.irregular_forms):
        if form.matches(factors):
            return form.surface
    return None


def lookup(cells, factors: VerbFactors):
    """A verb table's suffix for a concrete factor tuple, found by a scan
    of its cells (collapsed dimensions match any value)."""
    for cell in map(Cell.of, cells):
        if (
            cell.tam == factors.tam
            and (cell.gender is None or cell.gender == factors.gender)
            and (cell.number is None or cell.number == factors.number)
            and (cell.person is None or cell.person == factors.person)
        ):
            return cell.suffix
    raise InputError(
        f"factor tuple outside the declared grid: {factors.tam}"
        f"/{factors.gender}/{factors.number}/{factors.person}"
    )


def ref_verb_paradigm(entry, cells):
    """(factors, suffix, surface) rows: for each TAM in REF_TAMS order with
    cells, every gender, then its declared numbers and persons (a
    collapsed one takes sg or 3), each suffix looked up and joined, or
    replaced by the first matching override."""
    rows = []
    for tam in REF_TAMS:
        declared = [c for c in map(Cell.of, cells) if c.tam == tam]
        if not declared:
            continue
        numbers = [n for n in REF_NUMBERS if any(c.number == n for c in declared)] or ["sg"]
        persons = [p for p in REF_PERSONS if any(c.person == p for c in declared)] or ["3"]
        for gender in REF_GENDERS:
            for number in numbers:
                for person in persons:
                    factors = VerbFactors(gender, number, person, tam)
                    suffix = lookup(cells, factors)
                    surface = ref_override(entry, factors)
                    if surface is None:
                        surface = join_verb(entry.hindi_root, suffix)
                    rows.append((factors, suffix, surface))
    return rows


@dataclass(frozen=True)
class EnglishVerbFactors:
    number: str
    person: str
    tam: str

    def values(self) -> tuple[str, str, str]:
        """(number, person, tam), as annotate_sentence gives them."""
        return (self.number, self.person, self.tam)


def ref_english_verb_surface(root: str, factors: EnglishVerbFactors) -> str:
    tam = factors.tam
    if tam == "inf":
        return "to " + root
    if tam == "fut":
        return "will " + root
    if tam == "subj":
        return "would " + root
    if tam == "imp":
        return root
    exc = db._verb_exceptions().get(root.lower())
    if tam == "perf":
        if exc is not None:
            return exc[1]
        if root.endswith("e"):
            return root + "d"
        if root.endswith("y") and len(root) > 1 and root[-2] not in "aeiou":
            return root[:-1] + "ied"
        return root + "ed"
    if factors.person == "3" and factors.number == "sg":
        if exc is not None and exc[0] is not None:
            return exc[0]
        return db._add_s(root)
    return root


# --- reference annotator: every rule walks the whole sentence for the
# token's head, children and modal ---


def _children(token, sentence):
    return [t for t in sentence if t.head == token.id]


def _head_of(token, sentence):
    for t in sentence:
        if t.id == token.head:
            return t
    return None


def _modal_of(verb, sentence):
    for t in sentence:
        if t.xpos == "MD" and (t.head == verb.id or verb.head == t.id):
            return t
    return None


def _find_subject(verb, sentence):
    for t in sentence:
        if t.head == verb.id and t.deprel in sf.SUBJECT_DEPRELS:
            return t
    return None


REF_CASE_TESTS = {
    "prep_object": lambda t, s: (
        t.deprel in sf.PREP_OBJECT_DEPRELS or t.deprel.startswith("obl:")
        or any(c.deprel == "case" for c in _children(t, s))
    ),
    "ergative_subject": lambda t, s: (
        t.deprel in sf.SUBJECT_DEPRELS
        and _head_of(t, s) is not None and _head_of(t, s).xpos in ("VBD", "VBN")
    ),
    "subject": lambda t, s: t.deprel in sf.SUBJECT_DEPRELS,
    "direct_object": lambda t, s: t.deprel in sf.DIRECT_OBJECT_DEPRELS,
    "default": lambda t, s: True,
}

REF_TAM_TESTS = {
    "md_will": lambda v, s: (
        _modal_of(v, s) is not None
        and _modal_of(v, s).form.lower() in ("will", "shall", "'ll", "wo")
    ),
    "md_other": lambda v, s: _modal_of(v, s) is not None,
    "to_infinitive": lambda v, s: any(
        c.xpos == "TO" or (c.form.lower() == "to" and c.deprel in ("mark", "aux"))
        for c in _children(v, s)
    ),
    "past_tag": lambda v, s: v.xpos == "VBD",
    "present_tag": lambda v, s: v.xpos in ("VBZ", "VBP"),
    "bare_no_subject": lambda v, s: (
        v.xpos == "VB" and not any(t.deprel in sf.SUBJECT_DEPRELS for t in _children(v, s))
    ),
    "default": lambda v, s: True,
}


def ref_noun_case(token, sentence, rules) -> str:
    """The first matching rule of (rule, case) pairs, or "dir"."""
    for name, case in rules:
        if REF_CASE_TESTS[name](token, sentence):
            return case
    return "dir"


def ref_verb_factors(verb, sentence, pronouns, rules) -> EnglishVerbFactors:
    """Number and person from the subject, TAM from the first matching of
    (rule, tam) pairs, or "hab"."""
    number, person = "sg", "3"
    subject = _find_subject(verb, sentence)
    if subject is not None:
        pron = pronouns.get(subject.form.lower())
        if pron is not None:
            person, number = pron
        elif subject.xpos in REF_NOUN_TAGS:
            number = "pl" if subject.xpos in REF_PLURAL_TAGS else "sg"
    tam = "hab"
    for name, slot in rules:
        if REF_TAM_TESTS[name](verb, sentence):
            tam = slot
            break
    return EnglishVerbFactors(number, person, tam)


def ref_annotate_sentence(sentence, mode, pronouns, case_rules, tam_rules):
    """annotate_sentence, each rule tested by a scan of the sentence."""
    out = []
    for token in sentence:
        # an empty or unspecified ("_") lemma falls back to the form
        lemma = token.form if token.lemma in ("", "_") else token.lemma
        if mode != "verb" and token.xpos in REF_NOUN_TAGS:
            number = "pl" if token.xpos in REF_PLURAL_TAGS else "sg"
            case = ref_noun_case(token, sentence, case_rules)
            out.append((lemma, (number, case)))
        elif mode != "noun" and token.xpos.startswith("VB"):
            factors = ref_verb_factors(token, sentence, pronouns, tam_rules)
            out.append((lemma, factors.values()))
        else:
            out.append((token.form, ()))
    return out


# --- the lexicon parsers as they were before rows were matched whole:
# every row split, then each cell checked and located on its own ---


def _ref_rows(lines, name, columns):
    """The data rows of TSV lines, at least one field per column."""
    for lineno, ln in enumerate(lines, 1):
        if not ln.strip() or ln.lstrip().startswith("#"):
            continue
        where = f"{name}:{lineno}"
        fields = ln.split("\t")
        if len(fields) < len(columns):
            raise InputError(f"{where}: expected at least {len(columns)} tab-separated fields "
                             f"({', '.join(columns)}), got {len(fields)}")
        yield where, fields


def _ref_value(values, what, value, where, null=None):
    if value == null:
        return None
    if value not in values:
        allowed = ", ".join(values + ((null,) if null else ()))
        raise InputError(f"{where}: bad {what} {value!r} (expected one of {allowed})")
    return value


def _ref_located(where, make):
    try:
        return make()
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from None


def ref_parse_noun_lexicon(lines, bilingual=True, name="<noun lexicon>"):
    """(english_root, NounLexEntry, where) per data row."""
    columns = ("english_root", "hindi_root", "gender", "countable", "class")[0 if bilingual else 1:]
    out = []
    for where, fields in _ref_rows(lines, name, columns[:-2]):
        if len(fields) > len(columns):
            raise InputError(f"{where}: expected at most {len(columns)} tab-separated fields "
                             f"({', '.join(columns)}), got {len(fields)}")
        english = fields.pop(0) if bilingual else ""
        root, gender, *rest = fields
        _ref_value(REF_GENDERS, "gender", gender, where)
        countable = True
        if rest and rest[0] != "":
            if rest[0] not in ("0", "1"):
                raise InputError(f"{where}: countable must be 1 or 0")
            countable = rest[0] == "1"
        override = None
        if len(rest) > 1 and rest[1] != "":
            override = _ref_value(REF_NOUN_CLASSES, "class", rest[1], where, null="-")
        out.append((english, _ref_located(
            where, lambda: NounLexEntry(root, gender, countable, override)), where))
    return out


def ref_parse_verb_lexicon(lines, name="<verb lexicon>"):
    out = []
    for where, (english, stem, *pairs) in _ref_rows(lines, name, ("english_root", "hindi_stem")):
        overrides = []
        for pair in pairs:
            if not pair.strip():
                continue
            slot, _, surface = pair.partition("=")
            tam, *dims = slot.split(":")
            if "=" not in pair or len(dims) > 3:
                raise InputError(f"{where}: bad override {pair!r}")
            gender, number, person = (dims + ["-"] * 3)[:3]
            key = (_ref_value(REF_TAMS, "TAM", tam, where),
                   _ref_value(REF_GENDERS, "gender", gender, where, null="-"),
                   _ref_value(REF_NUMBERS, "number", number, where, null="-"),
                   _ref_value(REF_PERSONS, "person", person, where, null="-"))
            overrides.append((*key, sc.table_word(surface, where, f"override {pair!r}")))
        out.append(_ref_located(where, lambda: VerbLexEntry(stem, english, tuple(overrides))))
    return out


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
                NounLexEntry(root, gender, countable == "1"),
                cls,
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
