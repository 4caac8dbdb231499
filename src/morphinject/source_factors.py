"""English-side factor extraction from dependency-parsed CoNLL-U.

The toolkit never runs a tagger or parser itself: it ingests the
standard 10-column CoNLL-U produced by external tools. Noun tokens get
(number, case), verb tokens (XPOS VB*) get (number, person, TAM).
Unresolvable features never abort a sentence; they take the least-marked
defaults (singular, third person, direct case).

Factor values are the strings they are written as ("pl", "obl", "3",
"perf"). The pronoun, case-rule and TAM-rule loaders check each value
against its enum (Number, Case, Person, TamSlot) and keep the string,
and a row that could never take effect (a second row for a pronoun, a
rule named twice or listed after "default") is an error at its line.

The case and TAM rules read a token's head, children and modal from an
index built in one pass over the sentence, so annotating a sentence
costs time linear in its length. Where IDs repeat, the first token in
sentence order wins, as in a scan of the sentence.
"""

from __future__ import annotations

from functools import cache
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, TextIO

from . import script_core as sc
from .errors import InputError, NotANoun, NotAVerb
from .noun_morph import Case, Number
from .verb_morph import Person, TamSlot

NOUN_TAGS = {"NN", "NNS", "NNP", "NNPS"}
PLURAL_TAGS = {"NNS", "NNPS"}

# label aliases: legacy Stanford typed dependencies and UD both accepted
SUBJECT_DEPRELS = {"nsubj", "nsubjpass", "nsubj:pass", "csubj"}
DIRECT_OBJECT_DEPRELS = {"dobj", "obj"}
PREP_OBJECT_DEPRELS = {"pobj", "obl"}


class ConlluToken(NamedTuple):
    id: int
    form: str
    lemma: str
    xpos: str
    head: int
    deprel: str


class PronounTable:
    """Lower-cased pronoun -> (person, number)."""

    def __init__(self, entries: dict[str, tuple[str, str]]):
        for pron, person in (("i", "1"), ("we", "1"), ("you", "2"), ("he", "3"),
                             ("she", "3"), ("it", "3"), ("they", "3")):
            if entries.get(pron, (None,))[0] != person:
                raise InputError(f"pronoun table is missing or misclassifies {pron!r}")
        self.entries = dict(entries)

    def lookup(self, form: str) -> tuple[str, str] | None:
        return self.entries.get(form.lower())


def load_pronoun_table(source: str | Path | TextIO | None = None) -> PronounTable:
    name, rows = sc.read_table(source, "pronouns.tsv", ("pronoun", "person", "number"))
    entries = {}
    for where, (pron, person, number) in rows:
        value = (sc.table_value(Person, "person", person, where),
                 sc.table_value(Number, "number", number, where))
        if pron.lower() in entries:
            raise InputError(f"{where}: duplicate pronoun {pron!r}")
        entries[pron.lower()] = value
    with sc.located(name):
        return PronounTable(entries)


def _load_rules(source, default_name: str, tests: dict, kind, what: str) -> list[tuple[str, str]]:
    rules: dict[str, str] = {}
    name, rows = sc.read_table(source, default_name, ("rule", what))
    for where, (rule, value) in rows:
        if rule not in tests:
            raise InputError(f"{where}: unknown {what} rule {rule!r}")
        value = sc.table_value(kind, what, value, where)
        # first match wins, so a rule named again or after default never fires
        if rule in rules:
            raise InputError(f"{where}: duplicate {what} rule {rule!r}")
        if "default" in rules:
            raise InputError(f"{where}: {what} rule {rule!r} after default")
        rules[rule] = value
    if not rules:
        raise InputError(f"{name}: no {what} rules")
    return list(rules.items())


def load_case_rules(source: str | Path | TextIO | None = None) -> list[tuple[str, str]]:
    return _load_rules(source, "case_rules.tsv", _CASE_TESTS, Case, "case")


def load_tam_rules(source: str | Path | TextIO | None = None) -> list[tuple[str, str]]:
    return _load_rules(source, "tam_rules.tsv", _TAM_TESTS, TamSlot, "TAM")


# ConlluToken(...) without the Python-level __new__ of a NamedTuple
_token = tuple.__new__


def read_conllu(lines: Iterable[str], name: str = "<conllu>") -> Iterator[list[ConlluToken]]:
    """Yield the sentences of CoNLL-U lines, one list of tokens at a time,
    as the lines are read. Comment lines, multiword-token ranges (1-2) and
    empty nodes (1.1) are skipped; `name` locates errors as name:line, and
    an error is raised when its line is reached."""
    tokens: list[ConlluToken] = []
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            if tokens:
                yield tokens
                tokens = []
            continue
        if line.startswith("#"):
            continue
        cols = line.split("\t")
        try:
            tid, form, lemma, _, xpos, _, head, deprel, _, _ = cols
        except ValueError:
            raise InputError(f"{name}:{lineno}: expected 10 columns, got {len(cols)}") from None
        if "-" in tid or "." in tid:
            continue
        try:
            tokens.append(_token(ConlluToken, (
                int(tid), form, lemma, xpos, 0 if head == "_" else int(head), deprel)))
        except ValueError:
            raise InputError(f"{name}:{lineno}: bad ID or HEAD field") from None
    if tokens:
        yield tokens


def is_noun(token: ConlluToken) -> bool:
    return token.xpos in NOUN_TAGS


def is_verb(token: ConlluToken) -> bool:
    return token.xpos.startswith("VB")


def noun_number(token: ConlluToken) -> str:
    if not is_noun(token):
        raise NotANoun(f"{token.form!r} has tag {token.xpos}, not a noun tag")
    return "pl" if token.xpos in PLURAL_TAGS else "sg"


class _Index:
    """One pass over a sentence: what the rules read about a token's
    neighbours, keyed by ID. Where IDs repeat, sentence order decides."""

    __slots__ = ("by_id", "children", "md_child", "md_by_id")

    def __init__(self, sentence: list[ConlluToken]):
        self.by_id: dict[int, ConlluToken] = {}  # first token with each ID
        self.children: dict[int, list[ConlluToken]] = {}  # by head ID, in sentence order
        # the first MD token with each head / each ID, with its position
        self.md_child: dict[int, tuple[int, ConlluToken]] = {}
        self.md_by_id: dict[int, tuple[int, ConlluToken]] = {}
        by_id, children = self.by_id, self.children
        for pos, t in enumerate(sentence):
            if t.id not in by_id:
                by_id[t.id] = t
            kids = children.get(t.head)
            if kids is None:
                children[t.head] = [t]
            else:
                kids.append(t)
            if t.xpos == "MD":
                self.md_child.setdefault(t.head, (pos, t))
                self.md_by_id.setdefault(t.id, (pos, t))

    def children_of(self, token: ConlluToken) -> list[ConlluToken]:
        return self.children.get(token.id, [])


def _is_prep_object(token: ConlluToken, ix: _Index) -> bool:
    if token.deprel in PREP_OBJECT_DEPRELS or token.deprel.startswith("obl:"):
        return True
    # UD marks the relation on the noun's `case` child (in/of/with ...)
    return any(c.deprel == "case" for c in ix.children_of(token))


def _is_subject(token: ConlluToken, ix: _Index) -> bool:
    return token.deprel in SUBJECT_DEPRELS


def _is_ergative_subject(token: ConlluToken, ix: _Index) -> bool:
    if not _is_subject(token, ix):
        return False
    head = ix.by_id.get(token.head)
    return head is not None and head.xpos in ("VBD", "VBN")


def _is_direct_object(token: ConlluToken, ix: _Index) -> bool:
    return token.deprel in DIRECT_OBJECT_DEPRELS


_CASE_TESTS = {
    "prep_object": _is_prep_object,
    "ergative_subject": _is_ergative_subject,
    "subject": _is_subject,
    "direct_object": _is_direct_object,
    "default": lambda token, ix: True,
}


@cache
def default_case_rules() -> list[tuple[str, str]]:
    """The packaged case rules, loaded once."""
    return load_case_rules()


@cache
def default_tam_rules() -> list[tuple[str, str]]:
    """The packaged TAM rules, loaded once."""
    return load_tam_rules()


@cache
def default_pronoun_table() -> PronounTable:
    """The packaged pronoun table, loaded once."""
    return load_pronoun_table()


def noun_case(
    token: ConlluToken,
    sentence: list[ConlluToken],
    rules: list[tuple[str, str]] | None = None,
) -> str:
    """Ordered rule evaluation over the dependency graph, first match
    wins; "dir" if none matches."""
    if not is_noun(token):
        raise NotANoun(f"{token.form!r} has tag {token.xpos}, not a noun tag")
    return _noun_case(token, _Index(sentence), default_case_rules() if rules is None else rules)


def _noun_case(token: ConlluToken, ix: _Index, rules: list[tuple[str, str]]) -> str:
    for name, case in rules:
        if _CASE_TESTS[name](token, ix):
            return case
    return "dir"


def _modal_of(verb: ConlluToken, ix: _Index) -> ConlluToken | None:
    """The first MD token, in sentence order, that is the verb's child or head."""
    child = ix.md_child.get(verb.id)
    head = ix.md_by_id.get(verb.head)
    if child is None or (head is not None and head[0] < child[0]):
        child = head
    return None if child is None else child[1]


def _test_md_will(verb, ix):
    md = _modal_of(verb, ix)
    return md is not None and md.form.lower() in ("will", "shall", "'ll", "wo")


def _test_md_other(verb, ix):
    return _modal_of(verb, ix) is not None


def _test_to_infinitive(verb, ix):
    return any(
        c.xpos == "TO" or (c.form.lower() == "to" and c.deprel in ("mark", "aux"))
        for c in ix.children_of(verb)
    )


def _test_past_tag(verb, ix):
    return verb.xpos == "VBD"


def _test_present_tag(verb, ix):
    return verb.xpos in ("VBZ", "VBP")


def _test_bare_no_subject(verb, ix):
    return verb.xpos == "VB" and _find_subject(verb, ix) is None


_TAM_TESTS = {
    "md_will": _test_md_will,
    "md_other": _test_md_other,
    "to_infinitive": _test_to_infinitive,
    "past_tag": _test_past_tag,
    "present_tag": _test_present_tag,
    "bare_no_subject": _test_bare_no_subject,
    "default": lambda verb, ix: True,
}


def _find_subject(verb: ConlluToken, ix: _Index) -> ConlluToken | None:
    for t in ix.children_of(verb):
        if t.deprel in SUBJECT_DEPRELS:
            return t
    return None


def verb_factors(
    verb: ConlluToken,
    sentence: list[ConlluToken],
    pronouns: PronounTable | None = None,
    tam_rules: list[tuple[str, str]] | None = None,
) -> tuple[str, str, str]:
    """(number, person, tam): number from the subject, person from the
    pronoun list, TAM from the ordered tag-pattern rules."""
    if not is_verb(verb):
        raise NotAVerb(f"{verb.form!r} has tag {verb.xpos}, not a verb")
    return _verb_factors(
        verb, _Index(sentence),
        default_pronoun_table() if pronouns is None else pronouns,
        default_tam_rules() if tam_rules is None else tam_rules,
    )


def _verb_factors(
    verb: ConlluToken,
    ix: _Index,
    pronouns: PronounTable,
    tam_rules: list[tuple[str, str]],
) -> tuple[str, str, str]:
    number, person = "sg", "3"
    subject = _find_subject(verb, ix)
    if subject is not None:
        pron = pronouns.lookup(subject.form)
        if pron is not None:
            person, number = pron
        elif is_noun(subject):
            number = noun_number(subject)

    tam = "hab"
    for name, slot in tam_rules:
        if _TAM_TESTS[name](verb, ix):
            tam = slot
            break
    return number, person, tam


# --- English surface synthesis (for the surface-only dictionary) ---

_SIBILANT_ENDINGS = ("s", "x", "z", "ch", "sh")
_VOWELS = "aeiou"


@cache
def _noun_exceptions() -> dict[str, str]:
    _, rows = sc.read_table(None, "noun_plural_exceptions.tsv", ("singular", "plural"))
    return {sg: pl for _, (sg, pl) in rows}


@cache
def _verb_exceptions() -> dict[str, tuple[str | None, str]]:
    _, rows = sc.read_table(None, "verb_exceptions.tsv", ("root", "third", "past"))
    return {root: (None if third == "-" else third, past) for _, (root, third, past) in rows}


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


def _lemma(token: ConlluToken) -> str:
    """The token's LEMMA, or its FORM where LEMMA is empty or "_"."""
    return token.form if token.lemma in ("", "_") else token.lemma


def annotate_sentence(
    sentence: list[ConlluToken],
    mode: str = "both",
    pronouns: PronounTable | None = None,
    case_rules: list[tuple[str, str]] | None = None,
    tam_rules: list[tuple[str, str]] | None = None,
) -> list[tuple[str, list[str]]]:
    """Annotate one sentence: (token string, factor values) per token.

    Nouns yield lemma + [number, case]; verbs lemma + [number, person,
    tam]; everything else the surface form with null factors. An empty
    lemma, or "_" (CoNLL-U's unspecified field), falls back to the
    form. The caller pads widths (factor normalization) before emission.
    """
    if mode not in ("noun", "verb", "both"):
        raise InputError(f"bad annotation mode {mode!r}")
    nouns, verbs = mode != "verb", mode != "noun"
    ix = _Index(sentence)
    if pronouns is None:
        pronouns = default_pronoun_table()
    if case_rules is None:
        case_rules = default_case_rules()
    if tam_rules is None:
        tam_rules = default_tam_rules()
    out = []
    for token in sentence:
        if nouns and is_noun(token):
            case = _noun_case(token, ix, case_rules)
            out.append((_lemma(token), [noun_number(token), case]))
        elif verbs and is_verb(token):
            out.append((_lemma(token), [*_verb_factors(token, ix, pronouns, tam_rules)]))
        else:
            out.append((token.form, []))
    return out
