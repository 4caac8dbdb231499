"""English-side factor extraction from dependency-parsed CoNLL-U.

The toolkit never runs a tagger or parser itself: it ingests the
standard 10-column CoNLL-U produced by external tools. Noun tokens get
(number, case), verb tokens (XPOS VB*) get (number, person, TAM).
Unresolvable features never abort a sentence; they take the least-marked
defaults (singular, third person, direct case). This module is the
annotator only: the English inflection that builds a surface-only
dictionary ("dogs", "will walk") belongs to dictionary_builder.

Factor values are the strings they are written as ("pl", "obl", "3",
"perf"). The pronoun, case-rule and TAM-rule loaders check each value
against its closed set (script_core.NUMBERS, CASES, PERSONS, TAMS),
and a row that could never take effect (a second row for a pronoun, a
rule named twice or listed after "default") is an error at its line.

annotate_sentence is the one place that decides what a noun or a verb is
and computes its factors, a tuple per token; the CLI's annotate loads
the tables once and calls it for each sentence. Each case or TAM rule
names a yes/no fact about a token (CASE_FACTS, TAM_FACTS), and a rule
list is compiled once (compile_rules is cached) into a table indexed by
a token's fact bits, each entry the value of the first rule whose fact
holds. One pass over the sentence records what the facts read of a
token's head, children and modal, so annotating a sentence costs time
linear in its length and one table read per noun or verb. Where IDs
repeat, the first token in sentence order wins, as in a scan of the
sentence.

read_conllu remembers, for one call, each ID and HEAD string that has
passed its check and the int it stands for, so a row whose ID and HEAD
were both read before becomes a token with two dict reads.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Iterable, Iterator
from functools import cache

from . import script_core as sc
from .errors import InputError

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only: no call loads typing or pathlib
    from pathlib import Path
    from typing import TextIO

NOUN_TAGS = {"NN", "NNS", "NNP", "NNPS"}
PLURAL_TAGS = {"NNS", "NNPS"}

# label aliases: legacy Stanford typed dependencies and UD both accepted
SUBJECT_DEPRELS = {"nsubj", "nsubjpass", "nsubj:pass", "csubj"}
DIRECT_OBJECT_DEPRELS = {"dobj", "obj"}
PREP_OBJECT_DEPRELS = {"pobj", "obl"}

ConlluToken = namedtuple("ConlluToken", "id form lemma xpos head deprel")


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
        value = (sc.table_value(sc.PERSONS, "person", person, where),
                 sc.table_value(sc.NUMBERS, "number", number, where))
        if pron.lower() in entries:
            raise InputError(f"{where}: duplicate pronoun {pron!r}")
        entries[pron.lower()] = value
    with sc.located(name):
        return PronounTable(entries)


def _load_rules(source, default_name: str, facts: tuple, values: tuple[str, ...],
                what: str) -> list[tuple[str, str]]:
    rules: dict[str, str] = {}
    name, rows = sc.read_table(source, default_name, ("rule", what))
    for where, (rule, value) in rows:
        if rule not in facts and rule != "default":
            raise InputError(f"{where}: unknown {what} rule {rule!r}")
        value = sc.table_value(values, what, value, where)
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
    return _load_rules(source, "case_rules.tsv", CASE_FACTS, sc.CASES, "case")


def load_tam_rules(source: str | Path | TextIO | None = None) -> list[tuple[str, str]]:
    return _load_rules(source, "tam_rules.tsv", TAM_FACTS, sc.TAMS, "TAM")


# ConlluToken(...) without the Python-level __new__ of a named tuple
_token = tuple.__new__


def read_conllu(lines: Iterable[str], name: str = "<conllu>") -> Iterator[list[ConlluToken]]:
    """Yield the sentences of CoNLL-U lines, one list of tokens at a time,
    as the lines are read. Comment lines, multiword-token ranges (1-2) and
    empty nodes (1.1) are skipped. Any other ID, and a HEAD other than "_",
    must be ASCII digits. `name` locates errors as name:line, and an error
    is raised when its line is reached."""
    # the ID and HEAD strings already read, and their values: a row whose
    # ID and HEAD are both here is a token without further checks
    ids: dict[str, int] = {}
    heads: dict[str, int] = {"_": 0}
    tokens: list[ConlluToken] = []
    for lineno, line in enumerate(lines, 1):
        cols = line.split("\t")
        if len(cols) == 10:
            tid, form, lemma, _, xpos, _, head, deprel, _, _ = cols
            try:
                tokens.append(_token(ConlluToken,
                                     (ids[tid], form, lemma, xpos, heads[head], deprel)))
                continue
            except KeyError:  # read the first time: checked below
                pass
        if not line.strip():
            if tokens:
                yield tokens
                tokens = []
            continue
        if line[0] == "#":
            continue
        try:
            tid, form, lemma, _, xpos, _, head, deprel, _, _ = cols
        except ValueError:
            raise InputError(f"{name}:{lineno}: expected 10 columns, got {len(cols)}") from None
        if not (tid.isdigit() and tid.isascii()
                and (head.isdigit() and head.isascii() or head == "_")):
            # a multiword-token range (1-2) or an empty node (1.1)
            if re.fullmatch(r"[0-9]+[-.][0-9]+", tid):
                continue
            raise InputError(f"{name}:{lineno}: bad ID or HEAD field")
        try:
            ids[tid] = tid_value = int(tid)
            heads[head] = head_value = 0 if head == "_" else int(head)
        except ValueError:  # more digits than int() converts
            raise InputError(f"{name}:{lineno}: bad ID or HEAD field") from None
        tokens.append(_token(ConlluToken, (tid_value, form, lemma, xpos, head_value, deprel)))
    if tokens:
        yield tokens


# A rule names a fact about a token. A token's facts are the bits of an
# int, bit i set when facts[i] holds; "default" always holds.
CASE_FACTS = ("prep_object", "ergative_subject", "subject", "direct_object")
TAM_FACTS = ("md_will", "md_other", "to_infinitive", "past_tag", "present_tag",
             "bare_no_subject")
_WILL = ("will", "shall", "'ll", "wo")


@cache
def compile_rules(rules: tuple[tuple[str, str], ...], facts: tuple[str, ...],
                  fallback: str) -> tuple[str, ...]:
    """The ordered rules as a table over fact bits: entry `bits` is the
    value of the first rule whose fact holds, or `fallback` if none does.
    Built once per distinct rules."""
    for name, _ in rules:
        if name != "default" and name not in facts:
            raise InputError(f"unknown rule {name!r}")
    return tuple(
        next((value for name, value in rules
              if name == "default" or bits >> facts.index(name) & 1), fallback)
        for bits in range(1 << len(facts)))


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


def _sentence_facts(sentence: list[ConlluToken]) -> tuple:
    """One pass over a sentence: what the rules read about a token's
    neighbours, keyed by ID. Where IDs repeat, sentence order decides."""
    tags: dict[int, str] = {}  # the XPOS of the first token with each ID
    subjects: dict[int, ConlluToken] = {}  # head ID -> its first subject child
    case_heads = set()  # IDs with a `case` child
    to_heads = set()  # IDs with a TO child, or a "to" mark or aux child
    # (position, md_will/md_other bits) of the first MD child of each head
    # and of the first MD token with each ID
    md_child: dict[int, tuple[int, int]] = {}
    md_by_id: dict[int, tuple[int, int]] = {}
    for pos, token in enumerate(sentence):
        tid, form, _, xpos, head, deprel = token
        if tid not in tags:
            tags[tid] = xpos
        # a token can hold several facts at once: each is set on its own
        if deprel in SUBJECT_DEPRELS and head not in subjects:
            subjects[head] = token
        if deprel == "case":
            case_heads.add(head)
        if xpos == "TO" or (deprel in ("mark", "aux") and form.lower() == "to"):
            to_heads.add(head)
        if xpos == "MD":
            md = (pos, 3 if form.lower() in _WILL else 2)
            if head not in md_child:
                md_child[head] = md
            if tid not in md_by_id:
                md_by_id[tid] = md
    return tags, subjects, case_heads, to_heads, md_child, md_by_id


def annotate_sentence(
    sentence: list[ConlluToken],
    mode: str = "both",
    pronouns: PronounTable | None = None,
    case_rules: list[tuple[str, str]] | None = None,
    tam_rules: list[tuple[str, str]] | None = None,
) -> list[tuple[str, tuple[str, ...]]]:
    """Annotate one sentence: (token string, factor tuple) per token.

    `mode` ("noun", "verb" or "both") names the tokens annotated, and a
    table or rule list left None is the packaged one. Nouns yield lemma +
    (number, case); verbs lemma + (number, person, tam); everything else
    the surface form and (). An empty lemma, or "_" (CoNLL-U's
    unspecified field), falls back to the form. The caller pads widths
    (factor normalization) before emission.
    """
    if mode not in ("noun", "verb", "both"):
        raise InputError(f"bad annotation mode {mode!r}")
    nouns, verbs = mode != "verb", mode != "noun"
    if pronouns is None:
        pronouns = default_pronoun_table()
    case_table = compile_rules(tuple(default_case_rules() if case_rules is None else case_rules),
                               CASE_FACTS, "dir")
    tam_table = compile_rules(tuple(default_tam_rules() if tam_rules is None else tam_rules),
                              TAM_FACTS, "hab")
    persons = pronouns.entries
    tags, subjects, case_heads, to_heads, md_child, md_by_id = _sentence_facts(sentence)
    out = []
    for token in sentence:
        tid, form, lemma, xpos, head, deprel = token
        if nouns and xpos in NOUN_TAGS:
            # the CASE_FACTS bits; UD marks a prepositional object on the
            # noun's `case` child (in/of/with ...)
            bits = 0
            if deprel in PREP_OBJECT_DEPRELS or deprel.startswith("obl:") or tid in case_heads:
                bits = 1
            if deprel in SUBJECT_DEPRELS:
                bits |= 6 if tags.get(head) in ("VBD", "VBN") else 4
            if deprel in DIRECT_OBJECT_DEPRELS:
                bits |= 8
            out.append((form if lemma in ("", "_") else lemma,
                        ("pl" if xpos in PLURAL_TAGS else "sg", case_table[bits])))
        elif verbs and xpos.startswith("VB"):
            # (number, person) from the subject: a pronoun's, a plural
            # noun's, or singular third
            subject = subjects.get(tid)
            pron = None if subject is None else persons.get(subject.form.lower())
            if pron is not None:
                number, person = pron[1], pron[0]
            elif subject is not None and subject.xpos in PLURAL_TAGS:
                number, person = "pl", "3"
            else:
                number, person = "sg", "3"
            # the TAM_FACTS bits; the modal is the first MD token, in
            # sentence order, that is the verb's child or its head
            md = md_child.get(tid)
            md_head = md_by_id.get(head)
            if md is None or (md_head is not None and md_head[0] < md[0]):
                md = md_head
            bits = 0 if md is None else md[1]
            if tid in to_heads:
                bits |= 4
            if xpos == "VBD":
                bits |= 8
            elif xpos in ("VBZ", "VBP"):
                bits |= 16
            elif xpos == "VB" and subject is None:
                bits |= 32
            out.append((form if lemma in ("", "_") else lemma, (number, person, tam_table[bits])))
        else:
            out.append((form, ()))
    return out
