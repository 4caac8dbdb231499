"""Property tests for CoNLL-U annotation.

The reference is conftest's whole-sentence-scan annotator: every rule
looks up heads, children and modals by walking the sentence.
`annotate_sentence`, which reads each token's facts from one pass over
the sentence and its value from a compiled rule table, given the same
rules, must give the same factors on any dependency graph, well formed
or not; with tables loaded from any TSV text it gives only factors of
the closed value sets, which is why the CLI checks no factor. A
compiled table must hold, for every fact vector, the value of the first
rule whose fact holds. Noun mode, which reads only the facts nouns use,
must give both mode's pairs to nouns and (form, ()) to every other
token. The CLI's string rendering must give the same line, or the same
error, as the token route below: each token padded with null factors to
the line's width, built as a FactoredToken in sentence order, and the
tokens rendered. The CLI builds
a line from each factor tuple's cached tail, and checks each distinct
surface once per memo; only a sentence that holds a bad one is checked
token by token. A memo warmed by earlier sentences must give each later
one the same line or error as a cold one. read_conllu yields plain
tuples and callers build ConlluTokens: both must give the same factors,
and the same line or error.
"""

import re

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import (
    REF_CASES,
    REF_TAMS,
    FactoredToken,
    ref_annotate_sentence,
)
from morphinject import script_core as sc
from morphinject.cli import _ANNOTATE_WIDTH, _annotation_line, _Tails
from morphinject.errors import InputError
from morphinject.source_factors import (
    CASE_FACTS,
    NOUN_TAGS,
    TAM_FACTS,
    ConlluToken,
    annotate_sentence,
    annotation_tables,
    compile_rules,
    load_case_rules,
    load_pronoun_table,
    load_tam_rules,
)

# --- sentences ---------------------------------------------------------------

# MD and VB weighted up, so that verbs often have a modal head and a modal child
XPOS = ["NN", "NNS", "NNP", "VB", "VB", "VBD", "VBN", "VBZ", "VBG",
        "MD", "MD", "MD", "TO", "PRP", "DT"]
DEPRELS = ["nsubj", "nsubj:pass", "csubj", "obj", "dobj", "pobj", "obl", "obl:tmod",
           "case", "mark", "aux", "root", "det"]
# modals, "to", pronouns (any case), nouns and others
FORMS = ["will", "Shall", "'ll", "wo", "can", "can", "to", "To", "I", "we", "You",
         "they", "dog", "dogs", "the"]


@st.composite
def sentences(draw, max_len=12, forms=st.sampled_from(FORMS)):
    n = draw(st.integers(0, max_len))
    # IDs from a small range repeat; heads reach one past it and dangle,
    # 0 is the root, and a token may head itself
    top = draw(st.integers(1, n + 1))
    ids = st.integers(1, top)
    tokens = []
    for i in range(1, n + 1):
        form = draw(forms)
        tokens.append(ConlluToken(
            id=draw(st.one_of(st.just(i), ids)),
            form=form,
            lemma=draw(st.sampled_from(["", "_", form.lower()])),
            xpos=draw(st.sampled_from(XPOS)),
            head=draw(st.integers(0, top + 1)),
            deprel=draw(st.sampled_from(DEPRELS)),
        ))
    return tokens


def _rules(values, defaults):
    """Rules as (name, value) pairs: the packaged ones, or any names in any
    order, repeats and rules after "default" included."""
    names = [name for name, _ in defaults]
    return st.one_of(
        st.just(defaults),
        st.lists(st.tuples(st.sampled_from(names), st.sampled_from(values)), max_size=8),
    )


PRONOUNS, PACKAGED_CASE_RULES, PACKAGED_TAM_RULES = (
    load_pronoun_table(), load_case_rules(), load_tam_rules())
CASE_RULES = _rules(REF_CASES, PACKAGED_CASE_RULES)
TAM_RULES = _rules(REF_TAMS, PACKAGED_TAM_RULES)


# Graphs where sentence order decides, each rarely drawn at random:
# an MD head before an MD child; two MDs with one ID; two MD children;
# two heads with one ID (VBD first, so the subject is ergative); two
# subjects, the first a plural noun. Last, a token that is both the
# verb's MD child and its "to" mark child holds both facts (subj, not inf).
ORDER_CASES = [
    [ConlluToken(1, "will", "will", "MD", 0, "root"),
     ConlluToken(2, "go", "go", "VB", 1, "xcomp"),
     ConlluToken(3, "can", "can", "MD", 2, "aux")],
    [ConlluToken(1, "can", "can", "MD", 0, "root"),
     ConlluToken(1, "will", "will", "MD", 0, "root"),
     ConlluToken(2, "go", "go", "VB", 1, "xcomp")],
    [ConlluToken(1, "go", "go", "VB", 0, "root"),
     ConlluToken(2, "can", "can", "MD", 1, "aux"),
     ConlluToken(3, "will", "will", "MD", 1, "aux")],
    [ConlluToken(1, "ate", "eat", "VBD", 0, "root"),
     ConlluToken(1, "eats", "eat", "VBZ", 0, "root"),
     ConlluToken(2, "dog", "dog", "NN", 1, "nsubj")],
    [ConlluToken(1, "dogs", "dog", "NNS", 3, "nsubj"),
     ConlluToken(2, "I", "i", "PRP", 3, "nsubj"),
     ConlluToken(3, "ran", "run", "VBD", 0, "root")],
    [ConlluToken(1, "will", "will", "VB", 0, "root"),
     ConlluToken(2, "to", "to", "MD", 1, "mark")],
]


def _with_order_cases(test):
    for sentence in ORDER_CASES:
        test = example(sentence, "both", PACKAGED_CASE_RULES, PACKAGED_TAM_RULES)(test)
    return test


@settings(max_examples=1000, deadline=None)
@given(sentences(), st.sampled_from(["noun", "verb", "both"]), CASE_RULES, TAM_RULES)
@_with_order_cases
def test_annotate_sentence_matches_whole_sentence_scans(sentence, mode, case_rules, tam_rules):
    # an empty rule list is used as given: every token takes the fallback
    assert (annotate_sentence(sentence, mode, annotation_tables(PRONOUNS, case_rules, tam_rules))
            == ref_annotate_sentence(sentence, mode, PRONOUNS, case_rules, tam_rules))


@settings(max_examples=500, deadline=None)
@given(st.sampled_from([(CASE_FACTS, "dir"), (TAM_FACTS, "hab")]),
       st.lists(st.tuples(st.integers(0, 6), st.sampled_from(["a", "b", "c"])), max_size=8),
       st.integers(0, 63))
@example((TAM_FACTS, "hab"), [], 63)
@example((CASE_FACTS, "dir"), [(0, "a"), (4, "b"), (0, "c"), (1, "a")], 1)
def test_a_compiled_table_holds_the_first_rule_whose_fact_holds(facts_fallback, picks, bits):
    # rules name any fact or "default", in any order, repeats and rules
    # after "default" included, or none
    facts, fallback = facts_fallback
    names = [*facts, "default"]
    rules = tuple((names[i % len(names)], value) for i, value in picks)
    bits %= 1 << len(facts)
    held = {"default"} | {name for i, name in enumerate(facts) if bits >> i & 1}
    first = [value for name, value in rules if name in held]
    table = compile_rules(rules, facts, fallback)
    assert len(table) == 1 << len(facts)
    assert table[bits] == (first[0] if first else fallback)


@settings(max_examples=1000, deadline=None)
@given(sentences(), CASE_RULES, TAM_RULES)
@example(ORDER_CASES[3], PACKAGED_CASE_RULES, PACKAGED_TAM_RULES)
def test_noun_mode_is_both_mode_restricted_to_nouns(sentence, case_rules, tam_rules):
    # noun mode reads fewer facts of the sentence; those it reads give
    # each noun the pair both mode gives it
    tables = annotation_tables(PRONOUNS, case_rules, tam_rules)
    both = annotate_sentence(sentence, "both", tables)
    noun = annotate_sentence(sentence, "noun", tables)
    assert noun == [pair if token.xpos in NOUN_TAGS else (token.form, ())
                    for token, pair in zip(sentence, both)]


def test_a_rule_that_names_no_fact_is_an_error():
    # a TAM rule is no case fact; the loaders locate the same mistake
    with pytest.raises(InputError, match=r"^unknown rule 'past_tag'$"):
        annotation_tables(PRONOUNS, [("subject", "dir"), ("past_tag", "obl")],
                          PACKAGED_TAM_RULES)


# the pronouns every table must hold, with their persons
REQUIRED_PRONOUNS = (("i", "1"), ("we", "1"), ("you", "2"), ("he", "3"), ("she", "3"),
                     ("it", "3"), ("they", "3"))


@st.composite
def pronoun_tsv(draw):
    """A pronoun table's TSV text: the required pronouns, and some of the
    sentences' nouns and others as pronouns, each of any number."""
    extra = draw(st.lists(st.sampled_from(["dog", "dogs", "the", "can"]), unique=True))
    rows = [*REQUIRED_PRONOUNS, *((p, draw(st.sampled_from(sc.PERSONS))) for p in extra)]
    return "".join(f"{p}\t{person}\t{draw(st.sampled_from(sc.NUMBERS))}\n" for p, person in rows)


@st.composite
def rule_tsv(draw, facts, values):
    """A rule table's TSV text: distinct facts in any order, each of any
    value, and "default" last or not at all; never empty."""
    names = draw(st.permutations(facts))[:draw(st.integers(0, len(facts)))]
    if not names or draw(st.booleans()):
        names.append("default")
    return "".join(f"{name}\t{draw(st.sampled_from(values))}\n" for name in names)


# every example writes its tables over those of the example before
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(sentences(), st.sampled_from(["noun", "verb", "both"]), pronoun_tsv(),
       rule_tsv(CASE_FACTS, sc.CASES), rule_tsv(TAM_FACTS, sc.TAMS))
def test_annotate_sentence_with_loaded_tables_emits_only_closed_set_factors(
        tmp_path, sentence, mode, pronouns, case_rules, tam_rules):
    # this is what lets the CLI build each factor tail without checking it
    for name, text in (("pronouns", pronouns), ("case", case_rules), ("tam", tam_rules)):
        (tmp_path / name).write_text(text, "utf-8")
    annotated = annotate_sentence(sentence, mode, annotation_tables(
        load_pronoun_table(tmp_path / "pronouns"), load_case_rules(tmp_path / "case"),
        load_tam_rules(tmp_path / "tam")))
    slots = {0: (), 2: (sc.NUMBERS, sc.CASES), 3: (sc.NUMBERS, sc.PERSONS, sc.TAMS)}
    for _, factors in annotated:
        values = slots[len(factors)]
        assert all(factor in allowed for factor, allowed in zip(factors, values))


# --- rendering ---------------------------------------------------------------

# separators, whitespace (tab, no-break space, line separator) and Devanagari
SURFACE = st.text(st.sampled_from(["a", "क", "|", " ", "\t", "\xa0", "\u2028"]), max_size=4)
FACTOR = st.sampled_from(["sg", "pl", "dir", "obl", "1", "3", "hab", "fut"])


def normalize_factors(annotated, width):
    """Each (surface, factors) padded with "null" to `width`, as a token."""
    return [FactoredToken(surf, (*factors, *["null"] * (width - len(factors))))
            for surf, factors in annotated]


def render_line(tokens):
    return " ".join(t.render() for t in tokens)


def _reference_line(annotated, width):
    return render_line(normalize_factors(annotated, width))


# one tail cache per width, shared by every example, as one annotate
# call shares it between its sentences
TAILS = {2: _Tails(2), 3: _Tails(3)}


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(SURFACE, st.lists(FACTOR, max_size=3)), max_size=6),
       st.sampled_from([2, 3]))
# a surface with a space can make the line look like one more valid token
@example([("x|sg|dir y", ["sg", "dir"])], 2)
@example([("x", ["sg"]), ("y|sg|dir|null z", [])], 3)
@example([], 2)
def test_annotation_line_matches_factored_token_reference(annotated, width):
    annotated = [(surf, factors[:width]) for surf, factors in annotated]
    sentence = [ConlluToken(i, surf, surf, "X", 0, "dep")
                for i, (surf, _) in enumerate(annotated, 1)]
    tuples = [(surf, tuple(factors)) for surf, factors in annotated]
    try:
        expected = _reference_line(annotated, width)
    except InputError as exc:
        with pytest.raises(type(exc)) as got:
            _annotation_line(sentence, tuples, TAILS[width], "f.conllu: sentence 1")
        located = re.fullmatch(r"f\.conllu: sentence 1, token (\d+): (.*)", str(got.value), re.S)
        assert located and located.group(2) == str(exc)
        # the located token alone raises the same error
        with pytest.raises(type(exc)) as alone:
            _reference_line([annotated[int(located.group(1)) - 1]], width)
        assert str(alone.value) == str(exc)
    else:
        assert _annotation_line(sentence, tuples, TAILS[width], "f.conllu: sentence 1") == expected


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except InputError as exc:
        return "error", str(exc)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.tuples(SURFACE, st.lists(FACTOR, max_size=3)), max_size=5),
                min_size=1, max_size=6),
       st.sampled_from([2, 3]))
# a bad surface, a good sentence that warms the memo, the bad surface again
@example([[("a", ["sg"]), ("a b", [])], [("a", ["sg"])], [("a b", ["sg"])]], 2)
@example([[("a\xa0", [])], [("a", [])], [("a\xa0", ["sg"])]], 3)
@example([[("a|", [])], [("", [])], [("a|", [])]], 2)
def test_a_warm_memo_renders_each_sentence_as_the_reference(sentences, width):
    tails = _Tails(width)  # one memo for every sentence, as in one annotate call
    for n, annotated in enumerate(sentences, 1):
        tuples = [(surf, tuple(factors[:width])) for surf, factors in annotated]
        sentence = [ConlluToken(i, surf, surf, "X", 0, "dep") for i, (surf, _) in enumerate(tuples, 1)]
        where = f"f.conllu: sentence {n}"
        try:
            expected = _reference_line(tuples, width)
        except InputError as exc:
            first = next(i for i, token in enumerate(tuples, 1)
                         if _outcome(_reference_line, [token], width)[0] == "error")
            with pytest.raises(InputError) as got:
                _annotation_line(sentence, tuples, tails, where)
            assert str(got.value) == f"{where}, token {first}: {exc}"
        else:
            assert _annotation_line(sentence, tuples, tails, where) == expected
    # the memo keeps only what passed
    assert all(_outcome(_reference_line, [(surf, ())], width)[0] == "ok" for surf in tails.surfaces)
    assert all(_outcome(_reference_line, [("a", factors)], width)[0] == "ok" for factors in tails)


@settings(max_examples=500, deadline=None)
@given(sentences(forms=st.one_of(st.sampled_from(FORMS), SURFACE)),
       st.sampled_from(["noun", "verb", "both"]))
@example([ConlluToken(1, "dogs", "dog", "NNS", 2, "nsubj"),
          ConlluToken(3, "a b", "_", "VBD", 0, "root")], "verb")
@example([ConlluToken(2, "x|y", "x|y", "NN", 0, "root")], "noun")
def test_read_and_hand_built_tokens_take_the_same_route(sentence, mode):
    # each token as read_conllu yields it: a plain tuple in field order
    plain = [tuple(t) for t in sentence]
    tables = annotation_tables(PRONOUNS, PACKAGED_CASE_RULES, PACKAGED_TAM_RULES)
    annotated = annotate_sentence(sentence, mode, tables)
    assert annotate_sentence(plain, mode, tables) == annotated
    where, width = "f.conllu: sentence 1", _ANNOTATE_WIDTH[mode]
    assert (_outcome(_annotation_line, plain, annotated, _Tails(width), where)
            == _outcome(_annotation_line, sentence, annotated, _Tails(width), where))
