"""Property tests for CoNLL-U annotation.

The reference below is the whole-sentence-scan annotator: every rule
looks up heads, children and modals by walking the sentence, and takes
rules whose values are enum members. The indexed `annotate_sentence`,
given the same rules with string values, must give the .value rendering
of the same factors on any dependency graph, well formed or not, and
the CLI's string rendering
must give the same line, or the same error, as the token route below:
each token padded with null factors to the line's width, built as a
FactoredToken in sentence order, and the tokens rendered.
"""

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import EnglishVerbFactors, FactoredToken, ref_rules
from morphinject.cli import _annotation_line
from morphinject.errors import InputError, NotANoun, NotAVerb
from morphinject.noun_morph import Case, Number
from morphinject.source_factors import (
    DIRECT_OBJECT_DEPRELS,
    PREP_OBJECT_DEPRELS,
    SUBJECT_DEPRELS,
    ConlluToken,
    annotate_sentence,
    default_case_rules,
    default_pronoun_table,
    default_tam_rules,
    is_noun,
    noun_case,
    noun_number,
    verb_factors,
)
from morphinject.verb_morph import Person, TamSlot

# --- reference: whole-sentence scans ---------------------------------------


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
        if t.head == verb.id and t.deprel in SUBJECT_DEPRELS:
            return t
    return None


REF_CASE_TESTS = {
    "prep_object": lambda t, s: (
        t.deprel in PREP_OBJECT_DEPRELS or t.deprel.startswith("obl:")
        or any(c.deprel == "case" for c in _children(t, s))
    ),
    "ergative_subject": lambda t, s: (
        t.deprel in SUBJECT_DEPRELS
        and _head_of(t, s) is not None and _head_of(t, s).xpos in ("VBD", "VBN")
    ),
    "subject": lambda t, s: t.deprel in SUBJECT_DEPRELS,
    "direct_object": lambda t, s: t.deprel in DIRECT_OBJECT_DEPRELS,
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
        v.xpos == "VB" and not any(t.deprel in SUBJECT_DEPRELS for t in _children(v, s))
    ),
    "default": lambda v, s: True,
}


def ref_noun_case(token, sentence, rules):
    for name, case in rules:
        if REF_CASE_TESTS[name](token, sentence):
            return case
    return Case.DIRECT


def ref_verb_factors(verb, sentence, pronouns, rules):
    number, person = Number.SINGULAR, Person.THIRD
    subject = _find_subject(verb, sentence)
    if subject is not None:
        pron = pronouns.lookup(subject.form)
        if pron is not None:
            person, number = Person(pron[0]), Number(pron[1])
        elif is_noun(subject):
            number = Number(noun_number(subject))
    tam = TamSlot.PRESENT_HABITUAL
    for name, slot in rules:
        if REF_TAM_TESTS[name](verb, sentence):
            tam = slot
            break
    return EnglishVerbFactors(number, person, tam)


def ref_annotate(sentence, mode, case_rules, tam_rules):
    pronouns = default_pronoun_table()
    out = []
    for token in sentence:
        lemma = token.form if token.lemma in ("", "_") else token.lemma
        if mode in ("noun", "both") and is_noun(token):
            case = ref_noun_case(token, sentence, case_rules)
            out.append((lemma, [noun_number(token), case.value]))
        elif mode in ("verb", "both") and token.xpos.startswith("VB"):
            vf = ref_verb_factors(token, sentence, pronouns, tam_rules)
            out.append((lemma, vf.values()))
        else:
            out.append((token.form, []))
    return out


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
def sentences(draw, max_len=12):
    n = draw(st.integers(0, max_len))
    # IDs from a small range repeat; heads reach one past it and dangle,
    # 0 is the root, and a token may head itself
    top = draw(st.integers(1, n + 1))
    ids = st.integers(1, top)
    tokens = []
    for i in range(1, n + 1):
        form = draw(st.sampled_from(FORMS))
        tokens.append(ConlluToken(
            id=draw(st.one_of(st.just(i), ids)),
            form=form,
            lemma=draw(st.sampled_from(["", "_", form.lower()])),
            xpos=draw(st.sampled_from(XPOS)),
            head=draw(st.integers(0, top + 1)),
            deprel=draw(st.sampled_from(DEPRELS)),
        ))
    return tokens


def _rules(kind, defaults):
    """Rules as (name, member) pairs: the packaged ones, or any names in any
    order, repeats and rules after "default" included."""
    names = [name for name, _ in defaults]
    return st.one_of(
        st.just(ref_rules(defaults, kind)),
        st.lists(st.tuples(st.sampled_from(names), st.sampled_from(list(kind))), max_size=8),
    )


CASE_RULES = _rules(Case, default_case_rules())
TAM_RULES = _rules(TamSlot, default_tam_rules())


def _strings(rules):
    """Rules as the loaders give them: each value as its string."""
    return [(name, value.value) for name, value in rules]


# Graphs where sentence order decides, each rarely drawn at random:
# an MD head before an MD child; two MDs with one ID; two MD children;
# two heads with one ID (VBD first, so the subject is ergative); two
# subjects, the first a plural noun.
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
]


def _with_order_cases(test):
    for sentence in ORDER_CASES:
        test = example(sentence, "both", ref_rules(default_case_rules(), Case),
                       ref_rules(default_tam_rules(), TamSlot))(test)
    return test


@settings(max_examples=1000, deadline=None)
@given(sentences(), st.sampled_from(["noun", "verb", "both"]), CASE_RULES, TAM_RULES)
@_with_order_cases
def test_annotate_sentence_matches_whole_sentence_scans(sentence, mode, case_rules, tam_rules):
    # an empty rule list is used as given: every token takes the fallback
    assert (annotate_sentence(sentence, mode, None, _strings(case_rules), _strings(tam_rules))
            == ref_annotate(sentence, mode, case_rules, tam_rules))


@settings(max_examples=200, deadline=None)
@given(sentences(), CASE_RULES, TAM_RULES)
def test_public_rules_match_whole_sentence_scans(sentence, case_rules, tam_rules):
    pronouns = default_pronoun_table()
    for token in sentence:
        if is_noun(token):
            assert (noun_case(token, sentence, _strings(case_rules))
                    == ref_noun_case(token, sentence, case_rules).value)
        else:
            with pytest.raises(NotANoun):
                noun_case(token, sentence, _strings(case_rules))
        if token.xpos.startswith("VB"):
            assert (verb_factors(token, sentence, pronouns, _strings(tam_rules))
                    == tuple(ref_verb_factors(token, sentence, pronouns, tam_rules).values()))
        else:
            with pytest.raises(NotAVerb):
                verb_factors(token, sentence, pronouns, _strings(tam_rules))


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


@settings(max_examples=400, deadline=None)
@given(st.data(), st.sampled_from([2, 3]))
def test_annotation_line_matches_factored_token_reference(data, width):
    annotated = data.draw(st.lists(
        st.tuples(SURFACE, st.lists(FACTOR, max_size=width)), max_size=6))
    sentence = [ConlluToken(i, surf, surf, "X", 0, "dep")
                for i, (surf, _) in enumerate(annotated, 1)]
    try:
        expected = _reference_line(annotated, width)
    except InputError as exc:
        with pytest.raises(type(exc)) as got:
            _annotation_line(sentence, annotated, width, "f.conllu: sentence 1")
        located = re.fullmatch(r"f\.conllu: sentence 1, token (\d+): (.*)", str(got.value), re.S)
        assert located and located.group(2) == str(exc)
        # the located token alone raises the same error
        with pytest.raises(type(exc)) as alone:
            _reference_line([annotated[int(located.group(1)) - 1]], width)
        assert str(alone.value) == str(exc)
    else:
        assert _annotation_line(sentence, annotated, width, "f.conllu: sentence 1") == expected
