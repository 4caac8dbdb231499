from pathlib import Path

import pytest

from morphinject.errors import InputError, NotANoun, NotAVerb
from morphinject.source_factors import (
    ConlluToken,
    annotate_sentence,
    default_pronoun_table,
    english_noun_surface,
    english_verb_surface,
    is_verb,
    load_pronoun_table,
    noun_case,
    noun_number,
    read_conllu,
    verb_factors,
)

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def sentences():
    return list(read_conllu((FIXTURES / "sample.conllu").read_text("utf-8").splitlines()))


def _tok(sentence, form):
    return next(t for t in sentence if t.form == form)


def test_read_conllu(sentences):
    assert len(sentences) == 9
    assert [len(s) for s in sentences] == [4, 7, 3, 3, 5, 3, 8, 5, 5]
    dog = sentences[0][1]
    assert dog.form == "dog" and dog.lemma == "dog" and dog.xpos == "NN"
    assert dog.head == 3 and dog.deprel == "nsubj"


def test_read_conllu_skips_ranges_and_rejects_bad_columns():
    text = "1-2\tcan't\t_\t_\t_\t_\t_\t_\t_\t_\n1\tcan\tcan\tAUX\tMD\t_\t0\troot\t_\t_\n"
    sents = list(read_conllu(text.splitlines()))
    assert len(sents) == 1 and len(sents[0]) == 1
    with pytest.raises(InputError):
        list(read_conllu(["1\tdog\tdog"]))


def test_noun_number():
    assert noun_number(ConlluToken(1, "dogs", "dog", "NNS", 0, "root")) == "pl"
    assert noun_number(ConlluToken(1, "dog", "dog", "NN", 0, "root")) == "sg"
    assert noun_number(ConlluToken(1, "Delhi", "Delhi", "NNP", 0, "root")) == "sg"
    with pytest.raises(NotANoun):
        noun_number(ConlluToken(1, "walked", "walk", "VBD", 0, "root"))


def test_noun_case_rules(sentences):
    # object of a preposition (legacy pobj): oblique
    assert noun_case(_tok(sentences[1], "house"), sentences[1]) == "obl"
    # subject of a past-perfective verb: ergative context, oblique
    assert noun_case(_tok(sentences[1], "dog"), sentences[1]) == "obl"
    # plain subject, present tense: direct
    assert noun_case(_tok(sentences[0], "dog"), sentences[0]) == "dir"
    # UD obl with case child: oblique
    assert noun_case(_tok(sentences[6], "park"), sentences[6]) == "obl"
    # direct object: direct
    assert noun_case(_tok(sentences[7], "books"), sentences[7]) == "dir"
    # isolated noun: default direct
    lone = ConlluToken(1, "dog", "dog", "NN", 0, "root")
    assert noun_case(lone, [lone]) == "dir"


def test_verb_factors(sentences):
    pron = default_pronoun_table()
    assert verb_factors(_tok(sentences[2], "walk"), sentences[2], pron) == ("sg", "1", "hab")
    assert verb_factors(_tok(sentences[3], "walked"), sentences[3], pron) == ("pl", "3", "perf")
    assert verb_factors(_tok(sentences[4], "run"), sentences[4], pron) == ("sg", "3", "fut")
    assert verb_factors(_tok(sentences[5], "Go"), sentences[5], pron) == ("sg", "3", "imp")
    # to-infinitive; no own subject, so defaults apply
    assert verb_factors(_tok(sentences[6], "walk"), sentences[6], pron) == ("sg", "3", "inf")
    assert verb_factors(_tok(sentences[8], "like"), sentences[8], pron) == ("sg", "3", "subj")
    with pytest.raises(NotAVerb):
        verb_factors(_tok(sentences[0], "dog"), sentences[0], pron)


def test_only_vb_tags_are_verbs():
    # "it can happy": a JJ head with an MD child, and an RB under an MD
    sentence = [
        ConlluToken(1, "it", "it", "PRP", 3, "nsubj"),
        ConlluToken(2, "can", "can", "MD", 3, "aux"),
        ConlluToken(3, "happy", "happy", "JJ", 0, "root"),
        ConlluToken(4, "not", "not", "RB", 2, "advmod"),
    ]
    for token in (sentence[2], sentence[3]):
        assert not is_verb(token)
        with pytest.raises(NotAVerb):
            verb_factors(token, sentence)
    assert annotate_sentence(sentence, "verb") == [
        ("it", []), ("can", []), ("happy", []), ("not", []),
    ]


def test_pronoun_table_invariant():
    import io

    with pytest.raises(InputError):
        load_pronoun_table(io.StringIO("i\t1\tsg\n"))  # missing you/he/...
    table = default_pronoun_table()
    assert table.lookup("They") == ("3", "pl")
    assert table.lookup("xyzzy") is None


def test_english_noun_surface():
    assert english_noun_surface("dog", "sg") == "dog"
    assert english_noun_surface("dog", "pl") == "dogs"
    assert english_noun_surface("box", "pl") == "boxes"
    assert english_noun_surface("child", "pl") == "children"
    assert english_noun_surface("city", "pl") == "cities"
    assert english_noun_surface("boy", "pl") == "boys"


def test_english_verb_surface():
    third_sg_hab = ("sg", "3", "hab")
    first_hab = ("sg", "1", "hab")
    past = ("sg", "3", "perf")
    fut = ("sg", "3", "fut")
    assert english_verb_surface("walk", *third_sg_hab) == "walks"
    assert english_verb_surface("walk", *first_hab) == "walk"
    assert english_verb_surface("watch", *third_sg_hab) == "watches"
    assert english_verb_surface("try", *third_sg_hab) == "tries"
    assert english_verb_surface("go", *third_sg_hab) == "goes"
    assert english_verb_surface("walk", *past) == "walked"
    assert english_verb_surface("love", *past) == "loved"
    assert english_verb_surface("try", *past) == "tried"
    assert english_verb_surface("go", *past) == "went"
    assert english_verb_surface("walk", *fut) == "will walk"


def test_annotate_sentence(sentences):
    annotated = annotate_sentence(sentences[0], "both")
    assert annotated[0] == ("The", [])
    assert annotated[1] == ("dog", ["sg", "dir"])
    assert annotated[2] == ("run", ["sg", "3", "hab"])
    noun_only = annotate_sentence(sentences[0], "noun")
    assert noun_only[2] == ("runs", [])
    with pytest.raises(InputError):
        annotate_sentence(sentences[0], "nope")
