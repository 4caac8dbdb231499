from pathlib import Path

import pytest

from morphinject.dictionary_builder import english_noun_surface, english_verb_surface
from morphinject.errors import InputError
from morphinject.source_factors import (
    ConlluToken,
    annotate_sentence,
    annotation_tables,
    load_case_rules,
    load_pronoun_table,
    load_tam_rules,
    read_conllu,
)

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def sentences():
    return list(read_conllu((FIXTURES / "sample.conllu").read_text("utf-8").splitlines()))


@pytest.fixture(scope="module")
def tables():
    return annotation_tables(load_pronoun_table(), load_case_rules(), load_tam_rules())


def _factors(sentence, form, mode="both", tables=None):
    """The factor values annotate_sentence gives the token with this form."""
    at = next(i for i, t in enumerate(sentence) if t[1] == form)
    return annotate_sentence(sentence, mode, tables)[at][1]


def test_read_conllu(sentences):
    assert len(sentences) == 9
    assert [len(s) for s in sentences] == [4, 7, 3, 3, 5, 3, 8, 5, 5]
    assert sentences[0][1] == ConlluToken(2, "dog", "dog", "NN", 3, "nsubj")


def test_read_conllu_skips_ranges_and_rejects_bad_columns():
    text = "1-2\tcan't\t_\t_\t_\t_\t_\t_\t_\t_\n1\tcan\tcan\tAUX\tMD\t_\t0\troot\t_\t_\n"
    sents = list(read_conllu(text.splitlines()))
    assert len(sents) == 1 and len(sents[0]) == 1
    with pytest.raises(InputError):
        list(read_conllu(["1\tdog\tdog"]))


def test_noun_number():
    def alone(form, lemma, xpos, mode="noun"):
        return annotate_sentence([ConlluToken(1, form, lemma, xpos, 0, "root")], mode)
    assert alone("dogs", "dog", "NNS") == [("dog", ("pl", "dir"))]
    assert alone("dog", "dog", "NN") == [("dog", ("sg", "dir"))]
    assert alone("Delhi", "Delhi", "NNP") == [("Delhi", ("sg", "dir"))]
    # a verb tag is no noun: its form, with no factors
    assert alone("walked", "walk", "VBD") == [("walked", ())]
    assert alone("walked", "walk", "VBD", "both") == [("walk", ("sg", "3", "perf"))]


def test_noun_case_rules(sentences):
    # object of a preposition (legacy pobj): oblique
    assert _factors(sentences[1], "house", "noun") == ("sg", "obl")
    # subject of a past-perfective verb: ergative context, oblique
    assert _factors(sentences[1], "dog", "noun") == ("sg", "obl")
    # plain subject, present tense: direct
    assert _factors(sentences[0], "dog", "noun") == ("sg", "dir")
    # UD obl with case child: oblique
    assert _factors(sentences[6], "park", "noun") == ("sg", "obl")
    # direct object: direct
    assert _factors(sentences[7], "books", "noun") == ("pl", "dir")
    # isolated noun: default direct
    assert _factors([ConlluToken(1, "dog", "dog", "NN", 0, "root")], "dog") == ("sg", "dir")


def test_verb_factors(sentences, tables):
    assert _factors(sentences[2], "walk", "verb", tables) == ("sg", "1", "hab")
    assert _factors(sentences[3], "walked", "verb", tables) == ("pl", "3", "perf")
    assert _factors(sentences[4], "run", "verb", tables) == ("sg", "3", "fut")
    assert _factors(sentences[5], "Go", "verb", tables) == ("sg", "3", "imp")
    # to-infinitive; no own subject, so defaults apply
    assert _factors(sentences[6], "walk", "verb", tables) == ("sg", "3", "inf")
    assert _factors(sentences[8], "like", "verb", tables) == ("sg", "3", "subj")
    # a noun tag is no verb: its form, with no factors
    assert annotate_sentence(sentences[0], "verb", tables)[1] == ("dog", ())


def test_only_vb_tags_are_verbs():
    # "it can happy": a JJ head with an MD child, and an RB under an MD
    sentence = [
        ConlluToken(1, "it", "it", "PRP", 3, "nsubj"),
        ConlluToken(2, "can", "can", "MD", 3, "aux"),
        ConlluToken(3, "happy", "happy", "JJ", 0, "root"),
        ConlluToken(4, "not", "not", "RB", 2, "advmod"),
    ]
    unannotated = [("it", ()), ("can", ()), ("happy", ()), ("not", ())]
    assert annotate_sentence(sentence, "verb") == unannotated
    assert annotate_sentence(sentence, "both") == unannotated


def test_pronoun_table_invariant(tmp_path):
    path = tmp_path / "pronouns.tsv"
    path.write_text("i\t1\tsg\n", "utf-8")
    with pytest.raises(InputError):
        load_pronoun_table(path)  # missing you/he/...
    table = load_pronoun_table()
    assert table.get("They".lower()) == ("3", "pl")
    assert table.get("xyzzy") is None


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
    assert annotated[0] == ("The", ())
    assert annotated[1] == ("dog", ("sg", "dir"))
    assert annotated[2] == ("run", ("sg", "3", "hab"))
    noun_only = annotate_sentence(sentences[0], "noun")
    assert noun_only[2] == ("runs", ())
    with pytest.raises(InputError):
        annotate_sentence(sentences[0], "nope")
