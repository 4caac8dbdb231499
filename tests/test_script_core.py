import unicodedata

import pytest

from morphinject import script_core as sc
from morphinject.errors import InputError
from morphinject.noun_morph import (
    NounLexEntry,
    SuffixTable,
    join_noun,
    load_suffix_table,
    noun_paradigm,
)

ENDINGS = ("aa", "ii", "i", "uu", "u", "e", "o", "consonant", "other")
TABLE = load_suffix_table()


def test_ending_of_examples():
    assert sc.ending_of("कुत्ता") == "aa"
    assert sc.ending_of("लड़की") == "ii"
    assert sc.ending_of("रात") == "consonant"
    assert sc.ending_of("शक्ति") == "i"
    assert sc.ending_of("आलू") == "uu"
    assert sc.ending_of("गुरु") == "u"
    assert sc.ending_of("सो") == "o"
    assert sc.ending_of("ले") == "e"
    assert sc.ending_of("भाई") == "ii"  # independent vowel
    assert sc.ending_of("कुआँ") == "aa"  # nasal is transparent
    for word in ("का\u0929", "का\u0931", "का\u0934"):  # precomposed ऩ ऱ ऴ
        assert sc.ending_of(word) == "consonant"
    with pytest.raises(InputError, match=r"^empty word$"):
        sc.ending_of("")
    with pytest.raises(InputError, match=r"^non-Devanagari codepoint U\+0064 at offset 0$"):
        sc.ending_of("dog")
    with pytest.raises(InputError, match=r"^punctuation '।' at offset 3$"):
        sc.ending_of("रात।")


def test_ending_total_on_fixture_vocab(noun_fixtures, verb_form_fixtures):
    words = {s for f in noun_fixtures for s in f.surfaces}
    words |= {f.surface for f in verb_form_fixtures}
    for word in words:
        assert sc.ending_of(sc.normalize(word)) in ENDINGS


def _d(root):
    """The surfaces of a class-D noun's paradigm."""
    entry = NounLexEntry(root, "m", class_override="D")
    return [surface for *_, surface in noun_paradigm(entry, TABLE)]


def test_rewrite_replace():
    # class D replaces the root's final ा with the suffix's vowel
    assert _d("कुत्ता") == ["कुत्ता", "कुत्ते", "कुत्ते", "कुत्तों"]
    # codepoint-pinned: the replacement result is exactly क,ु,त,्,त,े
    assert join_noun("कुत्ता", "D", "ए", TABLE) == "\u0915\u0941\u0924\u094d\u0924\u0947"
    assert join_noun("कुत्ता", "D", "ओं", TABLE) == "कुत्तों"


def test_rewrite_shorten_and_drop():
    # a long ी, ू or ई is shortened before the suffix
    assert join_noun("लड़की", "B", "याँ", TABLE) == sc.normalize("लड़कियाँ")
    assert join_noun("बहू", "C", "एँ", TABLE) == "बहुएँ"
    assert join_noun("भाई", "E", "ओं", TABLE) == "भाइयों"
    # class D drops the final ा, and the suffix vowel follows as a matra
    assert join_noun("कुत्ता", "D", "ओं", TABLE) == "कुत्त" + sc.matra_form("ओं")


def test_rewrite_nasal_handling():
    # after आ the suffix vowel is independent, and the root's nasal is
    # re-attached ...
    assert join_noun("कुआँ", "D", "ए", TABLE) == "कुएँ"
    # ... unless the suffix carries its own nasal mark
    assert join_noun("कुआँ", "D", "ओं", TABLE) == "कुओं"
    assert _d("कुआँ") == ["कुआँ", "कुएँ", "कुएँ", "कुओं"]


def test_replace_category_property():
    # on a class-D paradigm the ending of each replaced form is the
    # category of its suffix's vowel
    cells = dict(TABLE.cells)
    cells[("D", "pl", "dir")] = "ई"
    table = SuffixTable(cells)
    for word in ("कुत्ता", "लड़का", "माला", "कुआँ"):
        entry = NounLexEntry(word, "f", class_override="D")
        endings = [sc.ending_of(surface) for *_, surface in noun_paradigm(entry, table)[1:]]
        assert endings == ["e", "ii", "o"]


def test_matra_and_independent_forms():
    assert sc.matra_form("ओं") == "ों"
    assert sc.matra_form("एँ") == "ें"  # chandrabindu -> anusvara above the line
    assert sc.matra_form("ऊँगा") == "ूँगा"  # below-line matra keeps chandrabindu
    assert sc.matra_form("ता") == "ता"  # consonant-initial untouched
    assert sc.independent_form("ें") == "एँ"
    assert sc.independent_form("ों") == "ओं"
    assert sc.independent_form("ेगा") == "एगा"


def test_normalize():
    # decomposed nukta recomposes to the precomposed letter
    assert sc.normalize("ड़") == "ड़"
    assert sc.normalize("लड़की") == sc.normalize("लड़की")
    # NFC applied, zero-width joiners dropped
    assert sc.normalize("क‍ो") == "को"
    composed = sc.normalize("लड़की")
    assert sc.normalize(composed) == composed  # idempotent
    # plain words are already NFC
    assert unicodedata.is_normalized("NFC", sc.normalize("कुत्ता"))


def test_operations_are_pure():
    word = "लड़कियाँ"
    first = join_noun("लड़की", "B", "याँ", TABLE)
    for _ in range(3):
        assert join_noun("लड़की", "B", "याँ", TABLE) == first
        assert sc.ending_of(word) is sc.ending_of(word)
