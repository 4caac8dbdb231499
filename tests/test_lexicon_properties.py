"""Property tests for the lexicon parsers.

A well-formed noun row is matched whole and becomes its fields at once;
any other line is skipped or replayed through the located row checks.
The references in conftest split every row and check and locate each
cell on its own, as the parsers did before. Both must give the same
entries, each with its English root and "file:line", or the same error.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ref_parse_noun_lexicon, ref_parse_verb_lexicon
from morphinject.noun_morph import parse_noun_lexicon
from morphinject.verb_morph import parse_verb_lexicon


def _outcome(fn):
    """The result, or the class and message of the exception raised."""
    try:
        return "ok", fn()
    except Exception as exc:  # the same class, InputError or not
        return type(exc).__name__, str(exc)


# whole lines the parsers skip, or that a "#" after leading whitespace
# (tabs included) makes a comment
_special = st.sampled_from(["", "  ", "\t", " #x\tघर\tm", "#", "\t#\tm", "\xa0"])

# each noun column's cells, in column order, as (good, bad) lists, each
# good cell drawn three times as often as a bad one: English roots with "|", a space, a tab (one
# more column) or U+00A0; empty and blank roots; bad genders; countable
# 2; the class overrides "-", "" and Z
_ENGLISH = (["dog", "a|b", "a b", "\xa0", "", " "], ["a\tb", "#x", " #x"])
_ROOT = (["कुत्ता", "घर", "cat", "क ख", " घर"], ["", " ", "\xa0"])
_GENDER = (["m", "f"], ["x", "M", "", "m "])
_COUNTABLE = (["1", "0", ""], ["2", " 1", "10"])
_CLASS = (["A", "D", "E", "-", ""], ["Z", "AB", "a", "--"])
_EXTRA = (["", "x"], ["\t"])


def _noun_row(columns):
    """Rows of 2 to 6 of these columns, each cell drawn from its column."""
    return st.integers(2, len(columns)).flatmap(lambda n: st.tuples(*(
        st.sampled_from(good * 3 + bad) for good, bad in columns[:n])).map("\t".join))


_BILINGUAL = _noun_row([_ENGLISH, _ROOT, _GENDER, _COUNTABLE, _CLASS, _EXTRA])
_MONOLINGUAL = _noun_row([_ROOT, _GENDER, _COUNTABLE, _CLASS, _EXTRA, _EXTRA])


@settings(deadline=None)
@given(st.booleans().flatmap(lambda bilingual: st.tuples(
    st.just(bilingual), st.lists(st.one_of(_special, _BILINGUAL if bilingual else _MONOLINGUAL),
                                 max_size=6))))
# an uncountable noun with override D parses (its paradigm rejects it)
@example((True, ["rice\tचावल\tm\t0\tD", "water\tपानी\tm\t0\t-", " #\tघर\tm",
                   "\t#\tm"]))
@example((True, ["a\tb\tघर\tm"]))  # a tab in the English root
@example((True, ["dog\tघर\tm\t2"]))
@example((True, ["dog\tघर\tm\t1\tZ"]))
@example((True, ["dog\tघर\tm \t1"]))
@example((False, ["\xa0\tm"]))
@example((False, ["घर\tm\t\t", "घर\tm\t1\tE\tx", "\t#\tm"]))
def test_noun_lexicon_parser_matches_cell_by_cell_reference(case):
    bilingual, lines = case
    assert _outcome(lambda: [(n.english_root, n.entry, n.where)
                             for n in parse_noun_lexicon(lines, bilingual, "n.tsv")]) == \
        _outcome(lambda: ref_parse_noun_lexicon(lines, bilingual, "n.tsv"))


_PAIR = ["perf:m:sg=चला", "perf=गया", "hab:-:pl=चलते", "perf:m:sg:3:x=चला", "perf:m", "bad=चला",
         "perf=a b", "perf=", "", " ", "fut:z=चलेगा", "imp::=चलो"]
_VERB_ROW = st.tuples(
    st.sampled_from(["walk", "", " ", "a|b", "a b", "#go", " #go"]),
    st.sampled_from(["चल", "खा", "", " ", "cal"]),
    st.lists(st.sampled_from(_PAIR), max_size=3),
).map(lambda r: "\t".join((r[0], r[1], *r[2])))


@settings(deadline=None)
@given(st.lists(st.one_of(_special, _VERB_ROW, st.sampled_from(_ENGLISH[0])), max_size=6))
@example(["walk\tचल\tperf:m:sg=चला", "\t#go", "run\t "])
@example(["walk\tचल\tperf=a b"])
def test_verb_lexicon_parser_matches_cell_by_cell_reference(lines):
    assert (_outcome(lambda: parse_verb_lexicon(lines, "v.tsv"))
            == _outcome(lambda: ref_parse_verb_lexicon(lines, "v.tsv")))
