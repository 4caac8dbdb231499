"""Property tests for the string-row paradigms.

The references below are the paradigm builders and joiners that the
string rows replaced: every cell looked up by its enum key, and every
join normalizing its root and suffix, checking the suffix against the
class's column, working out the root's ending again and rewriting it
with the checked `rewrite_ending` that conftest keeps. On roots of
every ending, including nasalized and non-Devanagari ones, on class
overrides, uncountable nouns, irregular verb forms and edited tables,
`noun_paradigm`, `verb_paradigm`, `join_noun` and `join_verb` must give
the same rows and surfaces as the references, or raise the same error.

The one allowed difference: the paradigms check the root first, so a
root that is not a Devanagari word fails with the error `ending_of`
raises for it even where the reference never works out its ending (a
class-A noun, a verb whose table has no vowel-initial suffix) and
succeeds.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import RewriteRule, VerbFactors, ref_override, rewrite_ending
from morphinject import script_core as sc
from morphinject.errors import IllegalSuffixForClass, InputError
from morphinject.noun_morph import (
    PARADIGM_SLOTS,
    Gender,
    NounClass,
    NounLexEntry,
    Number,
    SuffixTable,
    default_suffix_table,
    join_noun,
    noun_paradigm,
)
from morphinject.verb_morph import (
    Person,
    TamSlot,
    VerbLexEntry,
    VerbSuffixTable,
    default_verb_suffix_table,
    join_verb,
    verb_paradigm,
)

E = sc.EndingCategory

# --- the references ---


def _ref_classify(entry):
    if entry.class_override is not None:
        if not entry.countable and entry.class_override is not NounClass.A:
            sc.ending_of(entry.hindi_root)  # the root is checked first
            raise InputError(f"uncountable noun with class override {entry.class_override.value}: "
                             "uncountable nouns are class A")
        return entry.class_override
    if not entry.countable:
        return NounClass.A
    ending = sc.ending_of(entry.hindi_root)
    if entry.gender is Gender.FEMININE:
        return NounClass.B if ending in (E.LONG_II, E.SHORT_I) else NounClass.C
    return NounClass.D if ending is E.LONG_A else NounClass.E


def _ref_join_noun(root, cls, suffix, table):
    root = sc.normalize(root)
    if suffix is not None:
        suffix = sc.normalize(suffix)
        if suffix not in table.legal_suffixes(cls):
            raise IllegalSuffixForClass(
                f"suffix {suffix!r} is not in the class-{cls.value} column")
        if suffix == "ओं" and cls is NounClass.E and sc.ending_of(root) in (
                E.LONG_II, E.SHORT_I):
            suffix = "यों"
    if suffix is None:
        return root
    body, nasal = sc.strip_final_nasal(root)
    ending = sc.ending_of(root)
    if ending is E.CONSONANT:
        return root + sc.matra_form(suffix)
    if cls is NounClass.D and ending is E.LONG_A:
        return rewrite_ending(root, RewriteRule.REPLACE_WITH, suffix)
    if ending in (E.LONG_II, E.LONG_UU):
        stem = rewrite_ending(body, RewriteRule.SHORTEN_FINAL_VOWEL)
    else:
        stem = body
    out = stem + suffix
    if nasal and not sc.contains_nasal(suffix):
        out += nasal
    return out


def _ref_noun_paradigm(entry, table):
    cls = _ref_classify(entry)
    rows = []
    for number, case in PARADIGM_SLOTS:
        suffix = table.cells[(cls, number, case)]
        surface = _ref_join_noun(entry.hindi_root, cls, suffix, table)
        rows.append((number.value, case.value, suffix, surface))
    return rows


def _ref_join_verb(root, suffix):
    root = sc.normalize(root)
    if suffix is None:
        return root
    suffix = sc.normalize(suffix)
    if not suffix or not sc.is_independent_vowel(suffix[0]):
        if suffix and sc.is_matra(suffix[0]):
            suffix = sc.independent_form(suffix)
        else:
            return root + suffix
    ending = sc.ending_of(root)
    if ending is E.CONSONANT:
        return root + sc.matra_form(suffix)
    stem = root
    if ending in (E.LONG_II, E.LONG_UU):
        stem = rewrite_ending(root, RewriteRule.SHORTEN_FINAL_VOWEL)
    if suffix[0] == "आ":
        if ending in (E.LONG_UU, E.SHORT_U):
            return stem + suffix
        return stem + "य" + sc.matra_form(suffix)
    if ending is E.LONG_II and suffix[0] == "ई":
        return root + suffix[1:]
    return stem + suffix


def _ref_verb_paradigm(entry, table):
    rows = []
    for tam, gender, number, person, suffix in table.rows:
        factors = VerbFactors(Gender(gender), Number(number), Person(person), TamSlot(tam))
        surface = ref_override(entry, factors)
        if surface is None:
            surface = _ref_join_verb(entry.hindi_root, suffix)
        rows.append((*factors.values(), suffix, surface))
    return rows


def _outcome(fn, *args):
    """The result, or the class and message of the exception raised."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the same class, InputError or not
        return type(exc).__name__, str(exc)


def _same_or_root_checked_first(new, ref, root):
    """`new` is the reference's outcome, or, where the reference succeeds,
    the error that checking the root raises."""
    if new != ref:
        assert ref[0] == "ok"
        assert new == _outcome(sc.ending_of, root)


# --- inputs ---

# roots ending in aa, ii, i, uu, u, e, o, a consonant, an independent
# vowel, a virama or a nasal mark, a decomposed nukta letter, a joiner,
# and roots that are not Devanagari words at all
_ROOTS = ["कुत्ता", "लड़का", "माला", "कुआ", "लड़की", "नदी", "माली", "शक्ति", "बहू", "आलू",
          "साधु", "रात", "घर", "गाँव", "भूख", "कुआँ", "माँ", "सरसों", "बहूँ", "नदीं", "कुत्ताः",
          "चल", "खा", "पी", "सो", "छू", "हो", "कर", "ले", "दे", "जी", "धो", "क्", "ड़",
          "ल\u200dड\u093cकी", "आ", "ई", "ऊ", "ँ", "cat", "कुत्ताx", "क।", "१२", "a|b"]
_PIECES = ["क", "त", "ल", "ड़", "ा", "ि", "ी", "ु", "ू", "े", "ो", "आ", "ई", "ऊ", "ए",
           "ँ", "ं", "ः", "्", "\u093c", "\u095c", "\u200d", "x"]
_root = st.one_of(
    st.sampled_from(_ROOTS),
    st.lists(st.sampled_from(_PIECES), min_size=1, max_size=4).map("".join),
    # a nasal mark or visarga over any ending
    st.tuples(st.sampled_from(_ROOTS), st.sampled_from(["ँ", "ं", "ः"])).map("".join),
)
# suffixes: the packaged ones, matra-initial, consonant-initial and empty
# ones, one with a joiner (normalized away), and ones with a space or a
# separator in them
_SUFFIXES = ["ए", "ओं", "एँ", "ें", "ों", "याँ", "यों", "ाएँ", "आ", "ई", "ईं", "ऊँ", "ता", "ते",
             "ती", "ना", "", "ए\u200d", "ए x", "|"]
_suffix = st.sampled_from(_SUFFIXES)


@st.composite
def _noun_table(draw):
    """The packaged table, or (more often) one with cells outside class A
    and sg-dir given other suffixes."""
    table = default_suffix_table()
    if draw(st.integers(0, 3)) == 0:
        return table
    cells = dict(table.cells)
    editable = sorted((k for k in cells if k[0] is not NounClass.A and k[1:] != PARADIGM_SLOTS[0]),
                      key=lambda k: [x.value for x in k])
    for key in draw(st.lists(st.sampled_from(editable), min_size=1, max_size=3)):
        cells[key] = draw(st.one_of(st.none(), _suffix))
    return SuffixTable(cells)


_noun = st.builds(NounLexEntry, _root, st.sampled_from(Gender), st.booleans(),
                  st.one_of(st.none(), st.sampled_from(NounClass)))


@st.composite
def _verb_table(draw):
    """The packaged table, or one with some cells given other suffixes,
    or one that keeps only some TAMs (only inf and hab: no vowel-initial
    suffix)."""
    table = default_verb_suffix_table()
    choice = draw(st.integers(0, 2))
    if choice == 0:
        return table
    cells = list(table.cells)
    if choice == 1:
        tams = draw(st.sets(st.sampled_from([t.value for t in TamSlot]), min_size=1, max_size=2))
        return VerbSuffixTable([c for c in cells if c[0] in tams])
    for i in draw(st.lists(st.integers(0, len(cells) - 1), min_size=1, max_size=4)):
        cells[i] = (*cells[i][:4], draw(st.one_of(st.none(), _suffix)))
    return VerbSuffixTable(cells)


def _values(kind):
    return st.sampled_from([m.value for m in kind])


_override = st.tuples(
    _values(TamSlot),
    st.one_of(st.none(), _values(Gender)),
    st.one_of(st.none(), _values(Number)),
    st.one_of(st.none(), _values(Person)),
    st.sampled_from(["गया", "गई", "हुआ", "x y"]),
)
_verb = st.builds(VerbLexEntry, _root, st.just("go"), st.lists(_override, max_size=3).map(tuple))


# --- the properties ---


@settings(deadline=None)
@given(_noun, _noun_table())
def test_noun_paradigm_matches_the_per_cell_reference(entry, table):
    _same_or_root_checked_first(_outcome(noun_paradigm, entry, table),
                                _outcome(_ref_noun_paradigm, entry, table), entry.hindi_root)


@settings(deadline=None)
@given(_root, st.sampled_from(NounClass), _noun_table(), st.data())
def test_join_noun_matches_the_reference(root, cls, table, data):
    legal = sorted(table.legal_suffixes(cls))
    # mostly a suffix of the class's column, else any, or the null suffix
    column = [st.sampled_from(legal)] * 3 if legal else []
    suffix = data.draw(st.one_of(st.none(), _suffix, *column))
    assert (_outcome(join_noun, root, cls, suffix, table)
            == _outcome(_ref_join_noun, root, cls, suffix, table))


@settings(deadline=None)
@given(_verb, _verb_table())
def test_verb_paradigm_matches_the_per_cell_reference(entry, table):
    _same_or_root_checked_first(_outcome(verb_paradigm, entry, table),
                                _outcome(_ref_verb_paradigm, entry, table), entry.hindi_root)


@settings(deadline=None)
@given(_root, st.one_of(st.none(), _suffix))
def test_join_verb_matches_the_reference(root, suffix):
    assert _outcome(join_verb, root, suffix) == _outcome(_ref_join_verb, root, suffix)


@settings(deadline=None)
@given(_root, st.sampled_from(Gender), st.booleans(),
       st.one_of(st.none(), st.sampled_from(NounClass)))
def test_paradigm_surfaces_are_canonical_words(root, gender, countable, override):
    """Any root `ending_of` accepts, with the packaged tables: every
    surface of its noun and verb paradigms is a Devanagari word in
    canonical form."""
    noun = NounLexEntry(root, gender, countable, override)
    assume(_outcome(sc.ending_of, noun.hindi_root)[0] == "ok")
    surfaces = [row[-1] for row in verb_paradigm(VerbLexEntry(root, "x"))]
    if countable or override in (None, NounClass.A):
        surfaces += [row[-1] for row in noun_paradigm(noun)]
    else:  # an uncountable noun is class A
        with pytest.raises(InputError, match="uncountable"):
            noun_paradigm(noun)
    for surface in surfaces:
        assert sc._WORD.fullmatch(surface), surface
        assert sc.normalize(surface) == surface
