"""Property tests for the string-level dictionary path.

The reference below is the token-level implementation the line path
replaced: every entry checked side by side with the token rule written
out below, built as a pair of FactoredToken, deduplicated as DictEntry,
with widths checked entry by entry. The line path must give the same
lines and the same failures, or raise the same error.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    REF_CASES,
    REF_GENDERS,
    REF_NOUN_CLASSES,
    REF_NUMBERS,
    REF_PERSONS,
    REF_TAMS,
    DictEntry,
    EnglishVerbFactors,
    FactoredToken,
    ref_english_verb_surface,
    ref_entries,
)
from morphinject import script_core as sc
from morphinject.corpus_inject import inject, parse_factored_corpus
from morphinject.dictionary_builder import (
    NOUN_SCHEME,
    SCHEMES,
    SURFACE_SCHEME,
    VERB_SCHEME,
    WordFormDictionary,
    build_noun_dict,
    build_verb_dict,
    english_noun_surface,
    parse_dictionary,
    strip_to_surface,
)
from morphinject.errors import InputError
from morphinject.noun_morph import (
    BilingualNoun,
    NounLexEntry,
    SuffixTable,
    load_suffix_table,
    noun_paradigm,
)
from morphinject.verb_morph import (
    VerbLexEntry,
    VerbSuffixTable,
    load_verb_suffix_table,
    verb_paradigm,
)

# --- the token-level reference ---


def _ref_token(surface, factors=()):
    """One dictionary side as a FactoredToken, checked first as
    FactoredToken checked it before the rule moved to script_core, but
    for a surface-only side: words joined by single spaces, no other
    whitespace."""
    error = None
    if not surface:
        error = "token with empty surface"
    elif "|" in surface:
        error = f"surface {surface!r} contains the factor separator"
    elif factors and any(ch.isspace() for ch in surface):
        error = f"factored token surface {surface!r} contains whitespace"
    elif not factors and any(ch.isspace() and ch != " " for ch in surface):
        error = f"surface {surface!r} contains whitespace other than ' '"
    elif not factors and surface.split(" ") != surface.split():
        error = f"surface-only side {surface!r} is not words joined by single spaces"
    for f in factors:
        if error:
            break
        if not f:
            error = "empty factor string"
        elif "|" in f or any(ch.isspace() for ch in f):
            error = f"factor {f!r} contains separator or whitespace"
    if error:
        raise InputError(error)
    return FactoredToken(surface, tuple(factors))


def _ref_parse_side(text):
    surface, *factors = text.split("|")
    return _ref_token(surface, factors)


def _ref_entry(source, target):
    """A dictionary entry of two tokens whose source, a file line's start,
    is not led by the comment mark."""
    if source.surface.startswith("#"):
        raise InputError(f"entry {source.render()!r} starts with '#', as a comment line does")
    return DictEntry(source, target)


def _ref_build_noun(lexicon, table):
    """Each noun's paradigm is made in full before its first entry, so a
    join error in a later cell comes before a token error in an earlier
    one."""
    entries, seen, failures = [], set(), []
    for idx, noun in enumerate(lexicon):
        try:
            for number, case, suffix, surface in list(noun_paradigm(noun.entry, table)):
                entry = _ref_entry(
                    _ref_token(noun.english_root, (number, case)),
                    _ref_token(surface, (
                        noun.entry.hindi_root, suffix if suffix is not None else "null")),
                )
                if entry not in seen:
                    seen.add(entry)
                    entries.append(entry)
        except InputError as exc:
            failures.append((idx, noun.english_root, noun.entry.hindi_root, str(exc)))
    return entries, failures


def _ref_build_verb(lexicon, table):
    """As _ref_build_noun: each verb's paradigm is made in full first."""
    entries, seen, failures = [], set(), []
    for idx, verb in enumerate(lexicon):
        try:
            for tam, _, number, person, suffix, surface in list(verb_paradigm(verb, table)):
                entry = _ref_entry(
                    _ref_token(verb.english_root, (number, person, tam)),
                    _ref_token(surface, (
                        verb.hindi_root, suffix if suffix is not None else "null")),
                )
                if entry not in seen:
                    seen.add(entry)
                    entries.append(entry)
        except InputError as exc:
            failures.append((idx, verb.english_root, verb.hindi_root, str(exc)))
    return entries, failures


def _ref_value(allowed, what, token, index):
    """A factor of `token`, one of `allowed`; any other value is an input
    error that names the entry and the allowed values."""
    value = token.factors[index]
    if value not in allowed:
        raise InputError(f"entry {token.render()!r}: bad {what} {value!r} "
                         f"(expected one of {', '.join(allowed)})")
    return value


def _ref_strip(entries, scheme):
    out, seen = [], set()
    for e in entries:
        if scheme.source_width == 0:
            surface = e.source.surface
        elif "tam" in scheme.source_factors:
            factors = EnglishVerbFactors(
                _ref_value(REF_NUMBERS, "number", e.source, 0),
                _ref_value(REF_PERSONS, "person", e.source, 1),
                _ref_value(REF_TAMS, "tam", e.source, 2))
            surface = ref_english_verb_surface(e.source.surface, factors)
        elif "case" in scheme.source_factors:
            surface = english_noun_surface(
                e.source.surface, _ref_value(REF_NUMBERS, "number", e.source, 0))
        else:
            surface = e.source.surface
        entry = DictEntry(_ref_token(surface), _ref_token(e.target.surface))
        if entry not in seen:
            seen.add(entry)
            out.append(entry)
    return out


def _ref_check_scheme(entries, scheme):
    for e in entries:
        for token, declared in ((e.source, scheme.source_width), (e.target, scheme.target_width)):
            if token.width != declared:
                raise InputError(
                    f"entry {token.render()!r} has {token.width} factors, scheme declares {declared}")


_REF_VALUES = {"number": REF_NUMBERS, "case": REF_CASES, "person": REF_PERSONS, "tam": REF_TAMS}


def _ref_check_values(rows, scheme):
    """Every factor of every row that has a closed value set, in file
    order, holds one of its values, else an error at the row's name:line."""
    for where, token in rows:
        for name, value in zip(scheme.source_factors[1:], token.factors):
            allowed = _REF_VALUES.get(name, ())
            if allowed and value not in allowed:
                raise InputError(
                    f"{where}: bad {name} {value!r} (expected one of {', '.join(allowed)})")


def _ref_parse(lines, name="<dictionary>"):
    entries, seen, widths, rows = [], set(), None, []
    for where, (source, target) in sc.table_rows(lines, name, ("source", "target")):
        with sc.located(where):
            entry = DictEntry(_ref_parse_side(source), _ref_parse_side(target))
        rows.append((where, entry.source))
        if widths is None:
            widths = (entry.source.width, entry.target.width)
        elif widths != (entry.source.width, entry.target.width):
            raise InputError(f"{where}: ragged factor widths")
        if entry not in seen:
            seen.add(entry)
            entries.append(entry)
    if widths == (2, 2):
        scheme = NOUN_SCHEME
    elif widths == (3, 2):
        scheme = VERB_SCHEME
    elif widths in ((0, 0), None):
        scheme = SURFACE_SCHEME
    else:
        raise InputError(f"{name}: no scheme matches factor widths {widths}")
    _ref_check_scheme(entries, scheme)
    _ref_check_values(rows, scheme)
    return entries, scheme


def _ref_entry_line(token):
    if token.width == 0 and " " in token.surface:
        return [FactoredToken(w) for w in token.surface.split(" ")]
    return [token]


def normalize_factors(tokens, width):
    """Every token padded with "null" to `width`."""
    return [FactoredToken(t.surface, t.factors + ("null",) * (width - t.width)) for t in tokens]


def _ref_inject(corpus, entries, scheme, mode):
    if mode == "surface":
        entries = _ref_strip(entries, scheme)
    src_width, tgt_width = corpus.source_width(), corpus.target_width()
    dict_src_width = max((e.source.width for e in entries), default=0)
    dict_tgt_width = max((e.target.width for e in entries), default=0)
    src_width = dict_src_width if src_width is None else src_width
    tgt_width = dict_tgt_width if tgt_width is None else tgt_width
    if dict_src_width > src_width or dict_tgt_width > tgt_width:
        raise InputError(
            f"dictionary factors ({dict_src_width}/{dict_tgt_width}) exceed corpus "
            f"widths ({src_width}/{tgt_width}); widening the corpus would rewrite "
            "original lines")
    existing = set(zip(corpus.src, corpus.tgt))
    out_src, out_tgt = list(corpus.src), list(corpus.tgt)
    added = skipped = 0
    normalized = False
    for entry in entries:
        src_tokens, tgt_tokens = _ref_entry_line(entry.source), _ref_entry_line(entry.target)
        if any(t.width != src_width for t in src_tokens):
            src_tokens = normalize_factors(src_tokens, src_width)
            normalized = True
        if any(t.width != tgt_width for t in tgt_tokens):
            tgt_tokens = normalize_factors(tgt_tokens, tgt_width)
            normalized = True
        key = (" ".join(t.render() for t in src_tokens), " ".join(t.render() for t in tgt_tokens))
        if key in existing:
            skipped += 1
            continue
        existing.add(key)
        out_src.append(key[0])
        out_tgt.append(key[1])
        added += 1
    report = {"entries_offered": len(entries), "entries_added": added,
              "duplicates_skipped": skipped, "normalization_applied": normalized}
    return out_src, out_tgt, report


def _rendered(entries):
    return [f"{e.source.render()}\t{e.target.render()}" for e in entries]


def _outcome(fn, *args):
    """The result, or the class and message of the exception raised."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the same class, InputError or not
        return type(exc).__name__, str(exc)


# --- inputs ---

# English roots with the factor separator, a space, a tab, U+00A0 and
# the comment mark
_english = st.text(st.sampled_from(["a", "b", "|", " ", "\t", "\xa0", "#"]), max_size=4)
_noun_roots = st.sampled_from([
    "कुत्ता", "लड़की", "रात", "घर", "माली", "बहू", "आलू", "माला", "कुआँ", "नदी",
    "cat", "a b", "क ख", "क|ख", "कुत्ता ",
])
# roots as head + tail, so that drawn nouns share tails: an empty head, a
# head that is not Devanagari, and a tail that is only marks among them
_shared_tail_roots = st.tuples(st.sampled_from(["", "सु", "कुत्त", "लड़क", "x"]),
                               st.sampled_from(["ा", "ी", "त", "ाँ", "ंं"])).map("".join)
_noun = st.builds(
    BilingualNoun, _english,
    st.builds(NounLexEntry, st.one_of(_noun_roots, _shared_tail_roots),
              st.sampled_from(REF_GENDERS), st.booleans(),
              st.one_of(st.none(), st.sampled_from(REF_NOUN_CLASSES))),
)


@st.composite
def _noun_table(draw):
    """The packaged table, or one cell given a suffix with a space or a
    separator in it (a noun of that class then fails part-way)."""
    table = load_suffix_table()
    if draw(st.booleans()):
        return table
    cells = dict(table.cells)
    key = draw(st.sampled_from(sorted(k for k, v in cells.items() if v is not None)))
    cells[key] = cells[key] + draw(st.sampled_from([" x", "|", " "]))
    return SuffixTable(cells)


_verb_stems = st.sampled_from(["चल", "निकल", "xल", "खा", "पी", "सो", "छू", "हो", "कर", "cal", "a b",
                               "क|"])
# overrides as VerbLexEntry takes them, unchecked: parse_verb_lexicon
# would reject the surfaces that are not words
_override = st.tuples(
    st.sampled_from(REF_TAMS),
    st.one_of(st.none(), st.sampled_from(REF_GENDERS)),
    st.one_of(st.none(), st.sampled_from(REF_NUMBERS)),
    st.one_of(st.none(), st.sampled_from(REF_PERSONS)),
    st.sampled_from(["गया", "हुआ", "", "a|b", "x y", "की"]),
)
_verb = st.builds(VerbLexEntry, _verb_stems, _english, st.lists(_override, max_size=2).map(tuple))


@st.composite
def _verb_table(draw):
    table = load_verb_suffix_table()
    if draw(st.booleans()):
        return table
    cells = list(table.cells)
    i = draw(st.sampled_from([i for i, c in enumerate(cells) if c[4] is not None]))
    cells[i] = (*cells[i][:4], cells[i][4] + draw(st.sampled_from([" x", "|"])))
    return VerbSuffixTable(cells)


def _failures(dictionary):
    return [(f.index, f.english_root, f.hindi_root, f.error) for f in dictionary.failures]


def _same_build(build, lexicon, table, ref_built, ref_failures):
    """`build` gives the reference's lines and failures; with `surface`,
    it gives the stripped reference's lines and the same failures, or
    the error that stripping the factored build raises."""
    new = build(lexicon, table)
    assert new.lines == _rendered(ref_built)
    assert _failures(new) == ref_failures
    assert ref_entries(new) == ref_built  # each line parses to the reference's entry
    stripped = _outcome(lambda: strip_to_surface(new))
    ref_stripped = _outcome(lambda: _rendered(_ref_strip(ref_built, new.scheme)))
    assert (stripped[0], stripped[1].lines if stripped[0] == "ok" else stripped[1]) == ref_stripped
    surface = _outcome(lambda: build(lexicon, table, surface=True))
    if ref_stripped[0] != "ok":
        assert surface == stripped
        return
    assert surface[0] == "ok"
    assert surface[1].scheme == SURFACE_SCHEME
    assert surface[1].lines == ref_stripped[1]
    assert _failures(surface[1]) == _failures(stripped[1]) == ref_failures


def _noun_table_with(suffix):
    """The packaged noun table with its D/pl/dir cell set to `suffix`."""
    return SuffixTable({**load_suffix_table().cells, ("D", "pl", "dir"): suffix})


def _verb_table_with(change):
    """The packaged verb table with its first non-null suffix changed."""
    cells = list(load_verb_suffix_table().cells)
    i = next(i for i, c in enumerate(cells) if c[4] is not None)
    cells[i] = (*cells[i][:4], change(cells[i][4]))
    return VerbSuffixTable(cells)


# a row's cells go unchecked only if its English root, its irregular
# forms, the table's suffixes and its joined forms are valid parts:
# each example breaks one of these and nothing else
_DOG = NounLexEntry("कुत्ता", "m")  # class D


@settings(deadline=None)
@given(st.lists(_noun, max_size=6), _noun_table())
@example([BilingualNoun("a", _DOG)], _noun_table_with("ए x"))
@example([BilingualNoun("a", _DOG)], _noun_table_with(""))
@example([BilingualNoun("a", NounLexEntry("ा", "m"))], _noun_table_with("अ"))  # joins to ""
@example([BilingualNoun("a b", _DOG), BilingualNoun("a", _DOG)], load_suffix_table())
@example([BilingualNoun("#a", _DOG), BilingualNoun("a#", _DOG)], load_suffix_table())
# a build inflects each (tail, gender, countable, class override) once:
# two nouns of one key with other heads and English roots, one tail under
# another gender and another override, a noun whose tail joins to "" after
# one that shares its key (it fails at its empty cell and keeps the lines
# before it), and a bad root between two nouns of one tail
@example([BilingualNoun("a", NounLexEntry("सुकुत्ता", "m")), BilingualNoun("b", _DOG)],
         load_suffix_table())
@example([BilingualNoun("a", _DOG), BilingualNoun("b", NounLexEntry("कुत्ता", "f")),
          BilingualNoun("c", NounLexEntry("कुत्ता", "m", True, "E"))], load_suffix_table())
@example([BilingualNoun("a", _DOG), BilingualNoun("b", NounLexEntry("ा", "m"))],
         _noun_table_with("अ"))
@example([BilingualNoun("a", _DOG), BilingualNoun("b", NounLexEntry("कुत्ताx", "m")),
          BilingualNoun("c", NounLexEntry("लड़का", "m"))], load_suffix_table())
def test_noun_builder_matches_token_reference(lexicon, table):
    _same_build(build_noun_dict, lexicon, table, *_ref_build_noun(lexicon, table))


@settings(deadline=None)
@given(st.lists(_noun, max_size=6))
def test_noun_builds_from_one_table_twice_and_from_two_tables_match_token_reference(lexicon):
    """Each build inflects its tails afresh: a second build with one table
    (its joins memoized), and builds with two tables that differ in one
    cell, each give the reference's lines and failures."""
    table = load_suffix_table()
    for table in (table, table, _noun_table_with("ओं"), table):
        _same_build(build_noun_dict, lexicon, table, *_ref_build_noun(lexicon, table))


@settings(deadline=None)
@given(st.lists(_verb, max_size=4), _verb_table())
@example([VerbLexEntry("चल", "a", (("perf", None, None, None, "a|b"),)),
          VerbLexEntry("चल", "a", (("perf", "f", None, None, "x y"),)),
          VerbLexEntry("चल", "a", (("hab", None, "pl", None, ""),))], load_verb_suffix_table())
@example([VerbLexEntry("चल", "a")], _verb_table_with(lambda suffix: suffix + " x"))
@example([VerbLexEntry("चल", "a")], _verb_table_with(lambda suffix: ""))
@example([VerbLexEntry("चल", "a b"), VerbLexEntry("चल", "a")], load_verb_suffix_table())
@example([VerbLexEntry("चल", "#"), VerbLexEntry("चल", "a#")], load_verb_suffix_table())
# one tail under two heads, a bad stem and an override between them
@example([VerbLexEntry("निकल", "a"), VerbLexEntry("xल", "b"),
          VerbLexEntry("चल", "c", (("perf", None, None, None, "गया"),)), VerbLexEntry("चल", "d")],
         load_verb_suffix_table())
def test_verb_builder_matches_token_reference(lexicon, table):
    _same_build(build_verb_dict, lexicon, table, *_ref_build_verb(lexicon, table))


def test_a_row_failing_part_way_keeps_its_first_entries():
    cells = dict(load_suffix_table().cells)
    cells[("D", "sg", "obl")] = "ए x"
    d = build_noun_dict([BilingualNoun("dog", NounLexEntry("कुत्ता", "m"))],
                        SuffixTable(cells))
    assert d.lines == ["dog|sg|dir\tकुत्ता|कुत्ता|null"]
    assert [(f.index, f.error) for f in d.failures] == [
        (0, "factored token surface 'कुत्ते x' contains whitespace")]


# dictionary lines: mostly well-formed tokens of mixed widths, with
# separators, spaces, tabs, U+00A0, comments and empty parts mixed in
_part = st.sampled_from(
    ["a", "sg", "pl", "dir", "obl", "3", "hab", "fut", "क", "will a", "a  b", " a", "a\xa0b", " ", ""])
_token = st.integers(0, 3).flatmap(
    lambda w: st.lists(_part, min_size=w + 1, max_size=w + 1).map("|".join))
_dict_line = st.one_of(
    st.tuples(_token, _token).map("\t".join),
    st.text(st.sampled_from(["a", "|", " ", "\t", "\xa0", "#", "क"]), max_size=8),
)
_dict_lines = st.one_of(
    st.lists(_dict_line, max_size=5),
    # one width pair throughout, so that whole files parse
    st.tuples(st.integers(0, 3), st.integers(0, 3)).flatmap(lambda w: st.lists(
        st.tuples(*(st.lists(_part.filter(bool), min_size=n + 1, max_size=n + 1).map("|".join)
                    for n in w)).map("\t".join), max_size=5)),
    # one scheme throughout, so that factor values are checked and often
    # pass: each factor with a closed value set takes one of its values
    st.sampled_from([NOUN_SCHEME, VERB_SCHEME]).flatmap(lambda scheme: st.lists(st.tuples(
        st.sampled_from(["dog", "walk"]),
        *(st.sampled_from((*_REF_VALUES[f], "xx")) for f in scheme.source_factors[1:]),
    ).map(lambda parts: "|".join(parts) + "\tक|क|null"), max_size=5)),
)


@settings(deadline=None)
@given(_dict_lines)
def test_parse_dictionary_matches_token_reference(lines):
    new = _outcome(lambda: parse_dictionary(lines, "d.tsv"))
    ref = _outcome(lambda: _ref_parse(lines, "d.tsv"))
    if ref[0] != "ok":
        assert new == ref
        return
    assert new[0] == "ok"
    assert (new[1].lines, new[1].scheme) == (_rendered(ref[1][0]), ref[1][1])
    assert _outcome(lambda: strip_to_surface(new[1]).lines) == _outcome(
        lambda: _rendered(_ref_strip(*ref[1])))


@settings(deadline=None)
@given(st.sampled_from(list(SCHEMES.values())), _dict_lines)
# lines that inject or strip_to_surface once took from a hand-built dictionary
@example(NOUN_SCHEME, ["do g|sg|dir\tक|क|null"])
@example(NOUN_SCHEME, ["dog x|pl|dir\tक|क|null"])
@example(NOUN_SCHEME, ["|pl|dir\tकुत्ते|कुत्ता|े"])
@example(VERB_SCHEME, ["|sg|1|perf\tx|y|z"])
# a bad target token, then a bad value, after a valid entry
@example(NOUN_SCHEME, ["dog|sg|dir\tक|क|null", "dog|sg|dir\tक|क|"])
@example(VERB_SCHEME, ["walk|sg|3|hab\tक|क|null", "walk|sg|9|hab\tक|क|null"])
def test_a_dictionary_is_made_by_the_rule_that_reads_a_file_of_its_scheme(scheme, lines):
    """WordFormDictionary(lines, scheme) accepts exactly the lines that
    parse_dictionary reads as a file of that scheme, with the same first
    error, located by its entry instead of its line. A side of another
    factor count is named by the constructor, where parse_dictionary
    finds ragged widths or another scheme."""
    # the entries only: a file's blank and "#" lines are no entries
    lines = [ln for ln in lines if ln.strip() and not ln.lstrip().startswith("#")]
    parsed = _outcome(parse_dictionary, lines)
    made = _outcome(WordFormDictionary, lines, scheme)
    assert (made[0] == "ok") == (parsed[0] == "ok" and (parsed[1].scheme == scheme or not lines))
    if made[0] != "ok" and " factors, scheme declares " not in made[1]:
        assert made[0] == parsed[0] == "InputError"
        assert made[1].endswith(parsed[1].partition(": ")[2])


def _corpus_side(width):
    token = st.lists(st.sampled_from(["a", "b", "क", "null"]), min_size=width + 1,
                     max_size=width + 1).map("|".join)
    return st.lists(token, max_size=3).map(" ".join)


_corpus = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 3)).flatmap(
    lambda w: st.lists(st.tuples(_corpus_side(w[0]), _corpus_side(w[1])), max_size=w[2]))


@settings(deadline=None)
@given(_corpus, _dict_lines, st.sampled_from(["factored", "surface"]), st.data())
def test_inject_matches_token_reference(pairs, lines, mode, data):
    parsed = _outcome(lambda: _ref_parse(lines))
    if parsed[0] != "ok":
        return
    entries, scheme = parsed[1]
    # some dictionary lines are in the corpus already, so dedupe has work
    known = _rendered(entries)
    extra = [tuple(line.split("\t")) for line in data.draw(
        st.lists(st.sampled_from(known), max_size=2) if known else st.just([]))]
    for lines_in in (pairs + extra, pairs):
        corpus = _outcome(lambda: parse_factored_corpus(
            [s for s, _ in lines_in], [t for _, t in lines_in], auto_normalize=True))
        if corpus[0] == "ok":
            break
    else:
        return

    def injected():
        dictionary = parse_dictionary(lines)
        if mode == "surface":
            dictionary = strip_to_surface(dictionary)
        out, report = inject(corpus[1], dictionary)
        return out.src, out.tgt, report._asdict()

    assert _outcome(injected) == _outcome(lambda: _ref_inject(corpus[1], entries, scheme, mode))
