"""Property tests for the sparsity report and the corpus vocabulary.

sparsity_report projects the distinct tokens each corpus side keeps
from the check that made it. The reference below is the token
implementation it replaced: probe tokens paired line by line with zip
and projected through FactoredToken. Where every probe line pair holds
equal token counts, the two must give the same report; on any probe,
the report must equal a per-side count over every token. A corpus
parsed, built by hand or made by inject gives the same report.
"""

import io

from hypothesis import given
from hypothesis import strategies as st

from conftest import ref_pairs
from morphinject.corpus_inject import ParallelCorpus, inject, parse_factored_corpus
from morphinject.dictionary_builder import (
    NOUN_SCHEME,
    SURFACE_SCHEME,
    VERB_SCHEME,
    WordFormDictionary,
)
from morphinject.errors import InputError
from morphinject.evaluation import (
    SparsityReport,
    StepReport,
    sparsity_report,
)

SCHEMES = [NOUN_SCHEME, VERB_SCHEME, SURFACE_SCHEME]
SURFACES = ["a", "b", "क"]
VALUES = ["x", "y", "null"]


def _corpus(src_lines, tgt_lines):
    return parse_factored_corpus(
        io.StringIO("".join(ln + "\n" for ln in src_lines)),
        io.StringIO("".join(ln + "\n" for ln in tgt_lines)),
    )


@st.composite
def _line(draw, width, count):
    return " ".join(
        "|".join([draw(st.sampled_from(SURFACES))]
                 + [draw(st.sampled_from(VALUES)) for _ in range(width)])
        for _ in range(count)
    )


@st.composite
def _side(draw, width, counts):
    return [draw(_line(width, n)) for n in counts]


_counts = st.lists(st.integers(0, 4), max_size=5)


@st.composite
def _train(draw, scheme):
    """A training corpus whose sides may be narrower or wider (padded)
    than the scheme, with independent token counts per side."""
    src_counts = draw(_counts)
    tgt_counts = draw(st.lists(st.integers(0, 4), min_size=len(src_counts),
                               max_size=len(src_counts)))
    widths = [max(0, w + draw(st.integers(-1, 2)))
              for w in (scheme.source_width, scheme.target_width)]
    return _corpus(draw(_side(widths[0], src_counts)), draw(_side(widths[1], tgt_counts)))


@st.composite
def _probe(draw, scheme, equal_counts, widths=None):
    src_counts = draw(_counts)
    tgt_counts = src_counts if equal_counts else draw(
        st.lists(st.integers(0, 4), min_size=len(src_counts), max_size=len(src_counts)))
    src_width, tgt_width = widths or (scheme.source_width, scheme.target_width)
    return _corpus(draw(_side(src_width, src_counts)), draw(_side(tgt_width, tgt_counts)))


# --- the token implementation sparsity_report replaced ---

def _reference_project(scheme, token, names, side):
    declared = scheme.source_factors if side == "source" else scheme.target_factors
    positions = (token.surface,) + token.factors
    out = []
    for name in names:
        idx = declared.index(name)
        if idx >= len(positions):
            raise InputError(f"token {token.render()!r} too narrow for factor {name!r}")
        out.append(positions[idx])
    return tuple(out)


def _reference_train_projections(lines, declared, names):
    positions = [declared.index(name) for name in names]
    known = set()
    for token in {t for line in lines if line for t in line.split(" ")}:
        parts = token.split("|")
        if len(parts) >= len(declared):
            known.add(tuple(parts[i] for i in positions))
    return known


def _label(in_names, out_names):
    return "|".join(in_names) + " -> " + "|".join(out_names)


def reference_sparsity(train, probe_corpus, scheme):
    probe = [(s, t) for src, tgt in ref_pairs(probe_corpus) for s, t in zip(src, tgt)]
    for src, tgt in probe:
        if src.width != scheme.source_width or tgt.width != scheme.target_width:
            raise InputError(
                f"probe pair {src.render()} / {tgt.render()} does not match "
                f"scheme widths {scheme.source_width}/{scheme.target_width}"
            )
    translation = []
    for in_names, out_names in scheme.translation_steps:
        known = _reference_train_projections(train.src, scheme.source_factors, in_names)
        probe_tuples = {_reference_project(scheme, src, in_names, "source") for src, _ in probe}
        unseen = sorted("|".join(t) for t in probe_tuples if t not in known)
        translation.append(StepReport(_label(in_names, out_names),
                                      len(probe_tuples) - len(unseen), len(unseen), unseen))
    generation = []
    for in_names, out_names in scheme.generation_steps:
        known = _reference_train_projections(train.tgt, scheme.target_factors, in_names)
        probe_tuples = {_reference_project(scheme, tgt, in_names, "target") for _, tgt in probe}
        unseen = sorted("|".join(t) for t in probe_tuples if t not in known)
        generation.append(StepReport(_label(in_names, out_names),
                                     len(probe_tuples) - len(unseen), len(unseen), unseen))
    return SparsityReport(translation, generation)


def brute_sparsity(train, probe, scheme):
    """Per side, the distinct projections of every probe token, checked
    against those of every training token at least as wide as the scheme."""
    def project(token, declared, names):
        values = (token.surface,) + token.factors
        return tuple(values[declared.index(name)] for name in names)

    out = []
    for side, declared, steps in ((0, scheme.source_factors, scheme.translation_steps),
                                  (1, scheme.target_factors, scheme.generation_steps)):
        out.append([])
        for in_names, out_names in steps:
            known = {project(t, declared, in_names) for pair in ref_pairs(train) for t in pair[side]
                     if t.width >= len(declared) - 1}
            tuples = {project(t, declared, in_names) for pair in ref_pairs(probe) for t in pair[side]}
            unseen = sorted("|".join(t) for t in tuples - known)
            out[-1].append(StepReport(_label(in_names, out_names), len(tuples) - len(unseen),
                                      len(unseen), unseen))
    return SparsityReport(*out)


@given(data=st.data())
def test_sparsity_matches_the_token_reference_on_equal_counts(data):
    scheme = data.draw(st.sampled_from(SCHEMES))
    train = data.draw(_train(scheme))
    probe = data.draw(_probe(scheme, equal_counts=True))
    expected = reference_sparsity(train, probe, scheme)
    assert sparsity_report(train, probe, scheme) == expected
    assert brute_sparsity(train, probe, scheme) == expected


@given(data=st.data())
def test_sparsity_counts_every_probe_token(data):
    scheme = data.draw(st.sampled_from(SCHEMES))
    train = data.draw(_train(scheme))
    probe = data.draw(_probe(scheme, equal_counts=False))
    assert sparsity_report(train, probe, scheme) == brute_sparsity(train, probe, scheme)


@given(data=st.data())
def test_a_probe_token_of_another_width_is_located(data):
    scheme = data.draw(st.sampled_from(SCHEMES))
    train = data.draw(_train(scheme))
    widths = [max(0, w + data.draw(st.integers(-1, 1)))
              for w in (scheme.source_width, scheme.target_width)]
    probe = data.draw(_probe(scheme, equal_counts=False, widths=widths))
    expected = None
    for side, lines, declared in (("source", probe.src, scheme.source_width),
                                  ("target", probe.tgt, scheme.target_width)):
        first = next(((i, ln.split(" ")[0]) for i, ln in enumerate(lines, 1) if ln), None)
        if first and first[1].count("|") != declared:
            expected = (f"{side}:{first[0]}: token {first[1]!r} has "
                        f"{first[1].count('|')} factors, scheme declares {declared}")
            break
    try:
        sparsity_report(train, probe, scheme)
    except InputError as exc:
        assert str(exc) == expected
    else:
        assert expected is None


# surface-only entries fit a corpus of any width; a source side may hold
# two words, which inject writes as two tokens
_entries = st.lists(st.tuples(st.lists(st.sampled_from(SURFACES), min_size=1, max_size=2)
                              .map(" ".join), st.sampled_from(SURFACES)), max_size=4)


@given(data=st.data())
def test_a_parsed_a_hand_built_and_an_injected_corpus_give_the_same_report(data):
    scheme = data.draw(st.sampled_from(SCHEMES))
    dictionary = WordFormDictionary([f"{s}\t{t}" for s, t in data.draw(_entries)],
                                    SURFACE_SCHEME)
    injected, _ = inject(data.draw(_train(scheme)), dictionary)
    parsed = _corpus(injected.src, injected.tgt)
    by_hand = ParallelCorpus(injected.src, injected.tgt)
    # inject's output, never re-parsed, carries the token sets of its lines
    assert (injected.src_tokens, injected.tgt_tokens) == (parsed.src_tokens, parsed.tgt_tokens)
    probe = data.draw(_probe(scheme, equal_counts=False))
    expected = brute_sparsity(parsed, probe, scheme)
    for train in (parsed, by_hand, injected):
        assert sparsity_report(train, probe, scheme) == expected


def test_a_narrower_training_side_projects_nothing_and_a_padded_one_projects():
    probe = _corpus(["dog|sg|dir"], ["कुत्ता|कुत्ता|null"])
    narrower = _corpus(["dog|sg"], ["कुत्ता|कुत्ता"])
    padded = _corpus(["dog|sg|dir|null"], ["कुत्ता|कुत्ता|null|null"])
    for train, seen in ((narrower, 0), (padded, 1)):
        report = sparsity_report(train, probe, NOUN_SCHEME)
        assert [(s.seen, s.unseen) for s in report.translation_steps + report.generation_steps] \
            == [(seen, 1 - seen)] * 2


def test_sparsity_of_a_valid_corpus():
    train = _corpus([" ".join(f"w{i}|sg|dir" for i in range(10))] * 500,
                    [" ".join(f"क{i}|क|null" for i in range(10))] * 500)
    probe = _corpus(["w1|pl|obl w2|sg|dir w3|sg|obl", "w4|sg|dir"],
                    ["क1|क|ओं", "क4|क|null क5|क|null"])
    report = sparsity_report(train, probe, NOUN_SCHEME)
    vocab = {t.surface for _, tgt in ref_pairs(train) for t in tgt}
    assert [(s.seen, s.unseen) for s in report.translation_steps] == [(2, 2)]
    assert [(s.seen, s.unseen) for s in report.generation_steps] == [(1, 1)]
    assert len(vocab) == 10
