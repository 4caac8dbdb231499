"""Acceptance suite: every release criterion at its stated tolerance.

Each test records one PASS/FAIL line; the summary block is printed at
the end of the pytest run (see conftest.pytest_terminal_summary).
"""

import io
import json
import math
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from conftest import lookup, ref_entries, ref_pairs, validate_widths
from morphinject import script_core as sc
from morphinject.cli import main
from morphinject.corpus_inject import inject, parse_factored_corpus
from morphinject.dictionary_builder import NOUN_SCHEME, build_noun_dict
from morphinject.evaluation import bleu, oov_count, oov_reduction, sparsity_report
from morphinject.noun_morph import (
    BilingualNoun,
    NounLexEntry,
    classify_noun,
    load_suffix_table,
    noun_paradigm,
)

FIXTURES = Path(__file__).parent / "fixtures"

RESULTS: list[tuple[int, str, str]] = []


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        RESULTS.append((num, name, "FAIL"))
        raise
    RESULTS.append((num, name, "PASS"))


def test_criterion_1_golden_dog_paradigm():
    with criterion(1, "dog paradigm: exact four rows, < 1 ms"):
        entry = NounLexEntry("कुत्ता", "m")
        table = load_suffix_table()
        rows = noun_paradigm(entry, table)
        assert [(number, case) for number, case, _, _ in rows] == [
            ("sg", "dir"), ("sg", "obl"), ("pl", "dir"), ("pl", "obl"),
        ]
        assert [suffix for _, _, suffix, _ in rows] == [None, "ए", "ए", "ओं"]
        assert [surface for *_, surface in rows] == ["कुत्ता", "कुत्ते", "कुत्ते", "कुत्तों"]
        noun_paradigm(entry, table)  # warm up
        best = min(
            _timed(lambda: noun_paradigm(entry, table)) for _ in range(50)
        )
        assert best < 1e-3, f"paradigm took {best * 1e3:.3f} ms"


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_2_classifier_golden():
    with criterion(2, "classifier: all 15 example nouns exact"):
        golden = [
            ("भूख", "f", False, "A"), ("क्रोध", "m", False, "A"), ("प्यार", "m", False, "A"),
            ("लड़की", "f", True, "B"), ("शक्ति", "f", True, "B"), ("नदी", "f", True, "B"),
            ("रात", "f", True, "C"), ("माला", "f", True, "C"), ("बहू", "f", True, "C"),
            ("लड़का", "m", True, "D"), ("धागा", "m", True, "D"), ("भांजा", "m", True, "D"),
            ("आलू", "m", True, "E"), ("साधू", "m", True, "E"), ("माली", "m", True, "E"),
        ]
        assert len(golden) == 15
        for root, gender, countable, cls in golden:
            got = classify_noun(NounLexEntry(root, gender, countable))
            assert got == cls, f"{root}: {got} != {cls}"


def test_criterion_3_joiner_fixture_suite(noun_fixtures, verb_form_fixtures, verb_lexicon_lines):
    with criterion(3, "joiner fixtures: 20+ nouns per class B-E, 10+ verbs, exact"):
        from conftest import VerbFactors, ref_override
        from morphinject.verb_morph import load_verb_suffix_table, join_verb, parse_verb_lexicon

        per_class = dict.fromkeys("ABCDE", 0)
        table = load_suffix_table()
        for fx in noun_fixtures:
            rows = noun_paradigm(fx.entry, table)
            assert tuple(surface for *_, surface in rows) == tuple(
                sc.normalize(s) for s in fx.surfaces
            ), fx.entry.hindi_root
            per_class[fx.noun_class] += 1
        for cls in "BCDE":
            assert per_class[cls] >= 20, f"class {cls}"

        vtable = load_verb_suffix_table()
        lexicon = {e.hindi_root: e for e in parse_verb_lexicon(verb_lexicon_lines)}
        assert len(lexicon) >= 10
        checked = set()
        for fx in verb_form_fixtures:
            stem = sc.normalize(fx.stem)
            entry = lexicon[stem]
            factors = VerbFactors(fx.gender, fx.number, fx.person, fx.tam)
            surface = ref_override(entry, factors)
            if surface is None:
                surface = join_verb(stem, lookup(vtable.cells, factors))
            assert surface == sc.normalize(fx.surface), f"{stem}/{fx.tam}"
            checked.add(stem)
        assert len(checked) >= 10


def test_criterion_4_sparsity_closure(noun_fixtures):
    with criterion(4, "sparsity closure: 50 unseen pre, 0 post, OOV 0, < 5 s"):
        start = time.perf_counter()
        inflecting = [
            f for f in noun_fixtures
            if f.noun_class != "A" and f.surfaces[3] != f.surfaces[0]
        ]
        picked = inflecting[:50]
        assert len(picked) == 50
        lexicon = [BilingualNoun(f.english, f.entry) for f in picked]
        dictionary = build_noun_dict(lexicon)
        assert not dictionary.failures

        sg_dir = [e for e in ref_entries(dictionary) if e.source.factors == ("sg", "dir")]
        pl_obl = [e for e in ref_entries(dictionary) if e.source.factors == ("pl", "obl")]
        assert len(sg_dir) == len(pl_obl) == 50
        train = parse_factored_corpus(
            io.StringIO("".join(e.source.render() + "\n" for e in sg_dir)),
            io.StringIO("".join(e.target.render() + "\n" for e in sg_dir)),
        )
        probe = parse_factored_corpus(
            io.StringIO("".join(e.source.render() + "\n" for e in pl_obl)),
            io.StringIO("".join(e.target.render() + "\n" for e in pl_obl)),
        )

        # independent brute-force enumeration over the construction
        train_pairs = {tuple(e.target.factors) for e in sg_dir}
        probe_pairs = {tuple(e.target.factors) for e in pl_obl}
        brute_unseen = len(probe_pairs - train_pairs)
        assert brute_unseen == 50

        before = sparsity_report(train, probe, NOUN_SCHEME)
        assert before.generation_steps[0].unseen == 50
        assert before.generation_steps[0].seen == 0

        injected, _ = inject(train, dictionary)
        after = sparsity_report(injected, probe, NOUN_SCHEME)
        brute_after = {
            tuple(t.factors) for _, tgt in ref_pairs(injected) for t in tgt
        }
        assert len(probe_pairs - brute_after) == 0
        assert after.generation_steps[0].unseen == 0

        vocab = {t.surface for _, tgt in ref_pairs(injected) for t in tgt}
        oov = oov_count([e.target.surface for e in pl_obl], vocab)
        assert oov.oov_tokens == 0
        assert time.perf_counter() - start < 5.0


def test_criterion_5_injection_bookkeeping():
    with criterion(5, "injection bookkeeping: dupes, arithmetic, prefix bytes"):
        lexicon = [
            BilingualNoun("dog", NounLexEntry("कुत्ता", "m")),
            BilingualNoun("girl", NounLexEntry("लड़की", "f")),
        ]
        dictionary = build_noun_dict(lexicon)
        corpus = parse_factored_corpus(
            io.StringIO("the|null|null dog|sg|dir\n"),
            io.StringIO("कुत्ता|कुत्ता|null है|हो|null\n"),
        )
        once, r1 = inject(corpus, dictionary)
        assert r1.entries_added + r1.duplicates_skipped == r1.entries_offered
        twice, r2 = inject(once, dictionary)
        assert r2.entries_offered == len(dictionary.lines)
        assert r2.duplicates_skipped == r2.entries_offered
        assert r2.entries_added == 0
        assert r2.entries_added + r2.duplicates_skipped == r2.entries_offered

        # the files the corpus is written as: each line ends in "\n"
        assert ("\n".join(twice.src) + "\n").startswith("\n".join(corpus.src) + "\n")
        assert ("\n".join(twice.tgt) + "\n").startswith("\n".join(corpus.tgt) + "\n")


def test_criterion_6_factor_width_invariant():
    with criterion(6, "factor width: zero ragged tokens after factored inject"):
        dictionary = build_noun_dict(
            [BilingualNoun("dog", NounLexEntry("कुत्ता", "m"))]
        )
        # ragged input corpus normalized first, then injected
        raw_src = "the dog|sg|dir\nbig|null|null cat|sg|dir\n"
        raw_tgt = "कुत्ता|कुत्ता|null\nबिल्ली|बिल्ली|null\n"
        corpus = parse_factored_corpus(
            io.StringIO(raw_src), io.StringIO(raw_tgt), auto_normalize=True
        )
        injected, report = inject(corpus, dictionary)
        assert validate_widths(injected) == []
        reparsed = parse_factored_corpus(
            io.StringIO("\n".join(injected.src) + "\n"),
            io.StringIO("\n".join(injected.tgt) + "\n"),
        )
        assert validate_widths(reparsed) == []


def test_criterion_7_corpus_roundtrip_bytes(tmp_path, capsys):
    with criterion(7, "corpus round-trip: byte-for-byte, Devanagari intact"):
        # inject with an empty dictionary writes the corpus it read
        (tmp_path / "empty.dict").write_bytes(b"")
        out_src, out_tgt = tmp_path / "out.src", tmp_path / "out.tgt"
        assert main([
            "inject", "--source", str(FIXTURES / "corpus_src.txt"),
            "--target", str(FIXTURES / "corpus_tgt.txt"), "--dict", str(tmp_path / "empty.dict"),
            "--out-source", str(out_src), "--out-target", str(out_tgt),
            "--report", str(tmp_path / "report.txt"),
        ]) == 0
        assert capsys.readouterr() == ("", "")
        assert out_src.read_bytes() == (FIXTURES / "corpus_src.txt").read_bytes()
        assert out_tgt.read_bytes() == (FIXTURES / "corpus_tgt.txt").read_bytes()


def test_criterion_8_bleu():
    with criterion(8, "BLEU: identity 1.0, oracle 1e-9, permutation 1e-12"):
        identity = [["क", "ख", "ग"], ["the", "dog", "runs", "fast"]]
        assert bleu(identity, identity).score == 1.0

        cands = [
            ["the", "dog", "runs", "in", "the", "park"],
            ["she", "read", "a", "big", "book"],
        ]
        refs = [
            ["the", "dog", "runs", "in", "the", "garden"],
            ["she", "read", "a", "big", "book", "today"],
        ]
        got = bleu(cands, refs)

        # independent brute-force n-gram counting oracle
        c_len = sum(len(c) for c in cands)
        r_len = sum(len(r) for r in refs)
        log_sum = 0.0
        for n in range(1, 5):
            match = total = 0
            for cand, ref in zip(cands, refs):
                cand_grams = [tuple(cand[i:i + n]) for i in range(len(cand) - n + 1)]
                ref_grams = [tuple(ref[i:i + n]) for i in range(len(ref) - n + 1)]
                total += len(cand_grams)
                for gram in set(cand_grams):
                    match += min(cand_grams.count(gram), ref_grams.count(gram))
            log_sum += math.log(match / total)
        bp = 1.0 if c_len >= r_len else math.exp(1 - r_len / c_len)
        oracle = bp * math.exp(log_sum / 4)
        assert abs(got.score - oracle) < 1e-9

        flipped = bleu(list(reversed(cands)), list(reversed(refs)))
        assert abs(got.score - flipped.score) < 1e-12


def test_criterion_9_oov_reduction_formula():
    with criterion(9, "oov_reduction(2130, 1839) = 13.66 +/- 0.01"):
        assert abs(oov_reduction(2130, 1839) - 13.66) <= 0.01


def _run_pipeline(workdir: Path) -> dict[str, bytes]:
    """build-dict -> inject -> sparsity -> oov through the CLI."""
    lexicon = workdir / "nouns.tsv"
    lexicon.write_text(
        "dog\tकुत्ता\tm\t1\ngirl\tलड़की\tf\t1\nnight\tरात\tf\t1\nhouse\tघर\tm\t1\n",
        "utf-8",
    )
    train_src = workdir / "train.src"
    train_tgt = workdir / "train.tgt"
    train_src.write_text("dog|sg|dir\ngirl|sg|dir\n", "utf-8")
    train_tgt.write_text("कुत्ता|कुत्ता|null\nलड़की|लड़की|null\n", "utf-8")
    probe_src = workdir / "probe.src"
    probe_tgt = workdir / "probe.tgt"
    probe_src.write_text("dog|pl|obl\ngirl|pl|obl\n", "utf-8")
    # probe must be in canonical form to byte-match generated corpus lines
    probe_tgt.write_text(sc.normalize("कुत्तों|कुत्ता|ओं\nलड़कियों|लड़की|यों\n"), "utf-8")

    def cli(*argv):
        proc = subprocess.run(
            [sys.executable, "-m", "morphinject.cli", *argv],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    cli("build-dict", "--kind", "noun", "--lexicon", str(lexicon),
        "--out", str(workdir / "dict.tsv"))
    cli("inject", "--source", str(train_src), "--target", str(train_tgt),
        "--dict", str(workdir / "dict.tsv"),
        "--out-source", str(workdir / "out.src"), "--out-target", str(workdir / "out.tgt"),
        "--report", str(workdir / "inject.json"), "--format", "json")
    cli("sparsity",
        "--train-source", str(workdir / "out.src"), "--train-target", str(workdir / "out.tgt"),
        "--probe-source", str(probe_src), "--probe-target", str(probe_tgt),
        "--scheme", "noun", "--format", "json", "--out", str(workdir / "sparsity.json"))
    cli("oov", "--tokens", str(probe_tgt), "--vocab", str(workdir / "out.tgt"),
        "--format", "json", "--out", str(workdir / "oov.json"))
    return {
        name: (workdir / name).read_bytes()
        for name in ("dict.tsv", "out.src", "out.tgt", "inject.json",
                     "sparsity.json", "oov.json")
    }


def test_criterion_10_pipeline_determinism(tmp_path):
    with criterion(10, "determinism: two pipeline runs byte-identical, < 1 min"):
        start = time.perf_counter()
        run_a = tmp_path / "a"
        run_b = tmp_path / "b"
        run_a.mkdir()
        run_b.mkdir()
        outputs_a = _run_pipeline(run_a)
        outputs_b = _run_pipeline(run_b)
        assert outputs_a.keys() == outputs_b.keys()
        for name in outputs_a:
            assert outputs_a[name] == outputs_b[name], f"{name} differs between runs"
        report = json.loads(outputs_a["sparsity.json"])
        assert report["generation_steps"][0]["unseen"] == 0
        assert time.perf_counter() - start < 60.0
