"""Command-line surface: one subcommand per pipeline stage.

Exit codes: 0 success, 1 input/validation error (one-line diagnostic on
stderr), 2 internal error. Every exception the package raises on purpose
is an InputError, so exit 2 means an exception nobody planned for: a
bug. Every input file is read by
script_core.read_lines: UTF-8, split on LF only, a CR rejected. Outputs
are written to temporary files and renamed, so no subcommand leaves
partial output behind. Set MORPHINJECT_DATA to a directory to override
the packaged default data files (noun_suffixes.tsv, verb_suffixes.tsv,
pronouns.tsv, case_rules.tsv, tam_rules.tsv).

A subcommand loads only the layers it runs: each imports its modules
when it is called, so `oov` and `bleu` load no morphology, dictionary or
corpus module. No call loads the standard library's data class,
inspect or log modules (tests/test_imports.py names them), and only a
call that writes JSON loads json. The records are plain classes that
compare by value: ParallelCorpus by its lines, WordFormDictionary by
its lines and scheme, BilingualNoun by its English root and entry (not
the names, failures or row location they carry), and the entries,
schemes and reports as named tuples of their fields.
"""

from __future__ import annotations

import argparse
import importlib
import os
import re
import sys
import tempfile
from pathlib import Path

from . import script_core as sc
from .errors import InputError

DATA_DIR_ENV = "MORPHINJECT_DATA"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # input errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


# the overridable data files: module, loader and packaged default of each
_DATA_TABLES = {
    "noun_suffixes.tsv": ("noun_morph", "load_suffix_table", "default_suffix_table"),
    "verb_suffixes.tsv": ("verb_morph", "load_verb_suffix_table", "default_verb_suffix_table"),
    "pronouns.tsv": ("source_factors", "load_pronoun_table", "default_pronoun_table"),
    "case_rules.tsv": ("source_factors", "load_case_rules", "default_case_rules"),
    "tam_rules.tsv": ("source_factors", "load_tam_rules", "default_tam_rules"),
}


def _data_table(path: str | None, name: str):
    """The table at `path` (a flag), else MORPHINJECT_DATA/`name` if that
    file exists, else the packaged default."""
    module, load, default = _DATA_TABLES[name]
    mod = importlib.import_module(f"{__package__}.{module}")
    base = os.environ.get(DATA_DIR_ENV)
    if path is None and base and (Path(base) / name).is_file():
        path = str(Path(base) / name)
    return getattr(mod, default)() if path is None else getattr(mod, load)(path)


def _write_atomic(outputs: list[tuple[str | None, str]]) -> None:
    """Write every (path, text) or none: all temps are staged before
    anything is written to stdout (a None path) or renamed. Two paths
    that name one file are an error, raised before anything is staged."""
    named = set()
    for path, _ in outputs:
        if path is not None:
            resolved = Path(path).resolve()
            if resolved in named:
                raise InputError(f"{path}: named by two outputs")
            named.add(resolved)
    staged: list[tuple[str, Path]] = []
    try:
        for path, text in outputs:
            if path is None:
                continue
            target = Path(path)
            if target.is_dir():
                raise InputError(f"{path}: cannot write: is a directory")
            try:
                fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.name + ".")
            except OSError as exc:
                raise InputError(f"{path}: cannot write: {exc.strerror}") from None
            staged.append((tmp, target))
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
    except BaseException:
        for tmp, _ in staged:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise
    for path, text in outputs:
        if path is None:
            sys.stdout.write(text)
    for tmp, target in staged:
        os.replace(tmp, target)


def _json_text(payload: dict) -> str:
    import json  # only the calls that write JSON load it

    return json.dumps(payload, ensure_ascii=False, indent=2) + "\n"


def _report_text(report_dict: dict, fmt: str) -> str:
    if fmt == "json":
        return _json_text(report_dict)
    lines = []
    for key, value in report_dict.items():
        if isinstance(value, list) and value and isinstance(value[0], dict):
            for sub in value:
                lines.append(f"{key}: " + ", ".join(f"{k}={v}" for k, v in sub.items()))
        else:
            lines.append(f"{key}: {value}")
    return "\n".join(lines) + "\n"


# --- subcommands ---

def cmd_classify(args) -> int:
    from . import noun_morph as nm

    nouns = nm.parse_noun_lexicon(
        sc.read_lines(args.lexicon), bilingual=args.bilingual, name=args.lexicon)
    lines = []
    for noun in nouns:
        with sc.located(noun.where):
            cls = nm.classify_noun(noun.entry)
        prefix = f"{noun.english_root}\t" if args.bilingual else ""
        lines.append(f"{prefix}{noun.entry.hindi_root}\t{cls.value}")
    _write_atomic([(args.out, "\n".join(lines) + "\n" if lines else "")])
    return 0


def cmd_paradigm(args) -> int:
    # an option of the other kind of paradigm would change nothing
    if args.verb:
        stray = [("--root", args.root), ("--gender", args.gender),
                 ("--uncountable", args.uncountable), ("--noun-class", args.noun_class)]
    else:
        stray = [("--stem", args.stem)]
    for option, value in stray:
        if value not in (None, False):
            raise InputError(f"{option} cannot be given with --verb" if args.verb
                             else f"{option} needs --verb")
    if args.verb:
        from . import verb_morph as vm

        if not args.stem:
            raise InputError("--stem is required for verb paradigms")
        table = _data_table(args.table, "verb_suffixes.tsv")
        entry = vm.VerbLexEntry(args.stem, "")
        lines = [
            "\t".join((*factors, "-" if suffix is None else suffix, surface))
            for *factors, suffix, surface in vm.verb_paradigm(entry, table)
        ]
    else:
        if not args.root or not args.gender:
            raise InputError("--root and --gender are required for noun paradigms")
        from . import noun_morph as nm

        table = _data_table(args.table, "noun_suffixes.tsv")
        entry = nm.NounLexEntry(
            args.root,
            nm.Gender(args.gender),
            countable=not args.uncountable,
            class_override=nm.NounClass(args.noun_class) if args.noun_class else None,
        )
        lines = [
            "\t".join((*factors, "-" if suffix is None else suffix, surface))
            for *factors, suffix, surface in nm.noun_paradigm(entry, table)
        ]
    _write_atomic([(args.out, "\n".join(lines) + "\n")])
    return 0


_ANNOTATE_WIDTH = {"noun": 2, "verb": 3, "both": 3}

_SURFACE = re.compile(sc.TOKEN_PART)  # a valid factored surface


def _annotation_line(sentence, annotated, width: int, where: str) -> str:
    """One output line: each token's surface, its factors, then null
    padding to `width`. In a sentence with a surface that fails the
    check, the first bad token is an error at `where` and its ID."""
    nulls = [(sc.NULL_FACTOR,) * (width - k) for k in range(width + 1)]
    ok = _SURFACE.fullmatch
    parts = []
    for surf, factors in annotated:
        if not ok(surf):
            _check_annotation(sentence, annotated, width, where)
        parts.append("|".join((surf, *factors, *nulls[len(factors)])))
    return " ".join(parts)


def _check_annotation(sentence, annotated, width: int, where: str) -> None:
    for token, (surf, factors) in zip(sentence, annotated):
        error = sc.token_error(surf, (*factors, *(sc.NULL_FACTOR,) * (width - len(factors))))
        if error:
            raise InputError(f"{where}, token {token.id}: {error}")


def cmd_annotate(args) -> int:
    from . import source_factors as sf

    pronouns = _data_table(args.pronouns, "pronouns.tsv")
    case_rules = _data_table(args.case_rules, "case_rules.tsv")
    tam_rules = _data_table(args.tam_rules, "tam_rules.tsv")
    sentences = sf.read_conllu(sc.read_lines(args.conllu), args.conllu)
    width = _ANNOTATE_WIDTH[args.mode]
    out_lines = []
    for n, sentence in enumerate(sentences, 1):
        annotated = sf.annotate_sentence(sentence, args.mode, pronouns, case_rules, tam_rules)
        out_lines.append(
            _annotation_line(sentence, annotated, width, f"{args.conllu}: sentence {n}")
        )
    _write_atomic([(args.out, "\n".join(out_lines) + "\n" if out_lines else "")])
    return 0


def cmd_build_dict(args) -> int:
    from . import dictionary_builder as db
    from . import noun_morph as nm
    from . import verb_morph as vm

    if args.kind == "noun":
        lexicon = nm.parse_noun_lexicon(sc.read_lines(args.lexicon), name=args.lexicon)
        dictionary = db.build_noun_dict(
            lexicon, _data_table(args.table, "noun_suffixes.tsv"), surface=args.surface)
    else:
        lexicon = vm.parse_verb_lexicon(sc.read_lines(args.lexicon), args.lexicon)
        dictionary = db.build_verb_dict(
            lexicon, _data_table(args.table, "verb_suffixes.tsv"), surface=args.surface)
    outputs = [(args.out, "".join(ln + "\n" for ln in dictionary.lines))]
    if args.failures:
        payload = {
            "schema_version": 1,
            "failures": [
                {
                    "row": f.index,
                    "english_root": f.english_root,
                    "hindi_root": f.hindi_root,
                    "error": f.error,
                }
                for f in dictionary.failures
            ],
        }
        outputs.append((args.failures, _json_text(payload)))
    _write_atomic(outputs)
    if dictionary.failures:
        print(f"warning: {len(dictionary.failures)} lexicon rows failed", file=sys.stderr)
    return 0


def cmd_inject(args) -> int:
    from . import corpus_inject as ci
    from . import dictionary_builder as db

    corpus = ci.parse_factored_corpus(
        sc.read_lines(args.source), sc.read_lines(args.target),
        auto_normalize=args.auto_normalize,
        source_name=args.source, target_name=args.target,
    )
    dictionary = db.parse_dictionary(sc.read_lines(args.dict), name=args.dict)
    out_corpus, report = ci.inject(corpus, dictionary, mode=args.mode)
    _write_atomic([
        (args.out_source, "".join(ln + "\n" for ln in out_corpus.source_lines())),
        (args.out_target, "".join(ln + "\n" for ln in out_corpus.target_lines())),
        (args.report, _report_text(report.to_dict(), args.format)),
    ])
    return 0


def cmd_sparsity(args) -> int:
    from . import corpus_inject as ci
    from . import dictionary_builder as db
    from . import evaluation as ev

    train = ci.parse_factored_corpus(
        sc.read_lines(args.train_source), sc.read_lines(args.train_target),
        source_name=args.train_source, target_name=args.train_target,
    )
    probe = ci.parse_factored_corpus(
        sc.read_lines(args.probe_source), sc.read_lines(args.probe_target),
        source_name=args.probe_source, target_name=args.probe_target,
    )
    report = ev.sparsity_report(train, probe, db.SCHEMES[args.scheme])
    _write_atomic([(args.out, _report_text(report.to_dict(), args.format))])
    return 0


def cmd_oov(args) -> int:
    from . import evaluation as ev

    tokens = [t for ln in sc.read_lines(args.tokens) for t in ln.split()]
    vocab = ev.VocabSet.from_tokens(
        t for ln in sc.read_lines(args.vocab) for t in ln.split()
    )
    report = ev.oov_count(tokens, vocab)
    _write_atomic([(args.out, _report_text(report.to_dict(), args.format))])
    return 0


def cmd_bleu(args) -> int:
    from . import evaluation as ev

    cands = [ln.split() for ln in sc.read_lines(args.candidates)]
    refs = [ln.split() for ln in sc.read_lines(args.references)]
    score = ev.bleu(cands, refs, smoothing=args.smoothing)
    _write_atomic([(args.out, _report_text(score.to_dict(), args.format))])
    return 0


def build_parser() -> _Parser:
    parser = _Parser(
        prog="morphinject",
        description="Morphology generation and corpus injection for factored MT training data.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("--out", help="output file (default: stdout)")

    p = sub.add_parser(
        "classify", help="predict noun inflection classes",
        description="Noun lexicon TSV: [english_root TAB] hindi_root TAB gender (m|f) "
                    "TAB countable (1|0) [TAB class override A-E]. Output: root TAB class.",
    )
    p.add_argument("--lexicon", required=True)
    p.add_argument("--bilingual", action="store_true",
                   help="lexicon rows start with an english_root column")
    add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser(
        "paradigm", help="generate one word's inflection paradigm",
        description="Nouns: 4 rows (number, case, suffix, surface) in sg-dir, sg-obl, "
                    "pl-dir, pl-obl order. Verbs: one row per grid cell "
                    "(tam, gender, number, person, suffix, surface).",
    )
    p.add_argument("--root", help="Hindi noun root")
    p.add_argument("--gender", choices=["m", "f"])
    p.add_argument("--uncountable", action="store_true",
                   help="mass/abstract noun (class A)")
    p.add_argument("--noun-class", choices=["A", "B", "C", "D", "E"],
                   help="override the predicted class")
    p.add_argument("--verb", action="store_true", help="generate a verb paradigm")
    p.add_argument("--stem", help="Hindi verb stem (infinitive minus ना)")
    p.add_argument("--table", help="suffix table TSV override")
    add_common(p)
    p.set_defaults(func=cmd_paradigm)

    p = sub.add_parser(
        "annotate", help="factor-annotate English CoNLL-U",
        description="Input: 10-column CoNLL-U, blank-line sentence separation, "
                    "# comments ignored. Output: one factored line per sentence; nouns "
                    "lemma|number|case, verbs lemma|number|person|tam, others padded "
                    "with null to a uniform width.",
    )
    p.add_argument("--conllu", required=True)
    p.add_argument("--mode", choices=["noun", "verb", "both"], default="both")
    p.add_argument("--pronouns", help="pronoun TSV (pronoun, person, number)")
    p.add_argument("--case-rules", help="ordered case rule TSV (rule, case)")
    p.add_argument("--tam-rules", help="ordered TAM rule TSV (rule, tam)")
    add_common(p)
    p.set_defaults(func=cmd_annotate)

    p = sub.add_parser(
        "build-dict", help="build a word-form dictionary from a bilingual lexicon",
        description="Noun lexicon TSV: english_root, hindi_root, gender (m|f), countable "
                    "(1|0), optional class override. Verb lexicon TSV: english_root, "
                    "hindi_stem, optional tam[:g][:num][:pers]=surface overrides. Output: "
                    "one entry per line, source TAB target, factors joined with '|'.",
    )
    p.add_argument("--kind", choices=["noun", "verb"], required=True)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--table", help="suffix table TSV override")
    p.add_argument("--surface", action="store_true",
                   help="strip to surface-only entries (phrase-based variant)")
    p.add_argument("--failures", help="write per-row failure report JSON here")
    add_common(p)
    p.set_defaults(func=cmd_build_dict)

    p = sub.add_parser(
        "inject", help="append dictionary entries to a parallel corpus",
        description="Corpus files: one sentence per line, tokens space-separated, "
                    "factors '|'-separated, LF endings only (a CR is rejected), no "
                    "trailing whitespace. Entries are appended after the original lines; "
                    "exact duplicates are skipped.",
        epilog="JSON report keys: schema_version, entries_offered, entries_added, "
               "duplicates_skipped, normalization_applied.",
    )
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--dict", required=True)
    p.add_argument("--mode", choices=["factored", "surface"], default="factored")
    p.add_argument("--auto-normalize", action="store_true",
                   help="pad ragged corpus factor widths instead of failing")
    p.add_argument("--out-source", required=True)
    p.add_argument("--out-target", required=True)
    p.add_argument("--report", help="write the injection report here (default: stdout)")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_inject)

    p = sub.add_parser(
        "sparsity", help="translation/generation-step coverage report",
        description="Train and probe are factored parallel corpora; --scheme picks the "
                    "factor layout (noun: root|number|case -> surface|root|suffix; verb: "
                    "root|number|person|tam -> surface|root|suffix; surface: bare tokens). "
                    "Every token of each probe side is projected, source tokens for the "
                    "translation steps and target tokens for the generation steps, so a "
                    "probe line pair need not hold equal token counts; each probe token "
                    "must have exactly the scheme's width on its side.",
        epilog="JSON report keys: schema_version, translation_steps, generation_steps; "
               "each step has step, seen, unseen, unseen_tuples.",
    )
    p.add_argument("--train-source", required=True)
    p.add_argument("--train-target", required=True)
    p.add_argument("--probe-source", required=True)
    p.add_argument("--probe-target", required=True)
    p.add_argument("--scheme", choices=["noun", "surface", "verb"], required=True)
    p.add_argument("--format", choices=["text", "json"], default="text")
    add_common(p)
    p.set_defaults(func=cmd_sparsity)

    p = sub.add_parser(
        "oov", help="out-of-vocabulary count",
        description="Both files are tokenized as-is with Python's str.split() (any run "
                    "of whitespace separates tokens). Use training source "
                    "text as --vocab for pre-translation coverage, or training target "
                    "text with translation output as --tokens for output OOV.",
        epilog="JSON report keys: schema_version, total_tokens, oov_tokens, oov_types.",
    )
    p.add_argument("--tokens", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--format", choices=["text", "json"], default="text")
    add_common(p)
    p.set_defaults(func=cmd_oov)

    p = sub.add_parser(
        "bleu", help="corpus-level BLEU-4",
        description="One sentence per line, tokenized with Python's str.split() (the "
                    "standard whitespace-tokenized BLEU); single reference per "
                    "candidate, lines aligned by number.",
        epilog="JSON report keys: schema_version, score, precisions, brevity_penalty, "
               "candidate_length, reference_length.",
    )
    p.add_argument("--candidates", required=True)
    p.add_argument("--references", required=True)
    p.add_argument("--smoothing", action="store_true")
    p.add_argument("--format", choices=["text", "json"], default="text")
    add_common(p)
    p.set_defaults(func=cmd_bleu)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal invariant violation
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
