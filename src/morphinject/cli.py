"""Command-line surface: one subcommand per pipeline stage.

Exit codes: 0 success, 1 input/validation error (one-line diagnostic on
stderr), 2 internal error. Every exception the package raises on purpose
is an InputError, the one exception class it defines, so exit 2 means an
exception nobody planned for: a bug. Every input file is read by
script_core.read_lines: UTF-8, split on LF only, a CR and a leading byte
order mark rejected. Every output is written by _write_atomic: each
output file is staged in a temporary file beside it, or beside its
target if it is a symlink, which is written through as open() would
write through it; stdout and an existing file that is not a regular one
(a FIFO, a device) are written in place once every temp is staged; and
the temps are renamed last, so if any output cannot be written none is,
and no temp is left behind. A new output gets the mode open() would give
it and a file written over keeps its own. Each data table is named by its
flag (--table, --pronouns, --case-rules, --tam-rules), which the
subcommand passes to its module's load_*; with no flag it loads the
packaged table. `inject` injects the dictionary it reads: a surface-only
injection is `build-dict --surface`, then `inject`.

A subcommand loads only the layers it runs, importing each when it is
called: `build-dict` only the morphology of its --kind, and `inject`
and `sparsity` no morphology and no annotator. No call loads the
standard library's data class, inspect, log, typing, pathlib or
tempfile modules (argparse loads shutil itself), and only a call that
writes JSON loads json; tests/test_imports.py pins the modules of every
subcommand. `annotate` loads its three tables, compiles the rules into
one annotation_tables record per call, and passes it to the public
annotate_sentence for each sentence; the CLI names no private of another
module. Every factor comes from a loaded table, which checked each value
against its closed set, so annotate checks no factor: it checks each
distinct surface once per call, and in a sentence that holds a bad one
the error names the first token whose surface is bad, with
script_core.token_error's message for it. The CLI alone
renders the report records, plain named tuples, as text or JSON.

A call that runs its process's own command line, main() with no argv
(the `morphinject` script, `python -m morphinject.cli`), registers
gc.freeze with atexit before it parses, so that --help and a usage error
get it too. The interpreter's last full collection then skips the heap
that the imports and the call built: it would walk all of it to free
memory that the exiting process gives back anyway, which takes a few
milliseconds of every launch. An in-process main(argv) registers
nothing and leaves its host's collector as it was.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import os
import stat
import sys
from itertools import count
from operator import itemgetter

from . import script_core as sc
from .errors import InputError


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # input errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


def _stage(path: str, name: str) -> tuple[str, int]:
    """A new temp file in the directory of `path`, .morphinject.PID.N,
    and its descriptor, open for writing with the mode open() gives: 0666
    less the umask. The temp's name is short whatever the length of
    `path`'s. An error names the output `name`."""
    for n in count():
        tmp = os.path.join(os.path.dirname(path), f".morphinject.{os.getpid()}.{n}")
        try:
            return tmp, os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except FileExistsError:  # left behind by a call that was killed
            pass
        except OSError as exc:
            raise InputError(f"{name}: cannot write: {exc.strerror}") from None


def _write_in_place(path: str | None, text: str) -> None:
    """Write to stdout (a None path) or to an existing file that is not
    a regular one, such as a FIFO. Shutdown flushes stdout again, so a
    stdout that cannot be written is pointed at os.devnull."""
    try:
        if path is None:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
    except OSError as exc:
        if path is None:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        raise InputError(f"{path or '<stdout>'}: cannot write: {exc.strerror}") from None


def _write_atomic(outputs: list[tuple[str | None, str]]) -> None:
    """Write every (path, text) or none. Each regular file is staged in a
    temp file beside it, or beside the file a symlink resolves to, so
    that the rename writes through the link; then stdout (a None path)
    and every existing file that is not a regular one are written in
    place; and only then are the temps renamed. If anything fails, every
    temp is removed. Two paths that name one file are an error, raised
    before anything is staged. A new file gets the mode open() gives it,
    0666 less the umask, and a file written over keeps its mode bits."""
    named = set()
    for path, _ in outputs:
        if path is not None:
            resolved = os.path.realpath(path)
            if resolved in named:
                raise InputError(f"{path}: named by two outputs")
            named.add(resolved)
    staged: list[tuple[str, str]] = []
    in_place = []
    try:
        for path, text in outputs:
            try:  # an empty path names the current directory
                mode = None if path is None else os.stat(path or os.curdir).st_mode
            except OSError:  # no file to keep the mode of
                mode = None
            if mode is not None and stat.S_ISDIR(mode):
                raise InputError(f"{path}: cannot write: is a directory")
            if path is None or mode is not None and not stat.S_ISREG(mode):
                in_place.append((path, text))
                continue
            target = os.path.realpath(path) if os.path.islink(path) else path
            tmp, fd = _stage(target, path)
            staged.append((tmp, target))
            with open(fd, "w", encoding="utf-8", newline="\n") as fh:
                if mode is not None:
                    os.fchmod(fd, stat.S_IMODE(mode))
                fh.write(text)
        for path, text in in_place:
            _write_in_place(path, text)
    except BaseException:
        for tmp, _ in staged:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise
    for tmp, path in staged:
        os.replace(tmp, path)


def _lines_text(lines: list[str]) -> str:
    """The text of a file of these lines, each ending in "\n"."""
    return "\n".join(lines) + "\n" if lines else ""


# the first key of every JSON report and --failures file, and of a text report
_SCHEMA = {"schema_version": 1}


def _json_text(payload: dict) -> str:
    import json  # only the calls that write JSON load it

    return json.dumps(payload, ensure_ascii=False, indent=2) + "\n"


def _plain(value):
    """A report field as JSON holds it: a named tuple as a dict of its
    fields, a list or other tuple as a list."""
    if hasattr(value, "_asdict"):
        return {key: _plain(field) for key, field in value._asdict().items()}
    return list(map(_plain, value)) if isinstance(value, (list, tuple)) else value


def _report_text(report: tuple, fmt: str) -> str:
    """A report record as JSON, or as text: one `key: value` line per
    field, and one `key: k=v, ...` line per record in a list of them."""
    fields = {**_SCHEMA, **_plain(report)}
    if fmt == "json":
        return _json_text(fields)
    lines = []
    for key, value in fields.items():
        if isinstance(value, list) and value and isinstance(value[0], dict):
            for sub in value:
                lines.append(f"{key}: " + ", ".join(f"{k}={v}" for k, v in sub.items()))
        else:
            lines.append(f"{key}: {value}")
    return "\n".join(lines) + "\n"


def _report_keys(keys: str) -> str:
    """A --help epilog that lists the keys of a JSON report."""
    return f"JSON report keys: {', '.join(_SCHEMA)}, {keys}."


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
        lines.append(f"{prefix}{noun.entry.hindi_root}\t{cls}")
    _write_atomic([(args.out, _lines_text(lines))])
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

        if args.stem is None:
            raise InputError("--stem is required for verb paradigms")
        table = vm.load_verb_suffix_table(args.table)
        rows = vm.verb_paradigm(vm.VerbLexEntry(args.stem, ""), table)
    else:
        if args.root is None or args.gender is None:
            raise InputError("--root and --gender are required for noun paradigms")
        from . import noun_morph as nm

        table = nm.load_suffix_table(args.table)
        entry = nm.NounLexEntry(args.root, args.gender, not args.uncountable, args.noun_class)
        rows = nm.noun_paradigm(entry, table)
    lines = ["\t".join((*factors, "-" if suffix is None else suffix, surface))
             for *factors, suffix, surface in rows]
    _write_atomic([(args.out, _lines_text(lines))])
    return 0


_ANNOTATE_WIDTH = {"noun": 2, "verb": 3, "both": 3}


class _Tails(dict):
    """Factor tuple -> its "|f1|f2|null" tail, padded with null to
    `width`, built on the first token that has it, and the surfaces
    already found valid. One annotate call shares one. The factors are
    values the tables checked at load, so a tail is not checked."""

    def __init__(self, width: int):
        super().__init__()
        self.width = width
        self.surfaces: set[str] = set()

    def __missing__(self, factors: tuple[str, ...]) -> str:
        tail = self[factors] = "|" + "|".join(
            (*factors, *(sc.NULL_FACTOR,) * (self.width - len(factors))))
        return tail


def _annotation_line(sentence, annotated, tails: _Tails, where: str) -> str:
    """One output line: each token's surface and its factor tail. Each
    distinct surface is checked once per `tails`; if a sentence holds a
    bad one, its first token with a bad surface is an error at `where`
    and its ID, with sc.token_error's message for the token."""
    known = tails.surfaces
    new = ()
    if not known.issuperset(map(itemgetter(0), annotated)):
        new = set(map(itemgetter(0), annotated)).difference(known)
    valid = sc.token_match(0)
    if all(map(valid, new)):
        line = " ".join([surface + tails[factors] for surface, factors in annotated])
        known.update(new)
        return line
    token, (surface, factors) = next(
        (token, pair) for token, pair in zip(sentence, annotated) if not valid(pair[0]))
    factors = (*factors, *(sc.NULL_FACTOR,) * (tails.width - len(factors)))
    raise InputError(f"{where}, token {token[0]}: {sc.token_error(surface, factors)}")


def cmd_annotate(args) -> int:
    from . import source_factors as sf

    tables = sf.annotation_tables(sf.load_pronoun_table(args.pronouns),
                                  sf.load_case_rules(args.case_rules),
                                  sf.load_tam_rules(args.tam_rules))
    tails = _Tails(_ANNOTATE_WIDTH[args.mode])
    out_lines = [
        _annotation_line(
            sentence, sf.annotate_sentence(sentence, args.mode, tables),
            tails, f"{args.conllu}: sentence {n}")
        for n, sentence in enumerate(sf.read_conllu(sc.read_lines(args.conllu), args.conllu), 1)
    ]
    _write_atomic([(args.out, _lines_text(out_lines))])
    return 0


def cmd_build_dict(args) -> int:
    from . import dictionary_builder as db

    if args.kind == "noun":
        from . import noun_morph as nm

        lexicon = nm.parse_noun_lexicon(sc.read_lines(args.lexicon), name=args.lexicon)
        table = nm.load_suffix_table(args.table)
        dictionary = db.build_noun_dict(lexicon, table, surface=args.surface)
    else:
        from . import verb_morph as vm

        lexicon = vm.parse_verb_lexicon(sc.read_lines(args.lexicon), args.lexicon)
        table = vm.load_verb_suffix_table(args.table)
        dictionary = db.build_verb_dict(lexicon, table, surface=args.surface)
    outputs = [(args.out, _lines_text(dictionary.lines))]
    if args.failures:
        failures = [dict(zip(("row", "english_root", "hindi_root", "error"), f))
                    for f in dictionary.failures]
        outputs.append((args.failures, _json_text({**_SCHEMA, "failures": failures})))
    _write_atomic(outputs)
    if dictionary.failures:
        print(f"warning: {len(dictionary.failures)} lexicon rows failed", file=sys.stderr)
    return 0


def cmd_inject(args) -> int:
    from . import corpus_inject as ci
    from . import dictionary_builder as db

    source, target = sc.read_lines(args.source), sc.read_lines(args.target)
    corpus = ci.parse_factored_corpus(
        source, target, auto_normalize=args.auto_normalize,
        source_name=args.source, target_name=args.target,
    )
    dictionary = db.parse_dictionary(sc.read_lines(args.dict), args.dict)
    out_corpus, report = ci.inject(corpus, dictionary)
    _write_atomic([
        (args.out_source, _lines_text(out_corpus.source_lines())),
        (args.out_target, _lines_text(out_corpus.target_lines())),
        (args.report, _report_text(report, args.format)),
    ])
    if args.auto_normalize:  # the lines that padding rewrote, per side
        src_padded = sum(map(str.__ne__, source, corpus.src))
        tgt_padded = sum(map(str.__ne__, target, corpus.tgt))
        if src_padded or tgt_padded:
            print(f"warning: --auto-normalize padded {src_padded} source and {tgt_padded} "
                  "target lines", file=sys.stderr)
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
    _write_atomic([(args.out, _report_text(report, args.format))])
    return 0


def cmd_oov(args) -> int:
    from . import evaluation as ev

    tokens = [t for ln in sc.read_lines(args.tokens) for t in ln.split()]
    vocab = {t for ln in sc.read_lines(args.vocab) for t in ln.split()}
    report = ev.oov_count(tokens, vocab)
    _write_atomic([(args.out, _report_text(report, args.format))])
    return 0


def cmd_bleu(args) -> int:
    from . import evaluation as ev

    cands = [ln.split() for ln in sc.read_lines(args.candidates)]
    refs = [ln.split() for ln in sc.read_lines(args.references)]
    score = ev.bleu(cands, refs, smoothing=args.smoothing)
    _write_atomic([(args.out, _report_text(score, args.format))])
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
    p.add_argument("--gender", choices=sc.GENDERS)
    p.add_argument("--uncountable", action="store_true",
                   help="mass/abstract noun (class A)")
    p.add_argument("--noun-class", choices=("A", "B", "C", "D", "E"),
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
        epilog=_report_keys(
            "entries_offered, entries_added, duplicates_skipped, normalization_applied"),
    )
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--dict", required=True)
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
        epilog=_report_keys("translation_steps, generation_steps; "
                            "each step has step, seen, unseen, unseen_tuples"),
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
        epilog=_report_keys("total_tokens, oov_tokens, oov_types"),
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
        epilog=_report_keys(
            "score, precisions, brevity_penalty, candidate_length, reference_length"),
    )
    p.add_argument("--candidates", required=True)
    p.add_argument("--references", required=True)
    p.add_argument("--smoothing", action="store_true")
    p.add_argument("--format", choices=["text", "json"], default="text")
    add_common(p)
    p.set_defaults(func=cmd_bleu)

    return parser


def main(argv=None) -> int:
    if argv is None:  # this process's own command line: see the module docstring
        atexit.register(gc.freeze)
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
