"""morphinject: Hindi morphology generation and corpus injection for
factored MT training data.

The public names below load their module on first access (PEP 562), so
importing the package, or one of its modules, loads only what is used.
"""

from importlib import import_module

_EXPORTS = {
    "noun_morph": (
        "NounLexEntry",
        "SuffixTable",
        "classify_noun",
        "join_noun",
        "load_suffix_table",
        "noun_paradigm",
    ),
    "verb_morph": (
        "VerbLexEntry",
        "VerbSuffixTable",
        "join_verb",
        "load_verb_suffix_table",
        "verb_paradigm",
    ),
    "dictionary_builder": (
        "FactorScheme",
        "WordFormDictionary",
        "build_noun_dict",
        "build_verb_dict",
        "strip_to_surface",
    ),
    "corpus_inject": (
        "InjectionReport",
        "ParallelCorpus",
        "inject",
        "parse_factored_corpus",
    ),
    "evaluation": (
        "BleuScore",
        "OovReport",
        "SparsityReport",
        "bleu",
        "oov_count",
        "oov_reduction",
        "sparsity_report",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
