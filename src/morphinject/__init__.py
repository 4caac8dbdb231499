"""morphinject: Hindi morphology generation and corpus injection for
factored MT training data."""

from .noun_morph import (
    Case,
    Gender,
    NounClass,
    NounLexEntry,
    Number,
    SuffixTable,
    classify_noun,
    default_suffix_table,
    join_noun,
    noun_paradigm,
)
from .verb_morph import (
    Person,
    TamSlot,
    VerbFactors,
    VerbLexEntry,
    VerbSuffixTable,
    default_verb_suffix_table,
    join_verb,
    paradigm_space,
    verb_paradigm,
)
from .dictionary_builder import (
    DictEntry,
    FactorScheme,
    FactoredToken,
    WordFormDictionary,
    build_noun_dict,
    build_verb_dict,
    normalize_factors,
    strip_to_surface,
)
from .corpus_inject import (
    InjectionReport,
    ParallelCorpus,
    emit_factored_corpus,
    inject,
    parse_factored_corpus,
)
from .evaluation import (
    BleuScore,
    OovReport,
    SparsityReport,
    VocabSet,
    bleu,
    oov_count,
    oov_reduction,
    sparsity_report,
)

__version__ = "0.1.0"
