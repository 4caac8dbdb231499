"""Exception types shared across the toolkit.

Input/validation problems raise InputError subclasses (CLI exit code 1);
anything else escaping a subcommand is treated as an internal error
(exit code 2).
"""


class MorphinjectError(Exception):
    """Base class for all toolkit errors."""


class InputError(MorphinjectError):
    """Bad input data or arguments: the caller can fix these."""


# --- script_core ---

class EmptyInput(InputError):
    pass


class NonDevanagariContent(InputError):
    pass


# --- noun_morph ---

class EmptyRoot(InputError):
    pass


class IllegalSuffixForClass(InputError):
    pass


# --- source_factors ---

class NotANoun(InputError):
    pass


class NotAVerb(InputError):
    pass


# --- corpus_inject ---

class LineCountMismatch(InputError):
    pass


class RaggedFactorWidth(InputError):
    pass


class MalformedToken(InputError):
    pass


class WidthIncompatible(InputError):
    pass


# --- evaluation ---

class ZeroBaseline(InputError):
    pass


class LengthMismatch(InputError):
    pass


class EmptyCorpus(InputError):
    pass
