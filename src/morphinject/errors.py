"""The package's one exception type.

Every error the package raises on purpose is an InputError, and its
message locates it (file:line where there is one); the CLI exits 1 on
it. Anything else escaping a subcommand is an internal error (exit 2).
"""


class InputError(Exception):
    """Bad input data or arguments: the caller can fix these."""
