"""The package's errors: one class per exit status of the command line.

``InputError`` covers anything wrong with user-supplied files or
arguments (exit code 2), while ``NumericalError`` covers estimation or
training failures on data that was structurally fine (exit code 3).
:class:`MalformedRow` is the input error of one line of a file. Each
error's message says what went wrong; no caller tells errors apart by
anything finer than these classes.
"""


class InputError(Exception):
    """Invalid input data, schema, or arguments."""


class NumericalError(Exception):
    """Numerical failure: non-convergence, divergence, non-finite values."""


class MalformedRow(InputError):
    """A bad line ``line`` of the file at ``path``, for ``reason``."""

    def __init__(self, path, line, reason):
        self.path = path
        self.line = line
        self.reason = reason
        super().__init__(f"{path}:{line}: {reason}")
