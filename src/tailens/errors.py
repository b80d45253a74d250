"""Error taxonomy shared across the package.

Three kinds of failure, so callers (and the CLI exit-code mapping) can tell
bad arguments apart from bad files apart from numerical blowups.
"""

import contextlib
import functools


class InputError(ValueError):
    """An argument violates a precondition (bad shape, range, or combination).
    Carries the 0-based index of the offending row when there is one."""

    def __init__(self, message, row=None):
        super().__init__(message if row is None else f"row {row}: {message}")
        self.reason, self.row = message, row


class ParseError(ValueError):
    """A file could not be parsed. Carries a 1-based line number when known."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


def utf8_error(path) -> ParseError:
    """The error naming the first line of the file at path that is not UTF-8:
    the first line that changes when its undecodable bytes are dropped."""
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.decode("utf-8", "ignore").encode() != line:
                return ParseError("not UTF-8 text", line=lineno)


@contextlib.contextmanager
def naming(path):
    """ParseErrors raised inside, and text that is not UTF-8, become ParseErrors
    that begin with path."""
    try:
        try:
            yield
        except UnicodeDecodeError:
            raise utf8_error(path) from None
    except ParseError as err:
        err.args = (f"{path}: {err}",)
        raise


def names_file(load):
    """Decorate a file loader so that its errors name the file, as `naming` does."""

    @functools.wraps(load)
    def wrapped(path, *args, **kwargs):
        with naming(path):
            return load(path, *args, **kwargs)

    return wrapped


class NumericError(ArithmeticError):
    """A computation produced a non-finite value. Carries the offending
    sample's position in its batch when known."""

    def __init__(self, message, sample=None):
        super().__init__(message if sample is None else f"{message} at sample index {sample}")
        self.reason, self.sample = message, sample
