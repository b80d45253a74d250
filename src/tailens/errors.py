"""Error taxonomy shared across the package.

Three kinds of failure, so callers (and the CLI exit-code mapping) can tell
bad arguments apart from bad files apart from numerical blowups.
"""

import contextlib


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


def open_text(path):
    """The file at path as UTF-8 text, a leading BOM skipped. Lines end at LF, CRLF or
    a lone CR; a byte that is not UTF-8 reads as a lone surrogate, which `utf8` rejects."""
    return open(path, encoding="utf-8-sig", errors="surrogateescape")


def utf8(line: str, lineno: int) -> str:
    """line, unless it holds a byte that is not UTF-8: a ParseError naming lineno."""
    try:
        line.encode()
    except UnicodeEncodeError:
        raise ParseError("not UTF-8 text", line=lineno) from None
    return line


@contextlib.contextmanager
def naming(path):
    """ParseErrors raised inside become ParseErrors that begin with path."""
    try:
        yield
    except ParseError as err:
        err.args = (f"{path}: {err}",)
        raise


class NumericError(ArithmeticError):
    """A computation produced a non-finite value. Carries the offending
    sample's position in its batch when known."""

    def __init__(self, message, sample=None):
        super().__init__(message if sample is None else f"{message} at sample index {sample}")
        self.reason, self.sample = message, sample
