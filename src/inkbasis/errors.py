"""Exception types shared across the package, and the text reader of its file formats."""

import io


class InkBasisError(Exception):
    """Base class for all library-specific errors."""


class DegreeTooLargeError(InkBasisError):
    """Polynomial degree exceeds a conditioning guard."""


class DomainError(InkBasisError):
    """Interval or parameter lies outside [-1, 1]."""


class BasisMismatchError(InkBasisError):
    """Operands are expressed in incompatible bases."""


class UnsupportedOrderError(InkBasisError):
    """Derivative order outside the implemented range {0, 1}."""


class LengthMismatchError(InkBasisError):
    """Coefficient or point counts do not line up."""


class ParseError(InkBasisError):
    """Malformed input data.

    Attributes:
        line: 1-based line number when known, else None.
        reason: human-readable description.
    """

    def __init__(self, reason: str, line: int | None = None):
        self.line = line
        self.reason = reason
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{reason}")


class InvalidParameterError(InkBasisError, ValueError):
    """A numeric parameter is non-finite or outside its valid range."""


class InvalidDataError(InkBasisError, ValueError):
    """Input data lacks what the operation needs: strokes, traces or labels."""


class DegenerateTraceError(InkBasisError):
    """Trace has zero arc length (fewer than two distinct points)."""


class EmptyModelSetError(InkBasisError):
    """Matching requested against an empty model collection."""


class EmptyTrainingSetError(InkBasisError):
    """Classification requested with no training items."""


def open_utf8(path) -> io.StringIO:
    """The text of a UTF-8 file with universal newlines, as a text-mode open gives.

    Bytes that are not UTF-8 raise ParseError with their line number.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"not UTF-8 text: {exc.reason}", line) from None
    return io.StringIO(text, newline=None)
