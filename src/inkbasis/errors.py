"""The package's error contract, the text and JSON readers of its file formats,
and the typed conversion of a value to an enum member.

Every error is an InkBasisError: a ParseError, an InvalidParameterError, or an
InvalidDataError, of which BasisMismatchError is one; the last three are ValueErrors.
"""

import io
import json


class InkBasisError(Exception):
    """Base class of every error the library raises; the CLI exits 2 on one."""


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
    """A parameter of the wrong type or out of range: a degree, order, k, ratio or input path."""


class InvalidDataError(InkBasisError, ValueError):
    """Input data the operation cannot use: too few points or items, or mismatched sizes."""


class BasisMismatchError(InvalidDataError):
    """Operands are expressed in incompatible bases."""


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


def _json_value(text: str, line: int | None = None):
    """json.loads(text); text that is not JSON raises ParseError at line, else at the decoder's."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc.msg}", line or exc.lineno) from None
    except ValueError as exc:  # an integer past int's digit limit
        raise ParseError(f"malformed JSON: {exc}", line) from None


def _enum_member(enum_type, value, what: str):
    """enum_type(value); a value that names none of its members raises InvalidParameterError."""
    try:
        return enum_type(value)
    except ValueError:
        raise InvalidParameterError(
            f"unknown {what} {value!r}; expected one of {[m.value for m in enum_type]}"
        ) from None
