"""Blanks and source positions shared by the S-expression and F-expression readers.

The readers work on offsets into the text and turn an offset into a line
and a column only when they report an error.
"""

from dataclasses import dataclass

from .errors import ParseError

# Whitespace and "#" comments, which run to the end of their line.  In a
# str pattern \s is exactly str.isspace, code point for code point.
BLANKS = r"(?:\s|#[^\n]*)*"


@dataclass(frozen=True)
class SourcePosition:
    """1-based line and column of a character in the input text."""

    line: int
    column: int

    def __str__(self):
        return f"{self.line}:{self.column}"


def error_at(text, offset, kind, detail=""):
    """The ParseError at an offset of text; only "\\n" ends a line."""
    line = text.count("\n", 0, offset) + 1
    column = offset - text.rfind("\n", 0, offset)
    return ParseError(kind, SourcePosition(line, column), detail)
