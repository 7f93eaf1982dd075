"""The lexer, reading loops and errors shared by both readers.

lex splits a window of the text, in one call of a compiled regex, into
blanks and tokens by turns, so a token is at each odd index.  A token is
a word (a run of str.isalnum characters: [^\\W_]) or one other character
that is not blank.  Blanks are whitespace (\\s is exactly str.isspace) and
"#" comments to the end of their line, which lex first replaces by as many
spaces.  A window ends before a "(" or "," some thousands of characters
on, as a Cut that reads as that character, or at the end of the text;
the readers lex on from a Cut where they take its character.  A token's
offset, counted back from its window's end, is worked out only for an
error, for where parse_sexpr stopped, and for a "[" that begins a line.
"""

import re
from dataclasses import dataclass

from .errors import ParseError, ParseErrorKind

_SPLIT = re.compile(r"([^\W_]+|\S)").split
_COMMENT = re.compile(r"#[^\n]*")
_CUT = re.compile(r"[(,]").search
_WINDOW = 4096  # characters lexed at a time, at least


def lex(text, start=0):
    """The parts of the first window of text from offset start."""
    if "#" in text:
        text = text[:start] + _COMMENT.sub(lambda m: " " * len(m[0]), text[start:])
    return window(text, start)


def window(text, start):
    """The parts of text, which holds no comment, from offset start to a Cut
    _WINDOW characters on or more, or to its end, and then "" for that."""
    m = _CUT(text, start + _WINDOW)
    parts = _SPLIT(text[start : m.start()] if m else text[start:])
    parts.append(Cut(text, m.start()) if m else "")
    return parts


class Cut(str):
    """The part that ends a window before the text ends: it reads as the "("
    or "," at offset at of text, where window(text, at) begins the next."""

    def __new__(cls, text, at):
        cut = str.__new__(cls, text[at])
        cut.text, cut.at = text, at
        return cut


def read_all(text, parse, how):
    """All that parse(text, parts, i, how) reads, from each parts[i] on, in turn."""
    parts = lex(text)
    values = []
    i = 1
    while parts[i]:
        value, i = parse(text, parts, i, how)
        values.append(value)
    return values


def read_one(text, parse, how):
    """What parse reads from text, as read_all, which must be one thing."""
    parts = lex(text)
    if not parts[1]:
        raise error_at(text, parts, 1, ParseErrorKind.EMPTY_INPUT)
    value, i = parse(text, parts, 1, how)
    if parts[i]:
        detail = "text continues after a complete expression"
        raise error_at(text, parts, i, ParseErrorKind.TRAILING_INPUT, detail)
    return value


@dataclass(frozen=True)
class SourcePosition:
    """1-based line and column of a character in the input text."""

    line: int
    column: int

    def __str__(self):
        return f"{self.line}:{self.column}"


def offset(text, parts, i):
    """The offset in text of parts[i], counted back from the window's end."""
    return (parts[-1].at if parts[-1] else len(text)) - sum(map(len, parts[i:-1]))


def error_at(text, parts, i, kind, detail=""):
    """The ParseError at parts[i] of text; only "\\n" ends a line."""
    at = offset(text, parts, i)
    line = text.count("\n", 0, at) + 1
    column = at - text.rfind("\n", 0, at)
    return ParseError(kind, SourcePosition(line, column), detail)


def bad_start(text, parts, i, dot, words=False):
    """The error for parts[i], which begins no expression: dot is the detail
    for a "."; with words, a word that begins with a letter is mixed-case."""
    tok = parts[i]
    if not tok:
        kind, detail = ParseErrorKind.UNBALANCED_PAREN, "unexpected end of input"
    elif words and tok[0].isalpha():
        kind, detail = ParseErrorKind.MIXED_CASE, repr(tok)
    elif tok == ".":
        kind, detail = ParseErrorKind.DOT_MISUSE, dot
    else:
        kind, detail = ParseErrorKind.UNEXPECTED_CHAR, repr(tok[0])
    return error_at(text, parts, i, kind, detail)
