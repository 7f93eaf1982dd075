"""Reading and printing S-expressions in the two concrete dialects.

aim8:    atoms, the bare null list () and comma-separated lists, e.g.
         (A, B, (C)).  Dots are not part of the notation at all.
classic: atoms (NIL among them), dotted pairs (A . B), and space-separated
         list sugar (A B C) for chains ending in NIL.

Both readers take commas and whitespace interchangeably as separators and
skip "#" comments to end of line.  The printers are canonical: ", " between
elements in aim8; single spaces, maximal list sugar and a dot only for an
improper tail in classic.  Reading a canonical printout yields the original
value, and printing a freshly parsed text is idempotent after one round.

The reader takes each token in one match of a compiled regex, with the
blanks and comments before it and the comma before it, if any: an atom,
or a single character.  So an element and the separator in front of it
cost one match.  A comma is taken only directly after an element of a
list; anywhere else it is the unexpected character it always was.  The
reader keeps one frame per open list on its own stack, so any nesting
depth reads, and works on offsets into the text; a position is worked
out only for an error.  A closed list becomes its cells, or its pairs,
in one call of a chain builder of the values module, the one module
that makes cells; the printers are that module's _text walk.
"""

import re

from .errors import ParseErrorKind
from .scanner import BLANKS, error_at
from .values import NIL, NULL, Dialect, Symbol, _SYMBOLS, _list, _pairs, _text
from .values import CYCLE_MARKER  # noqa: F401  (what the printers write at a cycle)

# The comma before a token, with the blanks after it, if there is one, and
# the token: an atom, one other character, or "" at the end of the text.
# Group 1 starts where the blanks before it end, at the comma if any.
_TOKEN = re.compile(
    BLANKS + r"((?:," + BLANKS + r")?)([A-Z][A-Z0-9]*|.|)", re.S
).match
_DOT = object()  # the last element of a classic list whose tail comes next

_END = ParseErrorKind.UNBALANCED_PAREN, "unexpected end of input"
_UNCLOSED = ParseErrorKind.UNBALANCED_PAREN, "unclosed '('"
_DOT_FIRST = ParseErrorKind.DOT_MISUSE, "dot before any list element"
_DOT_LAST = ParseErrorKind.DOT_MISUSE, "dot must be followed by exactly one expression"
_AFTER_TAIL = ParseErrorKind.DOT_MISUSE, "more than one expression after dot"
_SEP_CLOSE = ParseErrorKind.UNEXPECTED_CHAR, "')' directly after a separator"
_COMMA = ParseErrorKind.UNEXPECTED_CHAR, "','"  # a comma where no element ends


def read_sexpr(text: str, dialect=Dialect.AIM8):
    """Parse exactly one S-expression from text."""
    dialect = Dialect(dialect)
    m = _TOKEN(text)
    if not (m[1] or m[2]):
        raise error_at(text, m.start(2), ParseErrorKind.EMPTY_INPUT)
    value, pos = parse_sexpr(text, m.start(1), dialect)
    m = _TOKEN(text, pos)
    if m[1] or m[2]:
        raise error_at(
            text,
            m.start(1),
            ParseErrorKind.TRAILING_INPUT,
            "text continues after a complete expression",
        )
    return value


def read_sexprs(text: str, dialect=Dialect.AIM8):
    """Parse a whole sequence of S-expressions (a .sexp file)."""
    dialect = Dialect(dialect)
    values = []
    pos = 0
    while True:
        m = _TOKEN(text, pos)
        if not (m[1] or m[2]):
            return values
        value, pos = parse_sexpr(text, m.start(1), dialect)
        values.append(value)


def parse_sexpr(text: str, pos: int, dialect: Dialect):
    """Parse one expression at offset pos; return it and the offset after it.

    Exposed so the F-expression reader can parse embedded constants from
    the same text.  m is always the match of the token to act on next; a
    comma in it is taken only where it ends an element of a list.
    """
    classic = dialect is Dialect.CLASSIC
    stack = []  # the elements so far of each open list, innermost last
    m = _TOKEN(text, pos)
    if m[1]:
        raise error_at(text, m.start(1), *_COMMA)
    while True:
        tok = m[2]
        pos = m.end()
        if "A" <= tok < "[":
            value = _SYMBOLS.get(tok) or Symbol(tok)
        elif tok == "(":
            m = _TOKEN(text, pos)
            if m[1]:
                raise error_at(text, m.start(1), *_COMMA)
            if m[2] != ")":
                stack.append([])
                continue
            value = NIL if classic else NULL
            pos = m.end()
        elif tok == "." and classic and stack and _DOT not in stack[-1][-1:]:
            if not stack[-1]:
                raise error_at(text, m.start(2), *_DOT_FIRST)
            m = _TOKEN(text, pos)
            if m[1]:
                raise error_at(text, m.start(1), *_COMMA)
            if m[2] == ")":
                raise error_at(text, m.start(2), *_DOT_LAST)
            stack[-1].append(_DOT)
            continue
        else:
            raise _bad_start(text, m.start(2), tok, classic)
        # value is complete: close each list it completes
        while stack:
            items = stack[-1]
            m = _TOKEN(text, pos)
            tok = m[2]
            if classic and items and items[-1] is _DOT:
                if m[1] or tok != ")":
                    error = _AFTER_TAIL if m[1] or tok else _UNCLOSED
                    raise error_at(text, m.start(1), *error)
                items.pop()  # value is the tail
            else:
                items.append(value)
                while "A" <= tok < "[":  # the atoms after it, one match each
                    items.append(_SYMBOLS.get(tok) or Symbol(tok))
                    m = _TOKEN(text, m.end())
                    tok = m[2]
                if tok != ")":
                    if not (tok or m[1]):
                        raise error_at(text, m.start(2), *_UNCLOSED)
                    break  # the next element begins with this token
                if m[1]:
                    raise error_at(text, m.start(2), *_SEP_CLOSE)
                value = NIL  # the tail of a classic list without a dot
            pos = m.end()
            stack.pop()
            value = _pairs(items, value) if classic else _list(items)
        else:
            return value, pos


def _bad_start(text, offset, tok, classic):
    """The error for a token that cannot begin an expression."""
    if not tok:
        kind, detail = _END
    elif tok == ".":
        kind = ParseErrorKind.DOT_MISUSE
        detail = (
            "a dot cannot begin an expression"
            if classic
            else "this dialect has no dot notation"
        )
    else:
        kind, detail = ParseErrorKind.UNEXPECTED_CHAR, repr(tok)
    return error_at(text, offset, kind, detail)


def print_sexpr(value, dialect=Dialect.AIM8) -> str:
    """Render a value canonically in the given dialect.

    aim8 prints list-kernel values; classic prints pair-kernel values;
    atoms print the same way in both.  Handing a compound value to the
    wrong dialect raises KindMismatchError.  Circular structures (possible
    only via the test backdoor) terminate with a "#cycle" marker at the
    first revisited node; such output is diagnostic and not re-readable.
    Any nesting depth prints: the walk keeps its own stack.
    """
    return _text(value, Dialect(dialect))
