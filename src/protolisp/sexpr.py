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
"""

import string

from .errors import ParseError, ParseErrorKind
from .values import NIL, NULL, Dialect, Pair, ProperList, Symbol, _text
from .values import CYCLE_MARKER  # noqa: F401  (what the printers write at a cycle)
from .scanner import Scanner

_ATOM_START = frozenset(string.ascii_uppercase)
_ATOM_CHARS = frozenset(string.ascii_uppercase + string.digits)


def read_sexpr(text: str, dialect=Dialect.AIM8):
    """Parse exactly one S-expression from text."""
    dialect = Dialect(dialect)
    sc = Scanner(text)
    sc.skip_blank()
    if sc.peek() is None:
        raise ParseError(ParseErrorKind.EMPTY_INPUT, sc.position())
    value = parse_sexpr(sc, dialect)
    sc.skip_blank()
    if sc.peek() is not None:
        raise ParseError(
            ParseErrorKind.TRAILING_INPUT,
            sc.position(),
            "text continues after a complete expression",
        )
    return value


def read_sexprs(text: str, dialect=Dialect.AIM8):
    """Parse a whole sequence of S-expressions (a .sexp file)."""
    dialect = Dialect(dialect)
    sc = Scanner(text)
    values = []
    while True:
        sc.skip_blank()
        if sc.peek() is None:
            return values
        values.append(parse_sexpr(sc, dialect))


def parse_sexpr(sc: Scanner, dialect: Dialect):
    """Parse one expression starting at the scanner's cursor.

    Exposed so the F-expression reader can parse embedded constants from
    the same character stream.
    """
    sc.skip_blank()
    pos = sc.position()
    c = sc.peek()
    if c is None:
        raise ParseError(
            ParseErrorKind.UNBALANCED_PAREN, pos, "unexpected end of input"
        )
    if c in _ATOM_START:
        return _parse_atom(sc)
    if c == "(":
        if dialect is Dialect.AIM8:
            return _parse_aim8_list(sc)
        return _parse_classic_list(sc)
    if c == ".":
        detail = (
            "this dialect has no dot notation"
            if dialect is Dialect.AIM8
            else "a dot cannot begin an expression"
        )
        raise ParseError(ParseErrorKind.DOT_MISUSE, pos, detail)
    raise ParseError(ParseErrorKind.UNEXPECTED_CHAR, pos, repr(c))


def _parse_atom(sc):
    chars = [sc.advance()]
    while sc.peek() in _ATOM_CHARS:
        chars.append(sc.advance())
    return Symbol("".join(chars))


def _parse_aim8_list(sc):
    sc.advance()  # "("
    sc.skip_blank()
    if sc.peek() == ")":
        sc.advance()
        return NULL
    items = []
    while True:
        items.append(parse_sexpr(sc, Dialect.AIM8))
        sc.skip_blank()
        pos = sc.position()
        c = sc.peek()
        if c == ",":
            sc.advance()
            sc.skip_blank()
            if sc.peek() == ")":
                raise ParseError(
                    ParseErrorKind.UNEXPECTED_CHAR,
                    sc.position(),
                    "')' directly after a separator",
                )
        elif c == ")":
            sc.advance()
            return ProperList(tuple(items))
        elif c is None:
            raise ParseError(ParseErrorKind.UNBALANCED_PAREN, pos, "unclosed '('")
        # anything else: next element follows after plain whitespace


def _parse_classic_list(sc):
    sc.advance()  # "("
    sc.skip_blank()
    if sc.peek() == ")":
        sc.advance()
        return NIL
    items = []
    tail = NIL
    while True:
        sc.skip_blank()
        pos = sc.position()
        c = sc.peek()
        if c == ".":
            if not items:
                raise ParseError(
                    ParseErrorKind.DOT_MISUSE, pos, "dot before any list element"
                )
            sc.advance()
            sc.skip_blank()
            if sc.peek() == ")":
                raise ParseError(
                    ParseErrorKind.DOT_MISUSE,
                    sc.position(),
                    "dot must be followed by exactly one expression",
                )
            tail = parse_sexpr(sc, Dialect.CLASSIC)
            sc.skip_blank()
            pos = sc.position()
            if sc.peek() == ")":
                sc.advance()
                break
            if sc.peek() is None:
                raise ParseError(
                    ParseErrorKind.UNBALANCED_PAREN, pos, "unclosed '('"
                )
            raise ParseError(
                ParseErrorKind.DOT_MISUSE, pos, "more than one expression after dot"
            )
        items.append(parse_sexpr(sc, Dialect.CLASSIC))
        sc.skip_blank()
        pos = sc.position()
        c = sc.peek()
        if c == ",":
            sc.advance()
            sc.skip_blank()
            if sc.peek() == ")":
                raise ParseError(
                    ParseErrorKind.UNEXPECTED_CHAR,
                    sc.position(),
                    "')' directly after a separator",
                )
        elif c == ")":
            sc.advance()
            break
        elif c is None:
            raise ParseError(ParseErrorKind.UNBALANCED_PAREN, pos, "unclosed '('")
        # anything else: next element, or a dot handled at the loop top
    out = tail
    for item in reversed(items):
        out = Pair(item, out)
    return out


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
