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

The readers parse the token list of scanner.lex, keeping one frame per
open list on their own stack, so any nesting depth reads; a MemoryError
lets go of both first.  A comma is taken only directly after an element
of a list.  A word that runs on past its atom ("Ab", as F-language
tokens have it) is cut in two there.  A closed list becomes its cells,
or its pairs, in one call of a chain builder of the values module; the
printers are that module's _text walk.

read_sexpr, read_sexprs and print_sexpr run with the cycle collector
paused, as the values module's docstring explains: what they make holds
no cycle, since a cell refers only to cells made before it, and only the
unsafe_set_tail backdoor, which they never call, can make one.  A
gc.disable() of another thread during such a call is undone when it
returns.  The evaluator runs unpaused, since cyclic garbage that a long
run made would otherwise pile up until the run ended.
"""

import re

from .errors import ParseErrorKind
from .scanner import Cut, bad_start, error_at, lex, offset, read_all, read_one, window
from .values import NIL, NULL, Dialect, Symbol, _SYMBOLS, _list, _pairs, _paused, _text
from .values import CYCLE_MARKER  # noqa: F401  (what the printers write at a cycle)

_ATOM = re.compile(r"[A-Z][A-Z0-9]*").match
_DOT = object()  # the last element of a classic list whose tail comes next

_UNCLOSED = ParseErrorKind.UNBALANCED_PAREN, "unclosed '('"
_DOT_FIRST = ParseErrorKind.DOT_MISUSE, "dot before any list element"
_DOT_LAST = ParseErrorKind.DOT_MISUSE, "dot must be followed by exactly one expression"
_AFTER_TAIL = ParseErrorKind.DOT_MISUSE, "more than one expression after dot"
_SEP_CLOSE = ParseErrorKind.UNEXPECTED_CHAR, "')' directly after a separator"


@_paused
def read_sexpr(text: str, dialect=Dialect.AIM8):
    """Parse exactly one S-expression from text."""
    return read_one(text, _parse, Dialect(dialect) is Dialect.CLASSIC)


@_paused
def read_sexprs(text: str, dialect=Dialect.AIM8):
    """Parse a whole sequence of S-expressions (a .sexp file)."""
    return read_all(text, _parse, Dialect(dialect) is Dialect.CLASSIC)


def parse_sexpr(text: str, pos: int, dialect: Dialect):
    """Parse one expression at offset pos; return it and the offset after it."""
    parts = lex(text, pos)
    value, i = _parse(text, parts, 1, dialect is Dialect.CLASSIC)
    return value, offset(text, parts, i - 1)


def _parse(text, parts, i, classic):
    """Parse one expression from the token parts[i]; return it and the index
    of the token after it.  fexpr reads its (...) constants with this.
    """
    get = _SYMBOLS.get
    stack = []  # the elements so far of each open list, innermost last
    tok = parts[i]
    try:
        while True:
            i += 2
            if "A" <= tok < "[":
                value = get(tok)
                if value is None:  # a new atom, or a word that runs on past one
                    name = _ATOM(tok)[0]
                    if name != tok:  # cut it there: the rest begins no expression
                        parts[i - 2 : i - 1] = name, "", tok[len(name) :]
                    value = Symbol(name)
            elif tok == "(":
                if tok.__class__ is Cut:  # the window ends: go on in the next
                    parts[:] = window(tok.text, tok.at)
                    i, tok = 1, parts[1]
                    continue
                tok = parts[i]
                if tok != ")":
                    stack.append([])
                    continue
                value = NIL if classic else NULL
                i += 2
            elif tok == "." and classic and stack and _DOT not in stack[-1][-1:]:
                if not stack[-1]:
                    raise error_at(text, parts, i - 2, *_DOT_FIRST)
                tok = parts[i]
                if tok == ")":
                    raise error_at(text, parts, i, *_DOT_LAST)
                stack[-1].append(_DOT)
                continue
            else:
                dot = "a dot cannot begin an expression", "this dialect has no dot notation"
                raise bad_start(text, parts, i - 2, dot[not classic])
            # value is complete: close each list it completes
            while stack:
                items = stack[-1]
                tok = parts[i]
                if classic and items and items[-1] is _DOT:
                    if tok != ")":
                        raise error_at(text, parts, i, *(_AFTER_TAIL if tok else _UNCLOSED))
                    items.pop()  # value is the tail
                else:
                    items.append(value)
                    while True:  # the atoms after it, and the comma after each
                        comma = tok == ","
                        if comma:
                            if tok.__class__ is Cut:  # the window ends: go on in the next
                                parts[:] = window(tok.text, tok.at)
                                i = 1
                            i += 2
                            tok = parts[i]
                        value = get(tok)
                        if value is None:
                            break
                        items.append(value)
                        i += 2
                        tok = parts[i]
                    if tok != ")":
                        if not (tok or comma):
                            raise error_at(text, parts, i, *_UNCLOSED)
                        break  # the next element begins with this token
                    if comma:
                        raise error_at(text, parts, i, *_SEP_CLOSE)
                    value = NIL  # the tail of a classic list without a dot
                i += 2
                stack.pop()
                value = _pairs(items, value) if classic else _list(items)
            else:
                return value, i
    except MemoryError:  # let go of what the reading holds first
        parts.clear()
        stack.clear()
        raise


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
