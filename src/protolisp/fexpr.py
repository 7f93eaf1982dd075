"""F-expressions: the bracket-and-semicolon program notation.

Programs use square brackets and semicolons because parentheses and commas
already belong to the data notation:

    application    f[e1; ...; en]
    conditional    [test1 -> result1; ...; testn -> resultn]
    abstraction    lambda[[v1; ...; vn]; body]
    recursion      label[name; body]
    constant       an uppercase atom, or an (...) S-expression in aim8 form
    variable       a lowercase identifier

`lambda` and `label` are reserved words.  Identifiers are strictly
lowercase letters and digits starting with a letter; atoms are strictly
uppercase; a mixed-case word is rejected outright.  "#" comments run to
end of line.  Whitespace is otherwise insignificant, so an application may
follow any expression: lambda[[x]; x][A] applies the abstraction to A.

A program file is a sequence of top-level items, each either a definition

    name = fexpr

or a plain expression.  In a program file one rule breaks the freedom of
whitespace: a "[" that begins a line (nothing but blanks and comments
before it on that line) begins a new item, so an item that ends a line
is never applied to a conditional on the next.  Inside brackets, and in
read_fexpr, such a "[" still applies what precedes it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError, ParseErrorKind
from .scanner import Scanner
from .sexpr import parse_sexpr, print_sexpr
from .values import Dialect, Symbol

RESERVED_WORDS = frozenset({"lambda", "label"})

_IDENT_RE = re.compile(r"[a-z][a-z0-9]*\Z")
_ATOM_RE = re.compile(r"[A-Z][A-Z0-9]*\Z")


@dataclass(frozen=True)
class Var:
    """A variable reference."""

    name: str


@dataclass(frozen=True)
class Const:
    """A literal S-expression value."""

    value: object


@dataclass(frozen=True)
class App:
    """Application of fn to zero or more arguments."""

    fn: object
    args: tuple

    def __post_init__(self):
        if not isinstance(self.args, tuple):
            object.__setattr__(self, "args", tuple(self.args))


@dataclass(frozen=True)
class Cond:
    """A conditional: (test, result) clauses tried in order."""

    clauses: tuple

    def __post_init__(self):
        if not isinstance(self.clauses, tuple):
            object.__setattr__(self, "clauses", tuple(self.clauses))


@dataclass(frozen=True)
class Lambda:
    """An abstraction with named parameters."""

    params: tuple
    body: object

    def __post_init__(self):
        if not isinstance(self.params, tuple):
            object.__setattr__(self, "params", tuple(self.params))


@dataclass(frozen=True)
class Label:
    """Gives body a name it can call itself by."""

    name: str
    body: object


FExpr = (Var, Const, App, Cond, Lambda, Label)


@dataclass(frozen=True)
class Definition:
    """A top-level `name = fexpr` item from a program file."""

    name: str
    body: object


def read_fexpr(text: str):
    """Parse exactly one F-expression from text."""
    sc = Scanner(text)
    sc.skip_blank()
    if sc.peek() is None:
        raise ParseError(ParseErrorKind.EMPTY_INPUT, sc.position())
    e = _parse_fexpr(sc)
    sc.skip_blank()
    if sc.peek() is not None:
        raise ParseError(
            ParseErrorKind.TRAILING_INPUT,
            sc.position(),
            "text continues after a complete expression",
        )
    return e


def read_program(text: str):
    """Parse a program file: a list of Definition and expression items."""
    sc = Scanner(text)
    items = []
    while True:
        sc.skip_blank()
        c = sc.peek()
        if c is None:
            return items
        if c.isalpha() and c.islower():
            kind, word, wpos = _read_word(sc)
            sc.skip_blank()
            if sc.peek() == "=" and kind == "ident" and word not in RESERVED_WORDS:
                sc.advance()
                items.append(Definition(word, _parse_fexpr(sc, item=True)))
                continue
            seed = _primary_from_word(sc, kind, word, wpos)
            items.append(_postfix(sc, seed, item=True))
        else:
            items.append(_parse_fexpr(sc, item=True))


def _read_word(sc):
    pos = sc.position()
    chars = [sc.advance()]
    while True:
        c = sc.peek()
        if c is not None and c.isalnum():
            chars.append(sc.advance())
        else:
            break
    word = "".join(chars)
    if _IDENT_RE.match(word):
        return "ident", word, pos
    if _ATOM_RE.match(word):
        return "atom", word, pos
    if word[0].isdigit():
        raise ParseError(
            ParseErrorKind.UNEXPECTED_CHAR, pos, "a word may not start with a digit"
        )
    raise ParseError(ParseErrorKind.MIXED_CASE, pos, repr(word))


def _parse_fexpr(sc, item=False):
    return _postfix(sc, _parse_primary(sc), item)


def _postfix(sc, e, item=False):
    # Any expression followed by [...] is an application of it, except
    # that a top-level item of a program ends before a "[" that begins a
    # line.
    while True:
        sc.skip_blank()
        if sc.peek() == "[" and not (item and _begins_line(sc)):
            e = App(e, tuple(_parse_bracket_args(sc)))
        else:
            return e


def _begins_line(sc):
    # Only blanks before the cursor on its line (a comment runs to the end
    # of its line, so none can come before the cursor on the same line).
    return not sc.text[sc.pos - sc.column + 1 : sc.pos].strip()


def _parse_primary(sc):
    sc.skip_blank()
    pos = sc.position()
    c = sc.peek()
    if c is None:
        raise ParseError(
            ParseErrorKind.UNBALANCED_PAREN, pos, "unexpected end of input"
        )
    if c == "(":
        return Const(parse_sexpr(sc, Dialect.AIM8))
    if c == "[":
        return _parse_cond(sc)
    if c.isalpha():
        kind, word, wpos = _read_word(sc)
        return _primary_from_word(sc, kind, word, wpos)
    if c == ".":
        raise ParseError(
            ParseErrorKind.DOT_MISUSE, pos, "this notation has no dot"
        )
    raise ParseError(ParseErrorKind.UNEXPECTED_CHAR, pos, repr(c))


def _primary_from_word(sc, kind, word, pos):
    if kind == "atom":
        return Const(Symbol(word))
    if word == "lambda":
        return _parse_lambda(sc)
    if word == "label":
        return _parse_label(sc)
    return Var(word)


def _expect_char(sc, ch, detail, kind=ParseErrorKind.UNEXPECTED_CHAR):
    sc.skip_blank()
    pos = sc.position()
    if sc.peek() is None:
        raise ParseError(
            ParseErrorKind.UNBALANCED_PAREN, pos, "unexpected end of input"
        )
    if sc.peek() != ch:
        raise ParseError(kind, pos, detail)
    sc.advance()


def _parse_cond(sc):
    sc.advance()  # "["
    sc.skip_blank()
    if sc.peek() == "]":
        raise ParseError(
            ParseErrorKind.UNEXPECTED_CHAR,
            sc.position(),
            "a conditional needs at least one clause",
        )
    clauses = []
    while True:
        test = _parse_fexpr(sc)
        _expect_char(sc, "-", "expected '->' after the test")
        _expect_char(sc, ">", "expected '->' after the test")
        result = _parse_fexpr(sc)
        clauses.append((test, result))
        sc.skip_blank()
        pos = sc.position()
        c = sc.peek()
        if c == ";":
            sc.advance()
        elif c == "]":
            sc.advance()
            return Cond(tuple(clauses))
        elif c is None:
            raise ParseError(ParseErrorKind.UNBALANCED_PAREN, pos, "unclosed '['")
        else:
            raise ParseError(
                ParseErrorKind.UNEXPECTED_CHAR, pos, f"{c!r} (expected ';' or ']')"
            )


def _parse_bracket_args(sc):
    sc.advance()  # "["
    sc.skip_blank()
    if sc.peek() == "]":
        sc.advance()
        return []
    args = []
    while True:
        args.append(_parse_fexpr(sc))
        sc.skip_blank()
        pos = sc.position()
        c = sc.peek()
        if c == ";":
            sc.advance()
        elif c == "]":
            sc.advance()
            return args
        elif c is None:
            raise ParseError(ParseErrorKind.UNBALANCED_PAREN, pos, "unclosed '['")
        else:
            raise ParseError(
                ParseErrorKind.UNEXPECTED_CHAR, pos, f"{c!r} (expected ';' or ']')"
            )


def _parse_param_name(sc, what):
    sc.skip_blank()
    pos = sc.position()
    c = sc.peek()
    if c is None:
        raise ParseError(
            ParseErrorKind.UNBALANCED_PAREN, pos, "unexpected end of input"
        )
    if not c.isalpha():
        raise ParseError(ParseErrorKind.UNEXPECTED_CHAR, pos, f"expected {what}")
    kind, word, wpos = _read_word(sc)
    if word in RESERVED_WORDS:
        raise ParseError(
            ParseErrorKind.RESERVED_WORD, wpos, f"'{word}' cannot name {what}"
        )
    if kind != "ident":
        raise ParseError(
            ParseErrorKind.UNEXPECTED_CHAR,
            wpos,
            f"{what} must be a lowercase identifier",
        )
    return word


def _parse_lambda(sc):
    _expect_char(
        sc, "[", "'lambda' is reserved and must open an abstraction",
        kind=ParseErrorKind.RESERVED_WORD,
    )
    _expect_char(sc, "[", "expected '[' opening the parameter list")
    params = []
    sc.skip_blank()
    if sc.peek() == "]":
        sc.advance()
    else:
        while True:
            params.append(_parse_param_name(sc, "a parameter"))
            sc.skip_blank()
            pos = sc.position()
            c = sc.peek()
            if c == ";":
                sc.advance()
            elif c == "]":
                sc.advance()
                break
            elif c is None:
                raise ParseError(
                    ParseErrorKind.UNBALANCED_PAREN, pos, "unclosed '['"
                )
            else:
                raise ParseError(
                    ParseErrorKind.UNEXPECTED_CHAR,
                    pos,
                    f"{c!r} (expected ';' or ']')",
                )
    _expect_char(sc, ";", "expected ';' between parameter list and body")
    body = _parse_fexpr(sc)
    _expect_char(sc, "]", "expected ']' closing the abstraction")
    return Lambda(tuple(params), body)


def _parse_label(sc):
    _expect_char(
        sc, "[", "'label' is reserved and must open a recursion form",
        kind=ParseErrorKind.RESERVED_WORD,
    )
    name = _parse_param_name(sc, "a label")
    _expect_char(sc, ";", "expected ';' between label name and body")
    body = _parse_fexpr(sc)
    _expect_char(sc, "]", "expected ']' closing the recursion form")
    return Label(name, body)


def print_fexpr(e) -> str:
    """Render an F-expression canonically; read_fexpr inverts this."""
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Const):
        return print_sexpr(e.value, Dialect.AIM8)
    if isinstance(e, App):
        args = "; ".join(print_fexpr(a) for a in e.args)
        return f"{print_fexpr(e.fn)}[{args}]"
    if isinstance(e, Cond):
        clauses = "; ".join(
            f"{print_fexpr(t)} -> {print_fexpr(r)}" for t, r in e.clauses
        )
        return f"[{clauses}]"
    if isinstance(e, Lambda):
        return f"lambda[[{'; '.join(e.params)}]; {print_fexpr(e.body)}]"
    if isinstance(e, Label):
        return f"label[{e.name}; {print_fexpr(e.body)}]"
    raise TypeError(f"not an F-expression: {e!r}")
