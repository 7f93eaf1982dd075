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

The reader takes each token, with the blanks and comments before it, in
one match of a compiled regex: a word, or a single character.  It keeps
one frame per open application, conditional clause, abstraction or
recursion form on its own stack, so any nesting depth reads; an embedded
(...) constant is read by the S-expression reader at its offset.  Offsets
become line:column positions only when an error is reported.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseErrorKind
from .scanner import BLANKS, error_at
from .sexpr import parse_sexpr, print_sexpr
from .values import Dialect, Symbol

RESERVED_WORDS = frozenset({"lambda", "label"})


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
    m = _NEXT(text)
    if not m[1]:
        raise error_at(text, m.start(1), ParseErrorKind.EMPTY_INPUT)
    e, pos = _parse(text, m.start(1))
    m = _NEXT(text, pos)
    if m[1]:
        raise error_at(
            text,
            m.start(1),
            ParseErrorKind.TRAILING_INPUT,
            "text continues after a complete expression",
        )
    return e


def read_program(text: str):
    """Parse a program file: a list of Definition and expression items."""
    items = []
    pos = 0
    while True:
        m = _TOKEN(text, pos)
        word = m[1]
        if word and word not in RESERVED_WORDS:
            eq = _NEXT(text, m.end())
            if eq[1] == "=":
                body, pos = _parse(text, eq.end(), item=True)
                items.append(Definition(word, body))
                continue
        elif m[3] == "":
            return items
        e, pos = _parse(text, m.start(m.lastindex), item=True)
        items.append(e)


# An identifier, an atom, or else one character ("" at the end of the
# text); [^\W_] is exactly str.isalnum, so a word that is neither an
# identifier nor an atom comes as its first character.
_TOKEN = re.compile(
    BLANKS + r"(?:([a-z][a-z0-9]*)(?![^\W_])|([A-Z][A-Z0-9]*)(?![^\W_])|(.|))", re.S
).match
_NEXT = re.compile(BLANKS + r"(.|)", re.S).match  # the next character
_WORD = re.compile(r"[^\W_]+").match
_APP, _TEST, _RESULT, _BODY = range(4)  # the kinds of frame


def _parse(text, pos, item=False):
    """Parse one F-expression at offset pos; return it and the offset after it.

    Any expression followed by [...] is an application of it, except that
    a top-level item of a program (item) ends before a "[" that begins a
    line.  A frame is [_APP, function, arguments so far], [_TEST or
    _RESULT, clauses so far, test] or [_BODY, Lambda or Label, its
    parameters or name, the error detail when "]" does not close it].
    """
    stack = []
    while True:
        # a primary
        m = _TOKEN(text, pos)
        i = m.lastindex
        tok = m[i]
        pos = m.end()
        if i == 1:
            if tok == "lambda":
                params, pos = _lambda_head(text, pos)
                stack.append([_BODY, Lambda, params, "abstraction"])
                continue
            if tok == "label":
                name, pos = _label_head(text, pos)
                stack.append([_BODY, Label, name, "recursion form"])
                continue
            e = Var(tok)
        elif i == 2:
            e = Const(Symbol(tok))
        elif tok == "(":
            value, pos = parse_sexpr(text, m.start(3), Dialect.AIM8)
            e = Const(value)
        elif tok == "[":
            m = _NEXT(text, pos)
            if m[1] == "]":
                raise error_at(
                    text,
                    m.start(1),
                    ParseErrorKind.UNEXPECTED_CHAR,
                    "a conditional needs at least one clause",
                )
            stack.append([_TEST, [], None])
            continue
        else:
            raise _bad_primary(text, m.start(3), tok)
        # e is complete: apply it to each [...] after it, then give it to
        # the innermost frame, which may complete in turn
        while True:
            m = _NEXT(text, pos)
            c = m[1]
            if c == "[" and (stack or not item or not _begins_line(text, m.start(1))):
                pos = m.end()
                m = _NEXT(text, pos)
                if m[1] == "]":
                    e = App(e, ())
                    pos = m.end()
                    continue
                stack.append([_APP, e, []])
                break
            if not stack:
                return e, pos
            frame = stack[-1]
            kind = frame[0]
            if kind == _APP:
                frame[2].append(e)
                if c == ";":
                    pos = m.end()
                    break
                if c != "]":
                    raise _bad_separator(text, m.start(1), c)
                e = App(frame[1], tuple(frame[2]))
            elif kind == _TEST:
                detail = "expected '->' after the test"
                pos = _expect(text, m, "-", detail)
                pos = _expect(text, _NEXT(text, pos), ">", detail)
                frame[0], frame[2] = _RESULT, e
                break
            elif kind == _RESULT:
                frame[1].append((frame[2], e))
                if c == ";":
                    frame[0] = _TEST
                    pos = m.end()
                    break
                if c != "]":
                    raise _bad_separator(text, m.start(1), c)
                e = Cond(tuple(frame[1]))
            else:
                _expect(text, m, "]", f"expected ']' closing the {frame[3]}")
                e = frame[1](frame[2], e)
            pos = m.end()
            stack.pop()


def _begins_line(text, offset):
    # Only blanks before offset on its line (a comment runs to the end of
    # its line, so none can come before offset on the same line).
    return not text[text.rfind("\n", 0, offset) + 1 : offset].strip()


def _bad_primary(text, offset, c):
    """The error for a character that cannot begin an expression."""
    if not c:
        kind, detail = ParseErrorKind.UNBALANCED_PAREN, "unexpected end of input"
    elif c.isalpha():
        kind, detail = ParseErrorKind.MIXED_CASE, repr(_WORD(text, offset)[0])
    elif c == ".":
        kind, detail = ParseErrorKind.DOT_MISUSE, "this notation has no dot"
    else:
        kind, detail = ParseErrorKind.UNEXPECTED_CHAR, repr(c)
    return error_at(text, offset, kind, detail)


def _bad_separator(text, offset, c):
    """The error for what follows an element of a [...] list instead of ; or ]."""
    if not c:
        return error_at(text, offset, ParseErrorKind.UNBALANCED_PAREN, "unclosed '['")
    detail = f"{c!r} (expected ';' or ']')"
    return error_at(text, offset, ParseErrorKind.UNEXPECTED_CHAR, detail)


def _expect(text, m, ch, detail, kind=ParseErrorKind.UNEXPECTED_CHAR):
    """The offset after m, a _NEXT match, if it found ch; else the error."""
    if m[1] == ch:
        return m.end()
    if not m[1]:
        kind, detail = ParseErrorKind.UNBALANCED_PAREN, "unexpected end of input"
    raise error_at(text, m.start(1), kind, detail)


def _param(text, pos, what):
    """A parameter or label name at pos, and the offset after it."""
    m = _TOKEN(text, pos)
    i = m.lastindex
    word, offset = m[i], m.start(i)
    if i == 1 and word not in RESERVED_WORDS:
        return word, m.end()
    if i == 1:
        kind, detail = ParseErrorKind.RESERVED_WORD, f"'{word}' cannot name {what}"
    elif i == 2:
        kind = ParseErrorKind.UNEXPECTED_CHAR
        detail = f"{what} must be a lowercase identifier"
    elif not word or word.isalpha():
        raise _bad_primary(text, offset, word)
    else:
        kind, detail = ParseErrorKind.UNEXPECTED_CHAR, f"expected {what}"
    raise error_at(text, offset, kind, detail)


def _lambda_head(text, pos):
    """Read "[[params];" after lambda; return the parameters and the offset after."""
    detail = "'lambda' is reserved and must open an abstraction"
    pos = _expect(text, _NEXT(text, pos), "[", detail, ParseErrorKind.RESERVED_WORD)
    detail = "expected '[' opening the parameter list"
    pos = _expect(text, _NEXT(text, pos), "[", detail)
    params = []
    m = _NEXT(text, pos)
    if m[1] == "]":
        pos = m.end()
    else:
        while True:
            name, pos = _param(text, pos, "a parameter")
            params.append(name)
            m = _NEXT(text, pos)
            pos = m.end()
            if m[1] == "]":
                break
            if m[1] != ";":
                raise _bad_separator(text, m.start(1), m[1])
    detail = "expected ';' between parameter list and body"
    return tuple(params), _expect(text, _NEXT(text, pos), ";", detail)


def _label_head(text, pos):
    """Read "[name;" after label; return the name and the offset after."""
    detail = "'label' is reserved and must open a recursion form"
    pos = _expect(text, _NEXT(text, pos), "[", detail, ParseErrorKind.RESERVED_WORD)
    name, pos = _param(text, pos, "a label")
    detail = "expected ';' between label name and body"
    return name, _expect(text, _NEXT(text, pos), ";", detail)


def print_fexpr(e) -> str:
    """Render an F-expression canonically; read_fexpr inverts this.

    The walk keeps its own stack, so any nesting depth prints.  todo holds
    what is still to print, last first: F-expressions, and literal text
    as a one-element tuple.
    """
    todo, out = [e], []
    while todo:
        e = todo.pop()
        if type(e) is tuple:
            out.append(e[0])
        elif isinstance(e, Var):
            out.append(e.name)
        elif isinstance(e, Const):
            out.append(print_sexpr(e.value, Dialect.AIM8))
        elif isinstance(e, App):
            todo.append(("]",))
            for i in range(len(e.args) - 1, -1, -1):
                todo += (e.args[i], ("; ",)) if i else (e.args[i],)
            todo += (("[",), e.fn)
        elif isinstance(e, Cond):
            todo.append(("]",))
            for i in range(len(e.clauses) - 1, -1, -1):
                test, result = e.clauses[i]
                todo += (result, (" -> ",), test, ("; " if i else "[",))
        elif isinstance(e, Lambda):
            out.append(f"lambda[[{'; '.join(e.params)}]; ")
            todo += (("]",), e.body)
        elif isinstance(e, Label):
            out.append(f"label[{e.name}; ")
            todo += (("]",), e.body)
        else:
            raise TypeError(f"not an F-expression: {e!r}")
    return "".join(out)
