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

The reader parses the token list of scanner.lex, keeping one frame per
open application, conditional clause, abstraction or recursion form on
its own stack, so any nesting depth reads; a MemoryError lets go of
both first.  An embedded (...) constant is read by the S-expression
reader from the same token list.

read_fexpr, read_program and print_fexpr run with the cycle collector
paused (see the values module): an F-expression, like a value, refers
only to what was made before it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseErrorKind
from .scanner import bad_start, error_at, read_all, read_one
from .sexpr import _parse as _parse_sexpr, print_sexpr
from .values import Dialect, Symbol, _SYMBOLS, _paused

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


@dataclass(frozen=True)
class Cond:
    """A conditional: (test, result) clauses tried in order."""

    clauses: tuple


@dataclass(frozen=True)
class Lambda:
    """An abstraction with named parameters."""

    params: tuple
    body: object


@dataclass(frozen=True)
class Label:
    """Gives body a name it can call itself by."""

    name: str
    body: object


@dataclass(frozen=True)
class Definition:
    """A top-level `name = fexpr` item from a program file."""

    name: str
    body: object


@_paused
def read_fexpr(text: str):
    """Parse exactly one F-expression from text."""
    return read_one(text, _parse, False)


@_paused
def read_program(text: str):
    """Parse a program file: a list of Definition and expression items."""
    return read_all(text, _item, None)


def _item(text, parts, i, _):
    """The program item at parts[i], and the index of the token after it."""
    word = parts[i]
    if _ident(word) and word not in RESERVED_WORDS and parts[i + 2] == "=":
        body, i = _parse(text, parts, i + 4, True)
        return Definition(word, body), i
    return _parse(text, parts, i, True)


def _ident(word):
    """Whether a token is an identifier."""
    return "a" <= word < "{" and word.isascii() and word.islower()


_APP, _TEST, _RESULT, _BODY = range(4)  # the kinds of frame


def _parse(text, parts, i, item=False):
    """Parse one F-expression from the token parts[i]; return it and the index
    of the token after it.

    Any expression followed by [...] is an application of it, except that
    a top-level item of a program (item) ends before a "[" that begins a
    line.  A frame is [_APP, function, arguments so far], [_TEST or
    _RESULT, clauses so far, test] or [_BODY, Lambda or Label, its
    parameters or name, the error detail when "]" does not close it].
    """
    stack = []
    try:
        while True:
            # a primary
            tok = parts[i]
            i += 2
            if "a" <= tok < "{" and tok.isascii() and tok.islower():  # _ident(tok)
                if tok == "lambda":
                    params, i = _lambda_head(text, parts, i)
                    stack.append([_BODY, Lambda, params, "abstraction"])
                    continue
                if tok == "label":
                    name, i = _label_head(text, parts, i)
                    stack.append([_BODY, Label, name, "recursion form"])
                    continue
                e = Var(tok)
            elif tok == "[":
                if parts[i] == "]":
                    detail = "a conditional needs at least one clause"
                    raise error_at(text, parts, i, ParseErrorKind.UNEXPECTED_CHAR, detail)
                stack.append([_TEST, [], None])
                continue
            elif tok == "(":  # a Cut too: the S-expression reader goes on from it
                value, i = _parse_sexpr(text, parts, i - 2, False)
                e = Const(value)
            elif tok in _SYMBOLS or "A" <= tok < "[" and tok.isascii() and tok.isupper():
                e = Const(Symbol(tok))
            else:
                raise bad_start(text, parts, i - 2, "this notation has no dot", True)
            # e is complete: apply it to each [...] after it, then give it to its frame
            while True:
                c = parts[i]
                if c == "[" and (stack or not item or "\n" not in parts[i - 1]):
                    i += 2
                    if parts[i] == "]":
                        e = App(e, ())
                        i += 2
                        continue
                    stack.append([_APP, e, []])
                    break
                if not stack:
                    return e, i
                frame = stack[-1]
                kind = frame[0]
                if kind == _APP:
                    frame[2].append(e)
                    if c == ";":
                        i += 2
                        break
                    if c != "]":
                        raise _bad_separator(text, parts, i)
                    e = App(frame[1], tuple(frame[2]))
                elif kind == _TEST:
                    detail = "expected '->' after the test"
                    i = _expect(text, parts, i, "-", detail)
                    i = _expect(text, parts, i, ">", detail)
                    frame[0], frame[2] = _RESULT, e
                    break
                elif kind == _RESULT:
                    frame[1].append((frame[2], e))
                    if c == ";":
                        frame[0] = _TEST
                        i += 2
                        break
                    if c != "]":
                        raise _bad_separator(text, parts, i)
                    e = Cond(tuple(frame[1]))
                else:
                    _expect(text, parts, i, "]", f"expected ']' closing the {frame[3]}")
                    e = frame[1](frame[2], e)
                i += 2
                stack.pop()
    except MemoryError:  # let go of what the reading holds first
        parts.clear()
        stack.clear()
        raise


def _bad_separator(text, parts, i):
    """The error for what follows an element of a [...] list instead of ; or ]."""
    if not parts[i]:
        return error_at(text, parts, i, ParseErrorKind.UNBALANCED_PAREN, "unclosed '['")
    detail = f"{parts[i][0]!r} (expected ';' or ']')"
    return error_at(text, parts, i, ParseErrorKind.UNEXPECTED_CHAR, detail)


def _expect(text, parts, i, ch, detail, kind=ParseErrorKind.UNEXPECTED_CHAR):
    """The index after the token parts[i] if it is ch; else the error."""
    if parts[i] == ch:
        return i + 2
    if not parts[i]:
        kind, detail = ParseErrorKind.UNBALANCED_PAREN, "unexpected end of input"
    raise error_at(text, parts, i, kind, detail)


def _param(text, parts, i, what):
    """A parameter or label name at parts[i], and the index after it."""
    word = parts[i]
    if _ident(word) and word not in RESERVED_WORDS:
        return word, i + 2
    if _ident(word):
        kind, detail = ParseErrorKind.RESERVED_WORD, f"'{word}' cannot name {what}"
    elif "A" <= word < "[" and word.isascii() and word.isupper():
        kind = ParseErrorKind.UNEXPECTED_CHAR
        detail = f"{what} must be a lowercase identifier"
    elif not word or word[0].isalpha():
        raise bad_start(text, parts, i, "this notation has no dot", True)
    else:
        kind, detail = ParseErrorKind.UNEXPECTED_CHAR, f"expected {what}"
    raise error_at(text, parts, i, kind, detail)


def _lambda_head(text, parts, i):
    """Read "[[params];" after lambda; return the parameters and the index after."""
    detail = "'lambda' is reserved and must open an abstraction"
    i = _expect(text, parts, i, "[", detail, ParseErrorKind.RESERVED_WORD)
    i = _expect(text, parts, i, "[", "expected '[' opening the parameter list")
    params = []
    while params or parts[i] != "]":
        name, i = _param(text, parts, i, "a parameter")
        params.append(name)
        if parts[i] == "]":
            break
        if parts[i] != ";":
            raise _bad_separator(text, parts, i)
        i += 2
    i += 2
    detail = "expected ';' between parameter list and body"
    return tuple(params), _expect(text, parts, i, ";", detail)


def _label_head(text, parts, i):
    """Read "[name;" after label; return the name and the index after."""
    detail = "'label' is reserved and must open a recursion form"
    i = _expect(text, parts, i, "[", detail, ParseErrorKind.RESERVED_WORD)
    name, i = _param(text, parts, i, "a label")
    detail = "expected ';' between label name and body"
    return name, _expect(text, parts, i, ";", detail)


@_paused
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
