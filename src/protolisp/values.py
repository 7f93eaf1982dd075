"""Value models for the two kernels.

The list kernel knows atomic symbols and finite sequences, nothing else.
The empty sequence () is a value in its own right and is not an atom.
Because sequences are built from whole sequences, improper or circular
structure simply cannot be expressed.

The pair kernel knows atomic symbols and ordered pairs.  The atom NIL is
ordinary data that by convention marks the end of a list, so a chain of
pairs may be a proper list, or may end somewhere else entirely.

`list_to_pair` embeds the first world in the second; `pair_to_list` goes
back when the structure allows it.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

from .errors import CyclicStructureError, ImproperStructureError, KindMismatchError

_SYMBOL_RE = re.compile(r"[A-Z][A-Z0-9]*\Z")
_SYMBOLS = {}  # name -> the Symbol of that name


class Symbol:
    """An atomic symbol: uppercase letters and digits, letter first.

    Symbols are interned: Symbol(name) returns the one object with that
    name, so equality is identity and the hash is the object's own.  Copies
    and unpickled symbols are that same object too.  A symbol is immutable.
    """

    __slots__ = ("name",)
    __match_args__ = ("name",)

    def __new__(cls, name):
        sym = _SYMBOLS.get(name)
        if sym is None:
            if not _SYMBOL_RE.match(name):
                raise ValueError(f"invalid symbol name: {name!r}")
            sym = object.__new__(cls)
            object.__setattr__(sym, "name", name)
            # setdefault: of two threads making the same new name, both
            # get the object stored first.
            sym = _SYMBOLS.setdefault(name, sym)
        return sym

    def __setattr__(self, attr, value):
        raise AttributeError(f"cannot assign to field {attr!r} of a symbol")

    def __delattr__(self, attr):
        raise AttributeError(f"cannot delete field {attr!r} of a symbol")

    def __reduce__(self):
        return Symbol, (self.name,)

    def __repr__(self):
        return self.name


@dataclass(frozen=True)
class ProperList:
    """A finite sequence of values; the only compound value of the list kernel."""

    items: tuple

    def __post_init__(self):
        if not isinstance(self.items, tuple):
            object.__setattr__(self, "items", tuple(self.items))

    def __repr__(self):
        return _text(self)


NULL = ProperList(())


@dataclass(frozen=True)
class Pair:
    """An ordered pair; the only compound value of the pair kernel."""

    head: object
    tail: object

    def __repr__(self):
        return _text(self)


NIL = Symbol("NIL")


class Dialect(enum.Enum):
    """Concrete S-expression notations.

    AIM8: comma-separated proper lists, bare (), no dots.
    CLASSIC: space-separated list sugar over dotted pairs, NIL terminator.
    """

    AIM8 = "aim8"
    CLASSIC = "classic"


CYCLE_MARKER = "#cycle"


def _text(v, dialect=None):
    """The text of a value, built on an explicit stack.

    With no dialect this is the repr: a sequence prints as (A, B), a pair
    as (A . B), any other value by its own repr.  With a dialect it is
    that dialect's printout (see sexpr.print_sexpr): AIM8 prints sequences
    as the repr does, CLASSIC prints pairs with list sugar, so a chain A, B
    ending in C prints as (A B . C) and one ending in NIL as (A B); a
    value of the other kernel raises KindMismatchError.  Either way a pair
    met again inside itself prints as #cycle.

    Each open compound value has a frame on the stack: [its elements
    still to print, the separator written before each, the index in out
    of its first separator, which becomes "(", its closing text, and the
    ids of its pairs, which are on the path while it is open].
    """
    out, path = [], set()
    frames = [[iter((v,)), "", 0, "", ()]]
    while True:
        frame = frames[-1]
        sep = frame[1]
        for x in frame[0]:
            out.append(sep)
            if isinstance(x, Symbol):
                out.append(x.name)
            elif isinstance(x, ProperList) and dialect is not Dialect.CLASSIC:
                frames.append([iter(x.items), ", ", len(out), ")", ()])
                break
            elif isinstance(x, Pair) and dialect is not Dialect.AIM8:
                if id(x) in path:
                    out.append(CYCLE_MARKER)
                    continue
                if dialect is None:
                    path.add(id(x))
                    frames.append(
                        [iter((x.head, x.tail)), " . ", len(out), ")", (id(x),)]
                    )
                else:
                    spine = [None, " ", len(out), ")", []]
                    spine[0] = _spine(x, path, spine)
                    frames.append(spine)
                break
            elif dialect is None:
                out.append(repr(x))
            else:
                raise _mismatch(x, dialect)
        else:
            frames.pop()
            if not frames:
                return "".join(out)
            _, _, first, close, ids = frame
            if first < len(out):
                out[first] = "("
            else:
                out.append("(")
            out.append(close)
            path.difference_update(ids)


def _spine(pair, path, frame):
    """The heads along pair's tail chain, for a classic list's frame.

    Each pair joins the path as its head is reached.  Where the chain
    ends, the frame's closing text is set: ")" at NIL, " . A)" at another
    atom, " . #cycle)" at a pair already on the path.
    """
    node = pair
    while isinstance(node, Pair) and id(node) not in path:
        path.add(id(node))
        frame[4].append(id(node))
        yield node.head
        node = node.tail
    if isinstance(node, Pair):
        frame[3] = f" . {CYCLE_MARKER})"
    elif isinstance(node, Symbol):
        frame[3] = ")" if node is NIL else f" . {node.name})"
    else:
        raise _mismatch(node, Dialect.CLASSIC)


def _mismatch(v, dialect):
    other = "pair" if dialect is Dialect.AIM8 else "list"
    return KindMismatchError(
        f"cannot print a {other}-kernel value in {dialect.value}: {v!r}"
    )


def equal_values(a, b) -> bool:
    """Structural equality; values of different kinds are never equal."""
    return a == b


def list_to_pair(v):
    """Embed a list-kernel value into the pair kernel.

    Atoms map to themselves; a sequence becomes the chain of pairs ending
    in NIL.  Note the embedding conflates two things: both () and the
    ordinary atom named NIL land on the pair-kernel atom NIL.

    The walk keeps its own stack, so any nesting depth converts.  Items
    are converted last first, each chain built from its end.
    """
    if not isinstance(v, ProperList):
        if isinstance(v, Symbol):
            return v
        raise TypeError(f"not a list-kernel value: {v!r}")
    stack = []  # (items left, chain so far) of each enclosing sequence
    items, out = reversed(v.items), NIL
    while True:
        for x in items:
            if isinstance(x, Symbol):
                out = Pair(x, out)
            elif isinstance(x, ProperList):
                stack.append((items, out))
                items, out = reversed(x.items), NIL
                break
            else:
                raise TypeError(f"not a list-kernel value: {x!r}")
        else:
            if not stack:
                return out
            items, chain = stack.pop()
            out = Pair(out, chain)


def pair_to_list(v):
    """Read a pair-kernel value back as a list-kernel value.

    NIL maps to (), other atoms to themselves, and a chain of pairs to the
    sequence of its converted heads.  Raises ImproperStructureError when a
    tail chain ends at an atom other than NIL, and CyclicStructureError
    when the structure loops back on itself.

    The walk keeps its own stack, so any nesting depth converts.  The
    pairs of the open chains are the path: a pair met again on it is a
    cycle, while a pair shared by two subtrees is not.
    """
    path, stack = set(), []
    # The innermost open chain: its converted heads, the ids of its pairs,
    # and the pair whose head is being converted.
    items = ids = pair = None
    while True:
        if isinstance(v, Pair):
            stack.append((items, ids, pair))
            items, ids, node = [], [], v
        else:
            if not isinstance(v, Symbol):
                raise TypeError(f"not a pair-kernel value: {v!r}")
            out = NULL if v is NIL else v
            while True:  # out is a converted head: move along its chain
                if items is None:
                    return out
                items.append(out)
                node = pair.tail
                if isinstance(node, Pair):
                    break
                if not isinstance(node, Symbol):
                    raise TypeError(f"not a pair-kernel value: {node!r}")
                if node is not NIL:
                    raise ImproperStructureError(
                        f"tail chain ends at atom {node.name}, not NIL"
                    )
                path.difference_update(ids)
                out = ProperList(tuple(items))
                items, ids, pair = stack.pop()
        # node is the next pair of the innermost chain: convert its head
        if id(node) in path:
            raise CyclicStructureError("cycle in pair structure")
        path.add(id(node))
        ids.append(id(node))
        pair, v = node, node.head


def unsafe_set_tail(pair: Pair, tail) -> None:
    """Test-harness backdoor: overwrite a pair's tail in place.

    The public constructors can only build finite trees; tests use this to
    create the circular structures that proper() and the printer must
    survive.  The interpreter itself never mutates values.
    """
    object.__setattr__(pair, "tail", tail)
