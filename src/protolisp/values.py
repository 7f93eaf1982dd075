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

from .errors import CyclicStructureError, ImproperStructureError

_SYMBOL_RE = re.compile(r"[A-Z][A-Z0-9]*\Z")


@dataclass(frozen=True)
class Symbol:
    """An atomic symbol: uppercase letters and digits, letter first."""

    name: str

    def __post_init__(self):
        if not _SYMBOL_RE.match(self.name):
            raise ValueError(f"invalid symbol name: {self.name!r}")

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
        return _repr(self)


NULL = ProperList(())


@dataclass(frozen=True)
class Pair:
    """An ordered pair; the only compound value of the pair kernel."""

    head: object
    tail: object

    def __repr__(self):
        return _repr(self)


def _repr(v):
    """The repr of a compound value, built on an explicit stack.

    A sequence prints as (A, B), a pair as (A . B), and a pair met again
    inside itself as #cycle.  Text waiting to be written sits on the stack
    as a tuple: the text, then the id of the pair it closes, if any.
    """
    out, path, todo = [], set(), [v]
    while todo:
        x = todo.pop()
        if isinstance(x, tuple):
            out.append(x[0])
            path.difference_update(x[1:])
        elif isinstance(x, ProperList):
            out.append("(")
            todo.append((")",))
            for i, item in enumerate(reversed(x.items)):
                if i:
                    todo.append((", ",))
                todo.append(item)
        elif isinstance(x, Pair) and id(x) not in path:
            path.add(id(x))
            out.append("(")
            todo += [(")", id(x)), x.tail, (" . ",), x.head]
        elif isinstance(x, Pair):
            out.append("#cycle")
        else:
            out.append(repr(x))
    return "".join(out)


NIL = Symbol("NIL")


class Dialect(enum.Enum):
    """Concrete S-expression notations.

    AIM8: comma-separated proper lists, bare (), no dots.
    CLASSIC: space-separated list sugar over dotted pairs, NIL terminator.
    """

    AIM8 = "aim8"
    CLASSIC = "classic"


def equal_values(a, b) -> bool:
    """Structural equality; values of different kinds are never equal."""
    return a == b


def list_to_pair(v):
    """Embed a list-kernel value into the pair kernel.

    Atoms map to themselves; a sequence becomes the chain of pairs ending
    in NIL.  Note the embedding conflates two things: both () and the
    ordinary atom named NIL land on the pair-kernel atom NIL.
    """
    if isinstance(v, Symbol):
        return v
    if isinstance(v, ProperList):
        out = NIL
        for item in reversed(v.items):
            out = Pair(list_to_pair(item), out)
        return out
    raise TypeError(f"not a list-kernel value: {v!r}")


def pair_to_list(v):
    """Read a pair-kernel value back as a list-kernel value.

    NIL maps to (), other atoms to themselves, and a chain of pairs to the
    sequence of its converted heads.  Raises ImproperStructureError when a
    tail chain ends at an atom other than NIL, and CyclicStructureError
    when the structure loops back on itself.
    """
    return _pair_to_list(v, set())


def _pair_to_list(v, path):
    if isinstance(v, Symbol):
        return NULL if v == NIL else v
    if not isinstance(v, Pair):
        raise TypeError(f"not a pair-kernel value: {v!r}")
    items = []
    spine = []
    node = v
    while isinstance(node, Pair):
        if id(node) in path:
            raise CyclicStructureError("cycle in pair structure")
        path.add(id(node))
        spine.append(node)
        items.append(_pair_to_list(node.head, path))
        node = node.tail
    if not isinstance(node, Symbol):
        raise TypeError(f"not a pair-kernel value: {node!r}")
    if node != NIL:
        raise ImproperStructureError(
            f"tail chain ends at atom {node.name}, not NIL"
        )
    for n in spine:
        path.discard(id(n))
    return ProperList(tuple(items))


def unsafe_set_tail(pair: Pair, tail) -> None:
    """Test-harness backdoor: overwrite a pair's tail in place.

    The public constructors can only build finite trees; tests use this to
    create the circular structures that proper() and the printer must
    survive.  The interpreter itself never mutates values.
    """
    object.__setattr__(pair, "tail", tail)
