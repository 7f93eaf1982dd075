"""Primitive operations of the pair kernel.

cons is unconstrained: anything may sit in either field.  Lists are a
convention (chains ending in the atom NIL), so properness is a property a
consumer has to check, not one the constructor grants.  proper() is that
check; it runs in linear time and answers False rather than looping when
handed a circular structure.
"""

from .errors import KernelError, KernelKind
from .values import NIL, Pair, Symbol


def cons(a, b):
    return Pair(a, b)


def car(x):
    if not isinstance(x, Pair):
        raise KernelError(KernelKind.UNDEFINED_ON_ATOM, "car", x)
    return x.head


def cdr(x):
    if not isinstance(x, Pair):
        raise KernelError(KernelKind.UNDEFINED_ON_ATOM, "cdr", x)
    return x.tail


def atom(x) -> bool:
    """True iff x is an atomic symbol; NIL is an atom here."""
    return isinstance(x, Symbol)


def eq(x, y) -> bool:
    """Symbol equality; defined only when both arguments are atomic."""
    if not isinstance(x, Symbol):
        raise KernelError(KernelKind.NOT_A_SYMBOL, "eq", x)
    if not isinstance(y, Symbol):
        raise KernelError(KernelKind.NOT_A_SYMBOL, "eq", y)
    return x is y


def proper(x) -> bool:
    """True iff the tail chain from x reaches NIL.

    False for non-NIL atoms, for chains ending at any other atom, and for
    circular chains (detected by revisit, so this always terminates).
    """
    seen = set()
    node = x
    while isinstance(node, Pair):
        if id(node) in seen:
            return False
        seen.add(id(node))
        node = node.tail
    return node is NIL
