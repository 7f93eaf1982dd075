"""Primitive operations of the pair kernel.

cons is unconstrained: anything may sit in either field.  Lists are a
convention (chains ending in the atom NIL), so properness is a property a
consumer has to check, not one the constructor grants.  proper() is that
check; it runs in linear time and answers False rather than looping when
handed a circular structure.

atom and eq are the list kernel's own: a symbol is an atom in both
kernels, so NIL is an atom here.
"""

from .errors import KernelError, KernelKind
from .kernel_list import atom, eq  # noqa: F401  (the same in both kernels)
from .values import NIL, Pair


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
