"""Primitive operations of the pair kernel.

cons is unconstrained: anything may sit in either field.  Lists are a
convention (chains ending in the atom NIL), so properness is a property a
consumer has to check, not one the constructor grants.  heads() is that
check: it gives a chain's heads only if the chain ends at NIL, runs in
linear time, and answers None rather than looping when handed a
circular structure.  proper() is whether it gives them, and the
evaluator reads its pair-kernel forms through it.

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


def heads(x):
    """The heads of the tail chain from x if it ends at NIL, else None.

    A list of them, first to last; None for a non-NIL atom, for a chain
    ending at any other atom, and for a circular chain (detected by
    revisit, so this always terminates).
    """
    items, seen = [], set()
    while isinstance(x, Pair):
        if id(x) in seen:
            return None
        seen.add(id(x))
        items.append(x.head)
        x = x.tail
    return items if x is NIL else None


def proper(x) -> bool:
    """True iff the tail chain from x reaches NIL (see heads)."""
    return heads(x) is not None
