"""Primitive operations of the list kernel.

first and rest are defined only for values that are neither null nor
atomic.  combine refuses an atomic second argument.  That single refusal
is what keeps this kernel closed over proper lists: there is no way to
put an atom in tail position, so improper chains never come into being.
"""

from .errors import KernelError, KernelKind
from .values import ProperList, Symbol


def _need_nonempty_list(x, operation):
    if not isinstance(x, ProperList):
        raise KernelError(KernelKind.UNDEFINED_ON_ATOM, operation, x)
    if not x.items:
        raise KernelError(KernelKind.UNDEFINED_ON_NULL, operation, x)


def first(x):
    """First element of a non-null, non-atomic value."""
    _need_nonempty_list(x, "first")
    return x.items[0]


def rest(x):
    """x without its first element; the rest of a one-element list is ()."""
    _need_nonempty_list(x, "rest")
    return ProperList(x.items[1:])


def combine(e, l):
    """The list whose first is e and whose rest is l.

    l must be a list (possibly ()); an atomic l is refused.
    """
    if not isinstance(l, ProperList):
        raise KernelError(KernelKind.ATOMIC_SECOND_ARG, "combine", l)
    return ProperList((e,) + l.items)


def atom(x) -> bool:
    """True iff x is an atomic symbol.  () is not an atom."""
    return isinstance(x, Symbol)


def eq(x, y) -> bool:
    """Symbol equality; defined only when both arguments are atomic."""
    if not isinstance(x, Symbol):
        raise KernelError(KernelKind.NOT_A_SYMBOL, "eq", x)
    if not isinstance(y, Symbol):
        raise KernelError(KernelKind.NOT_A_SYMBOL, "eq", y)
    return x is y


def null(x) -> bool:
    """True iff x is the empty list."""
    return isinstance(x, ProperList) and not x.items
