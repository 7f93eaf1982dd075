"""Primitive operations of the list kernel.

first and rest are defined only for values that are neither null nor
atomic.  combine refuses an atomic second argument.  That single refusal
is what keeps this kernel closed over proper lists: there is no way to
put an atom in tail position, so improper chains never come into being.

A list is a chain of shared cells (see values.ProperList), so first, rest,
combine and null each take constant time: rest returns the tail cell
itself and combine makes one new cell in front of its second argument.
"""

from .errors import KernelError, KernelKind
from .values import NULL, ProperList, Symbol, _cell


def _need_nonempty_list(x, operation):
    if not isinstance(x, ProperList):
        raise KernelError(KernelKind.UNDEFINED_ON_ATOM, operation, x)
    if x is NULL:
        raise KernelError(KernelKind.UNDEFINED_ON_NULL, operation, x)


def first(x):
    """First element of a non-null, non-atomic value."""
    if x.__class__ is not ProperList or x is NULL:
        _need_nonempty_list(x, "first")
    return x.head


def rest(x):
    """x without its first element; the rest of a one-element list is ()."""
    if x.__class__ is not ProperList or x is NULL:
        _need_nonempty_list(x, "rest")
    return x.tail


def combine(e, l):
    """The list whose first is e and whose rest is l.

    l must be a list (possibly ()); an atomic l is refused.
    """
    if not isinstance(l, ProperList):
        raise KernelError(KernelKind.ATOMIC_SECOND_ARG, "combine", l)
    return _cell(e, l)


def atom(x) -> bool:
    """True iff x is an atomic symbol.

    () is not an atom in the list kernel; in the pair kernel, which uses
    this same test, NIL is one.
    """
    return isinstance(x, Symbol)


def eq(x, y) -> bool:
    """Symbol equality; defined only when both arguments are atomic."""
    if not isinstance(x, Symbol):
        raise KernelError(KernelKind.NOT_A_SYMBOL, "eq", x)
    if not isinstance(y, Symbol):
        raise KernelError(KernelKind.NOT_A_SYMBOL, "eq", y)
    return x is y


def null(x) -> bool:
    """True iff x is the empty list, NULL, the only list of length 0."""
    return x is NULL
