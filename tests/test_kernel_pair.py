"""The unconstrained pair primitive set and the properness check."""

import random

import pytest
from hypothesis import given

import helpers
from protolisp import NIL, KernelError, KernelKind, Pair, list_to_pair, unsafe_set_tail
from protolisp.kernel_pair import atom, car, cdr, cons, eq, proper

A, B, C = helpers.A, helpers.B, helpers.C


def test_cons_is_unconstrained():
    assert cons(A, B) == Pair(A, B)
    assert cons(A, NIL) == Pair(A, NIL)
    assert cons(A, Pair(B, C)) == Pair(A, Pair(B, C))


def test_pairs_cannot_be_assigned():
    x = Pair(A, Pair(B, NIL))
    for field, value in (
        ("head", B), ("tail", NIL), ("_node", None), ("__class__", object),
    ):
        with pytest.raises(AttributeError):
            setattr(x, field, value)
        with pytest.raises(AttributeError):
            delattr(x, field)
    assert not hasattr(x, "__dict__") and not hasattr(x, "_node")
    assert (x.head, x.tail.head, x.tail.tail) == (A, B, NIL)
    match x:
        case Pair(head, Pair(_, tail)):
            assert (head, tail) == (A, NIL)
        case _:
            pytest.fail("a pair does not match Pair(head, tail)")
    assert Pair(tail=B, head=A) == Pair(A, B)


def test_car_cdr_examples():
    assert car(Pair(A, B)) == A
    assert cdr(Pair(A, B)) == B
    assert car(Pair(A, Pair(B, NIL))) == A
    assert cdr(Pair(A, Pair(B, Pair(C, NIL)))) == Pair(B, Pair(C, NIL))


def test_car_cdr_undefined_on_atoms():
    for op in (car, cdr):
        with pytest.raises(KernelError) as exc:
            op(NIL)
        assert exc.value.kind is KernelKind.UNDEFINED_ON_ATOM
        with pytest.raises(KernelError):
            op(A)


def test_nil_is_atomic_here():
    assert atom(NIL)
    assert atom(A)
    assert not atom(Pair(A, B))


def test_eq_on_nil():
    assert eq(NIL, NIL)
    assert not eq(NIL, A)


def test_eq_undefined_on_pairs():
    with pytest.raises(KernelError) as exc:
        eq(Pair(A, B), Pair(A, B))
    assert exc.value.kind is KernelKind.NOT_A_SYMBOL


@given(helpers.pair_values, helpers.pair_values)
def test_cons_car_cdr_symmetry(a, b):
    assert car(cons(a, b)) == a
    assert cdr(cons(a, b)) == b


def test_proper_examples():
    assert proper(NIL)
    assert proper(Pair(A, Pair(B, Pair(C, NIL))))
    assert not proper(Pair(A, B))
    assert not proper(A)
    # improperness sits only on the spine; heads are irrelevant
    assert proper(Pair(Pair(A, B), NIL))


@given(helpers.pair_values, helpers.pair_values)
def test_proper_of_cons_is_proper_of_tail(a, b):
    assert proper(cons(a, b)) == proper(b)


@given(helpers.nil_free_list_values)
def test_embedded_list_values_are_always_proper(v):
    pv = list_to_pair(v)
    if isinstance(pv, Pair) or pv == NIL:
        assert proper(pv)
    assert helpers.deep_proper(pv)


def test_proper_terminates_on_cycles():
    ring = Pair(A, Pair(B, NIL))
    unsafe_set_tail(ring.tail, ring)
    assert proper(ring) is False
    self_loop = Pair(A, NIL)
    unsafe_set_tail(self_loop, self_loop)
    assert proper(self_loop) is False


def test_proper_visits_linearly():
    rng = random.Random(3)
    chain = NIL
    for _ in range(500):
        chain = cons(helpers.random_symbol(rng), chain)
    assert proper(chain)
    assert not proper(cons(A, cons(B, C)))
