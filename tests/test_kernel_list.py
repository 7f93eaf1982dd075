"""The proper-lists-only primitive set and its exact error domains."""

import copy
import pickle
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given

import helpers
from protolisp import (
    NULL,
    Dialect,
    KernelError,
    KernelKind,
    ProperList,
    Symbol,
    list_to_pair,
    print_sexpr,
)
from protolisp.kernel_list import atom, combine, eq, first, null, rest
from protolisp.kernel_pair import proper

A, B, C = helpers.A, helpers.B, helpers.C


# --- the six axioms, on their literal shapes -------------------------------

def test_first_of_singleton():
    assert first(ProperList((A,))) == A


def test_first_of_longer_list():
    assert first(ProperList((A, B, C))) == A


def test_rest_of_singleton_is_null():
    assert rest(ProperList((A,))) == NULL


def test_rest_of_longer_list():
    assert rest(ProperList((A, B, C))) == ProperList((B, C))


def test_combine_with_null():
    assert combine(A, NULL) == ProperList((A,))


def test_combine_with_list():
    assert combine(A, ProperList((B, C))) == ProperList((A, B, C))


# --- error domains ----------------------------------------------------------

def test_first_and_rest_undefined_on_null():
    for op in (first, rest):
        with pytest.raises(KernelError) as exc:
            op(NULL)
        assert exc.value.kind is KernelKind.UNDEFINED_ON_NULL


def test_first_and_rest_undefined_on_atoms():
    for op in (first, rest):
        with pytest.raises(KernelError) as exc:
            op(B)
        assert exc.value.kind is KernelKind.UNDEFINED_ON_ATOM


def test_combine_refuses_an_atomic_second_argument():
    with pytest.raises(KernelError) as exc:
        combine(A, B)
    assert exc.value.kind is KernelKind.ATOMIC_SECOND_ARG
    assert str(exc.value) == "combine: second argument is atomic"


def test_eq_examples():
    assert eq(A, A)
    assert not eq(A, B)


def test_eq_is_undefined_off_atoms():
    with pytest.raises(KernelError) as exc:
        eq(NULL, A)
    assert exc.value.kind is KernelKind.NOT_A_SYMBOL
    with pytest.raises(KernelError):
        eq(A, ProperList((A,)))
    with pytest.raises(KernelError):
        eq(NULL, NULL)


def test_atom_examples():
    assert atom(A)
    assert not atom(NULL)
    assert not atom(ProperList((A,)))


def test_null_examples():
    assert null(NULL)
    assert not null(A)
    assert not null(ProperList((NULL,)))


# --- laws over generated values ---------------------------------------------

@given(helpers.list_values, helpers.list_values)
def test_selector_constructor_laws(e, l):
    if atom(l):
        with pytest.raises(KernelError):
            combine(e, l)
        return
    v = combine(e, l)
    assert first(v) == e
    assert rest(v) == l


@given(helpers.list_values)
def test_recombination(x):
    if atom(x) or null(x):
        return
    assert combine(first(x), rest(x)) == x


@given(helpers.list_values)
def test_first_rest_error_exactly_on_null_and_atoms(x):
    should_fail = atom(x) or null(x)
    for op in (first, rest):
        if should_fail:
            with pytest.raises(KernelError):
                op(x)
        else:
            op(x)


def test_combine_output_is_always_proper():
    rng = random.Random(7)
    for _ in range(300):
        e = helpers.random_list_value(rng, 4)
        l = helpers.random_list_value(rng, 4)
        if atom(l):
            continue
        assert helpers.deep_proper(list_to_pair(combine(e, l)))


# --- what the cells promise -------------------------------------------------

def test_rest_is_the_tail_cell_and_combine_shares_its_list():
    x = ProperList((A, B, C))
    assert rest(x) is x.tail
    assert rest(rest(x)) is x.tail.tail
    l = ProperList((B, C))
    assert rest(combine(A, l)) is l
    assert rest(combine(A, NULL)) is NULL
    assert combine(A, l).length == 3 and NULL.length == 0


def test_cells_cannot_be_assigned():
    x = ProperList((A, B))
    for field, value in (
        ("head", B), ("tail", NULL), ("length", 5), ("items", ()), ("__class__", object),
    ):
        with pytest.raises(AttributeError):
            setattr(x, field, value)
        with pytest.raises(AttributeError):
            delattr(x, field)
    with pytest.raises(AttributeError):
        NULL.tail = x
    assert (x.head, x.tail.head, x.tail.tail, x.items) == (A, B, NULL, (A, B))


def test_the_empty_list_is_one_object():
    assert ProperList(()) is NULL
    assert ProperList([]) is NULL
    assert ProperList(items=iter(())) is NULL
    assert rest(ProperList((A,))) is NULL
    for v in (NULL, ProperList((A, NULL, ProperList((NULL,))))):
        for twin in (
            copy.copy(v),
            copy.deepcopy(v),
            pickle.loads(pickle.dumps(v)),
        ):
            assert twin == v
            assert null(twin) == (v is NULL)
            if v is NULL:
                assert twin is NULL
            else:
                assert twin.tail.head is NULL and twin.tail.tail.head.head is NULL


def test_a_long_list_pickles_and_copies():
    x = ProperList((A, B) * 50_000)
    for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert twin == x and twin.length == 100_000


def to_value(model):
    """The list-kernel value of a model: a str is an atom, a tuple a list."""
    if isinstance(model, str):
        return Symbol(model)
    return ProperList(to_value(m) for m in model)


def aim8_text(model):
    if isinstance(model, str):
        return model
    return "(" + ", ".join(aim8_text(m) for m in model) + ")"


def classic_text(model):
    if isinstance(model, str):
        return model
    if not model:
        return "NIL"
    return "(" + " ".join(classic_text(m) for m in model) + ")"


models = st.recursive(
    st.sampled_from(("A", "B", "X1")),
    lambda inner: st.lists(inner, max_size=5).map(tuple),
    max_leaves=30,
)
list_models = st.lists(models, max_size=6).map(tuple)


@given(list_models, models, models)
def test_cells_behave_like_tuples(m, e, other):
    """The kernel over cells against the same operations on plain tuples."""
    v = to_value(m)
    assert v.length == len(m)
    assert v.items == tuple(to_value(x) for x in m)
    assert null(v) == (m == ())
    assert repr(v) == print_sexpr(v) == aim8_text(m)
    assert print_sexpr(list_to_pair(v), Dialect.CLASSIC) == classic_text(m)
    assert (v == to_value(other)) == (m == other)
    assert (v != to_value(other)) == (m != other)
    if m == other:
        assert hash(v) == hash(to_value(other))
    assert v == to_value(m) and hash(v) == hash(to_value(m))
    longer = combine(to_value(e), v)
    assert longer == to_value((e,) + m)
    assert rest(longer) is v and first(longer) == to_value(e)
    if m:
        assert first(v) == to_value(m[0])
        assert rest(v) == to_value(m[1:])
        assert rest(v).items == v.items[1:]
