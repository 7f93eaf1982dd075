"""Value models and the mapping between the two kernels."""

import ast
import copy
import pathlib
import pickle
import random
import re
import sys

import pytest
from hypothesis import given

import helpers
import protolisp
from protolisp import (
    NIL,
    NULL,
    CyclicStructureError,
    Dialect,
    ImproperStructureError,
    Pair,
    ProperList,
    Symbol,
    equal_values,
    list_to_pair,
    pair_to_list,
    print_sexpr,
    unsafe_set_tail,
)
from protolisp import values

A, B, C = helpers.A, helpers.B, helpers.C


def test_symbol_names_follow_the_atom_rule():
    assert Symbol("A").name == "A"
    assert Symbol("X1Y2").name == "X1Y2"
    for bad in ("", "a", "1A", "A_B", "Ab", "NIL "):
        with pytest.raises(ValueError):
            Symbol(bad)


def test_symbols_are_interned():
    a = Symbol("A")
    assert a is Symbol("A") is Symbol(name="A")
    assert a is not Symbol("B")
    assert hash(a) == hash(Symbol("A"))
    assert copy.copy(a) is a
    assert copy.deepcopy(ProperList((a, Pair(a, NIL)))).items[0] is a
    assert pickle.loads(pickle.dumps(Pair(a, NIL))).head is a
    with pytest.raises(AttributeError):
        a.name = "B"
    with pytest.raises(AttributeError):
        a.other = 1
    with pytest.raises(ValueError):
        Symbol("a")


def test_a_symbols_name_cannot_be_deleted():
    a = Symbol("A")
    with pytest.raises(AttributeError, match="^cannot delete field 'name' of a symbol$"):
        del a.name
    assert a.name == "A" and a is Symbol("A")


def test_null_is_a_list_not_an_atom():
    assert NULL == ProperList(())
    assert not isinstance(NULL, Symbol)
    assert NULL != Symbol("NIL")


def test_equal_values_examples():
    assert equal_values(A, A)
    assert equal_values(NULL, NULL)
    assert not equal_values(ProperList((A, B)), ProperList((A,)))
    assert not equal_values(A, ProperList((A,)))


def test_equal_values_is_an_equivalence_relation():
    rng = random.Random(101)
    values = [helpers.random_list_value(rng, 4) for _ in range(150)]
    for v in values:
        assert equal_values(v, v)
    for x in values[:40]:
        for y in values[:40]:
            assert equal_values(x, y) == equal_values(y, x)
            if equal_values(x, y):
                for z in values[:20]:
                    if equal_values(y, z):
                        assert equal_values(x, z)


def test_list_to_pair_examples():
    assert list_to_pair(ProperList((A, B))) == Pair(A, Pair(B, NIL))
    assert list_to_pair(NULL) == NIL
    assert list_to_pair(A) == A


def test_pair_to_list_examples():
    assert pair_to_list(Pair(A, Pair(B, NIL))) == ProperList((A, B))
    assert pair_to_list(NIL) == NULL
    with pytest.raises(ImproperStructureError) as exc:
        pair_to_list(Pair(A, B))
    assert "ends at atom B" in str(exc.value)


def test_pair_to_list_rejects_improper_heads_too():
    v = Pair(Pair(A, B), NIL)
    with pytest.raises(ImproperStructureError):
        pair_to_list(v)


def test_pair_to_list_detects_cycles():
    spine = Pair(A, Pair(B, NIL))
    unsafe_set_tail(spine.tail, spine)
    with pytest.raises(CyclicStructureError):
        pair_to_list(spine)
    # a cycle through a head position, not just the spine
    head_cycle = Pair(A, NIL)
    unsafe_set_tail(head_cycle, Pair(head_cycle, NIL))
    with pytest.raises(CyclicStructureError):
        pair_to_list(head_cycle)


def test_shared_subtrees_are_not_cycles():
    shared = Pair(A, NIL)
    v = Pair(shared, Pair(shared, NIL))
    assert pair_to_list(v) == ProperList((ProperList((A,)), ProperList((A,))))


def test_conversions_reject_values_of_the_other_kernel():
    for bad, v in (
        ("(A . B)", Pair(A, B)),
        ("(A . B)", ProperList((C, ProperList((Pair(A, B),))))),
    ):
        message = f"not a list-kernel value: {bad}"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            list_to_pair(v)
    for v in (NULL, Pair(NULL, NIL), Pair(A, Pair(B, NULL))):
        with pytest.raises(TypeError, match=r"^not a pair-kernel value: \(\)$"):
            pair_to_list(v)


def test_conversions_take_any_nesting_depth():
    n = 100_000
    v = NULL
    for _ in range(n):
        v = ProperList((v,))
    p = list_to_pair(v)
    assert print_sexpr(p, Dialect.CLASSIC) == "(" * n + "NIL" + ")" * n
    back = pair_to_list(p)
    assert print_sexpr(back, Dialect.AIM8) == "(" * (n + 1) + ")" * (n + 1)
    assert print_sexpr(list_to_pair(back), Dialect.CLASSIC) == "(" * n + "NIL" + ")" * n


def test_pair_to_list_finds_faults_at_any_depth():
    inner = Pair(A, B)
    v = inner
    for _ in range(100_000):
        v = Pair(v, NIL)
    with pytest.raises(ImproperStructureError, match="ends at atom B"):
        pair_to_list(v)
    unsafe_set_tail(inner, v)
    with pytest.raises(CyclicStructureError):
        pair_to_list(v)


@given(helpers.nil_free_list_values)
def test_round_trip_through_pairs(v):
    assert pair_to_list(list_to_pair(v)) == v


def test_nil_atom_collapses_onto_the_null_list():
    # The embedding conflates the ordinary list-kernel atom NIL with ():
    # both land on the pair-kernel terminator.  Round-trip therefore holds
    # only for NIL-free values; this pins the collapse down.
    assert list_to_pair(Symbol("NIL")) == NIL
    assert pair_to_list(list_to_pair(Symbol("NIL"))) == NULL


def test_values_are_immutable():
    with pytest.raises(Exception):
        Pair(A, B).head = C
    with pytest.raises(Exception):
        ProperList((A,)).items = ()
    with pytest.raises(Exception):
        A.name = "B"


def test_unsafe_set_tail_is_the_only_way_to_a_cycle():
    p = Pair(A, NIL)
    unsafe_set_tail(p, p)
    assert p.tail is p


DEEP = 100_000


def nested_lists(leaf):
    v = ProperList((leaf,))
    for _ in range(DEEP):
        v = ProperList((v,))
    return v


def nested_pairs(leaf):
    v = Pair(leaf, NIL)
    for _ in range(DEEP):
        v = Pair(v, NIL)
    return v


@pytest.mark.parametrize("nested", [nested_lists, nested_pairs])
def test_equality_and_hashing_take_any_nesting_depth(nested):
    x, y, z = nested(B), nested(B), nested(C)
    assert x is not y
    assert x == y and equal_values(x, y) and not x != y
    assert hash(x) == hash(y)
    assert x != z and not equal_values(x, z)


@pytest.mark.parametrize("nested", [nested_lists, nested_pairs])
def test_copy_and_pickle_take_any_nesting_depth(nested):
    x = nested(B)
    for twin in (copy.deepcopy(x), pickle.loads(pickle.dumps(x)), copy.copy(x)):
        assert twin is not x and twin == x


def test_equality_and_hashing_take_any_length():
    x, y, z = (list_to_pair(ProperList((A,) * DEEP + (last,))) for last in (B, B, C))
    assert x == y and hash(x) == hash(y) and x != z


def cycle(*heads):
    """The pairs of heads, the last one's tail pointing back at the first."""
    first = last = Pair(heads[0], NIL)
    for h in heads[1:]:
        nxt = Pair(h, NIL)
        unsafe_set_tail(last, nxt)
        last = nxt
    unsafe_set_tail(last, first)
    return first


def test_cyclic_pairs_are_equal_when_they_unfold_alike():
    p, q = cycle(A), cycle(A)
    assert p == q and equal_values(p, q)
    assert hash(p) == hash(q)
    assert cycle(A, A, A) == cycle(A, A) == p  # A A A ... all of them
    assert cycle(A, B) == Pair(A, cycle(B, A))
    assert cycle(A, B, A, B) == cycle(A, B)
    head_cycle = Pair(A, NIL)
    unsafe_set_tail(head_cycle, Pair(head_cycle, NIL))
    other = Pair(A, NIL)
    unsafe_set_tail(other, Pair(other, NIL))
    assert head_cycle == other and hash(head_cycle) == hash(other)


def test_copies_of_cyclic_values_keep_their_sharing():
    p = Pair(A, NIL)
    inner = ProperList((p, A))
    unsafe_set_tail(p, Pair(p, inner))  # p's tail holds p, and a list holding p
    for twin in (copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert twin is not p and twin == p
        assert twin.tail.head is twin and twin.tail.tail.head is twin
    shared = ProperList((A, B))
    twin = copy.deepcopy(ProperList((shared, shared)))
    assert twin.head is twin.tail.head and twin.head == shared
    twin = pickle.loads(pickle.dumps(Pair(shared, shared)))
    assert twin.head is twin.tail and twin.head == shared


def test_cyclic_pairs_are_unequal_when_they_unfold_differently():
    assert cycle(A) != cycle(B)
    assert cycle(A, B) != cycle(B, A)
    assert cycle(A, A, B) != cycle(A, B)
    assert cycle(A) != Pair(A, Pair(A, NIL))
    assert not equal_values(cycle(A), A)
    assert ProperList((cycle(A),)) != ProperList((cycle(B),))
    assert ProperList((cycle(A),)) == ProperList((cycle(A, A),))


def test_values_of_different_kinds_are_never_equal():
    assert ProperList((A,)) != Pair(A, NIL)
    assert NULL != NIL and not equal_values(NULL, NIL)
    assert ProperList((A,)) != (A,)
    assert Pair(A, B) != (A, B)


class _Unhashable:
    def __hash__(self):
        raise TypeError("unhashable")


def test_hashing_reads_a_bounded_prefix():
    # A hash reads at most 64 parts in pre-order, so the 100th element of
    # a list or a chain is never hashed; one near the front still is.
    items = (A,) * 99 + (_Unhashable(),)
    chain = NIL
    for x in reversed(items):
        chain = Pair(x, chain)
    assert isinstance(hash(ProperList(items)), int)
    assert isinstance(hash(chain), int)
    with pytest.raises(TypeError):
        hash(ProperList((A, _Unhashable())))


def test_cyclic_pairs_that_unfold_alike_hash_alike():
    assert hash(cycle(A, A, A)) == hash(cycle(A, A)) == hash(cycle(A))
    assert hash(cycle(A, B)) == hash(Pair(A, cycle(B, A)))
    assert hash(cycle(A, B, A, B)) == hash(cycle(A, B))
    assert hash(ProperList((cycle(A),))) == hash(ProperList((cycle(A, A),)))


def test_lists_and_pairs_take_what_they_share_from_one_base():
    shared = {
        "__setattr__", "__delattr__", "__eq__", "__hash__", "__reduce__", "__repr__"
    }
    assert shared <= vars(values._Compound).keys()
    for cls in (ProperList, Pair):
        assert issubclass(cls, values._Compound)
        assert not shared & vars(cls).keys()


def test_only_the_values_module_makes_cells():
    # A cell is a _Cell or a _PairCell until its class is set: no other
    # module names those classes or assigns __class__, so every list and
    # pair is made by the values module's constructors and chain builders.
    found = []
    for path in sorted(pathlib.Path(protolisp.__file__).parent.glob("*.py")):
        if path.name == "values.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, ast.alias):
                name = node.name
            elif isinstance(node, ast.Constant):
                name = node.value
            if name in ("_Cell", "_PairCell") or (
                name == "__class__"
                and not isinstance(getattr(node, "ctx", None), ast.Load)
            ):
                found.append(f"{path.name}:{node.lineno}: {name}")
    assert found == []


# Each walk with the input it runs out of memory on (see helpers.MEMORY_CHILD).
_SHARED_INPUTS = {
    "list": "v = A\nfor _ in range(depth): v = ProperList((v, v))",
    "pair": "v = A\nfor _ in range(depth): v = Pair(v, Pair(v, NIL))",
}
_WALKS = {
    "print_sexpr aim8": ("list", "print_sexpr(v)"),
    "print_sexpr classic": ("pair", "print_sexpr(v, Dialect.CLASSIC)"),
    "repr": ("list", "repr(v)"),
    "list_to_pair": ("list", "list_to_pair(v)"),
    "pair_to_list": ("pair", "pair_to_list(v)"),
}


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS as on Linux")
@pytest.mark.parametrize("walk", sorted(_WALKS))
def test_a_walk_that_exhausts_memory_lets_go_of_it(walk):
    # The printers and the conversions keep their own stacks: where one
    # runs out of memory, it clears its stack and what it has built before
    # the MemoryError goes on.  Two caps, the children at once, 60 s each.
    value, call = _WALKS[walk]
    sources = {
        cap: helpers.MEMORY_CHILD.format(
            cap=cap, depth=26, make=_SHARED_INPUTS[value], walk=call)
        for cap in (320, 512)
    }
    for cap, code, out, err in helpers.capped_children(sources):
        assert (code, out) == (0, "MemoryError\n"), (cap, err[-2000:])
