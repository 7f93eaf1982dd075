"""The front end runs with the cycle collector paused, and restores it.

The readers, translate, the printers and the kernel conversions make only
acyclic structure, so they pause CPython's cycle collector while they run
(see the values module).  A gc.callbacks hook sees each collection that
starts, and the frames on the stack tell whether a covered function was
running.
"""

import contextlib
import gc
import inspect
import sys
import threading

import pytest

from protolisp import (
    CyclicStructureError,
    Dialect,
    KindMismatchError,
    NameCollisionError,
    Pair,
    ParseError,
    Symbol,
    Var,
    list_to_pair,
    pair_to_list,
    print_fexpr,
    print_sexpr,
    read_fexpr,
    read_program,
    read_sexpr,
    read_sexprs,
    translate,
    translate_program,
    unsafe_set_tail,
)
from protolisp import values

AIM8, CLASSIC = Dialect.AIM8, Dialect.CLASSIC

# The functions under which no collection may start.  repr and print_sexpr
# are the _text walk.
COVERED = (
    read_sexpr,
    read_sexprs,
    read_fexpr,
    read_program,
    translate,
    translate_program,
    values._text,
    print_fexpr,
    list_to_pair,
    pair_to_list,
)
_CODES = {inspect.unwrap(fn).__code__ for fn in COVERED}


@contextlib.contextmanager
def collections_in_covered():
    """The collections that start while a covered function is on the stack.

    Each is recorded as (the innermost covered function's name, generation).
    """
    seen = []

    def hook(phase, info):
        if phase != "start":
            return
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code in _CODES:
                seen.append((frame.f_code.co_name, info["generation"]))
                return
            frame = frame.f_back

    gc.callbacks.append(hook)
    try:
        yield seen
    finally:
        gc.callbacks.remove(hook)


@contextlib.contextmanager
def collector(on):
    """The collector on or off for the block, as it was before afterwards."""
    was = gc.isenabled()
    (gc.enable if on else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


# 10^4 atoms each: a wide value of small lists, a value nested 10^4 deep,
# and a program of 1000 items.
WIDE = "(" + ", ".join(["(A, (B, C), D)"] * 2500) + ")"
DEEP = "(" * 10_000 + "A" + ")" * 10_000
_LINE = "g[x; (A, B, C); lambda[[y]; [atom[y] -> (D, E); T -> f[y; F]]]]"
PROGRAM = "\n".join(f"d{i} = {_LINE}" if i % 2 else _LINE for i in range(1000))
FTEXT = "h[" + "; ".join([_LINE] * 1000) + "]"


def _calls(text):
    """(name, thunk) of a call of each covered entry point on the value of text."""
    value = read_sexpr(text)
    pairs = list_to_pair(value)
    classic_text = print_sexpr(pairs, CLASSIC)
    fexpr = read_fexpr(FTEXT)
    definitions = [(item.name, item.body) for item in read_program(PROGRAM)[1::2]]
    return {
        "read_sexpr": lambda: read_sexpr(text),
        "read_sexpr classic": lambda: read_sexpr(classic_text, CLASSIC),
        "read_sexprs": lambda: read_sexprs(text + "\n" + text),
        "read_fexpr": lambda: read_fexpr(FTEXT),
        "read_program": lambda: read_program(PROGRAM),
        "translate": lambda: translate(fexpr),
        "translate_program": lambda: translate_program(definitions),
        "print_sexpr": lambda: print_sexpr(value, AIM8),
        "print_sexpr classic": lambda: print_sexpr(pairs, CLASSIC),
        "repr": lambda: (repr(value), repr(pairs)),
        "print_fexpr": lambda: print_fexpr(fexpr),
        "list_to_pair": lambda: list_to_pair(value),
        "pair_to_list": lambda: pair_to_list(pairs),
    }


_WIDE_CALLS = _calls(WIDE)
_DEEP_CALLS = _calls(DEEP)


@pytest.mark.parametrize("shape", ["wide", "deep"])
@pytest.mark.parametrize("name", sorted(_WIDE_CALLS))
def test_no_collection_starts_inside_a_front_end_call(name, shape):
    call = (_WIDE_CALLS if shape == "wide" else _DEEP_CALLS)[name]
    with collector(True), collections_in_covered() as seen:
        call()
        assert gc.isenabled()
    assert seen == []


def test_the_hook_sees_a_collection_inside_a_covered_function():
    # The hook's own check: a collection forced from inside a covered
    # function, here through a value's repr, is seen.
    class Collects:
        def __repr__(self):
            gc.collect(0)
            return "X"

    with collector(True), collections_in_covered() as seen:
        repr(Pair(Collects(), Symbol("NIL")))
    assert seen == [("_text", 0)]


@pytest.mark.parametrize("on", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("name", sorted(_WIDE_CALLS))
def test_a_front_end_call_leaves_the_collector_as_it_found_it(name, on):
    with collector(on):
        _WIDE_CALLS[name]()
        assert gc.isenabled() is on


def _cyclic():
    pair = Pair(Symbol("A"), Symbol("NIL"))
    unsafe_set_tail(pair, pair)
    return pair


_FAILING = {
    "read_sexpr": (ParseError, lambda: read_sexpr("(A, (B)")),
    "read_sexprs": (ParseError, lambda: read_sexprs("(A) (B . C)")),
    "read_fexpr": (ParseError, lambda: read_fexpr("f[A; (B]")),
    "read_program": (ParseError, lambda: read_program("f = g[\n")),
    "translate": (NameCollisionError, lambda: translate(Var("quote"))),
    "translate_program": (NameCollisionError, lambda: translate_program([("cond", Var("x"))])),
    "translate not an F-expression": (TypeError, lambda: translate("f[x]")),
    "print_sexpr": (KindMismatchError, lambda: print_sexpr(Pair(Symbol("A"), Symbol("B")))),
    "print_sexpr of a cyclic pair": (KindMismatchError, lambda: print_sexpr(_cyclic(), AIM8)),
    "print_fexpr": (TypeError, lambda: print_fexpr(5)),
    "list_to_pair": (TypeError, lambda: list_to_pair(5)),
    "pair_to_list": (CyclicStructureError, lambda: pair_to_list(_cyclic())),
    "pair_to_list not a pair": (TypeError, lambda: pair_to_list(Pair(5, Symbol("NIL")))),
}


@pytest.mark.parametrize("on", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("name", sorted(_FAILING))
def test_a_front_end_call_that_raises_leaves_the_collector_as_it_found_it(name, on):
    error, call = _FAILING[name]
    with collector(on):
        with pytest.raises(error):
            call()
        assert gc.isenabled() is on


def test_threads_reading_at_once_leave_the_collector_on():
    # More threads than cores, switched often, so that paused calls
    # overlap: each finds the collector on or off as another left it.
    count = 4
    barrier = threading.Barrier(count)
    values_read = []

    def read():
        barrier.wait()
        for _ in range(5):
            values_read.append(read_sexpr(WIDE))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with collector(True):
            threads = [threading.Thread(target=read) for _ in range(count)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert gc.isenabled()
    finally:
        sys.setswitchinterval(interval)
    assert len(values_read) == 5 * count
