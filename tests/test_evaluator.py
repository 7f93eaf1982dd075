"""The universal interpreter over both kernels."""

import ast
import builtins
import contextlib
import copy
import dataclasses
import functools
import gc
import inspect
import itertools
import operator
import os
import pickle
import random
import subprocess
import sys
import threading
import time
import tracemalloc
import types
import weakref
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import corpus
import helpers
import protolisp
from protolisp import (
    DEFAULT_MAX_DEPTH,
    NIL,
    NULL,
    Closure,
    Dialect,
    EvalError,
    Fault,
    Kernel,
    KernelError,
    KernelKind,
    Pair,
    Primitive,
    ProperList,
    Symbol,
    T,
    F,
    apply_fn,
    default_env,
    eval_fexpr,
    eval_sexpr,
    list_to_pair,
    meta_eval,
    print_sexpr,
    read_fexpr,
    read_sexpr,
    translate,
    universal_env,
    unsafe_set_tail,
)
from protolisp import evaluator
from protolisp.evaluator import Env, _Interp

A, B, C = helpers.A, helpers.B, helpers.C
DEPTH = 500  # ample for everything in this file, cheap on the host stack


def ev(text, kernel=Kernel.LIST):
    dialect = Dialect.AIM8 if kernel is Kernel.LIST else Dialect.CLASSIC
    return eval_sexpr(read_sexpr(text, dialect), kernel=kernel, max_depth=DEPTH)


def evf(text, kernel=Kernel.LIST):
    return eval_fexpr(read_fexpr(text), kernel=kernel, max_depth=DEPTH)


def fault_of(fn, *args, **kwargs):
    with pytest.raises(EvalError) as exc:
        fn(*args, **kwargs)
    return exc.value


# --- special forms -----------------------------------------------------------

def test_quote_returns_its_operand():
    assert ev("(QUOTE, (A, B))") == ProperList((A, B))
    assert ev("(QUOTE, ())") == NULL


def test_identity_application():
    assert ev("((LAMBDA, (X), X), (QUOTE, A))") == A


def test_cond_takes_the_first_true_clause():
    assert ev("(COND, ((QUOTE, F), (QUOTE, A)), ((QUOTE, T), (QUOTE, B)))") == B


def test_truth_atoms_self_evaluate_when_unbound():
    assert ev("T") == T
    assert ev("F") == F


def test_bindings_win_over_self_evaluation():
    # a LABEL may be named F; its recursive reference must reach the closure
    src = "label[f; lambda[[x]; [null[x] -> (); T -> f[rest[x]]]]][(A, B)]"
    assert evf(src) == NULL


def test_nil_self_evaluates_only_in_the_pair_kernel():
    assert ev("NIL", Kernel.PAIR) == NIL
    e = fault_of(ev, "NIL")
    assert e.kind is Fault.UNBOUND


def test_lambda_builds_a_closure():
    v = ev("(LAMBDA, (X, Y), X)")
    assert isinstance(v, Closure)
    assert repr(v) == "#<closure (X Y)>"


def test_label_names_the_closure():
    v = ev("(LABEL, SELF, (LAMBDA, (X), X))")
    assert isinstance(v, Closure)
    assert v.self_name == Symbol("SELF")


# --- fault kinds --------------------------------------------------------------

def test_unbound_symbol():
    e = fault_of(ev, "ZZ")
    assert e.kind is Fault.UNBOUND
    assert "ZZ" in str(e)


def test_kernel_fault_wraps_the_kernel_error():
    e = fault_of(ev, "(FIRST, (QUOTE, ()))")
    assert e.kind is Fault.KERNEL_FAULT
    assert e.kernel_error.kind is KernelKind.UNDEFINED_ON_NULL
    assert str(e) == "first: undefined on the null list"


def test_arity_faults():
    e = fault_of(ev, "(FIRST, (QUOTE, (A)), (QUOTE, (B)))")
    assert e.kind is Fault.ARITY
    e = fault_of(ev, "((LAMBDA, (X), X))")
    assert e.kind is Fault.ARITY


def test_not_callable():
    e = fault_of(ev, "((QUOTE, (A)), (QUOTE, B))")
    assert e.kind is Fault.NOT_CALLABLE


def test_cond_exhausted():
    e = fault_of(ev, "(COND, ((QUOTE, F), (QUOTE, A)))")
    assert e.kind is Fault.COND_EXHAUSTED


def test_cond_requires_exactly_t_or_f():
    e = fault_of(ev, "(COND, ((QUOTE, (A)), (QUOTE, B)))")
    assert e.kind is Fault.BAD_TRUTH_VALUE
    e = fault_of(ev, "(COND, ((QUOTE, ZZ), (QUOTE, B)))")
    assert e.kind is Fault.BAD_TRUTH_VALUE


def test_malformed_forms():
    for text in (
        "(QUOTE)",
        "(QUOTE, A, B)",
        "()",
        "(COND, (T))",
        "(COND, A)",
        "(LAMBDA, X, X)",
        "(LAMBDA, (X))",
        "(LAMBDA, ((X)), X)",
        "(LAMBDA, (X, X), X)",
        "(LABEL, (N), (LAMBDA, (X), X))",
        "(LABEL, N, (QUOTE, A))",
    ):
        e = fault_of(ev, text)
        assert e.kind is Fault.MALFORMED, text


def test_malformed_pair_kernel_expression():
    e = fault_of(
        eval_sexpr, Pair(Symbol("FIRST"), A), kernel=Kernel.PAIR, max_depth=DEPTH
    )
    assert e.kind is Fault.MALFORMED


def _looped(spine):
    """spine, with its last pair's tail pointed back at its first pair."""
    end = spine
    while end.tail is not NIL:
        end = end.tail
    unsafe_set_tail(end, spine)
    return spine


def _cyclic_form(part):
    x = Symbol("X")
    if part == "application":
        return _looped(Pair(Symbol("FIRST"), Pair(x, NIL)))
    if part == "cond-clause":
        clause = _looped(Pair(list_to_pair(read_sexpr("(QUOTE, T)")), Pair(A, NIL)))
        return Pair(Symbol("COND"), Pair(clause, NIL))
    params = _looped(Pair(x, NIL))
    return Pair(Symbol("LAMBDA"), Pair(params, Pair(x, NIL)))


@pytest.mark.parametrize(
    "part, message",
    [
        ("application", "not an expression of the pair kernel: (FIRST . (X . #cycle))"),
        ("cond-clause", "each COND clause must be a two-element list"),
        ("lambda-parameters", "LAMBDA parameters must be a list of atoms"),
    ],
)
def test_cyclic_pair_kernel_forms_are_malformed(part, message):
    form = _cyclic_form(part)
    e = fault_of(eval_sexpr, form, kernel=Kernel.PAIR, max_depth=DEPTH)
    assert (e.kind, str(e), e.trace) == (Fault.MALFORMED, message, (form,))


def test_depth_exceeded():
    runaway = "label[f; lambda[[]; f[]]][]"
    with pytest.raises(EvalError) as exc:
        eval_fexpr(read_fexpr(runaway), max_depth=60)
    assert exc.value.kind is Fault.DEPTH_EXCEEDED
    assert str(exc.value) == "recursion depth exceeded (60)"


def test_trace_holds_the_expressions_under_evaluation():
    expr = read_sexpr("(COMBINE, (FIRST, (QUOTE, ())), (QUOTE, A))")
    e = fault_of(eval_sexpr, expr, max_depth=DEPTH)
    assert e.trace[0] == expr
    assert e.trace[-1] == read_sexpr("(FIRST, (QUOTE, ()))")


@pytest.mark.parametrize("kernel", [Kernel.LIST, Kernel.PAIR])
def test_the_depth_limit_is_exact(kernel):
    walk = read_fexpr(corpus.WALK + "[(A, B, C, D, E)]")
    empty = NULL if kernel is Kernel.LIST else NIL
    assert eval_fexpr(walk, kernel=kernel, max_depth=14) == empty
    e = fault_of(eval_fexpr, walk, kernel=kernel, max_depth=13)
    assert e.kind is Fault.DEPTH_EXCEEDED


def test_apply_fn_counts_the_closure_body_as_one_level():
    ident = ev("(LAMBDA, (X), X)")
    assert apply_fn(ident, [A], max_depth=1) == A
    e = fault_of(apply_fn, ident, [A], max_depth=0)
    assert e.kind is Fault.DEPTH_EXCEEDED


def test_trace_is_every_open_evaluation_outermost_first():
    expr = read_sexpr("((LAMBDA, (X), (FIRST, X)), (QUOTE, ()))")
    e = fault_of(eval_sexpr, expr, max_depth=DEPTH)
    assert e.trace == (expr, read_sexpr("(FIRST, X)"))


def test_trace_keeps_the_innermost_eight():
    e = fault_of(eval_fexpr, read_fexpr("label[f; lambda[[]; f[]]][]"), max_depth=60)
    assert e.kind is Fault.DEPTH_EXCEEDED
    assert len(e.trace) == 8


@pytest.mark.parametrize("kernel", [Kernel.LIST, Kernel.PAIR])
def test_error_messages_render_deeply_nested_values(kernel):
    n = 1500
    nest = (
        "label[d; lambda[[n; acc];"
        " [null[n] -> acc; T -> d[rest[n]; combine[acc; ()]]]]]"
    )
    src = "[%s[(%s); ()] -> A; T -> B]" % (nest, ", ".join(["A"] * n))
    e = fault_of(eval_fexpr, read_fexpr(src), kernel=kernel)
    assert e.kind is Fault.BAD_TRUTH_VALUE
    if kernel is Kernel.LIST:
        value = "(" * (n + 1) + ")" * (n + 1)
    else:
        value = "(" * n + "NIL" + " . NIL)" * n
    assert str(e) == f"COND test produced {value}, which is neither T nor F"


# --- each form is analysed once, and still behaves as written ------------------

@pytest.mark.parametrize("kernel", [Kernel.LIST, Kernel.PAIR])
def test_malformed_syntax_in_an_untaken_cond_branch_raises_nothing(kernel):
    for text in (
        "(COND, ((QUOTE, T), (QUOTE, A)), (QUOTE))",
        "(COND, ((QUOTE, T), (QUOTE, A)), ((QUOTE, T), (LAMBDA, X)))",
        "(COND, ((QUOTE, T), (QUOTE, A)), ((QUOTE, T), (QUOTE, A, B)))",
    ):
        if kernel is Kernel.PAIR:
            text = text.replace(", ", " ")
        assert ev(text, kernel) == A


def test_a_malformed_third_clause_fails_after_the_first_two_tests_ran():
    # SEEN records its argument and answers T for A only.  G is applied
    # twice in one evaluation: to A it answers from its first clause, to B
    # it tries two tests and then reaches the malformed clause (X).
    seen = []

    def record(x):
        seen.append(x)
        return T if x == A else F

    env = default_env().extend([(Symbol("SEEN"), Primitive("SEEN", 1, record))])
    g = read_sexpr(
        "(LAMBDA, (X), (COND, ((SEEN, X), (QUOTE, ONE)),"
        " ((SEEN, (QUOTE, C)), (QUOTE, TWO)), (X)))"
    )
    cond = g.items[2]
    twice = read_sexpr("(COMBINE, (G, (QUOTE, A)), (G, (QUOTE, B)))")
    program = ProperList((ProperList((Symbol("LAMBDA"), read_sexpr("(G)"), twice)), g))
    e = fault_of(eval_sexpr, program, env, max_depth=DEPTH)
    assert e.kind is Fault.MALFORMED
    assert str(e) == "each COND clause must be a two-element list"
    assert seen == [A, B, C]
    assert e.trace == (program, twice, twice.items[2], cond)


def test_one_lambda_form_closes_over_each_environment_it_meets():
    # (LAMBDA, (), X) is evaluated twice, with X bound to A and then to B.
    program = read_sexpr(
        "((LAMBDA, (MK), (COMBINE, ((MK, (QUOTE, A))),"
        " (COMBINE, ((MK, (QUOTE, B))), (QUOTE, ())))),"
        " (LAMBDA, (X), (LAMBDA, (), X)))"
    )
    assert eval_sexpr(program, max_depth=DEPTH) == ProperList((A, B))
    mk = ev("(LAMBDA, (X), (LAMBDA, (), X))")
    first, second = apply_fn(mk, [A]), apply_fn(mk, [B])
    assert first.body is second.body
    assert (first.env.lookup(Symbol("X")), second.env.lookup(Symbol("X"))) == (A, B)


def test_a_list_kernel_closure_is_malformed_under_the_pair_kernel():
    fst = ev("(LAMBDA, (X), (FIRST, X))")
    assert apply_fn(fst, [ProperList((A,))], max_depth=DEPTH) == A
    e = fault_of(apply_fn, fst, [Pair(A, NIL)], kernel=Kernel.PAIR, max_depth=DEPTH)
    assert e.kind is Fault.MALFORMED
    assert str(e) == "not an expression of the pair kernel: (FIRST, X)"


# --- evaluation order and scope -------------------------------------------------

def test_arguments_evaluate_left_to_right():
    e = fault_of(ev, "(COMBINE, (FIRST, (QUOTE, ())), ZZ)")
    assert e.kind is Fault.KERNEL_FAULT
    e = fault_of(ev, "(COMBINE, ZZ, (FIRST, (QUOTE, ())))")
    assert e.kind is Fault.UNBOUND


def test_head_evaluates_before_arguments():
    e = fault_of(ev, "(ZZ, (FIRST, (QUOTE, ())))")
    assert e.kind is Fault.UNBOUND


def test_closures_capture_lexically():
    make = evf("lambda[[x]; lambda[[y]; combine[x; y]]][A]")
    assert isinstance(make, Closure)
    out = apply_fn(make, [ProperList((B,))], max_depth=DEPTH)
    assert out == ProperList((A, B))


def test_inner_bindings_shadow_outer():
    assert evf("lambda[[x]; lambda[[x]; x][B]][A]") == B


def test_evaluation_is_deterministic():
    e = read_fexpr(corpus.APPEND + "[(A, B); (C)]")
    assert eval_fexpr(e, max_depth=DEPTH) == eval_fexpr(e, max_depth=DEPTH)


# --- environments ----------------------------------------------------------------

def test_env_lookup_is_innermost_first():
    env = Env(((Symbol("X"), A),))
    inner = env.extend([(Symbol("X"), B)])
    assert inner.lookup(Symbol("X")) == B
    assert env.lookup(Symbol("X")) == A  # parent untouched
    with pytest.raises(LookupError):
        env.lookup(Symbol("Y"))


def test_a_frame_compares_like_any_environment_with_its_bindings():
    # The inner closure captures the frame made by applying the outer one.
    inner = evf("lambda[[x]; lambda[[y]; combine[x; y]]][(A)]")
    frame, plain = inner.env, Env(inner.env.bindings)
    assert (frame, hash(frame), repr(frame)) == (plain, hash(plain), repr(plain))
    assert inner == Closure(inner.params, inner.body, plain)
    assert inner.env.extend([]).lookup(Symbol("X")) == ProperList((A,))


def test_a_call_makes_one_frame_over_the_environment_its_closure_captured():
    fn = evf("label[f; lambda[[x; y]; x]]")
    frame = _Interp(Kernel.LIST, DEPTH)._bind(fn, [A, B])
    assert frame.parent is fn.env and frame.owner is fn
    assert frame.names == (_X, _Y, Symbol("F")) and frame.values == (A, B, fn)
    # The frame an inner closure captured: its owner made it, over its own env.
    inner = evf("lambda[[x]; lambda[[y]; x]][(A)]")
    assert inner.env.parent is inner.env.owner.env
    # extend copies the innermost frame only, and the copy has no owner.
    wider = inner.env.extend([(_Y, B)])
    assert wider.parent is inner.env.parent and wider.owner is None
    assert wider.names == (_Y, _X) and wider.values == (B, ProperList((A,)))


def test_a_copied_or_pickled_frame_keeps_its_bindings_and_owner():
    inner = evf("lambda[[x]; lambda[[y]; combine[x; y]]][(A)]")
    frame = inner.env
    for twin in (copy.deepcopy(frame), pickle.loads(pickle.dumps(frame))):
        assert (twin, hash(twin), repr(twin)) == (frame, hash(frame), repr(frame))
        assert twin.owner is not None and twin.owner == frame.owner
        # The copy's frame extends its copied owner's environment, as a
        # call's frame does.
        assert twin.parent is twin.owner.env and twin.parent == frame.parent


def test_no_slot_of_an_environment_can_be_assigned_or_deleted():
    frame = evf("lambda[[x]; lambda[[y]; x]][(A)]").env
    for slot in ("names", "values", "parent", "owner", "bindings", "other"):
        with pytest.raises(AttributeError):
            setattr(frame, slot, None)
        with pytest.raises(AttributeError):
            delattr(frame, slot)
    assert not hasattr(frame, "__dict__")


def test_an_environment_equals_only_an_environment():
    # Whatever holds a frame's fields, a tuple of them, or a list, is no
    # environment: it equals none, from either side, and an environment
    # compares, hashes and prints as its bindings alone, and is not ordered.
    frame = evf("lambda[[x]; lambda[[y]; x]][(A)]").env
    for env in (default_env(), frame, Env(frame.bindings)):
        fields = (env.names, env.values, env.parent, env.owner)
        twin = Env(env.bindings)
        for other in (fields, list(fields), env.bindings):
            assert not env == other and not other == env
            assert env != other and other != env
        for other in (fields, twin, env):
            for order in (operator.lt, operator.le, operator.gt, operator.ge):
                with pytest.raises(TypeError):
                    order(env, other)
                with pytest.raises(TypeError):
                    order(other, env)
        assert env == twin and twin == env and not env != twin and not twin != env
        assert hash(env) == hash(twin) == hash((env.bindings,))
        assert repr(env) == repr(twin) == f"Env(bindings={env.bindings!r})"


def test_default_env_binds_both_naming_generations():
    for kernel in (Kernel.LIST, Kernel.PAIR):
        env = default_env(kernel)
        for name in ("FIRST", "CAR", "REST", "CDR", "COMBINE", "CONS",
                     "ATOM", "EQ", "NULL"):
            assert isinstance(env.lookup(Symbol(name)), Primitive)


def test_primitive_repr():
    env = default_env(Kernel.LIST)
    assert repr(env.lookup(Symbol("FIRST"))) == "#<primitive FIRST>"


def test_a_list_or_a_pair_shows_the_functions_it_holds():
    prim = default_env(Kernel.LIST).lookup(Symbol("FIRST"))
    fn = ev("(LAMBDA, (X, Y), X)")
    assert repr(ProperList((A, prim, fn))) == (
        "(A, #<primitive FIRST>, #<closure (X Y)>)"
    )
    assert repr(Pair(fn, prim)) == "(#<closure (X Y)> . #<primitive FIRST>)"


# --- apply ------------------------------------------------------------------------

def test_apply_primitive_combine():
    comb = default_env(Kernel.LIST).lookup(Symbol("COMBINE"))
    assert apply_fn(comb, [A, NULL], max_depth=DEPTH) == ProperList((A,))
    e = fault_of(apply_fn, comb, [A, B], max_depth=DEPTH)
    assert e.kind is Fault.KERNEL_FAULT
    assert e.kernel_error.kind is KernelKind.ATOMIC_SECOND_ARG


def test_apply_pair_cons_is_unconstrained():
    cons = default_env(Kernel.PAIR).lookup(Symbol("CONS"))
    assert apply_fn(cons, [A, B], kernel=Kernel.PAIR, max_depth=DEPTH) == Pair(A, B)


def test_apply_closure_arity():
    ident = ev("(LAMBDA, (X), X)")
    assert apply_fn(ident, [A], max_depth=DEPTH) == A
    e = fault_of(apply_fn, ident, [A, B], max_depth=DEPTH)
    assert e.kind is Fault.ARITY


# --- the two kernels ---------------------------------------------------------------

def test_cons_alias_enforces_the_list_constraint():
    e = fault_of(ev, "(CONS, (QUOTE, A), (QUOTE, B))")
    assert e.kind is Fault.KERNEL_FAULT
    assert ev("(CONS (QUOTE A) (QUOTE B))", Kernel.PAIR) == Pair(A, B)


def test_combine_alias_is_unconstrained_over_pairs():
    assert ev("(COMBINE (QUOTE A) (QUOTE B))", Kernel.PAIR) == Pair(A, B)


def test_pair_kernel_null_means_is_nil():
    assert ev("(NULL (QUOTE NIL))", Kernel.PAIR) == T
    assert ev("(NULL (QUOTE A))", Kernel.PAIR) == F
    assert ev("(NULL (QUOTE (A)))", Kernel.PAIR) == F


def test_the_kernels_split_exactly_on_atomicity_of_the_null_list():
    # atom[()] is the one corpus-shaped program where the kernels disagree:
    # () is a non-atom over lists but arrives as the atom NIL over pairs.
    e = read_fexpr("atom[()]")
    assert eval_fexpr(e, kernel=Kernel.LIST, max_depth=DEPTH) == F
    assert eval_fexpr(e, kernel=Kernel.PAIR, max_depth=DEPTH) == T


# --- the corpus ---------------------------------------------------------------------

@pytest.mark.parametrize("program", corpus.PROGRAMS, ids=lambda p: p.name)
def test_corpus_program_value(program):
    expected = read_sexpr(program.expected)
    e = read_fexpr(program.source)
    assert eval_fexpr(e, max_depth=DEPTH) == expected
    # definitional coherence: evalF is evalS after translation
    assert eval_sexpr(translate(e), max_depth=DEPTH) == expected


# --- library functions against brute-force oracles -----------------------------------

def closure_for(source):
    return eval_sexpr(translate(read_fexpr(source)), max_depth=DEPTH)


def test_append_matches_its_oracle_exhaustively():
    app = closure_for(corpus.APPEND)
    flats = helpers.flat_lists(helpers.ALPHABET3, 4)
    for x in flats:
        for y in flats:
            assert apply_fn(app, [x, y], max_depth=DEPTH) == helpers.py_append(x, y)


def test_member_matches_its_oracle_exhaustively():
    mem = closure_for(corpus.MEMBER)
    flats = helpers.flat_lists(helpers.ALPHABET3, 4)
    for e in helpers.ALPHABET3 + (helpers.D,):
        for l in flats:
            assert apply_fn(mem, [e, l], max_depth=DEPTH) == helpers.py_member(e, l)


def test_zip_matches_its_oracle_exhaustively():
    zp = closure_for(corpus.ZIP)
    for n in range(5):
        for ns in itertools.product(helpers.ALPHABET3, repeat=n):
            for vs in itertools.product((A, B), repeat=n):
                x, y = ProperList(ns), ProperList(vs)
                assert apply_fn(zp, [x, y], max_depth=DEPTH) == helpers.py_zip(x, y)


def test_subst_matches_its_oracle():
    sb = closure_for(corpus.SUBST)
    trees = helpers.enumerate_list_values(2, atoms=(A, B))
    for z in trees:
        for x, y in ((C, A), (ProperList((C,)), B)):
            assert apply_fn(sb, [x, y, z], max_depth=DEPTH) == helpers.py_subst(
                x, y, z
            )


def test_equal_matches_its_oracle():
    eql = closure_for(corpus.EQUAL)
    small = helpers.enumerate_list_values(1, atoms=(A, B))
    for x in small:
        for y in small:
            assert apply_fn(eql, [x, y], max_depth=DEPTH) == helpers.py_equal(x, y)
    rng = random.Random(17)
    for _ in range(300):
        x = helpers.random_list_value(rng, 3)
        y = x if rng.random() < 0.4 else helpers.random_list_value(rng, 3)
        assert apply_fn(eql, [x, y], max_depth=DEPTH) == helpers.py_equal(x, y)


def test_reverse_and_last_match_their_oracles():
    rv = closure_for(corpus.REVERSE)
    lst = closure_for(corpus.LAST)
    rng = random.Random(19)
    for _ in range(200):
        n = rng.randrange(1, 7)
        x = ProperList(tuple(rng.choice(helpers.ALPHABET3) for _ in range(n)))
        assert apply_fn(rv, [x, NULL], max_depth=DEPTH) == helpers.py_reverse(x)
        assert apply_fn(lst, [x], max_depth=DEPTH) == helpers.py_last(x)


# --- depth --------------------------------------------------------------------------

def test_deep_recursion_is_fine_under_the_default_limit():
    items = ", ".join(["A"] * 1200)
    src = corpus.WALK + "[(%s)]" % items
    assert eval_fexpr(read_fexpr(src)) == NULL  # default max depth


def test_the_limit_is_enforced_not_the_host_stack():
    items = ", ".join(["A"] * 1200)
    src = corpus.WALK + "[(%s)]" % items
    with pytest.raises(EvalError) as exc:
        eval_fexpr(read_fexpr(src), max_depth=100)
    assert exc.value.kind is Fault.DEPTH_EXCEEDED


# --- primitive trees run in one step, and nothing shows it -------------------------

COMBINE, QUOTE = Symbol("COMBINE"), Symbol("QUOTE")


def form(kernel, *items):
    """The form of items: a list, or in the pair kernel a chain of pairs.

    Items are used as they are, so a form object can be shared.
    """
    if kernel is Kernel.LIST:
        return ProperList(items)
    chain = NIL
    for x in reversed(items):
        chain = Pair(x, chain)
    return chain


def in_kernel(kernel, v):
    return v if kernel is Kernel.LIST else list_to_pair(v)


def quoted(kernel, v):
    return form(kernel, QUOTE, in_kernel(kernel, v))


def in_a_body(expr, env, kernel, max_depth):
    """eval_sexpr's signature, with expr the body of a closure of no parameters.

    The closure, over env, is applied by apply_fn, so expr's steps have an
    owner and may be resolved into runs, while the body starts at stack
    height 1, as expr at top level does: value, error and trace are the same.
    """
    return apply_fn(Closure((), expr, env), [], kernel, max_depth)


def owned_env(expr, env, kernel):
    """The environment that applying a closure of body expr over env makes."""
    return _Interp(kernel, DEPTH)._bind(Closure((), expr, env), ())


@contextlib.contextmanager
def spied():
    """Counts of _resolve calls, by whether env has an owner, and of run calls.

    Yields {"top": ..., "owned": ..., "runs": ...}.  A run made while the spy
    is on counts its calls.
    """
    counts = {"top": 0, "owned": 0, "runs": 0}
    resolve, make = evaluator._resolve, evaluator._run

    def counted_resolve(step, env, kernel):
        counts["top" if env.owner is None else "owned"] += 1
        return resolve(step, env, kernel)

    def counted_run(shape, objs):
        run = make(shape, objs)

        def counted(*args):
            counts["runs"] += 1
            return run(*args)

        return counted

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluator, "_resolve", counted_resolve)
        mp.setattr(evaluator, "_run", counted_run)
        yield counts


def check_spied(counts, evaluate):
    """At top level the loop alone evaluates; in a closure's body a run does."""
    if evaluate is eval_sexpr:
        assert counts == {"top": 0, "owned": 0, "runs": 0}
    else:
        assert counts["top"] == 0 and counts["owned"] > 0 and counts["runs"] > 0


WHERE = pytest.mark.parametrize("evaluate", [eval_sexpr, in_a_body], ids=["top", "body"])


@pytest.mark.parametrize("kernel", [Kernel.LIST, Kernel.PAIR])
def test_a_combine_tree_of_any_height_evaluates(kernel, monkeypatch):
    n = 100_000
    empty = quoted(kernel, NULL)
    tree = empty
    for _ in range(n):
        tree = form(kernel, COMBINE, tree, empty)
    monkeypatch.setattr(evaluator, "_RUNS", {})
    with spied() as counts:  # outside any closure, the loop alone: nothing compiled
        value = eval_sexpr(tree, kernel=kernel, max_depth=10**6)
    assert counts == {"top": 0, "owned": 0, "runs": 0}
    assert evaluator._RUNS == {}
    expected = NULL
    for _ in range(n):
        expected = ProperList((expected,))
    assert value == in_kernel(kernel, expected)


@WHERE
@pytest.mark.parametrize("kernel", [Kernel.LIST, Kernel.PAIR])
def test_the_depth_limit_of_a_primitive_tree_is_exact(kernel, evaluate):
    # The tree is three applications high and its innermost operand, X, is
    # one level above the innermost one: 1 + 3 levels in all.
    x = in_kernel(kernel, ProperList((A, B)))
    env = default_env(kernel).extend([(Symbol("X"), x)])
    rest_x = form(kernel, Symbol("REST"), Symbol("X"))
    first = form(kernel, Symbol("FIRST"), rest_x)
    tree = form(kernel, COMBINE, first, quoted(kernel, NULL))
    with spied() as counts:
        assert evaluate(tree, env, kernel, max_depth=4) == form(kernel, B)
        e = fault_of(evaluate, tree, env, kernel, max_depth=3)
    assert e.kind is Fault.DEPTH_EXCEEDED
    assert e.trace == (tree, first, rest_x, Symbol("REST"))
    check_spied(counts, evaluate)


@WHERE
@pytest.mark.parametrize("kernel", [Kernel.LIST, Kernel.PAIR])
def test_a_kernel_fault_three_levels_inside_a_tree_keeps_its_trace(kernel, evaluate):
    fault = form(kernel, Symbol("FIRST"), quoted(kernel, C))
    level2 = form(kernel, COMBINE, fault, quoted(kernel, NULL))
    level1 = form(kernel, COMBINE, quoted(kernel, B), level2)
    tree = form(kernel, COMBINE, quoted(kernel, A), level1)
    with spied() as counts:
        e = fault_of(evaluate, tree, default_env(kernel), kernel, max_depth=DEPTH)
    name = "first" if kernel is Kernel.LIST else "car"
    assert (e.kind, str(e)) == (Fault.KERNEL_FAULT, f"{name}: undefined on atoms")
    assert e.trace == (tree, level1, level2, fault)
    check_spied(counts, evaluate)


@WHERE
def test_a_primitive_in_a_tree_is_called_once_when_a_later_operand_faults(evaluate):
    calls = []

    def record(x):
        calls.append(x)
        return x

    env = default_env().extend([(Symbol("REC"), Primitive("REC", 1, record))])
    later_operands = (("(FIRST, (QUOTE, B))", Fault.KERNEL_FAULT), ("ZZ", Fault.UNBOUND))
    for later, kind in later_operands:
        calls.clear()
        tree = read_sexpr(f"(COMBINE, (REC, (QUOTE, A)), {later})")
        with spied() as counts:
            assert fault_of(evaluate, tree, env, Kernel.LIST, DEPTH).kind is kind
        assert calls == [A]
        check_spied(counts, evaluate)


_TOP_LEVEL_CASES = [
    # A plan tree, CONDs whose runs would take a nested COND and a tail exit
    # to a primitive of three operands, an unbound symbol and a kernel fault.
    pytest.param("combine[first[rest[x]]; combine[atom[x]; ()]]", "(D, F)", id="plan"),
    pytest.param("[atom[x] -> A; null[rest[x]] -> pick[x; x; x];"
                 " T -> [eq[first[x]; C] -> [atom[first[x]] -> pick[(A); x; rest[x]]]]]",
                 "D", id="cond-nested"),
    pytest.param("[atom[x] -> A; T -> [null[x] -> B; T -> pick[x; x; x]]]", "C",
                 id="cond-tail"),
    pytest.param("combine[first[x]; zz]", Fault.UNBOUND, id="unbound"),
    pytest.param("combine[x; first[A]]", Fault.KERNEL_FAULT, id="fault"),
]


@pytest.mark.parametrize("kernel", [Kernel.LIST, Kernel.PAIR])
@pytest.mark.parametrize("text, expected", _TOP_LEVEL_CASES)
def test_code_outside_any_closure_is_evaluated_by_the_loop_alone(
    kernel, text, expected, monkeypatch
):
    # Code outside a closure runs once, so its steps are never resolved
    # into runs: nothing is compiled for them.
    first = default_env(kernel).lookup(Symbol("FIRST")).fn
    pick = Primitive("PICK", 3, lambda x, y, z: first(z))
    env = default_env(kernel).extend(
        [(Symbol("PICK"), pick), (_X, in_kernel(kernel, read_sexpr("(C, D)")))]
    )
    monkeypatch.setattr(evaluator, "_RUNS", {})
    expr = program(kernel, text)
    with spied() as counts:
        got = three_ways(expr, env, kernel, DEPTH)
        assert outcome(eval_sexpr, expr, env, kernel, DEPTH) == got  # once more
    assert counts == {"top": 0, "owned": 0, "runs": 0}
    assert evaluator._RUNS == {}
    if isinstance(expected, Fault):
        assert got[0] is expected
    else:
        assert got == ("value", in_kernel(kernel, read_sexpr(expected)))


def test_one_form_object_can_sit_in_two_scopes():
    # E is one object, inside a LAMBDA that binds X first and inside one
    # that binds it second; so its X means A in one and B in the other.
    shared = read_sexpr("(COMBINE, X, (QUOTE, ()))")
    args = (read_sexpr("(QUOTE, A)"), read_sexpr("(QUOTE, B)"))

    def call(params):
        fn = ProperList((Symbol("LAMBDA"), read_sexpr(params), shared))
        return ProperList((fn,) + args)

    rest = ProperList((COMBINE, call("(Y, X)"), read_sexpr("(QUOTE, ())")))
    program = ProperList((COMBINE, call("(X, Y)"), rest))
    assert eval_sexpr(program, max_depth=DEPTH) == read_sexpr("((A), (B))")


def test_a_primitive_that_raises_stop_iteration_fails_alike_on_every_path():
    # The first application runs in one step, the second suspends on its
    # operand, a closure call, and apply_fn calls the primitive itself; the
    # last two fail in a COND test and in an operand of f, each chosen or
    # applied in the turn that applied f.
    def evf_in(env, text):
        return eval_fexpr(read_fexpr(text), env, max_depth=DEPTH)

    def bad(x):
        raise StopIteration

    prim = Primitive("BAD", 1, bad)
    env = default_env().extend([(Symbol("BAD"), prim)])
    runs = [
        lambda: evf_in(env, "bad[(A)]"),
        lambda: evf_in(env, "bad[lambda[[x]; x][(A)]]"),
        lambda: apply_fn(prim, [A], max_depth=DEPTH),
        lambda: evf_in(env, "lambda[[f]; f[(A)]][lambda[[x]; [bad[x] -> A; T -> B]]]"),
        lambda: evf_in(env, "lambda[[f]; f[bad[(A)]]][lambda[[x]; x]]"),
    ]
    message = "^generator raised StopIteration$"
    for run in runs:
        with pytest.raises(RuntimeError, match=message) as exc:
            run()
        assert isinstance(exc.value.__cause__, StopIteration)


# Each plan remembers the primitives its heads resolved to in the frame of
# one closure.  These pin that a remembered answer is reused only where it
# still holds.

_FIRST, _REST, _LAMBDA = Symbol("FIRST"), Symbol("REST"), Symbol("LAMBDA")


@pytest.mark.parametrize("kernel", [Kernel.LIST, Kernel.PAIR])
def test_a_shared_body_resolves_a_parameter_head_in_each_frame(kernel):
    # G binds FIRST and H does not, and they have one body object.  G is
    # applied to REST and then to FIRST, so its head FIRST means REST in
    # one frame of G and FIRST in the next.
    g, h = Symbol("G"), Symbol("H")
    body = form(kernel, _FIRST, quoted(kernel, ProperList((A, B))))
    fn_g = form(kernel, _LAMBDA, form(kernel, _FIRST), body)
    fn_h = form(kernel, _LAMBDA, form(kernel, Symbol("X")), body)
    calls = [(g, _REST), (g, _FIRST), (h, quoted(kernel, C)), (g, _REST), (h, _REST)]
    chain = quoted(kernel, NULL)
    for call in reversed(calls):
        chain = form(kernel, COMBINE, form(kernel, *call), chain)
    program = form(kernel, form(kernel, _LAMBDA, form(kernel, g, h), chain), fn_g, fn_h)
    value = eval_sexpr(program, kernel=kernel, max_depth=DEPTH)
    assert value == in_kernel(kernel, read_sexpr("((B), A, A, (B), A)"))


@pytest.mark.parametrize("kernel", [Kernel.LIST, Kernel.PAIR])
def test_closures_of_one_lambda_form_resolve_heads_in_their_own_bindings(kernel):
    # f and g are closures of the inner LAMBDA form; first is FIRST in the
    # environment of f and REST in that of g.
    src = (
        "lambda[[mk]; lambda[[f; g]; combine[f[(A, B)]; combine[g[(A, B)];"
        " combine[f[(A, B)]; combine[g[(A, B)]; ()]]]]][mk[first]; mk[rest]]]"
        "[lambda[[first]; lambda[[x]; first[x]]]]"
    )
    expected = read_sexpr("(A, (B), A, (B))")
    assert evf(src, kernel) == in_kernel(kernel, expected)


@pytest.mark.parametrize("kernel", [Kernel.LIST, Kernel.PAIR])
def test_a_relabelled_closure_resolves_its_self_name(kernel):
    # h is g named null, so null[A] in their one body is the primitive in
    # a frame of g and h itself in a frame of h.
    src = (
        "lambda[[g]; lambda[[h]; combine[g[C]; combine[h[C]; combine[g[C];"
        " combine[h[C]; ()]]]]][label[null; g]]]"
        "[lambda[[x]; [eq[x; A] -> B; T -> null[A]]]]"
    )
    expected = read_sexpr("(F, B, F, B)")
    assert evf(src, kernel) == in_kernel(kernel, expected)


_OPS = [Symbol(n) for n in "FIRST REST COMBINE CONS CAR CDR ATOM EQ NULL".split()]
_X, _Y = Symbol("X"), Symbol("Y")


def _lambda_call(t):
    params, body, args = t
    return ProperList((ProperList((Symbol("LAMBDA"), ProperList(params), body)), *args))


def _label_null_call(t):
    # (LABEL NULL (LAMBDA (X) body)) applied: inside, NULL is a closure.
    body, arg = t
    fn = ProperList((Symbol("LAMBDA"), ProperList((_X,)), body))
    return ProperList((ProperList((Symbol("LABEL"), Symbol("NULL"), fn)), arg))


# Forms over X and Y: primitive trees of any arity, quoted constants,
# unbound operands (Z), and scopes in which FIRST, EQ or NULL are closures
# or arguments rather than primitives.
sforms = st.recursive(
    st.sampled_from([Symbol(n) for n in "X Y Z T F NIL FIRST EQ".split()])
    | helpers.list_values.map(lambda v: ProperList((QUOTE, v))),
    lambda ch: st.one_of(
        st.tuples(st.sampled_from(_OPS), st.lists(ch, max_size=3)).map(
            lambda t: ProperList((t[0], *t[1]))
        ),
        st.tuples(
            st.lists(
                st.sampled_from([_X, _Y, Symbol("FIRST"), Symbol("EQ")]),
                max_size=2,
                unique=True,
            ),
            ch,
            st.lists(ch, max_size=2),
        ).map(_lambda_call),
        st.tuples(ch, ch).map(_label_null_call),
        st.lists(st.tuples(ch, ch), min_size=1, max_size=2).map(
            lambda cs: ProperList((Symbol("COND"), *(ProperList(c) for c in cs)))
        ),
    ),
    max_leaves=14,
)


def outcome(fn, *args, **kwargs):
    try:
        return "value", fn(*args, **kwargs)
    except EvalError as e:
        return e.kind, str(e), e.trace


@settings(max_examples=400, deadline=None)
@given(
    sforms,
    helpers.list_values,
    helpers.list_values,
    st.sampled_from([Kernel.LIST, Kernel.PAIR]),
    st.integers(1, 40) | st.just(DEFAULT_MAX_DEPTH),
)
def test_eval_sexpr_agrees_with_the_recursive_reference(expr, x, y, kernel, max_depth):
    if kernel is Kernel.PAIR:
        expr, x, y = list_to_pair(expr), list_to_pair(x), list_to_pair(y)
    env = default_env(kernel).extend([(_X, x), (_Y, y)])
    try:
        expected = outcome(helpers.reference_eval, expr, env, kernel, max_depth)
    except RecursionError:  # the reference ran out of host stack
        assume(False)
    assert outcome(eval_sexpr, expr, env, kernel, max_depth) == expected


# Closures of one body object, each applied more than once, against the
# same reference.

_W, _EQ = Symbol("W"), Symbol("EQ")
_DRIVERS = [Symbol(n) for n in ("F1", "F2", "F3")]
_ARITY = {_FIRST: 1, _REST: 1, _EQ: 2, COMBINE: 2}
# Lists that are not empty, so that FIRST and REST of them are defined.
_LISTS = st.lists(helpers.list_values, min_size=1, max_size=4).map(
    lambda xs: ProperList(tuple(xs))
)
_QUOTED = _LISTS.map(lambda v: ProperList((QUOTE, v)))


def _applications(operands):
    return st.sampled_from(list(_ARITY.items())).flatmap(
        lambda t: st.lists(operands, min_size=t[1], max_size=t[1]).map(
            lambda args: ProperList((t[0], *args))
        )
    )


# Primitive trees over X and Y whose heads FIRST and EQ may be parameters.
primitive_trees = _applications(
    st.recursive(st.sampled_from([_X, _Y]) | _QUOTED, _applications, max_leaves=3)
)

# The arguments of each parameter.  X and Y take values and closures;
# FIRST and EQ take primitives, so that one closure runs its body with
# several meanings of a head, and sometimes values and closures too.
_VALUE_ARGS = st.sampled_from([_X, _Y, *_DRIVERS[:2], _W]) | _QUOTED
_ARGS = {
    _X: _VALUE_ARGS,
    _Y: _VALUE_ARGS,
    _FIRST: st.sampled_from([_FIRST, _REST, Symbol("ATOM"), Symbol("NULL")]),
    _EQ: st.sampled_from([_EQ, COMBINE]),
}


@st.composite
def shared_body_programs(draw):
    """(body, params, calls): closures of one body, each applied again.

    The program (see _shared_body_program) binds F1, F2 (and F3) to
    closures of one body object with parameters drawn from X, Y, FIRST
    and EQ, and W to a LABEL recursion that evaluates that body on every
    level.  It then makes the calls, each a name and its arguments, in
    turn or in a drawn order: each closure two or three times, W once or
    twice.
    """
    # Mostly a primitive tree, whose plan is what the closures share.
    body = draw(st.one_of(primitive_trees, primitive_trees, primitive_trees, sforms))
    names = st.sampled_from([_X, _Y, _FIRST, _EQ])
    params = draw(
        st.lists(st.lists(names, max_size=2, unique=True), min_size=2, max_size=3)
    )
    calls = []
    for name, ps in zip(_DRIVERS, params):
        args = [_ARGS[p] for p in ps]
        if draw(st.booleans()):
            args = [a | _VALUE_ARGS for a in args]
        for _ in range(draw(st.integers(2, 3))):
            calls.append((name, *draw(st.tuples(*args))))
    walks = st.tuples(st.just(_W), _VALUE_ARGS, _VALUE_ARGS)
    calls += draw(st.lists(walks, min_size=1, max_size=2))
    return body, params, draw(st.just(calls) | st.permutations(calls))


def _shared_body_program(kernel, body, params, calls):
    def f(*items):  # a form of the kernel; list-kernel items are carried over
        return form(kernel, *(carry(x) for x in items))

    def carry(x):
        return in_kernel(kernel, x) if isinstance(x, ProperList) else x

    if kernel is Kernel.PAIR:
        body = list_to_pair(body)  # once, so the body stays one object
    atom, null, empty = Symbol("ATOM"), Symbol("NULL"), quoted(kernel, NULL)
    walk = f(
        Symbol("COND"),
        f(f(atom, _X), empty),
        f(f(null, _X), empty),
        f(T, f(COMBINE, body, f(_W, f(_REST, _X), _Y))),
    )
    fns = [f(_LAMBDA, f(*p), body) for p in params]
    fns.append(f(Symbol("LABEL"), _W, f(_LAMBDA, f(_X, _Y), walk)))
    chain = empty
    for call in reversed(calls):
        chain = f(COMBINE, f(*call), chain)
    names = _DRIVERS[: len(params)] + [_W]
    return f(f(_LAMBDA, f(*names), chain), *fns)


@settings(max_examples=300, deadline=None)
@given(
    shared_body_programs(),
    _LISTS,
    _LISTS,
    st.sampled_from([Kernel.LIST, Kernel.PAIR]),
)
def test_reapplied_closures_agree_with_the_recursive_reference(program, x, y, kernel):
    # The depth cap is fixed and ample; the test above covers the limit.
    expr = _shared_body_program(kernel, *program)
    if kernel is Kernel.PAIR:
        x, y = list_to_pair(x), list_to_pair(y)
    env = default_env(kernel).extend([(_X, x), (_Y, y)])
    try:
        expected = outcome(helpers.reference_eval, expr, env, kernel, 250)
    except RecursionError:  # the reference ran out of host stack
        assume(False)
    assert outcome(eval_sexpr, expr, env, kernel, 250) == expected


# --- closures applied and COND clauses chosen by the loop itself ---------------
#
# Each case runs three ways: through eval_sexpr, through the same interpreter
# with every operand and test evaluated through the loop (no gets, so no plans
# and nothing evaluated in place), and through the recursive reference.  All
# three must agree on the value, or on the kind, message and trace of the error.
# A form keeps its node from one run to the next, so the second path runs on
# deep copies, which keep none: each path analyses forms of its own.


def _no_get(*args):
    return None, 0


def _entry(form):
    """(owner, height, runs): the entry in the cache of form's step (see _resolve),
    without its calls."""
    return form._node[1][1][0][:3]


def _forms_under(*roots):
    """The forms that keep a node, reachable from roots, closures included."""
    todo, seen, forms = list(roots), set(), []
    while todo:
        v = todo.pop()
        if id(v) in seen:
            continue
        seen.add(id(v))
        if isinstance(v, (ProperList, Pair)):
            if getattr(v, "_node", None) is not None:
                forms.append(v)
            todo.extend(v.items if isinstance(v, ProperList) else (v.head, v.tail))
        elif isinstance(v, Closure):
            todo += [v.body, v.env]
        elif isinstance(v, Env):
            todo.extend([value for _, value in v.bindings])
    return forms


def through_the_loop(expr, env, kernel, max_depth):
    expr, env = copy.deepcopy((expr, env))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluator, "_get", _no_get)
        got = outcome(eval_sexpr, expr, env, kernel, max_depth)
    for f in _forms_under(expr, env):  # so it ran no get
        if f._node[0] in (evaluator._APPLY, evaluator._CHOOSE):
            assert set(_entry(f)[2]) <= {None}
    return got


def three_ways(expr, env, kernel, max_depth):
    got = outcome(eval_sexpr, expr, env, kernel, max_depth)
    assert through_the_loop(expr, env, kernel, max_depth) == got
    assert outcome(helpers.reference_eval, expr, env, kernel, max_depth) == got
    return got


def program(kernel, text):
    expr = read_sexpr(text) if text.startswith("(") else translate(read_fexpr(text))
    return in_kernel(kernel, expr)


@pytest.mark.parametrize("kernel", [Kernel.LIST, Kernel.PAIR])
@pytest.mark.parametrize(
    "text, kind, message",
    [
        # f[(A)] applies a closure of two parameters to one argument.
        ("lambda[[f]; f[(A)]][lambda[[x; y]; x]]", Fault.ARITY,
         "closure expects 2 argument(s), got 1"),
        ("lambda[[f]; f[(A); (B)]][lambda[[x]; x]]", Fault.ARITY,
         "closure expects 1 argument(s), got 2"),
        ("lambda[[x]; first[x; x]][(A)]", Fault.ARITY,
         "FIRST expects 1 argument(s), got 2"),
        # An unbound head fails in the loop, one bound to no function when applied.
        ("lambda[[x]; g[x]][(A)]", Fault.UNBOUND, "unbound symbol: G"),
        ("lambda[[g]; g[rest[g]]][(A)]", Fault.NOT_CALLABLE, "not callable: (A)"),
        # The COND of f's body is chosen in the turn that applied f.
        ("lambda[[f]; f[(C)]][lambda[[x]; [atom[x] -> A; first[x] -> B]]]",
         Fault.BAD_TRUTH_VALUE, "COND test produced C, which is neither T nor F"),
        ("lambda[[f]; f[(C)]][lambda[[x]; [atom[x] -> A; null[x] -> B]]]",
         Fault.COND_EXHAUSTED, "no COND test evaluated to T"),
        # The third clause, (X), is reached after two tests gave F.
        ("((LAMBDA, (F), (F, (QUOTE, (C)))), (LAMBDA, (X),"
         " (COND, ((ATOM, X), (QUOTE, A)), ((NULL, X), (QUOTE, B)), (X))))",
         Fault.MALFORMED, "each COND clause must be a two-element list"),
        # A closure call as the first, middle and last operand of a primitive:
        # the step suspends there, resumes, and fails on the arity at the end.
        ("lambda[[f]; eq[f[(A)]; (B); (C)]][lambda[[x]; x]]", Fault.ARITY,
         "EQ expects 2 argument(s), got 3"),
        ("lambda[[f]; eq[(A); f[(B)]; (C)]][lambda[[x]; x]]", Fault.ARITY,
         "EQ expects 2 argument(s), got 3"),
        ("lambda[[f]; eq[(A); (B); f[(C)]]][lambda[[x]; x]]", Fault.ARITY,
         "EQ expects 2 argument(s), got 3"),
        # The closure itself fails, inside a suspended first operand.
        ("lambda[[f]; combine[f[A]; ()]][lambda[[x]; first[x]]]", Fault.KERNEL_FAULT,
         "first: undefined on atoms"),
        # A kernel fault in an operand before the suspended call, and after it.
        ("lambda[[f]; combine[first[A]; f[(B)]]][lambda[[x]; x]]", Fault.KERNEL_FAULT,
         "first: undefined on atoms"),
        ("lambda[[f]; combine[f[(B)]; first[A]]][lambda[[x]; x]]", Fault.KERNEL_FAULT,
         "first: undefined on atoms"),
        # A closure-call COND test that gives no truth value, and ones that
        # give F until the clauses run out, after and before a test in place.
        ("lambda[[f]; [f[(A)] -> B; T -> C]][lambda[[x]; x]]", Fault.BAD_TRUTH_VALUE,
         "COND test produced (A), which is neither T nor F"),
        ("lambda[[f]; [atom[(A)] -> B; f[C] -> D]][lambda[[x]; F]]",
         Fault.COND_EXHAUSTED, "no COND test evaluated to T"),
        ("lambda[[f]; [f[C] -> D; atom[(A)] -> B]][lambda[[x]; F]]",
         Fault.COND_EXHAUSTED, "no COND test evaluated to T"),
    ],
)
def test_a_chained_step_fails_as_its_task_does(kernel, text, kind, message):
    expr = program(kernel, text)
    got = three_ways(expr, default_env(kernel), kernel, DEPTH)
    if kernel is Kernel.PAIR:
        message = message.replace("(A)", "(A . NIL)").replace("first:", "car:")
    assert got[:2] == (kind, message)


@pytest.mark.parametrize("kernel", [Kernel.LIST, Kernel.PAIR])
def test_a_primitive_of_three_operands_is_a_step_inside_a_planned_tree(kernel):
    # Every kernel primitive takes one or two operands, and only such
    # applications get plans: PICK's, though its operands all have gets,
    # is a step of its own, under a COMBINE and over planned operands.
    first = default_env(kernel).lookup(Symbol("FIRST")).fn
    pick = Primitive("PICK", 3, lambda x, y, z: first(z))
    env = default_env(kernel).extend(
        [(Symbol("PICK"), pick), (_X, in_kernel(kernel, read_sexpr("(A, B, C)")))]
    )
    expr = program(kernel, "combine[pick[first[x]; x; rest[x]]; ()]")
    got = three_ways(expr, env, kernel, DEPTH)
    assert got == ("value", in_kernel(kernel, read_sexpr("(B)")))
    with spied() as counts:
        assert outcome(in_a_body, expr, env, kernel, DEPTH) == got
    check_spied(counts, in_a_body)
    # PICK's application, COMBINE's item 1, has no run, though COMBINE's
    # step resolves for a closure whose body it is: its head is item 0.
    evaluator._resolve(expr._node[1], owned_env(expr, env, kernel), kernel)
    assert _entry(expr)[2][1] is None
    # A kernel fault inside PICK, and inside one of its operands.
    for text in ("pick[x; x; first[x]]", "pick[x; first[A]; x]"):
        got = three_ways(program(kernel, f"combine[{text}; ()]"), env, kernel, DEPTH)
        assert got[0] is Fault.KERNEL_FAULT
        assert program(kernel, text) in got[2]


@pytest.mark.parametrize("kernel", [Kernel.LIST, Kernel.PAIR])
@pytest.mark.parametrize(
    "text, expected",
    [
        # first is a parameter of g and a head inside f's operand or test.
        ("lambda[[g]; combine[g[rest; (A, B)]; combine[g[first; (A, B)]; ()]]]"
         "[lambda[[first; x]; combine[first[x]; ()]]]", "(((B)), (A))"),
        ("lambda[[g]; combine[g[atom; (A)]; combine[g[first; (T)]; ()]]]"
         "[lambda[[first; x]; [first[x] -> Y; T -> N]]]", "(N, Y)"),
    ],
)
def test_a_parameter_inside_a_step_is_resolved_in_each_frame(kernel, text, expected):
    got = three_ways(program(kernel, text), default_env(kernel), kernel, DEPTH)
    assert got == ("value", in_kernel(kernel, read_sexpr(expected)))


def _per_kernel(name, *args):
    """The args once per kernel, with ids that name the kernel, then name."""
    return [
        pytest.param(k, *args, id="-".join(filter(None, (str(k), name))))
        for k in (Kernel.LIST, Kernel.PAIR)
    ]


@pytest.mark.parametrize(
    "kernel, source, call, exceeded",
    # The program, then an application of rv and the COND of its body for
    # each of six lists; the last COND's test null[x] needs two more levels.
    _per_kernel("", corpus.REVERSE, "[(A, B, C, D, E); ()]", 13)
    # Three levels for each atom, an application of app, the COND of its
    # body and the combine it chooses, whose operand app[rest[x]; y] is the
    # next application; then four for the empty list, as in rv.
    + _per_kernel("append", corpus.APPEND, "[(A, B, C, D, E); (F)]", 18)
    # Two levels for each call of eql, its application and its COND.  The
    # call on B and B is the test of the call on (B) and (B), itself the
    # test of the call on the rests, which the first call chose: four
    # calls; then the COND atom[x] chooses, eq[x; y] and x need three more.
    + _per_kernel("equal", corpus.EQUAL, "[(A, (B), C); (A, (B), C)]", 10),
)
def test_the_depth_limit_of_a_chained_recursion_is_exact(
    kernel, source, call, exceeded
):
    expr = program(kernel, source + call)
    env = default_env(kernel)
    kinds = [three_ways(expr, env, kernel, d)[0] for d in range(1, 41)]
    assert kinds == [Fault.DEPTH_EXCEEDED] * exceeded + ["value"] * (40 - exceeded)


def _off_the_host_stack(*args, **kwargs):
    """eval_sexpr with the recursion limit 100 frames above this call."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        return eval_sexpr(*args, **kwargs)
    finally:
        sys.setrecursionlimit(limit)


_ATOMS = ProperList((A,) * 100_000)


@pytest.mark.parametrize(
    "kernel, source, call, expected",
    _per_kernel("", corpus.WALK, "[{}]", NULL)
    # app's recursion runs through the second operand of combine.
    + _per_kernel("append", corpus.APPEND, "[{}; ()]", _ATOMS),
)
def test_a_chained_recursion_100000_deep_keeps_off_the_host_stack(
    kernel, source, call, expected
):
    n = 100_000
    expr = program(kernel, source + call.format(print_sexpr(_ATOMS, Dialect.AIM8)))
    value = _off_the_host_stack(expr, kernel=kernel, max_depth=10**6)
    assert value == in_kernel(kernel, expected)
    e = fault_of(eval_sexpr, expr, kernel=kernel, max_depth=2 * n)
    assert e.kind is Fault.DEPTH_EXCEEDED


@pytest.mark.parametrize("kernel", [Kernel.LIST, Kernel.PAIR])
def test_a_combine_tree_100000_deep_keeps_off_the_host_stack(kernel):
    # Above the plan height no level has a plan, so each suspends on its
    # first operand.
    n = 100_000
    empty = quoted(kernel, NULL)
    tree = empty
    for _ in range(n):
        tree = form(kernel, COMBINE, tree, empty)
    value = _off_the_host_stack(tree, kernel=kernel, max_depth=10**6)
    expected = NULL
    for _ in range(n):
        expected = ProperList((expected,))
    assert value == in_kernel(kernel, expected)
    e = fault_of(eval_sexpr, tree, kernel=kernel, max_depth=n)
    assert (e.kind, len(e.trace)) == (Fault.DEPTH_EXCEEDED, 8)


def test_the_evaluator_makes_no_generator():
    # Evaluation suspends in frames on the loop's own list, never in a
    # generator: no yield, and no generator expression either, in the
    # module or in the code it compiles for the runs of a step.
    eval_sexpr(program(Kernel.LIST, corpus.EQUAL + "[(A, (B)); (A, (B))]"))
    sources = [inspect.getsource(evaluator), *_sources()]
    assert len(sources) > 1
    kinds = (ast.Yield, ast.YieldFrom, ast.GeneratorExp)
    for source in sources:
        tree = ast.parse(source)
        assert [type(n).__name__ for n in ast.walk(tree) if isinstance(n, kinds)] == []


# Recursive closures whose bodies are CONDs: tests and operands that a step
# evaluates in place, that it suspends on at run time (H is a closure, X and
# Y values) and that it always suspends on (COND, LAMBDA and W applications).

_H, _W, _Z = Symbol("H"), Symbol("W"), Symbol("Z")


def _s(*items):
    return ProperList(items)


_leaves = st.sampled_from([_X, _Y, T, F]) | _QUOTED | st.just(_s(QUOTE, NULL))


def _chained(ch):
    return st.one_of(
        _applications(ch),
        st.tuples(st.sampled_from([_H, _X]), ch).map(lambda t: _s(*t)),
        ch.map(lambda x: _s(_W, _s(_REST, _X), x)),
        st.tuples(ch, ch).map(lambda t: _s(Symbol("COND"), _s(*t), _s(T, t[1]))),
        ch.map(lambda x: _s(_s(_LAMBDA, _s(_Z), _s(Symbol("ATOM"), _Z)), x)),
    )


_cond_parts = st.recursive(_leaves, _chained, max_leaves=4)
# Tests that mostly give T or F, and recursions that mostly shorten X.
_tests = st.one_of(
    st.tuples(st.sampled_from([Symbol("ATOM"), Symbol("NULL"), _H]), _cond_parts),
    st.tuples(st.just(_EQ), _cond_parts, _cond_parts),
).map(lambda t: _s(*t)) | _cond_parts
_recursions = st.tuples(st.just(_X) | _cond_parts, _cond_parts).map(
    lambda t: _s(_W, _s(_REST, t[0]), t[1])
)


@st.composite
def recursive_conds(draw):
    """A W of X and Y whose body is a COND, applied, with H a closure."""
    base = draw(st.sampled_from([Symbol("ATOM"), Symbol("NULL"), Symbol("NULL")]))
    clauses = [_s(_s(base, _X), draw(_cond_parts))]
    clauses += draw(
        st.lists(st.tuples(_tests, _recursions | _cond_parts).map(lambda t: _s(*t)),
                 max_size=2)
    )
    if draw(st.sampled_from(range(4))) != 3:
        clauses.append(_s(T, draw(_recursions)))
    if draw(st.sampled_from(range(10))) == 9:
        clauses.insert(draw(st.integers(1, len(clauses))), _s(_X))  # malformed
    w = _s(Symbol("LABEL"), _W, _s(_LAMBDA, _s(_X, _Y), _s(Symbol("COND"), *clauses)))
    h = _s(_LAMBDA, _s(_Z), _s(Symbol("NULL"), _Z))
    return _s(_s(_LAMBDA, _s(_H), _s(w, _X, _Y)), h)


@settings(max_examples=300, deadline=None)
@given(
    recursive_conds(),
    _LISTS,
    _LISTS,
    st.sampled_from([Kernel.LIST, Kernel.PAIR]),
    st.integers(3, 60) | st.sampled_from(range(60, 2, -1)),  # not mostly 3
)
def test_recursive_conds_agree_with_the_recursive_reference(expr, x, y, kernel, max_depth):
    if kernel is Kernel.PAIR:
        expr, x, y = list_to_pair(expr), list_to_pair(x), list_to_pair(y)
    env = default_env(kernel).extend([(_X, x), (_Y, y)])
    three_ways(expr, env, kernel, max_depth)


# --- nodes kept on forms from one run to the next --------------------------------


def _error_of(e):
    """What an error shows beyond outcome: its kernel error, cause and context."""

    def described(x):
        return None if x is None else (type(x), str(x), getattr(x, "kind", None))

    return described(e.kernel_error), described(e.__cause__), described(e.__context__)


def full_outcome(fn, *args):
    try:
        return "value", fn(*args)
    except EvalError as e:
        return (e.kind, str(e), e.trace, *_error_of(e))


def _plan_case(kernel, cause, level, wrapped):
    """An error level applications deep inside a plan, an operand of a step."""
    inner = "(QUOTE, A)" if cause == "fault" else "ZZ"
    for _ in range(level):
        inner = f"(CAR, {inner})"
    text = f"(CONS, {inner}, (QUOTE, ()))"
    if wrapped:  # under an application and a closure body, so the stack is higher
        text = f"((LAMBDA, (X), (CONS, X, {text})), (QUOTE, B))"
    return program(kernel, text)


@pytest.mark.parametrize("kernel", [Kernel.LIST, Kernel.PAIR])
@pytest.mark.parametrize("level", range(1, 9))
@pytest.mark.parametrize("cause", ["fault", "unbound"])
@pytest.mark.parametrize("where", ["top", "wrapped", "body"])
def test_an_error_inside_a_plan_has_the_trace_of_the_universal_function(
    kernel, level, cause, where
):
    # The plan pushes nothing; the trace is rebuilt from the forms the error
    # left on its way out.  At level 8 with an unbound symbol that path alone
    # is nine forms long, so the trace keeps the innermost eight of it.  At
    # top level the loop takes the tree; wrapped, and as a closure's body,
    # a run does.
    expr = _plan_case(kernel, cause, level, where == "wrapped")
    env = default_env(kernel)
    bodies = {}

    def in_one_body(e, env, kernel, max_depth):  # resolved, then from the cache
        return apply_fn(bodies.setdefault(id(e), Closure((), e, env)), [], kernel, max_depth)

    evaluate = in_one_body if where == "body" else eval_sexpr
    kinds = [outcome(helpers.reference_eval, expr, env, kernel, d)[0] for d in range(1, 16)]
    boundary = 1 + kinds.index(Fault.KERNEL_FAULT if cause == "fault" else Fault.UNBOUND)
    assert kinds[: boundary - 1] == [Fault.DEPTH_EXCEEDED] * (boundary - 1)
    for max_depth in (boundary - 1, boundary, DEFAULT_MAX_DEPTH):
        expected = full_outcome(helpers.reference_eval, expr, env, kernel, max_depth)
        fresh = copy.deepcopy(expr)
        with spied() as counts:
            for e in (fresh, fresh, expr):  # made now, then kept
                assert full_outcome(evaluate, e, env, kernel, max_depth) == expected
        assert through_the_loop(expr, env, kernel, max_depth) == expected[:3]
    if cause == "unbound" and level == 8:
        assert len(expected[2]) == 8 and expected[2][-1] is Symbol("ZZ")
    check_spied(counts, eval_sexpr if where == "top" else in_a_body)  # at the default cap
    if where != "wrapped":  # in a closure, its operands are in place, the tree a plan
        evaluator._resolve(expr._node[1], owned_env(expr, env, kernel), kernel)
        assert None not in _entry(expr)[2]


def test_a_second_meta_eval_analyses_only_its_own_program(monkeypatch):
    made, real = [], evaluator._node

    def counted(form, items, kernel):
        made.append(form)
        return real(form, items, kernel)

    monkeypatch.setattr(evaluator, "_node", counted)
    env = universal_env()
    made.clear()
    app = translate(read_fexpr(
        "label[app; lambda[[x; y]; [null[x] -> y;"
        " T -> combine[first[x]; app[rest[x]; y]]]]][(A, B); (C)]"
    ))
    assert meta_eval(app, env) == read_sexpr("(A, B, C)")
    first = len(made)
    for expr in (app, translate(read_fexpr("first[(A, B)]"))):
        made.clear()
        meta_eval(expr, env)
        # (METAEVAL, (QUOTE, expr), (QUOTE, ())), then its operands.
        program = made[0]
        assert program.items[0] is Symbol("METAEVAL") and program.items[1].items[1] is expr
        assert sorted(map(id, made[1:])) == sorted(map(id, program.items[1:]))
    assert first > 3


def test_a_run_leaves_nothing_that_holds_its_interpreter(monkeypatch):
    refs, real = [], _Interp.run

    def run(self, expr, env):
        refs.append(weakref.ref(self))
        return real(self, expr, env)

    monkeypatch.setattr(_Interp, "run", run)
    app = program(Kernel.LIST, "label[app; lambda[[x; y]; [null[x] -> y;"
                  " T -> combine[first[combine[first[x]; ()]]; app[rest[x]; y]]]]]")
    call = program(Kernel.LIST, "lambda[[f]; f[(A, B); (C)]]")
    enabled = gc.isenabled()
    gc.disable()
    try:
        fn = eval_sexpr(app)
        assert apply_fn(eval_sexpr(call), [fn]) == read_sexpr("(A, B, C)")
        assert eval_sexpr(ProperList((call, app))) == read_sexpr("(A, B, C)")
        assert len(refs) == 4 and [r() for r in refs] == [None] * 4
    finally:
        if enabled:
            gc.enable()
    assert app._node is not None and fn.body._node[0] == evaluator._CHOOSE


def test_a_pair_form_keeps_its_node_in_a_slot_and_its_copies_have_none():
    expr = program(Kernel.PAIR, "cons[first[(A, B)]; rest[(C)]]")
    assert not hasattr(expr, "_node")
    assert print_sexpr(eval_sexpr(expr, kernel=Kernel.PAIR), "classic") == "(A)"
    node = expr._node
    assert node is not None and not hasattr(expr, "__dict__")
    with pytest.raises(AttributeError):
        expr._node = None
    assert expr._node is node
    copies = copy.copy(expr), copy.deepcopy(expr), pickle.loads(pickle.dumps(expr))
    for other in copies:
        assert other == expr and other is not expr
        assert not hasattr(other, "_node") and not hasattr(other, "__dict__")


@pytest.mark.parametrize("kernel", [Kernel.LIST, Kernel.PAIR])
def test_an_evaluated_form_is_the_same_value_and_its_copy_is_analysed_afresh(
    kernel, monkeypatch
):
    expr = program(kernel, "label[app; lambda[[x; y]; [null[x] -> y;"
                   " T -> combine[first[x]; app[rest[x]; y]]]]][(A, B); (C)]")
    before = pickle.dumps(expr), hash(expr), repr(expr), copy.deepcopy(expr)
    made, real = [], evaluator._node
    monkeypatch.setattr(
        evaluator, "_node", lambda *args: made.append(args[0]) or real(*args)
    )
    value = eval_sexpr(expr, kernel=kernel)
    analysed = len(made)
    assert analysed > 0 and eval_sexpr(expr, kernel=kernel) == value
    assert len(made) == analysed  # the second run made no node
    assert (pickle.dumps(expr), hash(expr), repr(expr)) == before[:3]
    assert expr == before[3] and before[3] == expr
    for other in (copy.copy(expr), copy.deepcopy(expr), pickle.loads(before[0])):
        assert other == expr and hash(other) == hash(expr) and other is not expr
        assert not hasattr(other, "_node")
        made.clear()
        assert eval_sexpr(other, kernel=kernel) == value
        assert len(made) == analysed


@pytest.mark.parametrize("kernel", [Kernel.LIST, Kernel.PAIR])
def test_a_form_keeps_no_node_for_the_other_kernel(kernel):
    other = Kernel.PAIR if kernel is Kernel.LIST else Kernel.LIST
    expr = program(kernel, "(CAR, (CDR, (QUOTE, (A, B))))")
    operand = expr.items[1] if kernel is Kernel.LIST else expr.tail.head
    env = default_env(other)
    for _ in range(2):
        assert eval_sexpr(expr, kernel=kernel) == B
        got = outcome(eval_sexpr, expr, env, other, DEPTH)
        assert got[:2] == (Fault.MALFORMED, f"not an expression of the {other.value}"
                           f" kernel: {expr!r}")
        assert got == outcome(helpers.reference_eval, expr, env, other, DEPTH)
    # The operand, analysed with expr, sits in a form of the other kernel.
    outer = (
        ProperList((Symbol("ATOM"), operand)) if other is Kernel.LIST
        else Pair(Symbol("ATOM"), Pair(operand, NIL))
    )
    got = outcome(eval_sexpr, outer, env, other, DEPTH)
    assert got[0] is Fault.MALFORMED and got[2] == (outer, operand)
    assert got == outcome(helpers.reference_eval, outer, env, other, DEPTH)
    assert eval_sexpr(expr, kernel=kernel) == B


def test_threads_share_nodes_and_step_caches():
    # Two closures of one LAMBDA form, whose heads H and G mean different
    # things in each, share their body's steps; so does one closure whose
    # parameter H is a head, applied with different values; and two
    # meta_eval calls share universal.mexp's forms through one environment.
    lam = read_sexpr("(LAMBDA, (X), (COMBINE, (H, (G, X)), (COMBINE, (G, X), (QUOTE, ()))))")
    env = default_env()
    first, rest = env.lookup(Symbol("FIRST")), env.lookup(Symbol("REST"))
    closures = [
        eval_sexpr(lam, env.extend([(Symbol("H"), h), (Symbol("G"), g)]))
        for h, g in ((first, rest), (rest, first))
    ]
    by_param = eval_sexpr(read_sexpr("(LAMBDA, (H, X), (COMBINE, (H, (H, X)), (QUOTE, ())))"))
    data = read_sexpr("((A, B), (C, D), E)")
    universal = universal_env()
    programs = [
        translate(read_fexpr(text))
        for text in (
            "label[app; lambda[[x; y]; [null[x] -> y;"
            " T -> combine[first[x]; app[rest[x]; y]]]]][(A, B); (C)]",
            "label[rev; lambda[[x; acc]; [null[x] -> acc;"
            " T -> rev[rest[x]; combine[first[x]; acc]]]]][(A, B, C); ()]",
        )
    ]

    def calls(i):
        return [
            lambda: apply_fn(closures[i], [data]),
            lambda: apply_fn(by_param, [(first, rest)[i], data]),
        ] * 20 + [lambda: meta_eval(programs[i], universal)]

    expected = [[call() for call in calls(i)] for i in range(2)]
    assert expected[0] != expected[1]
    results = [[], []]

    def work(i):
        for _ in range(150):
            results[i].append([call() for call in calls(i)])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    for i in range(2):
        assert results[i] == [expected[i]] * 150


def test_a_closure_is_freed_with_its_last_reference_though_its_body_kept_steps():
    # The steps of its body hold it weakly, and keep where its name is
    # bound, not the closure, so no cycle runs from the body back to it.
    app = program(Kernel.LIST, "label[app; lambda[[x; y]; [null[x] -> y;"
                  " T -> combine[first[x]; app[rest[x]; y]]]]]")
    x, y = read_sexpr("(A, B)"), read_sexpr("(C)")
    enabled = gc.isenabled()
    gc.disable()
    try:
        fn = eval_sexpr(app)
        assert apply_fn(fn, [x, y]) == read_sexpr("(A, B, C)")
        ref, body = weakref.ref(fn), fn.body
        del fn
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
    # The body's entries now name a dead owner: in an environment of no
    # owner, and with APP bound to another function, nothing kept is used.
    env = default_env().extend(
        [(Symbol("X"), x), (Symbol("Y"), y), (Symbol("APP"), default_env().lookup(COMBINE))]
    )
    got = three_ways(body, env, Kernel.LIST, DEPTH)
    assert got == ("value", read_sexpr("(A, (B), C)"))
    assert apply_fn(eval_sexpr(app), [x, y]) == read_sexpr("(A, B, C)")


def test_a_closure_that_an_inner_closure_calls_by_name_is_freed_with_its_last_reference():
    # The inner LAMBDA's body applies WALK, bound to the outer closure, in
    # an environment the inner closure owns: its step keeps where WALK is
    # bound there, not the closure, so the form it lives in keeps no
    # closure alive.
    form = program(Kernel.LIST, "label[walk; lambda[[x]; [null[x] -> ();"
                   " T -> lambda[[y]; walk[y]][rest[x]]]]]")
    enabled = gc.isenabled()
    gc.disable()
    try:
        walk = eval_sexpr(form)
        assert apply_fn(walk, [read_sexpr("(A, B)")]) == NULL
        ref = weakref.ref(walk)
        del walk
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
    assert form._node is not None
    assert apply_fn(eval_sexpr(form), [read_sexpr("(A, B, C)")]) == NULL


@pytest.mark.parametrize("kernel", [Kernel.LIST, Kernel.PAIR])
def test_a_plan_headed_by_a_parameter_runs_as_a_step(kernel):
    # f is a parameter of the owner, so the step of combine[f[x]; ()] keeps
    # no run for f[x], its item 1, which runs as a step in every frame,
    # whatever f is bound to there; the head COMBINE, item 0, is read by
    # its address in run 0.
    fn = eval_sexpr(program(kernel, "lambda[[f; x]; combine[f[x]; ()]]"), kernel=kernel)
    prims = default_env(kernel)
    ab = in_kernel(kernel, read_sexpr("(A, B)"))
    for f, expected in ((_FIRST, "(A)"), (_REST, "((B))"), (_FIRST, "(A)")):
        got = apply_fn(fn, [prims.lookup(f), ab], kernel, DEPTH)
        assert got == in_kernel(kernel, read_sexpr(expected))
    owner, height, runs = _entry(fn.body)
    assert owner() is fn and runs[1] is None
    # COMBINE is bound in the frame the call's frame extends, fn.env.
    frame = evaluator._Interp(kernel, DEPTH)._bind(fn, [prims.lookup(_REST), ab])
    up, at = evaluator._address(COMBINE, frame)
    assert up == 1 and fn.env.names[at] is COMBINE
    (head,) = runs[0](frame)
    assert head is fn.env.values[at]
    # A fault inside f[x] has the trace of the universal function.
    text = ("lambda[[g]; combine[g[first; (A, B)]; g[first; A]]]"
            "[lambda[[f; x]; combine[f[x]; ()]]]")
    got = three_ways(program(kernel, text), None, kernel, DEPTH)
    assert got[0] is Fault.KERNEL_FAULT and got[2][-1] == program(kernel, "f[x]")


@pytest.mark.parametrize("kernel", [Kernel.LIST, Kernel.PAIR])
@pytest.mark.parametrize(
    "text, last_of_arity_1",
    [
        ("combine[p[x]; p[x; x]]", "p[x; x]"),
        ("combine[p[p[x]; x]; p[x]]", "p[p[x]; x]"),
        ("p[first[x]; p[x]]", "p[first[x]; p[x]]"),
    ],
)
@pytest.mark.parametrize("arity", [1, 2])
def test_a_head_used_at_two_arities_in_one_tree_fails_where_the_arity_is_wrong(
    kernel, text, last_of_arity_1, arity
):
    # P is applied to one operand and to two in one tree.  The applications
    # of P's own arity may be plans; the others run as steps, and the first
    # to be applied fails as in the universal function.  The closure is
    # applied twice: once resolving its steps, once through its cache.
    first = default_env(kernel).lookup(_FIRST).fn
    p = Primitive("P", arity, first if arity == 1 else lambda x, y: first(x))
    env = default_env(kernel).extend([(Symbol("P"), p)])
    fn = eval_sexpr(program(kernel, f"lambda[[x]; {text}]"), env, kernel)
    env = env.extend([(Symbol("F"), fn)])
    last = program(kernel, last_of_arity_1 if arity == 1 else "p[x]")
    for _ in range(2):
        got = three_ways(program(kernel, "f[(A, B)]"), env, kernel, DEPTH)
        assert got[:2] == (Fault.ARITY, f"P expects {arity} argument(s), got {3 - arity}")
        assert got[2][-1] == last


@pytest.mark.parametrize("kernel", [Kernel.LIST, Kernel.PAIR])
@pytest.mark.parametrize(
    "body, data, expected",
    [
        ("first[first[y]]", "(((A), B), ((C), D), ((E)))", "(A, C, E)"),
        # first[first[(C, D)]] applies FIRST to the atom C.
        ("first[first[y]]", "(((A), B), (C, D))", Fault.KERNEL_FAULT),
        ("first[first[zz]]", "(((A), B))", Fault.UNBOUND),
    ],
)
def test_a_plan_in_a_closure_made_anew_on_each_call(kernel, body, data, expected):
    # Each call makes a new closure of the inner LAMBDA and applies it
    # once, so its step is resolved, and its plan built, for each element.
    text = (f"label[f; lambda[[x]; [null[x] -> (); T -> combine["
            f"lambda[[y]; {body}][first[x]]; f[rest[x]]]]]][{data}]")
    got = three_ways(program(kernel, text), None, kernel, DEPTH)
    if expected is Fault.KERNEL_FAULT:
        assert got[0] is expected and got[2][-1] == program(kernel, body)
    elif expected is Fault.UNBOUND:
        assert got[:2] == (expected, "unbound symbol: ZZ")
        assert got[2][-3:] == (program(kernel, body), program(kernel, "first[zz]"), Symbol("ZZ"))
    else:
        assert got == ("value", in_kernel(kernel, read_sexpr(expected)))


# --- lexical addresses -------------------------------------------------------------
#
# A symbol is read at (frames up, index): from the innermost frame, a call's
# own, to the primitives, some frames above.  These run three ways, on both
# kernels, so the gets by address agree with the loop's walk and with the
# reference's flat bindings.

# Four nested closures: in the innermost, d is at depth 0, c at 1, b at 2,
# a at 3, and the primitives at 4.  walk recurses, so its steps hit their
# cache; its x and walk are at depth 0 and d at depth 1 in its frames.
_NESTED = ("lambda[[a]; lambda[[b]; lambda[[c]; lambda[[d]; {body}][D]][C]][B]][A]")
_WALK = ("label[walk; lambda[[x]; [null[x] -> combine[d; combine[c; combine[b;"
         " combine[a; ()]]]]; T -> combine[first[x]; walk[rest[x]]]]]][(E, F)]")


@pytest.mark.parametrize("kernel", [Kernel.LIST, Kernel.PAIR])
@pytest.mark.parametrize(
    "text, expected",
    [
        (_NESTED.format(body="combine[a; combine[b; combine[c; combine[d; ()]]]]"),
         "(A, B, C, D)"),
        (_NESTED.format(body=_WALK), "(E, F, D, C, B, A)"),
        # A plan reading a, b and d at depths 3, 2 and 0.
        (_NESTED.format(body="eq[first[combine[a; combine[b; ()]]]; first[combine[d; ()]]]"), "F"),
        # A parameter that shadows its own LABEL name, and one that does not.
        ("label[f; lambda[[f]; combine[f; ()]]][A]", "(A)"),
        ("label[f; lambda[[x]; [atom[x] -> f[combine[x; ()]]; T -> x]]][A]", "(A)"),
        # An inner LAMBDA's parameter shadows an outer one, at depth 0 and 1.
        ("lambda[[x]; combine[lambda[[x]; x][B]; lambda[[y]; combine[x; y]][()]]][A]",
         "(B, A)"),
        ("lambda[[x; y]; lambda[[x]; combine[x; combine[y; ()]]][C]][A; B]", "(C, B)"),
    ],
)
def test_variables_are_read_at_their_lexical_address(kernel, text, expected):
    got = three_ways(program(kernel, text), None, kernel, DEPTH)
    assert got == ("value", in_kernel(kernel, read_sexpr(expected)))


@pytest.mark.parametrize("kernel", [Kernel.LIST, Kernel.PAIR])
@pytest.mark.parametrize(
    "body, inner, kind, message",
    [
        # A plan at depth 2 and deeper whose leaf faults or is unbound.
        ("combine[first[rest[b]]; ()]", "rest[b]", Fault.KERNEL_FAULT,
         "rest: undefined on atoms"),
        ("combine[first[a]; combine[d; ()]]", "first[a]", Fault.KERNEL_FAULT,
         "first: undefined on atoms"),
        ("combine[rest[zz]; ()]", "zz", Fault.UNBOUND, "unbound symbol: ZZ"),
        ("combine[c; first[combine[zz; d]]]", "zz", Fault.UNBOUND, "unbound symbol: ZZ"),
    ],
)
def test_a_fault_inside_a_plan_at_depth_has_the_trace_of_the_universal_function(
    kernel, body, inner, kind, message
):
    got = three_ways(program(kernel, _NESTED.format(body=body)), None, kernel, DEPTH)
    if kernel is Kernel.PAIR:
        message = message.replace("rest:", "cdr:").replace("first:", "car:")
    assert got[:2] == (kind, message)
    assert got[2][-1] == program(kernel, inner)


@pytest.mark.parametrize("kernel", [Kernel.LIST, Kernel.PAIR])
def test_an_environment_extended_over_a_call_frame_reads_both(kernel):
    # inner.env is the frame of a call, X bound to (A), over the primitives;
    # extend copies that frame with Y in front, so X and Y are at depth 0 of
    # it, and at depth 1 of the frames of a closure made there.
    inner = eval_sexpr(program(kernel, "lambda[[x]; lambda[[y]; y]][(A)]"), kernel=kernel)
    env = inner.env.extend([(_Y, B)])
    assert env.parent is inner.env.parent and env.owner is None
    for text, expected in (
        ("combine[y; x]", "(B, A)"),
        ("lambda[[z]; combine[z; combine[y; x]]][C]", "(C, B, A)"),
        ("label[g; lambda[[z]; [null[z] -> x; T -> combine[first[z]; g[rest[z]]]]]][(C, Y)]",
         "(C, Y, A)"),
    ):
        got = three_ways(program(kernel, text), env, kernel, DEPTH)
        assert got == ("value", in_kernel(kernel, read_sexpr(expected)))


# A closure of two parameters, plain, named by LABEL, and named by LABEL
# after its first parameter, which shadows that name in its frames.
_LAYOUTS = (
    "lambda[[x; y]; lambda[[z]; x]]",
    "label[f; lambda[[x; y]; lambda[[z]; x]]]",
    "label[x; lambda[[x; y]; lambda[[z]; x]]]",
)

# Each way the loop applies g to operands {0}: an application whose items
# all run in place, a COND's tail exit, and an application resumed after
# its first operand, a call of the closure h, suspended it ({1}).
_CALLS = (
    "lambda[[g; h]; g[{0}]]",
    "lambda[[g; h]; [atom[g] -> C; T -> g[{0}]]]",
    "lambda[[g; h]; g[{1}]]",
)


def _calls(*operands):
    """The callers of _CALLS that apply g to operands, F-language texts."""
    resumed = [f"h[{operands[0]}]", *operands[1:]]
    return [call.format("; ".join(operands), "; ".join(resumed)) for call in _CALLS]


@pytest.mark.parametrize("kernel", [Kernel.LIST, Kernel.PAIR])
@pytest.mark.parametrize("layout", _LAYOUTS)
def test_every_call_path_makes_the_same_frame(kernel, layout):
    # fn returns a closure over the frame its call made: the loop on each
    # of its paths, apply_fn and _bind make equal frames, of the parameters
    # then the LABEL name, a tuple of the values, over fn.env, owned by fn.
    fn = eval_sexpr(program(kernel, layout), kernel=kernel)
    args = [in_kernel(kernel, read_sexpr(v)) for v in ("(A)", "(B)")]
    names = (_X, _Y) if fn.self_name is None else (_X, _Y, fn.self_name)
    values = (*args, fn)[:len(names)]
    frames = [
        _Interp(kernel, DEPTH)._bind(fn, args),
        _Interp(kernel, DEPTH)._bind(fn, tuple(args)),
        apply_fn(fn, args, kernel).env,
    ]
    ident = eval_sexpr(program(kernel, "lambda[[x]; x]"), kernel=kernel)
    for call in _calls("(A)", "(B)"):
        caller = eval_sexpr(program(kernel, call), kernel=kernel)
        frames.append(apply_fn(caller, [fn, ident], kernel).env)
    for frame in frames:
        assert (frame.names, frame.values, frame.values.__class__) == (names, values, tuple)
        assert frame.parent is fn.env and frame.owner is fn
        assert frame.lookup(_X) == args[0]


@pytest.mark.parametrize("kernel", [Kernel.LIST, Kernel.PAIR])
def test_a_renamed_or_copied_closure_applies_with_its_own_layout(kernel):
    # The body recurses through REC, which only a closure named REC binds.
    REC = Symbol("REC")
    plain = eval_sexpr(program(kernel, "lambda[[x]; [null[x] -> A; T -> rec[rest[x]]]]"),
                       kernel=kernel)
    arg = in_kernel(kernel, read_sexpr("(B, C)"))
    named = dataclasses.replace(plain, self_name=REC)
    relabel = eval_sexpr(program(kernel, "lambda[[g]; label[rec; g]]"), kernel=kernel)
    relabelled = apply_fn(relabel, [plain], kernel)
    assert relabelled == named
    for fn in (named, relabelled):
        for twin in (fn, copy.copy(fn), copy.deepcopy(fn), pickle.loads(pickle.dumps(fn))):
            assert twin == named and twin.self_name is REC
            assert _Interp(kernel, DEPTH)._bind(twin, [arg]).names == (_X, REC)
            assert apply_fn(twin, [arg], kernel) is A
    # Named otherwise, or not at all, a copy of it binds REC no more.
    for self_name in (Symbol("G"), None):
        fn = dataclasses.replace(named, self_name=self_name)
        for twin in (fn, copy.copy(fn), copy.deepcopy(fn), pickle.loads(pickle.dumps(fn))):
            e = fault_of(apply_fn, twin, [arg], kernel)
            assert (e.kind, str(e)) == (Fault.UNBOUND, "unbound symbol: REC")


@pytest.mark.parametrize("kernel", [Kernel.LIST, Kernel.PAIR])
@pytest.mark.parametrize("layout", _LAYOUTS)
def test_a_closure_given_the_wrong_number_of_arguments_fails_alike_on_every_path(
    kernel, layout
):
    # fn, of two parameters, applied to one argument and to three: the
    # message counts the parameters, never the LABEL name.  apply_fn and
    # _bind have nothing under evaluation; on each of the loop's paths the
    # trace ends at the application, and is the universal function's.
    fn = eval_sexpr(program(kernel, layout), kernel=kernel)
    ident = eval_sexpr(program(kernel, "lambda[[x]; x]"), kernel=kernel)
    env = default_env(kernel).extend([(Symbol("FN"), fn), (Symbol("IDENT"), ident)])
    for operands in (["(A)"], ["(A)", "(B)", "(C)"]):
        message = f"closure expects 2 argument(s), got {len(operands)}"
        args = [in_kernel(kernel, read_sexpr(v)) for v in operands]
        for e in (fault_of(_Interp(kernel, DEPTH)._bind, fn, args),
                  fault_of(apply_fn, fn, args, kernel)):
            assert (e.kind, str(e), tuple(e.trace)) == (Fault.ARITY, message, ())
        for call in _calls(*operands):
            kind, text, trace = three_ways(program(kernel, f"{call}[fn; ident]"), env,
                                           kernel, DEPTH)
            assert (kind, text) == (Fault.ARITY, message)
            assert trace[-1].head is Symbol("G")


def _bytes_per_level(extra):
    """tracemalloc's peak per level of a runaway recursion, extra bindings in scope."""
    env = default_env().extend([(Symbol(f"V{i}"), A) for i in range(extra)])
    expr = program(Kernel.LIST, "label[f; lambda[[x]; combine[x; f[x]]]][A]")
    eval_sexpr(program(Kernel.LIST, "combine[A; ()]"), env)  # nothing left to make
    peaks, enabled = [], gc.isenabled()
    for depth in (1000, 3000):
        # A full collection empties the free lists, whose blocks a run would
        # take without tracemalloc seeing them; none runs while it counts.
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            e = fault_of(eval_sexpr, expr, env, max_depth=depth)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
            if enabled:
                gc.enable()
        assert e.kind is Fault.DEPTH_EXCEEDED
    return (peaks[1] - peaks[0]) / 2000


def test_a_call_costs_the_same_memory_whatever_is_bound_around_it():
    # A call makes one frame of its own bindings over the captured
    # environment, never a copy of it.
    assert _bytes_per_level(1000) <= 1.25 * _bytes_per_level(0)


# --- runs: each stretch of a step's in-place items, one compiled function --------
#
# A resolved step's operands or tests that need no loop are cut into runs of
# at most _RUN_ITEMS, each a Python function compiled from its shape alone.
# The cases run three ways, so a run's values, faults, traces and primitive
# calls are the loop's.

_CAP = evaluator._RUN_ITEMS
_ZZ = Symbol("ZZ")


def _kinds_in(shape):
    """The types of everything a shape holds, itself included."""
    if shape.__class__ is tuple:
        return {tuple}.union(*[_kinds_in(k) for k in shape])
    return {type(shape)}


def _sources():
    """The text of the runs of every shape compiled so far."""
    return [evaluator._source(shape) for shape in list(evaluator._RUNS)]


def _off_symbol(name):
    """A symbol of any name, made past the check of Symbol's constructor."""
    sym = object.__new__(Symbol)
    object.__setattr__(sym, "name", name)
    return sym


@pytest.mark.parametrize("kernel", [Kernel.LIST, Kernel.PAIR])
@pytest.mark.parametrize("in_closure", [False, True], ids=["top", "closure"])
def test_a_symbol_named_as_python_source_is_bound_read_and_quoted(kernel, in_closure):
    # A run's text is made from its shape, ints only, so no name reaches it:
    # not one bound and read inside plans and COND tests, nor a quoted one.
    # Such symbols cannot be copied (Symbol rejects the name), so the loop's
    # path runs on forms made afresh, not on deep copies.
    bound = _off_symbol("x]; import os #")
    atom = _off_symbol("QUOTE) or __import__('os').getcwd() #")
    data = in_kernel(kernel, ProperList((A, B)))
    combine, cond, eq_ = Symbol("COMBINE"), Symbol("COND"), Symbol("EQ")
    first, rest = Symbol("FIRST"), Symbol("REST")

    def made():
        f = functools.partial(form, kernel)
        q = f(QUOTE, atom)
        test = f(eq_, f(first, bound), q)
        body = f(combine, q, f(cond, f(test, q), f(f(eq_, f(first, f(rest, bound)), f(QUOTE, B)),
                                                   f(combine, f(first, bound), f(rest, bound)))))
        if in_closure:
            return f(f(_LAMBDA, f(bound), body), f(QUOTE, data)), default_env(kernel)
        return body, default_env(kernel).extend([(bound, data)])

    expected = in_kernel(kernel, ProperList((atom, A, B)))
    expr, env = made()
    assert eval_sexpr(expr, env, kernel, DEPTH) == expected
    assert eval_sexpr(expr, env, kernel, DEPTH) == expected  # the step's cache
    assert helpers.reference_eval(*made(), kernel, DEPTH) == expected
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluator, "_get", _no_get)
        assert eval_sexpr(*made(), kernel, DEPTH) == expected
    sources = _sources()
    assert sources
    assert not [s for s in sources if bound.name in s or atom.name in s or "import" in s]


def test_every_shape_holds_only_ints_none_and_tuples():
    env = default_env()
    for source in (corpus.REVERSE + "[(A, B); ()]", corpus.EQUAL + "[(A, (B)); (A, (B))]"):
        eval_sexpr(program(Kernel.LIST, source), env)
    meta_eval(program(Kernel.LIST, corpus.APPEND + "[(A); (B)]"))
    assert evaluator._RUNS
    for shape in evaluator._RUNS:
        assert _kinds_in(shape) <= {int, type(None), tuple}, shape


def _reachable(root):
    """What root refers to, directly or not, short of types and modules."""
    todo, seen, out = [root], {id(builtins.__dict__)}, []
    while todo:
        v = todo.pop()
        if id(v) in seen or isinstance(v, (type, types.ModuleType)):
            continue
        seen.add(id(v))
        out.append(v)
        todo += gc.get_referents(v)
    return out


def test_the_shape_cache_is_bounded_and_keeps_no_program_alive(monkeypatch):
    monkeypatch.setattr(evaluator, "_RUNS", {})
    monkeypatch.setattr(evaluator, "_RUNS_KEPT", 4)
    # Each program reads its own parameter at its own index: a shape each.
    for n in range(1, 13):
        params = "; ".join([f"x{i}" for i in range(n)])
        args = "; ".join([f"(A{i})" for i in range(n)])
        text = f"lambda[[{params}]; combine[first[x{n - 1}]; ()]][{args}]"
        assert eval_sexpr(program(Kernel.LIST, text)) == read_sexpr(f"(A{n - 1})")
        assert 0 < len(evaluator._RUNS) <= 4
    fn = eval_sexpr(program(Kernel.LIST, "lambda[[x]; [eq[x; A] -> first[(B)]; T -> x]]"))
    assert apply_fn(fn, [A]) is B
    ref = weakref.ref(fn)
    kept = _reachable(evaluator._RUNS)
    kinds = (ProperList, Pair, Closure, Env, Primitive, EvalError, KernelError)
    assert [v for v in kept if isinstance(v, kinds)] == []
    assert [v for v in kept if isinstance(v, Symbol)] == [F]
    del fn
    gc.collect()
    assert ref() is None


def test_threads_that_compile_shapes_at_once_keep_the_cache_bounded(monkeypatch):
    # Four threads, more than the cores here, each resolve steps of shapes
    # the others need too, in closures made anew, with the cache smaller
    # than the shapes: every value is right and the bound holds.
    monkeypatch.setattr(evaluator, "_RUNS", {})
    monkeypatch.setattr(evaluator, "_RUNS_KEPT", 3)
    texts = [f"lambda[[{'; '.join([f'x{i}' for i in range(n)])}];"
             f" combine[first[x{n - 1}]; ()]][{'; '.join([f'(A{i})' for i in range(n)])}]"
             for n in range(1, 7)]
    expected = [read_sexpr(f"(A{n - 1})") for n in range(1, 7)]
    results, sizes = [[] for _ in range(4)], []

    def work(i):
        for _ in range(30):
            order = texts[i:] + texts[:i]
            results[i].append([eval_sexpr(program(Kernel.LIST, t)) for t in order])
            sizes.append(len(evaluator._RUNS))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not [t for t in threads if t.is_alive()]
    for i in range(4):
        assert results[i] == [expected[i:] + expected[:i]] * 30
    assert max(sizes) <= 3


def _wide_cond(kernel, n, last="eq[first[x]; K{i}]"):
    tests = [f"eq[first[x]; K{i}] -> K{i}" for i in range(n - 1)]
    tests.append(last.format(i=n - 1) + f" -> K{n - 1}")
    return program(kernel, "lambda[[x]; [" + "; ".join(tests) + "]]")


def _first_applications(kernel, fn_form, n, rounds):
    """(with runs, through the loop, a closure applied with runs): best times.

    They are the first applications of closures of a wide COND, fn_form.
    Each closure is new, so its first application resolves the COND
    step, and the steps of its tests, afresh.  The two sides alternate,
    with the collector off, so that a slow spell of the machine falls on
    both.
    """
    arg, times = in_kernel(kernel, read_sexpr(f"(K{n - 1})")), ([], [])
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(rounds):
            for get, side in ((_no_get, times[1]), (None, times[0])):  # runs last
                fn = eval_sexpr(fn_form, kernel=kernel)
                with pytest.MonkeyPatch.context() as mp:
                    if get is not None:
                        mp.setattr(evaluator, "_get", get)
                    start = time.perf_counter()
                    value = apply_fn(fn, [arg], kernel)
                    side.append(time.perf_counter() - start)
                assert value is Symbol(f"K{n - 1}")
    finally:
        if enabled:
            gc.enable()
    return min(times[0]), min(times[1]), fn


@pytest.mark.parametrize("kernel", [Kernel.LIST, Kernel.PAIR])
def test_a_cond_of_3000_clauses_compiles_a_bounded_run_per_8_tests(kernel):
    n = 3000
    _first_applications(kernel, _wide_cond(kernel, 20), 20, 1)  # its shapes, compiled
    shapes = len(evaluator._RUNS)
    fn_form = _wide_cond(kernel, n)
    with_runs, through_the_loop_, fn = _first_applications(kernel, fn_form, n, 7)
    # Every test has one shape, and 8 divides 3000: the runs of 8 tests
    # that the COND of 20 clauses compiled serve it all.
    assert len(evaluator._RUNS) == shapes
    runs = _entry(fn.body)[2]
    assert len(runs) == n and len({id(r) for r in runs}) == -(-n // _CAP)
    # Applied through the loop alone, each test is a step of its own.
    assert with_runs <= through_the_loop_, (with_runs, through_the_loop_)


@pytest.mark.parametrize("kernel", [Kernel.LIST, Kernel.PAIR])
def test_a_fault_in_the_last_test_of_a_cond_of_3000_clauses(kernel):
    fn_form = _wide_cond(kernel, 3000, last="eq[first[first[x]]; K{i}]")
    expr = form(kernel, fn_form, quoted(kernel, read_sexpr("(Z)")))
    got = three_ways(expr, default_env(kernel), kernel, DEPTH)
    assert got[0] is Fault.KERNEL_FAULT
    assert got[2][-1] == program(kernel, "first[first[x]]")


@pytest.mark.parametrize("kernel", [Kernel.LIST, Kernel.PAIR])
def test_an_application_of_300_operands(kernel):
    n = 300
    env = default_env(kernel).extend(
        [(Symbol("P"), Primitive("P", n, lambda *args: args[-1])),
         (_X, in_kernel(kernel, read_sexpr("(A)")))]
    )
    operands = "; ".join(
        [("x", "first[x]", f"K{i}", "combine[x; ()]")[i % 4] for i in range(n)]
    )
    for text, expected in ((f"p[{operands}]", "((A))"),
                           (f"lambda[[x]; p[{operands}]][(B)]", "((B))")):
        got = three_ways(program(kernel, text), env, kernel, DEPTH)
        assert got == ("value", in_kernel(kernel, read_sexpr(expected)))
    # A closure of 300 parameters, applied to 300 operands.
    params = "; ".join([f"v{i}" for i in range(n)])
    text = f"lambda[[{params}]; combine[v{n - 1}; v0]][{operands}]"
    got = three_ways(program(kernel, text), env, kernel, DEPTH)
    assert got == ("value", in_kernel(kernel, read_sexpr("(((A)), A)")))


def _faulty(cause, depth):
    """An item depth applications high whose innermost faults or is unbound."""
    inner = "A" if cause == "fault" else "zz"
    for _ in range(depth):
        inner = f"first[{inner}]"
    return inner


@pytest.mark.parametrize("kernel", [Kernel.LIST, Kernel.PAIR])
@pytest.mark.parametrize("position", [0, _CAP - 1, _CAP, _CAP + 1])
@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("cause", ["fault", "unbound"])
@pytest.mark.parametrize("choose", [False, True], ids=["apply", "cond"])
def test_an_error_at_any_item_of_a_run_has_the_trace_of_the_loop(
    kernel, position, depth, cause, choose
):
    # The error is in the first run, at its end, or in the second run; the
    # items around it read x, apply primitives and quote constants.
    n = _CAP + 3
    fillers = ("x", "first[x]", "(K)", "combine[x; ()]")
    if choose:  # tests that give F
        fillers = ("eq[first[x]; K]", "atom[x]", "F", "eq[first[first[combine[(K); x]]]; A]")
    items = [fillers[i % 4] for i in range(n)]
    items[position] = _faulty(cause, depth)
    if choose:
        body = "[" + "; ".join([f"{item} -> C{i}" for i, item in enumerate(items)]) + "]"
    else:
        body = f"p[{'; '.join(items)}]"
    env = default_env(kernel).extend(
        [(Symbol("P"), Primitive("P", n, lambda *args: args[0]))]
    )
    message = "unbound symbol: ZZ" if cause == "unbound" else "undefined on atoms"
    for text in (body, f"lambda[[x]; lambda[[y]; {body}][B]][(A)]"):
        if text is body:
            env = env.extend([(_X, in_kernel(kernel, read_sexpr("(A)")))])
        expr = program(kernel, text)
        got = three_ways(expr, env, kernel, DEPTH)
        assert got[0] is (Fault.UNBOUND if cause == "unbound" else Fault.KERNEL_FAULT)
        assert got[1].endswith(message)
        innermost = _ZZ if cause == "unbound" else program(kernel, _faulty(cause, 1))
        assert got[2][-1] == innermost
        # The same error again, through the step's cache.
        assert outcome(eval_sexpr, expr, env, kernel, DEPTH) == got


def _counting(kernel, calls):
    """FIRST, EQ, REST and COMBINE of kernel, as primitives that count their calls."""

    def counted(name):
        prim = default_env(kernel).lookup(Symbol(name))

        def call(*args):
            calls.append(name)
            return prim.fn(*args)

        return Primitive(name, prim.arity, call)

    return [(Symbol(name), counted(name)) for name in ("FIRST", "EQ", "REST", "COMBINE")]


@pytest.mark.parametrize("kernel", [Kernel.LIST, Kernel.PAIR])
@pytest.mark.parametrize(
    "source, call",
    [(corpus.EQUAL, "[(A, (B), C); (A, (B), C)]"),
     (corpus.APPEND, "[(A, B, C, D, E); (F)]"),
     (corpus.EQUAL, "[(A, (B), C); (A, (B, C))]"),
     # A fault part way: first[x] of the atom D, after the calls before it.
     ("lambda[[x]; [eq[first[x]; A] -> A; eq[first[rest[x]]; B] -> B;"
      " eq[first[first[rest[rest[x]]]]; C] -> C; T -> first[x]]]", "[(Z, Z, D)]")],
)
def test_a_primitive_is_called_as_often_as_under_the_loop(kernel, source, call):
    calls = []
    env = default_env(kernel).extend(_counting(kernel, calls))
    expr = program(kernel, source + call)
    got = outcome(eval_sexpr, expr, env, kernel, DEPTH)
    compiled, calls[:] = list(calls), []
    assert through_the_loop(expr, env, kernel, DEPTH) == got
    assert calls == compiled and compiled
    calls[:] = []
    assert outcome(eval_sexpr, expr, env, kernel, DEPTH) == got  # through the cache
    assert calls == compiled


@pytest.mark.parametrize("kernel", [Kernel.LIST, Kernel.PAIR])
@pytest.mark.parametrize("position", [0, _CAP + 1])
def test_a_primitive_that_raises_inside_a_run_raises_as_under_the_loop(kernel, position):
    # StopIteration becomes RuntimeError, as PEP 479 has it for a generator,
    # and any other exception propagates unchanged, itself.
    error = ValueError("not a kernel fault")

    def stop(x):
        raise StopIteration

    def fail(x):
        raise error

    env = default_env(kernel).extend(
        [(Symbol("STOP"), Primitive("STOP", 1, stop)),
         (Symbol("FAIL"), Primitive("FAIL", 1, fail)),
         (Symbol("P"), Primitive("P", _CAP + 2, lambda *args: args[0]))]
    )
    for name, expected in (("stop", RuntimeError), ("fail", ValueError)):
        items = ["(A)"] * (_CAP + 2)
        items[position] = f"first[{name}[(A)]]"
        expr = program(kernel, f"lambda[[x]; p[{'; '.join(items)}]][(B)]")
        for path in (eval_sexpr, eval_sexpr, through_the_loop):
            with pytest.raises(expected) as info:
                path(expr, env, kernel, DEPTH)
            if expected is ValueError:
                assert info.value is error
        lam = expr.items[0] if kernel is Kernel.LIST else expr.head
        assert None not in _entry(lam._node[2])[2]  # every operand in a run


# --- a COND's run carries on into the clause it picks ---------------------------
#
# A COND resolved for its owner describes each clause's result too: a value
# in place, a tail exit (the head read, the operands evaluated, then bound or
# applied by the loop), or a nested COND folded in the same run.  Every case
# runs three ways at every depth cap up to past the one it needs, so what the
# run takes is the loop's value, kind, message and trace.

_COND_CASES = [
    # (COND, x, g, a kind of result that the COND's runs must take, if any)
    ("[atom[x] -> x; T -> F]", "A", "()", evaluator._VALUE),
    ("[null[x] -> (A); T -> B]", "()", "()", evaluator._VALUE),
    ("[atom[x] -> zz; T -> x]", "A", "()", evaluator._VALUE),
    ("[atom[x] -> F; T -> combine[first[x]; rest[x]]]", "(A, B)", "()", evaluator._VALUE),
    ("[atom[x] -> [eq[x; A] -> B; T -> C]; T -> [null[x] -> A; T -> first[x]]]",
     "(B)", "()", evaluator._NEST),
    ("[atom[x] -> [eq[x; A] -> B; T -> C]; T -> [null[x] -> A; T -> first[x]]]",
     "A", "()", evaluator._NEST),
    ("[null[x] -> A; T -> rec[rest[x]; g]]", "(B, C)", "()", evaluator._LOOP),
    ("[atom[x] -> g[x]; T -> A]", "B", "lambda[[y]; combine[y; ()]]", evaluator._TAIL),
    ("[atom[x] -> g[x]; T -> A]", "B", "lambda[[y; z]; y]", evaluator._TAIL),
    ("[T -> g[x]]", "(A, B)", "first", evaluator._TAIL),
    ("[T -> g[x]]", "(A, B)", "combine", evaluator._TAIL),
    ("[T -> first[x; x]]", "(A)", "()", evaluator._TAIL),
    ("[T -> x[x]]", "(A)", "()", evaluator._TAIL),
    ("[null[x] -> A; T -> [atom[first[x]] -> rec[rest[x]; g]; T -> first[x]]]",
     "(B, C)", "()", evaluator._NEST),
    # The test suspends on a closure call; the loop takes the result.
    ("[g[x] -> rec[rest[x]; g]; T -> x]", "(A, (B), C)", "lambda[[y]; atom[first[y]]]",
     None),
    ("[g[x] -> [null[rest[x]] -> x; T -> first[x]]; T -> x]", "(A, B)",
     "lambda[[y]; atom[first[y]]]", None),
    # Faults inside a folded result, a bad truth value and an exhausted COND.
    ("[T -> first[first[x]]]", "(A)", "()", evaluator._VALUE),
    ("[T -> rec[first[first[x]]; g]]", "(A)", "()", evaluator._LOOP),
    ("[T -> rec[combine[first[x]; first[first[x]]]; g]]", "(A)", "()", evaluator._LOOP),
    ("[T -> [first[first[x]] -> A]]", "(A)", "()", evaluator._NEST),
    ("[T -> [T -> first[first[x]]]]", "(A)", "()", evaluator._NEST),
    ("[T -> [F -> A; T -> [T -> rest[first[x]]]]]", "(A)", "()", evaluator._NEST),
    ("[first[x] -> A]", "(B)", "()", None),
    ("[T -> [first[x] -> A]]", "(B)", "()", evaluator._NEST),
    ("[T -> [atom[x] -> A]]", "(B)", "()", evaluator._NEST),
    # g[x] suspends and gives T: the loop takes its result.
    ("[g[x] -> [atom[x] -> A]; T -> B]", "(B)", "lambda[[y]; T]", None),
    ("[g[x] -> first[first[x]]; T -> B]", "(B)", "lambda[[y]; T]", evaluator._VALUE),
    # Past the run's bound on nested tests, and past the room for nesting,
    # the loop takes the result.
    ("[atom[x] -> A; T -> [" + "; ".join([f"eq[first[x]; K{i}] -> K{i}" for i in range(40)])
     + "; T -> first[first[x]]]]", "(K39)", "()", evaluator._GO),
    ("[T -> " + "[atom[x] -> A; T -> " * 12 + "first[first[x]]" + "]" * 13, "(B)", "()",
     evaluator._GO),
]


def _parts(kernel, f):
    """The items of form f, of either kernel."""
    if kernel is Kernel.LIST:
        return list(f.items)
    out = []
    while f is not NIL:
        out.append(f.head)
        f = f.tail
    return out


def _fold_kinds(kernel, cond):
    """The kinds of the results that the runs of cond's cache entry take."""
    _, _, runs = _entry(cond)
    shapes = {f.__code__: shape for shape, f in list(evaluator._RUNS.items())}
    kinds = set()

    def walk(result):
        kind, k = result
        kinds.add(kind)
        if kind == evaluator._NEST:
            for _, inner in k:
                walk(inner)

    for run in runs:
        if run is not None:
            _, *items = shapes[run.__code__]
            for _, result in items:
                walk(result)
    return kinds


def _cond_case(kernel, cond, x, g):
    expr = program(kernel, f"label[rec; lambda[[x; g]; {cond}]][{x}; {g}]")
    label = _parts(kernel, _parts(kernel, expr)[0])
    return expr, _parts(kernel, label[2])[2]


def _outcomes_to_past_the_cap(expr, env, kernel):
    """three_ways at each cap from 1 until three past the first that suffices."""
    got, enough = [], None
    for max_depth in range(1, 60):
        got.append(three_ways(expr, env, kernel, max_depth))
        if enough is None and got[-1][0] is not Fault.DEPTH_EXCEEDED:
            enough = max_depth
        if enough is not None and max_depth >= enough + 3:
            return got
    raise AssertionError("no cap under 60 sufficed")


@pytest.mark.parametrize("kernel", [Kernel.LIST, Kernel.PAIR])
@pytest.mark.parametrize("cond, x, g, fold", _COND_CASES)
def test_a_result_the_run_takes_has_the_loops_outcome_at_every_cap(kernel, cond, x, g, fold):
    env = default_env(kernel)
    expr, cond_form = _cond_case(kernel, cond, x, g)
    _outcomes_to_past_the_cap(expr, env, kernel)
    got = three_ways(expr, env, kernel, DEPTH)
    assert three_ways(expr, env, kernel, DEPTH) == got  # through the cache
    if fold is not None:
        assert fold in _fold_kinds(kernel, cond_form)


@pytest.mark.parametrize("kernel", [Kernel.LIST, Kernel.PAIR])
@pytest.mark.parametrize("cond, x, g, fold", _COND_CASES)
def test_a_cond_of_no_owner_has_the_loops_outcome_at_every_cap(kernel, cond, x, g, fold):
    # At top level the loop takes every test and result itself; in a
    # closure's body, runs take them (see the twin test above).
    expr, cond_form = _cond_case(kernel, cond, x, g)
    bound = [(Symbol(n), eval_sexpr(v, default_env(kernel), kernel))
             for n, v in (("REC", _parts(kernel, expr)[0]),
                          ("X", program(kernel, f"lambda[[v]; v][{x}]")),
                          ("G", program(kernel, f"lambda[[v]; v][{g}]")))]
    _outcomes_to_past_the_cap(cond_form, default_env(kernel).extend(bound), kernel)


@pytest.mark.parametrize("kernel", [Kernel.LIST, Kernel.PAIR])
@pytest.mark.parametrize("turn", range(4))
def test_resolving_a_cond_whose_tests_the_loop_evaluates_compiles_nothing(kernel, turn):
    # Each test is a closure call, which the loop evaluates, so the loop
    # goes on with the result of the one that gives T: resolving the COND
    # makes no run, for its tests or for their results.  The results are a
    # value, a tail call, a nested COND and a plan that faults, each first
    # in one turn, so the loop takes each.
    results = ["first[x]", "rec[rest[x]; g]", "[atom[x] -> A; T -> first[x]]",
               "first[first[x]]"]
    cond = "[" + "; ".join([f"g[x] -> {r}" for r in results[turn:] + results[:turn]]) + "]"
    expr, cond_form = _cond_case(kernel, cond, "(B, (C))", "lambda[[y]; atom[first[y]]]")
    step = evaluator._analyse(cond_form, kernel)[1]
    resolve, make = evaluator._resolve, evaluator._run
    inside, made, resolved = [], [], []

    def resolve_spy(s, env, kernel):
        inside.append(s is step)
        resolved.append(s is step)
        try:
            return resolve(s, env, kernel)
        finally:
            inside.pop()

    def run_spy(shape, objs):
        if inside[-1]:
            made.append(shape)
        return make(shape, objs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluator, "_resolve", resolve_spy)
        mp.setattr(evaluator, "_run", run_spy)
        got = three_ways(expr, default_env(kernel), kernel, DEPTH)
    assert made == [] and True in resolved  # resolved for the closure, and no run made
    assert set(_entry(cond_form)[2]) == {None}
    _outcomes_to_past_the_cap(expr, default_env(kernel), kernel)
    expected = ["value", Fault.COND_EXHAUSTED, "value", Fault.KERNEL_FAULT][turn]
    assert got[0] == expected


@pytest.mark.parametrize("kernel", [Kernel.LIST, Kernel.PAIR])
def test_a_nested_cond_exhausted_at_a_malformed_clause_has_the_loops_error(kernel):
    env = default_env(kernel).extend([(_X, in_kernel(kernel, read_sexpr("(B)")))])
    text = ("((LAMBDA, (X), (COND, ((QUOTE, T), (COND, ((ATOM, X), (QUOTE, A)), (X))))),"
            " (QUOTE, (B)))")
    expr = program(kernel, text)
    got = _outcomes_to_past_the_cap(expr, env, kernel)[-1]
    assert got[:2] == (Fault.MALFORMED, "each COND clause must be a two-element list")
    assert three_ways(expr, env, kernel, DEPTH) == got


def _chain(*xs):
    out = NIL
    for x in reversed(xs):
        out = Pair(x, out)
    return out


@pytest.mark.parametrize("kernel", [Kernel.LIST, Kernel.PAIR])
@pytest.mark.parametrize(
    "result", ["(QUOTE, (A, B))", "(QUOTE, QUOTE)", "(QUOTE)", "(QUOTE, A, B)", "((QUOTE, A))"]
)
def test_a_quoted_result_has_the_loops_outcome_well_formed_or_not(kernel, result):
    # A run reads a quoted result off its form, without analysing it; a
    # malformed one is the loop's to evaluate, and to fail on.
    text = f"((LAMBDA, (X), (COND, ((ATOM, X), {result}), ((QUOTE, T), X))), (QUOTE, A))"
    expr = program(kernel, text)
    got = _outcomes_to_past_the_cap(expr, default_env(kernel), kernel)[-1]
    assert three_ways(expr, default_env(kernel), kernel, DEPTH) == got


def test_a_dotted_quote_result_is_malformed_as_under_the_loop():
    s = Symbol
    for result in (Pair(s("QUOTE"), A), Pair(s("QUOTE"), Pair(A, B))):
        cond = _chain(s("COND"), _chain(_chain(s("ATOM"), s("X")), result),
                      _chain(_chain(s("QUOTE"), T), s("X")))
        expr = _chain(_chain(s("LAMBDA"), _chain(s("X")), cond), _chain(s("QUOTE"), A))
        got = _outcomes_to_past_the_cap(expr, default_env(Kernel.PAIR), Kernel.PAIR)[-1]
        assert got[0] is Fault.MALFORMED
        assert three_ways(expr, default_env(Kernel.PAIR), Kernel.PAIR, DEPTH) == got


def test_the_meta_evaluators_conds_fold_their_tail_calls_and_nested_conds():
    # metaeval is one COND whose first two results are CONDs and whose
    # clauses end in tail calls or in applications that wrap a call, such
    # as atom[metaeval[...]]: a run takes them all, and the values are the
    # loop's.
    env = universal_env()
    expr = program(Kernel.LIST, corpus.APPEND + "[(A, B); (C)]")
    assert meta_eval(expr, env) == read_sexpr("(A, B, C)")
    metaeval = env.lookup(Symbol("METAEVAL"))
    kinds = _fold_kinds(Kernel.LIST, metaeval.body)
    assert {evaluator._NEST, evaluator._TAIL, evaluator._VALUE, evaluator._HOLD} <= kinds
    metaapply = env.lookup(Symbol("METAAPPLY"))
    assert {evaluator._LOOP, evaluator._HOLD} <= _fold_kinds(Kernel.LIST, metaapply.body)


@pytest.mark.parametrize("kernel", [Kernel.LIST, Kernel.PAIR])
@pytest.mark.parametrize(
    "source, call",
    [(corpus.SUBST, "[(Z); B; (A, (B, C), B)]"),
     (corpus.EQUAL, "[(A, (B), C); (A, (B), D)]"),
     (corpus.REVERSE, "[(A, B, C); ()]"),
     ("lambda[[x]; [atom[x] -> A; T -> [eq[first[x]; B] -> rest[x];"
      " T -> [null[rest[x]] -> first[x]; T -> first[first[x]]]]]]", "[(C, D)]")],
)
def test_a_folding_cond_calls_each_primitive_as_often_as_the_loop(kernel, source, call):
    calls = []
    env = default_env(kernel).extend(_counting(kernel, calls))
    expr = program(kernel, source + call)
    got = outcome(eval_sexpr, expr, env, kernel, DEPTH)
    compiled, calls[:] = list(calls), []
    assert through_the_loop(expr, env, kernel, DEPTH) == got
    assert calls == compiled and compiled
    calls[:] = []
    assert outcome(eval_sexpr, expr, env, kernel, DEPTH) == got
    assert calls == compiled


def _suspending_cond(n):
    """A closure of a COND of n tests that each call a closure, and its operands."""
    tests = "; ".join([f"f[x] -> K{i}" for i in range(n)])
    fn = eval_sexpr(program(Kernel.LIST, f"lambda[[f; x]; [{tests}; T -> Z]]"))
    return fn, [eval_sexpr(program(Kernel.LIST, "lambda[[y]; F]")), A]


def test_a_cond_whose_tests_suspend_costs_the_same_per_test_at_any_width():
    # Each test gives F after a closure call, so the COND's frame resumes
    # once per test: that must not cost in proportion to the tests before.
    # µs per test, best of five, the widths alternating, collector off.
    widths = {2000: [], 20000: []}
    calls = {n: _suspending_cond(n) for n in widths}
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(5):
            for n, times in widths.items():
                start = time.perf_counter()
                assert apply_fn(*calls[n]) is Symbol("Z")
                times.append((time.perf_counter() - start) / n * 1e6)
    finally:
        if enabled:
            gc.enable()
    narrow, wide = min(widths[2000]), min(widths[20000])
    assert wide <= 2 * narrow, (narrow, wide)


def _suspending_application(n):
    """A closure applying a primitive of n operands that each call a closure, and its operands."""
    operands = "; ".join(["f[x]"] * n)
    env = default_env().extend([(Symbol("P"), Primitive("P", n, lambda *args: args[-1]))])
    fn = eval_sexpr(program(Kernel.LIST, f"lambda[[f; x]; p[{operands}]]"), env)
    return fn, [eval_sexpr(program(Kernel.LIST, "lambda[[y]; y]")), A]


def test_an_application_whose_operands_suspend_costs_the_same_per_operand_at_any_width():
    # Each operand is a closure call, so the application's frame resumes
    # once per operand: that must not cost in proportion to the operands
    # before.  µs per operand, best of five, the widths alternating,
    # collector off.
    widths = {2000: [], 20000: []}
    calls = {n: _suspending_application(n) for n in widths}
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(5):
            for n, times in widths.items():
                start = time.perf_counter()
                assert apply_fn(*calls[n]) is A
                times.append((time.perf_counter() - start) / n * 1e6)
    finally:
        if enabled:
            gc.enable()
    narrow, wide = min(widths[2000]), min(widths[20000])
    assert wide <= 2 * narrow, (narrow, wide)


# --- an application's head is its item 0 ----------------------------------------
#
# A step describes its head as it does every operand: read at its address,
# a constant, a plan, an unbound symbol that signals, or an item the loop
# evaluates before the runs of the operands after it.


def _head_case(kernel, body, bind=lambda env: ()):
    """(outcome, calls, g) of g[(A, B)], g the closure of (LAMBDA, (X), body).

    g is made once, over the primitives, counting, and what bind gives,
    and bound in the environment as G, so from its second application on
    its steps meet their cache entries.  Each cap from 1 to two past the
    first that suffices is tried twice through three_ways, and the runs
    must call the primitives the loop calls, in order; outcome and calls
    are the last.
    """
    calls = []
    env = default_env(kernel).extend(_counting(kernel, calls))
    env = env.extend(bind(env))
    g = eval_sexpr(program(kernel, f"(LAMBDA, (X), {body})"), env, kernel)
    env = env.extend([(Symbol("G"), g)])
    expr = program(kernel, "(G, (QUOTE, (A, B)))")
    enough, cap = None, 0
    while enough is None or cap < enough + 2:
        cap += 1
        assert cap < 60, "no cap under 60 sufficed"
        for _ in range(2):
            got = three_ways(expr, env, kernel, cap)
            calls.clear()
            assert outcome(eval_sexpr, expr, env, kernel, cap) == got
            with_runs = calls[:]
            calls.clear()
            assert through_the_loop(expr, env, kernel, cap) == got
            assert calls == with_runs
        if enough is None and got[0] is not Fault.DEPTH_EXCEEDED:
            enough = cap
    return got, with_runs, g


def _runs(g, step_form=None):
    """The runs of the entry that the step of step_form, or g's body, keeps for g."""
    owner, _, runs = _entry(step_form or g.body)
    assert owner() is g
    return runs


@pytest.mark.parametrize("kernel", [Kernel.LIST, Kernel.PAIR])
def test_an_unbound_head_fails_before_an_operand_calls_a_primitive(kernel):
    got, calls, g = _head_case(kernel, "(ZZ, (FIRST, X), (REST, X))")
    assert got[:2] == (Fault.UNBOUND, "unbound symbol: ZZ") and got[2][-1] is _ZZ
    assert calls == []
    assert None not in _runs(g)  # the head's run signals


@pytest.mark.parametrize("kernel", [Kernel.LIST, Kernel.PAIR])
@pytest.mark.parametrize("head", ["T", "F", "NIL"])
def test_a_truth_value_head_is_not_callable(kernel, head):
    got, calls, _ = _head_case(kernel, f"({head}, (FIRST, X))")
    if head == "NIL" and kernel is Kernel.LIST:  # NIL stands for itself in the pair kernel only
        assert got[:2] == (Fault.UNBOUND, "unbound symbol: NIL") and calls == []
    else:
        assert got[:2] == (Fault.NOT_CALLABLE, f"not callable: {head}")
        assert calls == ["FIRST"]


@pytest.mark.parametrize("kernel", [Kernel.LIST, Kernel.PAIR])
def test_a_quoted_head_is_not_callable_after_its_operands(kernel):
    got, calls, g = _head_case(kernel, "((QUOTE, A), (FIRST, X))")
    assert got[:2] == (Fault.NOT_CALLABLE, "not callable: A") and calls == ["FIRST"]
    assert None not in _runs(g)


@pytest.mark.parametrize("kernel", [Kernel.LIST, Kernel.PAIR])
def test_a_planned_head_applies_the_closure_or_primitive_it_gives(kernel):
    # FS holds a closure, then the primitive REST.
    def bind(env):
        closure = eval_sexpr(program(kernel, "(LAMBDA, (Y), (COMBINE, Y, (QUOTE, ())))"),
                             env, kernel)
        return [(Symbol("FS"), form(kernel, closure, env.lookup(_REST)))]

    got, calls, g = _head_case(
        kernel, "(COMBINE, ((FIRST, FS), X), ((FIRST, (REST, FS)), X))", bind
    )
    assert got == ("value", in_kernel(kernel, read_sexpr("(((A, B)), B)")))
    assert calls == ["FIRST", "COMBINE", "REST", "FIRST", "REST", "COMBINE"]
    for application in _parts(kernel, g.body)[1:]:  # each head a plan, in a run
        assert None not in _runs(g, application)


@pytest.mark.parametrize("kernel", [Kernel.LIST, Kernel.PAIR])
@pytest.mark.parametrize(
    "head, expected",
    [("(LAMBDA, (Y, Z), (COMBINE, Y, Z))", "(A, B)"),
     ("(LABEL, L, (LAMBDA, (Y, Z), (COND, ((ATOM, Y), Z), ((QUOTE, T), (L, (FIRST, Y), Z)))))",
      "(B)")],
)
def test_the_operands_of_a_lambda_or_label_head_have_runs(kernel, head, expected):
    got, calls, g = _head_case(kernel, f"({head}, (FIRST, X), (REST, X))")
    assert got == ("value", in_kernel(kernel, read_sexpr(expected)))
    assert calls[:2] == ["FIRST", "REST"]
    runs = _runs(g)
    assert runs[0] is None and None not in runs[1:]


@pytest.mark.parametrize("kernel", [Kernel.LIST, Kernel.PAIR])
def test_a_head_that_a_closure_call_gives_is_applied_to_planned_operands(kernel):
    def bind(env):
        maker = "(LAMBDA, (W), (LAMBDA, (Y, Z), (COMBINE, Y, Z)))"
        return [(Symbol("MK"), eval_sexpr(program(kernel, maker), env, kernel))]

    got, calls, g = _head_case(kernel, "((MK, X), (FIRST, X), (REST, (REST, X)))", bind)
    assert got == ("value", in_kernel(kernel, read_sexpr("(A)")))
    assert calls == ["FIRST", "REST", "REST", "COMBINE"]
    runs = _runs(g)
    assert runs[0] is None and None not in runs[1:]


@pytest.mark.parametrize("kernel", [Kernel.LIST, Kernel.PAIR])
@pytest.mark.parametrize(
    "result, kind, message",
    [("((QUOTE, B), (FIRST, X))", Fault.NOT_CALLABLE, "not callable: B"),
     ("(T, (FIRST, X))", Fault.NOT_CALLABLE, "not callable: T"),
     ("(ZZ, (FIRST, X))", Fault.UNBOUND, "unbound symbol: ZZ")],
)
def test_a_tail_exit_whose_head_is_a_constant_or_unbound(kernel, result, kind, message):
    got, calls, g = _head_case(
        kernel, f"(COND, ((ATOM, X), (QUOTE, A)), ((QUOTE, T), {result}))"
    )
    assert got[:2] == (kind, message)
    assert calls == ([] if kind is Fault.UNBOUND else ["FIRST"])
    assert evaluator._TAIL in _fold_kinds(kernel, g.body)


# --- the kernel's own primitives, computed inline in a run ---------------------
#
# FIRST, REST, ATOM, EQ and NULL are bound to the kernel's own functions in
# both kernels, and between the two kernels they are every function that has
# an inline text.  Each is applied to every kind of value, as a plan's operand
# and as a COND test, where the run computes it inline; the loop and the
# reference call it.

_OWN = ("FIRST", "REST", "ATOM", "EQ", "NULL")


def _data(kernel):
    """A symbol, NIL, NULL, a list, a pair, a closure and a primitive, by name."""
    env = default_env(kernel)
    return {"symbol": A, "nil": NIL, "null": NULL, "list": ProperList((A, B)),
            "pair": Pair(A, B), "closure": Closure((Symbol("Y"),), Symbol("Y"), env),
            "primitive": env.lookup(Symbol("FIRST"))}


def test_the_primitives_tested_inline_are_every_one_with_an_inline_text():
    bound = {default_env(k).lookup(Symbol(n)).fn for k in Kernel for n in _OWN}
    assert bound == {entry[0] for entry in evaluator._INLINE[1:]}


def _inline_programs(name):
    p = name.lower()
    if name == "EQ":
        return [
            "lambda[[v]; combine[eq[v; A]; combine[eq[A; v]; combine[eq[v; v]; ()]]]][x]",
            "lambda[[v]; [eq[v; A] -> A; eq[B; v] -> B; eq[v; v] -> C; T -> D]][x]",
            "lambda[[v]; [eq[first[v]; A] -> eq[first[v]; first[v]]; T -> B]][x]",
        ]
    return [
        f"lambda[[v]; combine[{p}[v]; ()]][x]",
        f"lambda[[v]; [{p}[v] -> A; T -> B]][x]",
        # The same plan over the same address, again in later tests and in
        # the chosen result: computed once, and any fault is the first's.
        f"lambda[[v]; [eq[{p}[v]; A] -> {p}[v]; atom[{p}[v]] -> combine[{p}[v]; ()];"
        f" null[{p}[v]] -> {p}[{p}[v]]; T -> combine[{p}[v]; {p}[v]]]][x]",
        # Computed in a result the run may not take: the later test that
        # needs it computes it again.
        f"lambda[[v]; [atom[v] -> combine[{p}[v]; ()]; null[v] -> [eq[{p}[v]; A] -> A;"
        f" T -> {p}[v]]; eq[{p}[v]; B] -> B; T -> {p}[v]]][x]",
    ]


@pytest.mark.parametrize("kernel", [Kernel.LIST, Kernel.PAIR])
@pytest.mark.parametrize("name", _OWN)
@pytest.mark.parametrize("data", list(_data(Kernel.LIST)))
def test_an_inline_primitive_has_the_loops_outcome_on_every_kind_of_value(
    kernel, name, data, monkeypatch
):
    monkeypatch.setattr(evaluator, "_RUNS", {})
    env = default_env(kernel).extend([(Symbol("X"), _data(kernel)[data])])
    for text in _inline_programs(name):
        _outcomes_to_past_the_cap(program(kernel, text), env, kernel)
    fn = env.lookup(Symbol(name)).fn
    (code,) = [c for c, e in enumerate(evaluator._INLINE) if e and e[0] is fn]
    assert code in set().union(*[_codes_in(shape) for shape in evaluator._RUNS])


def _codes_in(shape):
    """The codes of the plans a shape holds."""
    if shape.__class__ is not tuple:
        return set()
    own = {shape[1]} if len(shape) > 2 and shape[0] is None else set()
    return own.union(*[_codes_in(k) for k in shape])


def _calls_of(fn, thunk):
    """How many times thunk calls the Python function fn."""
    code, count = fn.__code__, [0]

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            count[0] += 1

    sys.setprofile(profile)
    try:
        thunk()
    finally:
        sys.setprofile(None)
    return count[0]


@pytest.mark.parametrize("kernel", [Kernel.LIST, Kernel.PAIR])
def test_a_cond_that_tests_first_of_x_six_times_computes_it_once(kernel, monkeypatch):
    monkeypatch.setattr(evaluator, "_RUNS", {})
    clauses = "; ".join([f"eq[first[x]; K{i}] -> K{i}" for i in range(1, 7)])
    env = default_env(kernel)
    fn = eval_sexpr(program(kernel, f"lambda[[x]; [{clauses}; T -> x]]"), env, kernel)
    arg = in_kernel(kernel, read_sexpr("(K6)"))
    first = env.lookup(Symbol("FIRST")).fn
    assert apply_fn(fn, [arg], kernel) is Symbol("K6")
    (source,) = _sources()
    assert source.count(".head if") == 1  # first[x] on one line, read six times
    assert source.count(" is Y else ") == 6  # each eq inline
    assert _calls_of(first, lambda: apply_fn(fn, [arg], kernel)) == 0
    assert _calls_of(evaluator._eq, lambda: apply_fn(fn, [arg], kernel)) == 0
    # A fault of first[x] is the first test's, with its trace.
    e = fault_of(apply_fn, fn, [A], kernel)
    assert e.kind is Fault.KERNEL_FAULT
    assert e.kernel_error.operation == ("first" if kernel is Kernel.LIST else "car")
    assert e.trace[-1] == program(kernel, "first[x]")


@pytest.mark.parametrize("kernel", [Kernel.LIST, Kernel.PAIR])
@pytest.mark.parametrize("data", list(_data(Kernel.LIST)))
def test_an_inline_eq_tests_the_class_of_both_operands(kernel, data, monkeypatch):
    # A quoted symbol, T unbound and a quoted list are constants alike, so
    # an inline eq tests the class of each operand.  The outcomes are the
    # loop's.
    monkeypatch.setattr(evaluator, "_RUNS", {})
    env = default_env(kernel).extend([(Symbol("X"), _data(kernel)[data])])
    text = "lambda[[v]; [eq[v; A] -> B; eq[T; v] -> C; eq[(A); v] -> D; T -> first[A]]][x]"
    _outcomes_to_past_the_cap(program(kernel, text), env, kernel)
    (source,) = [s for s in _sources() if " is Y" in s]
    assert source.count(".__class__ is Y") == 2 + 2 + 2


@pytest.mark.parametrize("kernel", [Kernel.LIST, Kernel.PAIR])
def test_a_primitive_that_wraps_the_kernels_own_stays_a_call(kernel, monkeypatch):
    monkeypatch.setattr(evaluator, "_RUNS", {})
    own = default_env(kernel).lookup(Symbol("FIRST")).fn
    wrapped = Primitive("FIRST", 1, lambda x: own(x))
    env = default_env(kernel).extend([(Symbol("FIRST"), wrapped)])
    clauses = "; ".join([f"eq[first[x]; K{i}] -> K{i}" for i in range(1, 7)])
    fn = eval_sexpr(program(kernel, f"lambda[[x]; [{clauses}; T -> x]]"), env, kernel)
    arg = in_kernel(kernel, read_sexpr("(K6)"))
    assert apply_fn(fn, [arg], kernel) is Symbol("K6")
    (source,) = _sources()
    assert ".head if" not in source
    assert _calls_of(own, lambda: apply_fn(fn, [arg], kernel)) == 6  # once a test


# A call: an item of an application that is itself an application whose
# items, head and operands, all have items (see evaluator._call).  The
# application's step keeps a run for it, beside its runs, which evaluates
# its items; the loop binds or applies their values, with the call's form
# on the stack, and never meets the call's own step.

_APPEND = "label[app; lambda[[x; y]; [null[x] -> y; T -> combine[first[x]; {}]]]]"


def _call_forms(kernel, body):
    """(combine, call): combine[first[x]; call], the result of body's second clause."""
    combine = _parts(kernel, _parts(kernel, body)[2])[1]
    return combine, _parts(kernel, combine)[2]


@pytest.mark.parametrize("kernel", [Kernel.LIST, Kernel.PAIR])
def test_a_call_among_the_operands_is_bound_and_its_step_never_met(kernel):
    app = eval_sexpr(program(kernel, _APPEND.format("app[rest[x]; y]")), kernel=kernel)
    combine, call = _call_forms(kernel, app.body)
    args = [in_kernel(kernel, read_sexpr(t)) for t in ("(A, B)", "(C)")]
    assert apply_fn(app, args, kernel) == in_kernel(kernel, read_sexpr("(A, B, C)"))
    owner, _, runs = _entry(combine)
    assert owner() is app
    assert runs[2] is None  # no run among the runs: the call's is beside them
    assert combine._node[1][1][0][3][2] is not None
    assert _entry(call)[0]() is None  # the loop never met the call's step


@pytest.mark.parametrize("kernel", [Kernel.LIST, Kernel.PAIR])
@pytest.mark.parametrize("call, kind", [
    ("app[rest[first[x]]; y]", Fault.KERNEL_FAULT),
    ("zz[rest[x]; y]", Fault.UNBOUND),
])
def test_a_call_that_fails_in_its_items_fails_as_the_universal_function_does(kernel, call, kind):
    # At the default cap the call's run signals, and the loop never meets
    # the call's step; at the least cap that gives the same outcome the
    # run takes the call only if the step fits, and one below it the depth
    # runs out.  The trace is the universal function's, with the call's
    # form under what faulted.
    env = default_env(kernel)
    text = _APPEND.format(call) + "[(A); ()]"
    expr = program(kernel, text)
    got = three_ways(expr, env, kernel, DEFAULT_MAX_DEPTH)
    body = _parts(kernel, _parts(kernel, _parts(kernel, expr)[0])[2])[2]
    assert _entry(_call_forms(kernel, body)[1])[0] is evaluator._NO_ENTRY[0]  # never met
    if kind is Fault.KERNEL_FAULT:
        rest = "rest" if kernel is Kernel.LIST else "cdr"
        assert got[:2] == (kind, f"{rest}: undefined on atoms")
        assert got[2][-2:] == (program(kernel, call), program(kernel, "rest[first[x]]"))
    else:
        assert got[:2] == (kind, "unbound symbol: ZZ")
        assert got[2][-2:] == (program(kernel, call), Symbol("ZZ"))
    least = next(cap for cap in range(1, 60)
                 if outcome(eval_sexpr, program(kernel, text), env, kernel, cap) == got)
    assert three_ways(expr, env, kernel, least) == got
    assert three_ways(expr, env, kernel, least - 1)[0] is Fault.DEPTH_EXCEEDED


# --- a COND's run loops on its owner's tail call, and holds a wrapped call ------
#
# A tail call to the closure's own LABEL name, with as many operands as it
# has parameters, goes on in the COND's run from its first test, in the
# frame the call makes, while the next turn fits under the cap; a result
# that wraps a call, combine[first[x]; app[rest[x]; y]], is held: the run
# evaluates its items up to the call's, and the loop pushes its frame and
# binds the call.

_WALK_TEXT = "label[wk; lambda[[x]; [null[x] -> (); T -> wk[rest[x]]]]]"


def _atoms(n):
    return "(" + ", ".join(["A"] * n) + ")"


def _body_cond(kernel, expr):
    """The COND body of the LABEL closure that expr applies."""
    label = _parts(kernel, _parts(kernel, expr)[0])
    return _parts(kernel, label[2])[2]


@pytest.mark.parametrize("kernel", [Kernel.LIST, Kernel.PAIR])
def test_a_walk_loops_in_one_run_call(kernel):
    # The loop meets the body once and calls its run once, whatever the
    # length: every later call of wk is a turn of that run.
    counts = []
    for n in (3, 30):
        expr = program(kernel, f"{_WALK_TEXT}[{_atoms(n)}]")
        with spied() as spy:
            assert three_ways(expr, default_env(kernel), kernel, DEPTH)[0] == "value"
            outcome(eval_sexpr, expr, default_env(kernel), kernel, DEPTH)
        counts.append(spy["runs"])
    assert counts[0] == counts[1] <= 4
    expr = program(kernel, f"{_WALK_TEXT}[{_atoms(3)}]")
    eval_sexpr(expr, default_env(kernel), kernel, DEPTH)
    assert evaluator._LOOP in _fold_kinds(kernel, _body_cond(kernel, expr))


@pytest.mark.parametrize("kernel", [Kernel.LIST, Kernel.PAIR])
@pytest.mark.parametrize("max_depth", range(3, 13))
def test_a_looping_run_hands_back_at_the_cap(kernel, max_depth):
    # Each turn pushes the call's form and the body: the run hands the
    # call back to the loop where the next turn would not fit, and the
    # loop runs out of depth, or evaluates the rest itself, as it would.
    env = default_env(kernel)
    for n in (2, 3, 6):
        expr = program(kernel, f"{_WALK_TEXT}[{_atoms(n)}]")
        got = three_ways(expr, env, kernel, max_depth)
        assert got in (("value", NULL), ("value", NIL)) or got[0] is Fault.DEPTH_EXCEEDED


@pytest.mark.parametrize("kernel", [Kernel.LIST, Kernel.PAIR])
@pytest.mark.parametrize("turn", range(4))
def test_a_fault_in_a_later_turn_has_the_loops_trace(kernel, turn):
    # first[first[x]] faults in the turn whose first element is an atom.
    items = ["(C)"] * turn + ["D", "(E)"]
    text = ("label[f; lambda[[x]; [null[x] -> A; eq[first[first[x]]; B] -> B;"
            " T -> f[rest[x]]]]][(" + ", ".join(items) + ")]")
    expr = program(kernel, text)
    got = three_ways(expr, default_env(kernel), kernel, DEPTH)
    first = "first" if kernel is Kernel.LIST else "car"
    assert got[:2] == (Fault.KERNEL_FAULT, f"{first}: undefined on atoms")
    assert evaluator._LOOP in _fold_kinds(kernel, _body_cond(kernel, expr))
    _outcomes_to_past_the_cap(expr, default_env(kernel), kernel)


@pytest.mark.parametrize("kernel", [Kernel.LIST, Kernel.PAIR])
@pytest.mark.parametrize("text, expected", [
    # The parameter f shadows the LABEL name: f[...] applies the parameter.
    ("label[f; lambda[[x; f]; [null[x] -> A; T -> f[rest[x]; f]]]][(A, B); lambda[[y; g]; y]]",
     ("value", "(B)")),
    # A self call of the wrong arity.
    ("label[f; lambda[[x]; [null[x] -> A; T -> f[rest[x]; x]]]][(A)]",
     (Fault.ARITY, "closure expects 1 argument(s), got 2")),
    # A test left to the loop, and a result left to it.
    ("label[f; lambda[[x; g]; [g[x] -> A; T -> f[rest[x]; g]]]][(B, C); lambda[[y]; null[y]]]",
     ("value", "A")),
    ("label[f; lambda[[x]; [null[x] -> A; atom[first[x]] -> lambda[[y]; y][x];"
     " T -> f[rest[x]]]]][((B), C, D)]", ("value", "(C, D)")),
])
def test_a_tail_call_the_run_cannot_loop_on_stays_a_tail_exit(kernel, text, expected):
    expr = program(kernel, text)
    got = three_ways(expr, default_env(kernel), kernel, DEPTH)
    value = expected[1]
    if expected[0] == "value" and value.startswith("("):
        value = in_kernel(kernel, read_sexpr(value))
    elif expected[0] == "value":
        value = Symbol(value)
    assert got[:2] == (expected[0], value)
    kinds = _fold_kinds(kernel, _body_cond(kernel, expr))
    assert evaluator._LOOP not in kinds
    _outcomes_to_past_the_cap(expr, default_env(kernel), kernel)


@pytest.mark.parametrize("kernel", [Kernel.LIST, Kernel.PAIR])
def test_a_cond_that_loops_and_holds_resumes_in_the_frame_of_its_last_turn(kernel):
    # As metaapply does: tail calls to f skip the leading A's, then the
    # held combine[f[(); y]; x] is resumed after f's value with the x of
    # the last turn, not of the first.
    text = ("label[f; lambda[[x; y]; [null[x] -> y; eq[first[x]; A] -> f[rest[x]; y];"
            " T -> combine[f[(); y]; x]]]][(A, A, A, B, C); (Z)]")
    expr = program(kernel, text)
    got = three_ways(expr, default_env(kernel), kernel, DEPTH)
    assert got == ("value", in_kernel(kernel, read_sexpr("((Z), B, C)")))
    kinds = _fold_kinds(kernel, _body_cond(kernel, expr))
    assert {evaluator._LOOP, evaluator._HOLD} <= kinds
    _outcomes_to_past_the_cap(expr, default_env(kernel), kernel)


@pytest.mark.parametrize("kernel", [Kernel.LIST, Kernel.PAIR])
def test_a_held_result_is_never_met_by_the_loop(kernel):
    # append's combine[first[x]; app[rest[x]; y]] is held by the COND's
    # run: its step is resolved for app there, and its frame resumes with
    # app's value.
    args = [in_kernel(kernel, read_sexpr(t)) for t in ("(A, B)", "(C)")]
    expected = in_kernel(kernel, read_sexpr("(A, B, C)"))
    app = eval_sexpr(program(kernel, _APPEND.format("app[rest[x]; y]")), kernel=kernel)
    assert apply_fn(app, args, kernel) == expected
    assert _entry(_call_forms(kernel, app.body)[0])[0]() is app
    assert evaluator._HOLD in _fold_kinds(kernel, app.body)
    # A new closure, whose steps are resolved under the spy: only the
    # COND's run is called, once per call of app, and never the combine's
    # or the call's; resolving the COND resolved the combine.
    app = eval_sexpr(program(kernel, _APPEND.format("app[rest[x]; y]")), kernel=kernel)
    with spied() as counts:
        assert apply_fn(app, args, kernel) == expected
    assert counts == {"top": 0, "owned": 2, "runs": 3}


_MEMORY_CHILD = """
from protolisp import eval_sexpr, read_fexpr, translate
program = translate(read_fexpr("label[f; lambda[[x]; combine[x; f[x]]]][(A)]"))
try:
    eval_sexpr(program, max_depth=10**9)
except MemoryError:
    room = bytearray({room})  # what the evaluation held is free again
    print("MemoryError")
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS as on Linux")
def test_a_recursion_that_exhausts_memory_raises_memory_error():
    # f[x] is a call among combine's operands, and a cap of 10**9 never
    # stops it, so memory runs out.  The loop lets go of its frames and
    # its stack before the MemoryError goes on, so the child's handler has
    # memory: it allocates a quarter of the cap and prints.  Where the
    # evaluation's memory is still held, a child hangs, or fails in its
    # handler, depending on where the allocation failed; so several caps,
    # two children at a time, each capped in its own process and given
    # 60 s from its start.
    import resource  # not on every platform

    def capped(mb):
        return lambda: resource.setrlimit(resource.RLIMIT_AS, (mb << 20, mb << 20))

    env = dict(os.environ, PYTHONPATH=str(Path(protolisp.__file__).parent.parent))
    for caps in ((320, 400), (450, 512)):
        children = [
            subprocess.Popen(
                [sys.executable, "-c", _MEMORY_CHILD.format(room=cap << 18)],
                env=env, preexec_fn=capped(cap),
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for cap in caps
        ]
        deadline = time.monotonic() + 60
        try:
            for cap, child in zip(caps, children):
                try:
                    out, err = child.communicate(timeout=max(deadline - time.monotonic(), 0))
                except subprocess.TimeoutExpired:
                    pytest.fail(f"still running after 60 s under {cap} MB")
                assert (child.returncode, out) == (0, "MemoryError\n"), (cap, err[-2000:])
        finally:
            for child in children:
                child.kill()
                child.wait()
