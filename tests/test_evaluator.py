"""The universal interpreter over both kernels."""

import ast
import copy
import gc
import inspect
import itertools
import pickle
import random
import sys
import threading
import tracemalloc
import weakref

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import corpus
import helpers
from protolisp import (
    DEFAULT_MAX_DEPTH,
    NIL,
    NULL,
    Closure,
    Dialect,
    EvalError,
    Fault,
    Kernel,
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


@pytest.mark.parametrize("kernel", [Kernel.LIST, Kernel.PAIR])
def test_a_combine_tree_of_any_height_evaluates(kernel):
    n = 100_000
    empty = quoted(kernel, NULL)
    tree = empty
    for _ in range(n):
        tree = form(kernel, COMBINE, tree, empty)
    value = eval_sexpr(tree, kernel=kernel, max_depth=10**6)
    expected = NULL
    for _ in range(n):
        expected = ProperList((expected,))
    assert value == in_kernel(kernel, expected)


@pytest.mark.parametrize("kernel", [Kernel.LIST, Kernel.PAIR])
def test_the_depth_limit_of_a_primitive_tree_is_exact(kernel):
    # The tree is three applications high and its innermost operand, X, is
    # one level above the innermost one: 1 + 3 levels in all.
    x = in_kernel(kernel, ProperList((A, B)))
    env = default_env(kernel).extend([(Symbol("X"), x)])
    rest_x = form(kernel, Symbol("REST"), Symbol("X"))
    first = form(kernel, Symbol("FIRST"), rest_x)
    tree = form(kernel, COMBINE, first, quoted(kernel, NULL))
    assert eval_sexpr(tree, env, kernel, max_depth=4) == form(kernel, B)
    e = fault_of(eval_sexpr, tree, env, kernel, max_depth=3)
    assert e.kind is Fault.DEPTH_EXCEEDED
    assert e.trace == (tree, first, rest_x, Symbol("REST"))


@pytest.mark.parametrize("kernel", [Kernel.LIST, Kernel.PAIR])
def test_a_kernel_fault_three_levels_inside_a_tree_keeps_its_trace(kernel):
    fault = form(kernel, Symbol("FIRST"), quoted(kernel, C))
    level2 = form(kernel, COMBINE, fault, quoted(kernel, NULL))
    level1 = form(kernel, COMBINE, quoted(kernel, B), level2)
    tree = form(kernel, COMBINE, quoted(kernel, A), level1)
    e = fault_of(eval_sexpr, tree, kernel=kernel, max_depth=DEPTH)
    name = "first" if kernel is Kernel.LIST else "car"
    assert (e.kind, str(e)) == (Fault.KERNEL_FAULT, f"{name}: undefined on atoms")
    assert e.trace == (tree, level1, level2, fault)


def test_a_primitive_in_a_tree_is_called_once_when_a_later_operand_faults():
    calls = []

    def record(x):
        calls.append(x)
        return x

    env = default_env().extend([(Symbol("REC"), Primitive("REC", 1, record))])
    later_operands = (("(FIRST, (QUOTE, B))", Fault.KERNEL_FAULT), ("ZZ", Fault.UNBOUND))
    for later, kind in later_operands:
        calls.clear()
        tree = read_sexpr(f"(COMBINE, (REC, (QUOTE, A)), {later})")
        assert fault_of(eval_sexpr, tree, env, max_depth=DEPTH).kind is kind
        assert calls == [A]


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


def _nodes_under(*roots):
    """The nodes kept on the forms reachable from roots, closures included."""
    todo, seen, nodes = list(roots), set(), []
    while todo:
        v = todo.pop()
        if id(v) in seen:
            continue
        seen.add(id(v))
        if isinstance(v, (ProperList, Pair)):
            if getattr(v, "_node", None) is not None:
                nodes.append(v._node)
            todo.extend(v.items if isinstance(v, ProperList) else (v.head, v.tail))
        elif isinstance(v, Closure):
            todo += [v.body, v.env]
        elif isinstance(v, Env):
            todo.extend([value for _, value in v.bindings])
    return nodes


def through_the_loop(expr, env, kernel, max_depth):
    expr, env = copy.deepcopy((expr, env))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluator, "_get", _no_get)
        got = outcome(eval_sexpr, expr, env, kernel, max_depth)
    for kind, step, _ in _nodes_under(expr, env):  # so it ran no get
        if kind in (evaluator._APPLY, evaluator._CHOOSE):
            assert set(step[1][0][3]) <= {None}
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
    # PICK's application has no get, though COMBINE's step resolves.
    assert evaluator._resolve(expr._node[1], env, kernel)[2][0] is None
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
    # generator: no yield, and no generator expression either.
    tree = ast.parse(inspect.getsource(evaluator))
    kinds = (ast.Yield, ast.YieldFrom, ast.GeneratorExp)
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
@pytest.mark.parametrize("wrapped", [False, True], ids=["top", "wrapped"])
def test_an_error_inside_a_plan_has_the_trace_of_the_universal_function(
    kernel, level, cause, wrapped
):
    # The plan pushes nothing; the trace is rebuilt from the forms the error
    # left on its way out.  At level 8 with an unbound symbol that path alone
    # is nine forms long, so the trace keeps the innermost eight of it.
    expr = _plan_case(kernel, cause, level, wrapped)
    env = default_env(kernel)
    kinds = [outcome(helpers.reference_eval, expr, env, kernel, d)[0] for d in range(1, 16)]
    boundary = 1 + kinds.index(Fault.KERNEL_FAULT if cause == "fault" else Fault.UNBOUND)
    assert kinds[: boundary - 1] == [Fault.DEPTH_EXCEEDED] * (boundary - 1)
    for max_depth in (boundary - 1, boundary, DEFAULT_MAX_DEPTH):
        expected = full_outcome(helpers.reference_eval, expr, env, kernel, max_depth)
        fresh = copy.deepcopy(expr)
        for e in (fresh, fresh, expr):  # made now, then kept
            assert full_outcome(eval_sexpr, e, env, kernel, max_depth) == expected
        assert through_the_loop(expr, env, kernel, max_depth) == expected[:3]
    if cause == "unbound" and level == 8:
        assert len(expected[2]) == 8 and expected[2][-1] is Symbol("ZZ")
    if not wrapped:  # the step evaluated its operands in place, the tree as a plan
        assert None not in evaluator._resolve(expr._node[1], env, kernel)[2]


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
    # no get for f[x], which runs as a step in every frame, whatever
    # f is bound to there; the head COMBINE is kept as its address.
    fn = eval_sexpr(program(kernel, "lambda[[f; x]; combine[f[x]; ()]]"), kernel=kernel)
    prims = default_env(kernel)
    ab = in_kernel(kernel, read_sexpr("(A, B)"))
    for f, expected in ((_FIRST, "(A)"), (_REST, "((B))"), (_FIRST, "(A)")):
        got = apply_fn(fn, [prims.lookup(f), ab], kernel, DEPTH)
        assert got == in_kernel(kernel, read_sexpr(expected))
    owner, head, height, gets = fn.body._node[1][1][0]
    assert owner() is fn and gets[0] is None
    # COMBINE is bound in the frame the call's frame extends, fn.env.
    frame = evaluator._Interp(kernel, DEPTH)._bind(fn, [prims.lookup(_REST), ab])
    up, at = evaluator._address(COMBINE, frame)
    assert up == 1 and fn.env.names[at] is COMBINE
    assert head is evaluator._get_at((up, at)) and head(frame) is fn.env.values[at]
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
