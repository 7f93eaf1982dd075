"""The evaluator written in its own language: loading, the frozen
translation, agreement with the host on the shared corpus, and the
structural check that its own text stays inside the subset it handles."""

import gc
import weakref
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
import helpers
from protolisp import (
    NULL,
    EvalError,
    Kernel,
    ProperList,
    Symbol,
    eval_sexpr,
    list_to_pair,
    load_universal,
    meta_eval,
    print_sexpr,
    read_fexpr,
    read_sexpr,
    read_sexprs,
    translate,
    universal_env,
)

META_DEPTH = 4000
META_NAMES = ("METAASSOC", "METAPAIRUP", "METAEVCON", "METAAPPLY", "METAEVAL")

T, F = Symbol("T"), Symbol("F")
QUOTE, COND = Symbol("QUOTE"), Symbol("COND")
LAMBDA, LABEL = Symbol("LAMBDA"), Symbol("LABEL")
PRIMITIVE_HEADS = frozenset(
    Symbol(n)
    for n in ("ATOM", "NULL", "EQ", "FIRST", "CAR", "REST", "CDR",
              "COMBINE", "CONS")
)


@pytest.fixture(scope="module")
def env():
    return universal_env(max_depth=META_DEPTH)


def meta(text, env):
    return meta_eval(read_sexpr(text), env, max_depth=META_DEPTH)


# --- loading and the frozen form ----------------------------------------------

def test_load_universal_yields_the_five_definitions_in_order():
    defs = load_universal()
    assert [name.name for name, _ in defs] == list(META_NAMES)


def test_loaded_translation_matches_the_frozen_rendering():
    frozen = (
        (resources.files("protolisp") / "assets" / "universal.sexp")
        .read_text(encoding="utf-8")
        .splitlines()
    )
    lines = [l for l in frozen if l.strip()]
    defs = load_universal()
    assert len(lines) == len(defs) == 5
    for (name, form), line in zip(defs, lines):
        assert print_sexpr(ProperList((name, form))) == line


def test_frozen_rendering_reads_back_to_the_same_structures():
    text = (resources.files("protolisp") / "assets" / "universal.sexp").read_text(
        encoding="utf-8"
    )
    parsed = read_sexprs(text)
    built = [ProperList((name, form)) for name, form in load_universal()]
    assert parsed == built


# --- the evaluator evaluates with the host's semantics --------------------------

def test_quoted_constant(env):
    assert meta("(QUOTE, A)", env) == Symbol("A")


def test_abstraction_application(env):
    v = meta("((LAMBDA, (X), (FIRST, X)), (QUOTE, (A, B)))", env)
    assert v == Symbol("A")


def test_a_closure_sees_its_free_variable_rebound_only_under_the_meta_evaluator(env):
    # The host closes the inner LAMBDA over X = A.  The meta evaluator
    # applies the LAMBDA form in the caller's environment, where X is B:
    # dynamic scope, LISP 1's funarg behaviour.
    form = translate(read_fexpr(
        "lambda[[x]; lambda[[f]; lambda[[x]; f[C]][B]][lambda[[y]; x]]][A]"
    ))
    assert eval_sexpr(form) == Symbol("A")
    assert eval_sexpr(list_to_pair(form), kernel=Kernel.PAIR) == Symbol("A")
    assert meta_eval(form, env, max_depth=META_DEPTH) == Symbol("B")


@pytest.mark.parametrize(
    "text, hosted, under_meta",
    [
        ("lambda[[f]; f][A]", "A", "F"),
        ("lambda[[t]; t][A]", "A", "T"),
        ("lambda[[f]; combine[f; ()]][A]", "(A)", "(F)"),
    ],
)
def test_a_variable_named_t_or_f_is_read_as_itself_only_under_the_meta_evaluator(
    env, text, hosted, under_meta
):
    # metaeval tells T and F by eq before it looks an atom up; the host
    # looks a binding up first.  So these first-order programs differ.
    form = translate(read_fexpr(text))
    assert eval_sexpr(form) == read_sexpr(hosted)
    assert eval_sexpr(list_to_pair(form), kernel=Kernel.PAIR) == list_to_pair(
        read_sexpr(hosted)
    )
    assert meta_eval(form, env, max_depth=META_DEPTH) == read_sexpr(under_meta)


def test_recursion_through_an_atom_named_after_a_truth_value(env):
    src = "label[f; lambda[[x]; [null[x] -> (); T -> f[rest[x]]]]][(A, B)]"
    assert meta_eval(translate(read_fexpr(src)), env, max_depth=META_DEPTH) == NULL


def test_recursion_depth_well_past_twenty(env):
    deep = next(p for p in corpus.PROGRAMS if p.name == "walk-depth-24")
    form = translate(read_fexpr(deep.source))
    assert meta_eval(form, env, max_depth=META_DEPTH) == NULL


@pytest.mark.parametrize("program", corpus.PROGRAMS, ids=lambda p: p.name)
def test_agrees_with_the_host_on_the_corpus(program, env):
    form = translate(read_fexpr(program.source))
    hosted = eval_sexpr(form, max_depth=META_DEPTH)
    assert hosted == read_sexpr(program.expected)
    assert meta_eval(form, env, max_depth=META_DEPTH) == hosted


def test_an_evaluator_under_the_evaluator(env):
    # the corpus mini evaluator, itself interpreting quoted forms, runs one
    # meta level further down without anything special happening
    v = meta_eval(
        translate(read_fexpr(corpus.MINI_EVAL + "[(FIRST, (QUOTE, (A, B)))]")),
        env,
        max_depth=META_DEPTH,
    )
    assert v == Symbol("A")


def test_meta_eval_with_no_env_loads_the_definitions_itself():
    form = translate(read_fexpr(corpus.APPEND + "[(A, B); (C)]"))
    assert meta_eval(form) == read_sexpr("(A, B, C)")


def test_meta_faults_surface_as_host_faults(env):
    with pytest.raises(EvalError):
        meta("ZZ", env)  # unbound at the meta level: assoc runs off the end


def test_a_universal_env_is_freed_with_its_last_reference():
    # Its definitions' steps keep where their heads are bound, not the
    # closures bound there, so nothing holds the meta evaluator but env.
    # append goes through every definition, and metaevcon's body passes
    # the meta evaluator on as ev.
    form = translate(read_fexpr(corpus.APPEND + "[(A, B); (C)]"))
    enabled = gc.isenabled()
    gc.disable()
    try:
        env = universal_env(max_depth=META_DEPTH)
        assert meta_eval(form, env, max_depth=META_DEPTH) == read_sexpr("(A, B, C)")
        ref = weakref.ref(env.lookup(Symbol("METAEVAL")))
        del env
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


# Closed first-order programs: ((LAMBDA, (X, Y, Z), body), (QUOTE, a),
# (QUOTE, b), (QUOTE, c)), whose body has the three variables, T, F and
# quoted data at its leaves, and the nine primitives at their arity and
# COND above them.  No inner LAMBDA or LABEL: the meta evaluator applies a
# LAMBDA form in the caller's environment, which is dynamic scope, so a
# closure that escapes its scope means something else there.  No
# pair-kernel run either: atom[()] is F on the list kernel, where the meta
# evaluator runs, and atom[NIL] is T on the pair kernel, so a program that
# asks atom of an empty list ends in another value there.
_VARIABLES = (Symbol("X"), Symbol("Y"), Symbol("Z"))
_ARITIES = {Symbol(n): 2 if n in ("EQ", "COMBINE", "CONS") else 1
            for n in ("ATOM", "NULL", "EQ", "FIRST", "CAR", "REST", "CDR",
                      "COMBINE", "CONS")}


def _quoted(v):
    return ProperList((QUOTE, v))


def _applications_and_conds(parts):
    applications = st.sampled_from(sorted(_ARITIES, key=repr)).flatmap(
        lambda head: st.lists(parts, min_size=_ARITIES[head], max_size=_ARITIES[head])
        .map(lambda operands: ProperList((head, *operands)))
    )
    conds = st.lists(st.tuples(parts, parts), min_size=1, max_size=3).map(
        lambda clauses: ProperList((COND, *map(ProperList, clauses)))
    )
    return applications | conds


_bodies = st.recursive(
    st.sampled_from((*_VARIABLES, T, F)) | helpers.list_values.map(_quoted),
    _applications_and_conds,
    max_leaves=12,
)


def _data(v):
    """Whether v is made only of symbols and lists."""
    todo = [v]
    while todo:
        v = todo.pop()
        if isinstance(v, ProperList):
            todo.extend(v.items)
        elif not isinstance(v, Symbol):
            return False
    return True


@settings(max_examples=300, deadline=None)
@given(body=_bodies, args=st.tuples(*[helpers.list_values] * 3))
def test_agrees_with_the_host_on_closed_first_order_programs(env, body, args):
    function = ProperList((LAMBDA, ProperList(_VARIABLES), body))
    program = ProperList((function, *map(_quoted, args)))
    try:
        hosted = eval_sexpr(program, max_depth=META_DEPTH)
    except EvalError:
        return  # a meta fault is whatever host fault gets stuck first
    if _data(hosted):
        assert meta_eval(program, env, max_depth=META_DEPTH) == hosted


# --- the helper functions, called directly --------------------------------------

def test_assoc_finds_the_first_binding(env):
    v = eval_sexpr(
        read_sexpr("(METAASSOC, (QUOTE, X), (QUOTE, ((X, A), (X, B), (Y, C))))"),
        env,
        max_depth=META_DEPTH,
    )
    assert v == Symbol("A")


def test_pairup_builds_a_two_element_list_per_name(env):
    v = eval_sexpr(
        read_sexpr(
            "(METAPAIRUP, (QUOTE, (X, Y)),"
            " (QUOTE, ((QUOTE, A), (QUOTE, B))), (QUOTE, ()), METAEVAL)"
        ),
        env,
        max_depth=META_DEPTH,
    )
    assert v == read_sexpr("((X, A), (Y, B))")


# --- the evaluator's own text stays inside the subset it implements --------------

def scan(expr, bound):
    """Walk a translated form, asserting every head and free atom is one
    the evaluator's dispatch covers."""
    if isinstance(expr, Symbol):
        assert expr in (T, F) or expr in bound, f"free atom {expr}"
        return
    items = expr.items
    assert items, "empty form"
    head = items[0]
    if head == QUOTE:
        assert len(items) == 2
        return
    if head == COND:
        for clause in items[1:]:
            test, value = clause.items
            scan(test, bound)
            scan(value, bound)
        return
    if head == LAMBDA:
        _, params, body = items
        scan(body, bound | set(params.items))
        return
    if head == LABEL:
        _, name, body = items
        scan(body, bound | {name})
        return
    if isinstance(head, Symbol):
        assert head in PRIMITIVE_HEADS or head in bound, f"unknown head {head}"
    else:
        scan(head, bound)
    for arg in items[1:]:
        scan(arg, bound)


def test_the_definitions_use_only_what_they_can_evaluate():
    bound = set()
    for name, form in load_universal():
        scan(form, set(bound))
        bound.add(name)
