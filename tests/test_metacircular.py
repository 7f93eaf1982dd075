"""The evaluator written in its own language: loading, the frozen
translation, agreement with the host on the shared corpus, and the
structural check that its own text stays inside the subset it handles."""

from importlib import resources

import pytest

import corpus
from protolisp import (
    NULL,
    EvalError,
    ProperList,
    Symbol,
    eval_sexpr,
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
