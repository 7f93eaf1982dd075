"""The notation-only translation from F-expressions to S-expressions."""

import sys

import pytest
from hypothesis import given

import helpers
from protolisp import (
    App,
    Cond,
    Const,
    DuplicateDefinitionError,
    Label,
    Lambda,
    NameCollisionError,
    ProperList,
    Symbol,
    Var,
    list_to_pair,
    print_sexpr,
    read_fexpr,
    read_sexpr,
    translate,
    translate_program,
)
from protolisp.translate import name_symbol

A, B = helpers.A, helpers.B


def t(source):
    return translate(read_fexpr(source))


# --- the six rules, one by one ----------------------------------------------

def test_variables_uppercase():
    assert t("x") == Symbol("X")
    assert t("first") == Symbol("FIRST")
    assert t("fn1") == Symbol("FN1")


def test_constants_are_quoted():
    assert t("(A, B)") == read_sexpr("(QUOTE, (A, B))")
    assert t("A") == read_sexpr("(QUOTE, A)")
    assert t("()") == read_sexpr("(QUOTE, ())")


def test_applications_become_lists():
    assert t("first[x]") == read_sexpr("(FIRST, X)")
    assert t("f[g[x]; y]") == read_sexpr("(F, (G, X), Y)")
    assert t("f[]") == read_sexpr("(F)")


def test_conditionals_become_cond_forms():
    assert t("[eq[x; A] -> x; T -> y]") == read_sexpr(
        "(COND, ((EQ, X, (QUOTE, A)), X), ((QUOTE, T), Y))"
    )


def test_lambda_becomes_a_lambda_form():
    assert t("lambda[[x]; first[x]]") == read_sexpr("(LAMBDA, (X), (FIRST, X))")
    assert t("lambda[[]; A]") == read_sexpr("(LAMBDA, (), (QUOTE, A))")


def test_label_becomes_a_label_form():
    assert t("label[f; lambda[[x]; f[x]]]") == read_sexpr(
        "(LABEL, F, (LAMBDA, (X), (F, X)))"
    )


def test_application_of_an_abstraction():
    assert t("lambda[[x]; x][A]") == read_sexpr("((LAMBDA, (X), X), (QUOTE, A))")


# --- collisions ---------------------------------------------------------------

def test_reserved_head_collisions():
    for name in ("quote", "cond"):
        with pytest.raises(NameCollisionError):
            t(f"{name}[x]")
    with pytest.raises(NameCollisionError):
        translate(Var("lambda"))
    with pytest.raises(NameCollisionError):
        translate(Lambda(("cond",), Var("cond")))
    with pytest.raises(NameCollisionError):
        translate(Label("quote", Lambda((), Const(A))))


def test_name_symbol():
    assert name_symbol("append") == Symbol("APPEND")
    with pytest.raises(NameCollisionError):
        name_symbol("label")


# --- programs -----------------------------------------------------------------

def test_translate_program():
    assert translate_program([]) == []
    out = translate_program([("id", Lambda(("x",), Var("x")))])
    assert out == [(Symbol("ID"), read_sexpr("(LAMBDA, (X), X)"))]


def test_translate_program_duplicate_names():
    defs = [("f", Var("x")), ("f", Var("y"))]
    with pytest.raises(DuplicateDefinitionError):
        translate_program(defs)


def test_translate_program_collision():
    with pytest.raises(NameCollisionError):
        translate_program([("cond", Var("x"))])


# --- output shape properties ----------------------------------------------------

@given(helpers.fexprs)
def test_output_is_proper_at_every_depth(e):
    out = translate(e)
    assert helpers.deep_proper(list_to_pair(out))


@given(helpers.fexprs)
def test_output_survives_the_aim8_round_trip(e):
    out = translate(e)
    assert read_sexpr(print_sexpr(out)) == out


def test_translation_is_deterministic():
    e = read_fexpr("label[f; lambda[[x; y]; [eq[x; A] -> y; T -> f[y; x]]]]")
    assert translate(e) == translate(e)


@pytest.mark.parametrize(
    "e, shown",
    [(A, "A"), ("x", "'x'"), (None, "None"), (App(Var("f"), (Var("x"), B)), "B")],
)
def test_a_value_that_is_no_f_expression_is_a_type_error(e, shown):
    with pytest.raises(TypeError, match=f"^not an F-expression: {shown}$"):
        translate(e)


@pytest.mark.parametrize(
    "e, shown",
    [(3, "3"), (0, "0"), (1, "1"), (-2, "-2"), (True, "True"),
     (App(Var("f"), (Var("x"), 2)), "2"), (App(Var("f"), (0,)), "0")],
)
def test_an_int_is_no_f_expression_either(e, shown):
    # The walk's own list-closing counts sit on its stack under a mark no
    # caller has, so an int anywhere in the input is refused like any
    # other value, not taken for one of them.
    with pytest.raises(TypeError, match=f"^not an F-expression: {shown}$"):
        translate(e)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS as on Linux")
def test_a_translation_that_exhausts_memory_lets_go_of_it():
    # f[e; e], each e the one below, 26 deep: its translation has 2^26
    # applications, and translate's stack and the forms it has made run
    # out of memory.  It clears both before the MemoryError goes on, so
    # the child's handler has memory (see helpers.MEMORY_CHILD).  Two caps,
    # the children at once, 60 s each.
    make = 'e, f = Var("x"), Var("f")\nfor _ in range(depth): e = App(f, (e, e))'
    sources = {
        cap: helpers.MEMORY_CHILD.format(cap=cap, depth=26, make=make, walk="translate(e)")
        for cap in (320, 512)
    }
    for cap, code, out, err in helpers.capped_children(sources):
        assert (code, out) == (0, "MemoryError\n"), (cap, err[-2000:])
