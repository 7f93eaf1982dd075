"""The bracket-and-semicolon program notation."""

import pytest
from hypothesis import given

import helpers
from protolisp import (
    App,
    Cond,
    Const,
    Definition,
    Label,
    Lambda,
    ParseError,
    ParseErrorKind,
    ProperList,
    Symbol,
    Var,
    print_fexpr,
    read_fexpr,
    read_program,
)

A, B = helpers.A, helpers.B


def test_reads_application_of_a_constant():
    assert read_fexpr("first[(A, B)]") == App(
        Var("first"), (Const(ProperList((A, B))),)
    )


def test_reads_conditional():
    assert read_fexpr("[eq[x; A] -> x; T -> y]") == Cond(
        (
            (App(Var("eq"), (Var("x"), Const(A))), Var("x")),
            (Const(Symbol("T")), Var("y")),
        )
    )


def test_reads_lambda_and_label():
    assert read_fexpr("lambda[[x; y]; x]") == Lambda(("x", "y"), Var("x"))
    assert read_fexpr("lambda[[]; A]") == Lambda((), Const(A))
    assert read_fexpr("label[f; lambda[[x]; f[x]]]") == Label(
        "f", Lambda(("x",), App(Var("f"), (Var("x"),)))
    )


def test_application_chains_postfix():
    assert read_fexpr("f[A][B]") == App(App(Var("f"), (Const(A),)), (Const(B),))
    assert read_fexpr("lambda[[x]; x][A]") == App(
        Lambda(("x",), Var("x")), (Const(A),)
    )
    assert read_fexpr("[T -> f][A]") == App(
        Cond(((Const(Symbol("T")), Var("f")),)), (Const(A),)
    )


def test_zero_argument_application():
    assert read_fexpr("f[]") == App(Var("f"), ())


def test_constants_use_the_aim8_notation():
    assert read_fexpr("(A, (B), ())") == Const(
        ProperList((A, ProperList((B,)), ProperList(())))
    )
    assert read_fexpr("()") == Const(ProperList(()))


def test_comments_and_whitespace():
    src = "f[ # comment\n  x;  # another\n  y\n]"
    assert read_fexpr(src) == App(Var("f"), (Var("x"), Var("y")))


def test_unbalanced_bracket():
    with pytest.raises(ParseError) as exc:
        read_fexpr("first[(A, B)")
    assert exc.value.kind is ParseErrorKind.UNBALANCED_PAREN
    with pytest.raises(ParseError) as exc:
        read_fexpr("f[x")
    assert exc.value.kind is ParseErrorKind.UNBALANCED_PAREN


def test_mixed_case_words_are_rejected():
    for text in ("Foo", "fOO", "aB", "f[Xy]"):
        with pytest.raises(ParseError) as exc:
            read_fexpr(text)
        assert exc.value.kind is ParseErrorKind.MIXED_CASE


def test_words_may_not_start_with_a_digit():
    with pytest.raises(ParseError) as exc:
        read_fexpr("9x")
    assert exc.value.kind is ParseErrorKind.UNEXPECTED_CHAR


def test_reserved_words():
    with pytest.raises(ParseError) as exc:
        read_fexpr("f[lambda; x]")
    assert exc.value.kind is ParseErrorKind.RESERVED_WORD
    with pytest.raises(ParseError) as exc:
        read_fexpr("label[f; lambda]")
    assert exc.value.kind is ParseErrorKind.RESERVED_WORD
    with pytest.raises(ParseError) as exc:
        read_fexpr("lambda[[label]; x]")
    assert exc.value.kind is ParseErrorKind.RESERVED_WORD
    # a reserved word cut off by end of input is an unclosed form
    with pytest.raises(ParseError) as exc:
        read_fexpr("lambda")
    assert exc.value.kind is ParseErrorKind.UNBALANCED_PAREN


def test_parameters_must_be_identifiers():
    with pytest.raises(ParseError):
        read_fexpr("lambda[[X]; x]")
    with pytest.raises(ParseError):
        read_fexpr("label[F; lambda[[x]; x]]")


def test_empty_conditional_is_rejected():
    with pytest.raises(ParseError) as exc:
        read_fexpr("[]")
    assert "at least one clause" in str(exc.value)


def test_dot_has_no_meaning_here():
    with pytest.raises(ParseError) as exc:
        read_fexpr(".")
    assert exc.value.kind is ParseErrorKind.DOT_MISUSE


def test_empty_and_trailing_input():
    with pytest.raises(ParseError) as exc:
        read_fexpr("  # nothing\n")
    assert exc.value.kind is ParseErrorKind.EMPTY_INPUT
    with pytest.raises(ParseError) as exc:
        read_fexpr("x y")
    assert exc.value.kind is ParseErrorKind.TRAILING_INPUT


# --- printing ----------------------------------------------------------------

def test_print_examples():
    assert print_fexpr(App(Var("first"), (Const(ProperList((A,))),))) == "first[(A)]"
    assert print_fexpr(Lambda(("x",), Var("x"))) == "lambda[[x]; x]"
    assert (
        print_fexpr(Label("f", Lambda(("x",), App(Var("f"), (Var("x"),)))))
        == "label[f; lambda[[x]; f[x]]]"
    )
    assert print_fexpr(Cond(((Var("p"), Var("e")),))) == "[p -> e]"
    assert print_fexpr(App(Var("f"), ())) == "f[]"


@pytest.mark.parametrize(
    "e, shown",
    [(A, "A"), ("x", "'x'"), (None, "None"), (Lambda(("x",), B), "B")],
)
def test_printing_a_value_that_is_no_f_expression_is_a_type_error(e, shown):
    with pytest.raises(TypeError, match=f"^not an F-expression: {shown}$"):
        print_fexpr(e)


@given(helpers.fexprs)
def test_read_print_round_trip(e):
    assert read_fexpr(print_fexpr(e)) == e


def test_round_trip_of_the_awkward_shapes():
    shapes = [
        App(Cond(((Var("p"), Var("f")),)), (Var("x"),)),
        App(App(Var("f"), ()), ()),
        App(Const(A), (Var("x"),)),
        Cond(((Cond(((Var("p"), Var("q")),)), Var("r")),)),
        Lambda((), Const(ProperList(()))),
        Label("f", Label("g", Var("f"))),
    ]
    for e in shapes:
        assert read_fexpr(print_fexpr(e)) == e


# --- programs ----------------------------------------------------------------

def test_read_program_definitions_and_expressions():
    items = read_program("id = lambda[[x]; x]\nid[A]\n")
    assert items == [
        Definition("id", Lambda(("x",), Var("x"))),
        App(Var("id"), (Const(A),)),
    ]


def test_read_program_bare_identifier_application():
    # an identifier at top level may still be an expression, not a definition
    items = read_program("f[x]")
    assert items == [App(Var("f"), (Var("x"),))]
    assert read_program("x") == [Var("x")]


def test_read_program_empty_and_comments():
    assert read_program("") == []
    assert read_program("# just notes\n\n") == []


def test_read_program_mixed_items():
    items = read_program("(A, B)\nw = first[(A)]\nw\n")
    assert items == [
        Const(ProperList((A, B))),
        Definition("w", App(Var("first"), (Const(ProperList((A,))),))),
        Var("w"),
    ]


def test_read_program_a_bracket_that_begins_a_line_begins_an_item():
    t_to_b = Cond(((Const(Symbol("T")), Const(B)),))
    assert read_program("x = A\nx\n[T -> B]\n") == [
        Definition("x", Const(A)),
        Var("x"),
        t_to_b,
    ]
    # after a definition, any expression, blanks or a comment line
    assert read_program("y = f[A]\n  # note\n  [T -> B]") == [
        Definition("y", App(Var("f"), (Const(A),))),
        t_to_b,
    ]
    assert read_program("(A)\n[T -> B]") == [Const(ProperList((A,))), t_to_b]


def test_read_program_a_bracket_inside_a_line_or_brackets_applies():
    f_of_a = App(Var("f"), (Const(A),))
    assert read_program("f [A]") == [f_of_a]
    assert read_program("f[A]\n") == [f_of_a]
    assert read_program("g[f\n[A]]") == [App(Var("g"), (f_of_a,))]
    assert read_fexpr("f\n[A]") == f_of_a


# --- character classes ---------------------------------------------------------

def test_character_classes_agree_with_str_methods_on_every_code_point():
    # Blanks are str.isspace; a word is a run of str.isalnum characters and
    # begins with a str.isalpha one.  Only an alphanumeric code point can be
    # in a word, so the start of a word is checked through the reader on
    # those; a class built from \w would differ on, for example, "²".
    from protolisp.fexpr import _NEXT, _TOKEN, _WORD

    mismatches = []
    for cp in range(0x110000):
        c = chr(cp)
        if c != "#" and (_NEXT(c).start(1) == 1) != c.isspace():
            mismatches.append(("blank", c))
        if not ("a" <= c <= "z" or "0" <= c <= "9"):
            if (_TOKEN("x" + c)[1] == "x") == c.isalnum():
                mismatches.append(("word boundary", c))
        if (_WORD("x" + c)[0] == "x" + c) != c.isalnum():
            mismatches.append(("word", c))
        if c.isalnum() and not c.isascii():
            with pytest.raises(ParseError) as exc:
                read_fexpr(c)
            if (exc.value.kind is ParseErrorKind.MIXED_CASE) != c.isalpha():
                mismatches.append(("word start", c))
    assert mismatches == []
