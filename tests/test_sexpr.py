"""Reading and printing S-expressions in both dialects."""

import random

import pytest
from hypothesis import given

import helpers
from protolisp import (
    NIL,
    NULL,
    Dialect,
    KindMismatchError,
    Pair,
    ParseError,
    ParseErrorKind,
    ProperList,
    Symbol,
    eval_sexpr,
    print_sexpr,
    read_sexpr,
    read_sexprs,
    unsafe_set_tail,
)
from protolisp.sexpr import CYCLE_MARKER

A, B, C = helpers.A, helpers.B, helpers.C


# --- aim8 reading -----------------------------------------------------------

def test_aim8_reads_comma_lists():
    assert read_sexpr("(A, B, C)") == ProperList((A, B, C))


def test_aim8_reads_singleton_and_null():
    assert read_sexpr("(A)") == ProperList((A,))
    assert read_sexpr("()") == NULL
    assert read_sexpr("( )") == NULL


def test_aim8_reads_nesting():
    assert read_sexpr("(A, (B, ()), C)") == ProperList(
        (A, ProperList((B, NULL)), C)
    )


def test_aim8_accepts_spaces_as_separators():
    assert read_sexpr("(A B C)") == ProperList((A, B, C))
    assert read_sexpr("(A, B C,D)") == ProperList((A, B, C, helpers.D))


def test_aim8_reads_bare_atoms_and_digits():
    assert read_sexpr("A") == A
    assert read_sexpr("X12Y") == Symbol("X12Y")


def test_comments_run_to_end_of_line():
    assert read_sexpr("# heading\n(A, # inline\n B)") == ProperList((A, B))
    vals = read_sexprs("A # one\nB # two\n# done")
    assert vals == [A, B]


def test_parse_sexpr_gives_the_offset_after_the_expression():
    from protolisp.sexpr import parse_sexpr

    assert parse_sexpr("  (A, B)  # c\n", 0, Dialect.AIM8) == (ProperList((A, B)), 8)
    assert parse_sexpr("xx (A . B) C", 2, Dialect.CLASSIC) == (Pair(A, B), 10)
    # the ")" in the comment closes nothing
    assert parse_sexpr("(A # c )\n B)", 0, Dialect.AIM8) == (ProperList((A, B)), 12)
    assert parse_sexpr("(A # c )\n B)", 0, Dialect.CLASSIC) == (Pair(A, Pair(B, NIL)), 12)


def test_a_comment_may_hold_any_delimiter():
    for c in "()[],;.":
        text = f"(A, # {c}\n B) # {c}"
        assert read_sexpr(text) == ProperList((A, B))
        assert read_sexpr(text, Dialect.CLASSIC) == Pair(A, Pair(B, NIL))
        assert read_sexprs(text + "\nC") == [ProperList((A, B)), C]


@pytest.mark.parametrize("window", [1, 5, 64])
def test_short_windows_read_the_same(monkeypatch, window):
    # The lexer ends a window before a "(" outside comments this many
    # characters on or more; the readers lex on from it.
    from protolisp import scanner
    from protolisp.sexpr import parse_sexpr

    rng = random.Random(15)
    aim8 = [helpers.messy_aim8(helpers.random_list_value(rng, 5), rng) for _ in range(40)]
    aim8.append("(A, # ( ((\n (B, (C)) # (\n, ((D)))")
    classic = [helpers.messy_classic(helpers.random_pair_value(rng, 5), rng) for _ in range(40)]

    def reads():
        return (
            [read_sexpr(t) for t in aim8],
            [read_sexpr(t, Dialect.CLASSIC) for t in classic],
            read_sexprs("\n".join(aim8)),
            read_sexprs(" ".join(classic), Dialect.CLASSIC),
            [parse_sexpr("A (" + t + " (B)", 3, Dialect.AIM8) for t in aim8],
        )

    expected = reads()
    monkeypatch.setattr(scanner, "_WINDOW", window)
    assert reads() == expected


def test_aim8_rejects_dots():
    with pytest.raises(ParseError) as exc:
        read_sexpr("(A . B)")
    assert exc.value.kind is ParseErrorKind.DOT_MISUSE
    with pytest.raises(ParseError) as exc:
        read_sexpr(".")
    assert exc.value.kind is ParseErrorKind.DOT_MISUSE


# --- classic reading --------------------------------------------------------

def test_classic_reads_dotted_pairs():
    assert read_sexpr("(A . B)", Dialect.CLASSIC) == Pair(A, B)


def test_classic_reads_list_sugar():
    assert read_sexpr("(A B)", Dialect.CLASSIC) == Pair(A, Pair(B, NIL))
    assert read_sexpr("(A, B)", Dialect.CLASSIC) == Pair(A, Pair(B, NIL))


def test_classic_reads_improper_sugar():
    assert read_sexpr("(A B . C)", Dialect.CLASSIC) == Pair(A, Pair(B, C))


def test_classic_takes_a_comma_before_the_dot():
    assert read_sexpr("(A, . B)", Dialect.CLASSIC) == Pair(A, B)
    assert read_sexpr("(A B,\n  . C)", Dialect.CLASSIC) == Pair(A, Pair(B, C))


def test_classic_null_notations():
    assert read_sexpr("()", Dialect.CLASSIC) == NIL
    assert read_sexpr("NIL", Dialect.CLASSIC) == NIL


def test_classic_nested_dots():
    assert read_sexpr("((A . B) . (C . NIL))", Dialect.CLASSIC) == Pair(
        Pair(A, B), Pair(C, NIL)
    )


def test_classic_dot_misuse():
    cases = {
        "(. A)": "dot before any list element",
        "(A .)": "dot must be followed by exactly one expression",
        "(A . B C)": "more than one expression after dot",
        "(A . B . C)": "more than one expression after dot",
    }
    for text, detail in cases.items():
        with pytest.raises(ParseError) as exc:
            read_sexpr(text, Dialect.CLASSIC)
        assert exc.value.kind is ParseErrorKind.DOT_MISUSE
        assert detail in str(exc.value)


# --- error kinds and positions ----------------------------------------------

def test_empty_input():
    for text in ("", "   ", "# only a comment"):
        with pytest.raises(ParseError) as exc:
            read_sexpr(text)
        assert exc.value.kind is ParseErrorKind.EMPTY_INPUT


def test_trailing_input():
    with pytest.raises(ParseError) as exc:
        read_sexpr("(A) B")
    assert exc.value.kind is ParseErrorKind.TRAILING_INPUT


def test_unbalanced_paren_with_position():
    with pytest.raises(ParseError) as exc:
        read_sexpr("(A,\n  B")
    assert exc.value.kind is ParseErrorKind.UNBALANCED_PAREN
    assert str(exc.value).startswith("2:4: ")


def test_unexpected_character():
    for text in ("a", "1A", "]", "(A, b)"):
        with pytest.raises(ParseError) as exc:
            read_sexpr(text)
        assert exc.value.kind is ParseErrorKind.UNEXPECTED_CHAR


def test_separator_directly_before_close():
    with pytest.raises(ParseError) as exc:
        read_sexpr("(A, )")
    assert exc.value.kind is ParseErrorKind.UNEXPECTED_CHAR
    assert "separator" in str(exc.value)


def test_message_prefix_is_stable_per_kind():
    try:
        read_sexpr("(A . B)")
    except ParseError as e:
        assert e.message.startswith("dot misuse")
        assert str(e).split(" ", 1)[1].startswith("dot misuse")


# --- printing ---------------------------------------------------------------

def test_print_aim8_examples():
    assert print_sexpr(ProperList((A, NULL))) == "(A, ())"
    assert print_sexpr(ProperList((A, B, C))) == "(A, B, C)"
    assert print_sexpr(NULL) == "()"
    assert print_sexpr(A) == "A"


def test_print_classic_examples():
    assert print_sexpr(Pair(A, Pair(B, NIL)), Dialect.CLASSIC) == "(A B)"
    assert print_sexpr(Pair(A, B), Dialect.CLASSIC) == "(A . B)"
    assert print_sexpr(NIL, Dialect.CLASSIC) == "NIL"
    assert print_sexpr(Pair(A, Pair(B, C)), Dialect.CLASSIC) == "(A B . C)"
    assert (
        print_sexpr(Pair(Pair(A, B), NIL), Dialect.CLASSIC) == "((A . B))"
    )


def test_print_kind_mismatch():
    with pytest.raises(KindMismatchError):
        print_sexpr(Pair(A, B), Dialect.AIM8)
    with pytest.raises(KindMismatchError):
        print_sexpr(ProperList((A,)), Dialect.CLASSIC)


def test_print_cycle_marker():
    ring = Pair(A, Pair(B, NIL))
    unsafe_set_tail(ring.tail, ring)
    out = print_sexpr(ring, Dialect.CLASSIC)
    assert CYCLE_MARKER in out
    assert out == "(A B . #cycle)"


def test_shared_subtree_is_not_reported_as_cycle():
    shared = Pair(A, NIL)
    v = Pair(shared, Pair(shared, NIL))
    assert print_sexpr(v, Dialect.CLASSIC) == "((A) (A))"


def test_printers_take_any_nesting_depth():
    n = 100_000
    lists, pairs = NULL, NIL
    for _ in range(n):
        lists = ProperList((lists,))
        pairs = Pair(pairs, Pair(A, NIL))
    assert print_sexpr(lists) == "(" * (n + 1) + ")" * (n + 1)
    assert print_sexpr(pairs, Dialect.CLASSIC) == "(" * n + "NIL" + " A)" * n
    with pytest.raises(KindMismatchError) as exc:
        print_sexpr(ProperList((lists, Pair(A, B))))
    assert str(exc.value) == "cannot print a pair-kernel value in aim8: (A . B)"
    with pytest.raises(KindMismatchError) as exc:
        print_sexpr(Pair(pairs, NULL), Dialect.CLASSIC)
    assert str(exc.value) == "cannot print a list-kernel value in classic: ()"


def test_a_value_of_neither_kernel_is_named_as_such():
    closure = eval_sexpr(read_sexpr("(LAMBDA, (X), X)"))
    for value, dialect in (
        (ProperList((A, closure)), Dialect.AIM8),
        (Pair(A, Pair(closure, NIL)), Dialect.CLASSIC),
        (closure, Dialect.AIM8),
    ):
        with pytest.raises(KindMismatchError) as exc:
            print_sexpr(value, dialect)
        assert str(exc.value) == (
            f"cannot print a value of neither kernel in {dialect.value}: #<closure (X)>"
        )


# --- round trips and canonicalization ----------------------------------------

@given(helpers.list_values)
def test_aim8_round_trip(v):
    assert read_sexpr(print_sexpr(v)) == v


@given(helpers.pair_values)
def test_classic_round_trip(v):
    assert read_sexpr(print_sexpr(v, Dialect.CLASSIC), Dialect.CLASSIC) == v


def test_messy_aim8_input_parses_to_the_same_value():
    rng = random.Random(11)
    for _ in range(300):
        v = helpers.random_list_value(rng, 5)
        assert read_sexpr(helpers.messy_aim8(v, rng)) == v


def test_messy_classic_input_parses_to_the_same_value():
    rng = random.Random(12)
    for _ in range(300):
        v = helpers.random_pair_value(rng, 5)
        assert read_sexpr(helpers.messy_classic(v, rng), Dialect.CLASSIC) == v


def test_print_after_parse_is_canonical():
    rng = random.Random(13)
    for _ in range(200):
        v = helpers.random_list_value(rng, 5)
        once = print_sexpr(read_sexpr(helpers.messy_aim8(v, rng)))
        assert print_sexpr(read_sexpr(once)) == once
    for _ in range(200):
        v = helpers.random_pair_value(rng, 5)
        once = print_sexpr(
            read_sexpr(helpers.messy_classic(v, rng), Dialect.CLASSIC),
            Dialect.CLASSIC,
        )
        assert print_sexpr(read_sexpr(once, Dialect.CLASSIC), Dialect.CLASSIC) == once


def test_read_sexprs_reads_a_file_worth():
    vals = read_sexprs("(A, B)\n()\nC\n")
    assert vals == [ProperList((A, B)), NULL, C]
    assert read_sexprs("") == []
