"""The command-line front end, driven through main() with captured streams."""

import contextlib
import io
import random

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

import corpus
import helpers
from protolisp import App, Dialect, Var, print_fexpr, print_sexpr, read_sexpr
from protolisp.cli import main

RUNAWAY = "label[f; lambda[[]; f[]]][]"


@pytest.fixture(autouse=True)
def scrub_depth_env(monkeypatch):
    monkeypatch.delenv("AIM8_MAX_DEPTH", raising=False)


@pytest.fixture
def cli(capsys, tmp_path):
    """Run main(argv); return (exit code, stdout, stderr)."""

    def call(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    call.path = tmp_path
    return call


def src(tmp_path, text, name="prog.mexp"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def repl_input(monkeypatch, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))


# --- translate ----------------------------------------------------------------

def test_translate_variable(cli):
    code, out, err = cli("translate", src(cli.path, "first[x]"))
    assert (code, out, err) == (0, "(FIRST, X)\n", "")


def test_translate_constant(cli):
    code, out, err = cli("translate", src(cli.path, "(A, B)"))
    assert (code, out, err) == (0, "(QUOTE, (A, B))\n", "")


def test_translate_classic_dialect(cli):
    code, out, err = cli(
        "translate", src(cli.path, "lambda[[x]; x]"), "--dialect", "classic"
    )
    assert (code, out, err) == (0, "(LAMBDA (X) X)\n", "")


def test_translate_definitions_one_line_each(cli):
    code, out, _ = cli(
        "translate", src(cli.path, "id = lambda[[x]; x]\nid[(A, B)]")
    )
    assert code == 0
    assert out == "(ID, (LAMBDA, (X), X))\n(ID, (QUOTE, (A, B)))\n"


def test_translate_parse_error(cli):
    path = src(cli.path, "first[(A")
    code, out, err = cli("translate", path)
    assert code == 65
    assert out == ""
    assert err.startswith(path + ":")


def test_translate_name_collision(cli):
    code, _, err = cli("translate", src(cli.path, "quote[x]"))
    assert code == 1
    assert "QUOTE" in err


def test_translate_duplicate_definition(cli):
    code, _, err = cli("translate", src(cli.path, "f = A\nf = B"))
    assert code == 1
    assert "duplicate" in err


def test_translate_missing_file(cli):
    code, _, err = cli("translate", str(cli.path / "nope.mexp"))
    assert code == 74
    assert err != ""


NOT_UTF8 = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"


def test_translate_a_file_that_is_not_utf8(cli):
    path = cli.path / "prog.mexp"
    path.write_bytes(b"\xff\xfe A")
    assert cli("translate", str(path)) == (65, "", f"{path}: {NOT_UTF8}\n")


# --- run ------------------------------------------------------------------------

def test_run_append_program(cli):
    text = "append = " + corpus.APPEND + "\nappend[(A, B); (C)]\n"
    code, out, err = cli("run", src(cli.path, text))
    assert (code, out, err) == (0, "(A, B, C)\n", "")


def test_run_unbalanced_bracket(cli):
    code, out, _ = cli("run", src(cli.path, "first[(A, B"))
    assert code == 65
    assert out == ""


def test_run_empty_file(cli):
    code, out, err = cli("run", src(cli.path, ""))
    assert (code, out, err) == (0, "", "")


def test_run_definitions_only_prints_nothing(cli):
    code, out, _ = cli("run", src(cli.path, "id = lambda[[x]; x]"))
    assert (code, out) == (0, "")


def test_run_prints_the_last_expression_only(cli):
    code, out, _ = cli("run", src(cli.path, "first[(A, B)]\nrest[(A, B)]"))
    assert (code, out) == (0, "(B)\n")


def test_run_missing_file(cli):
    code, _, err = cli("run", str(cli.path / "nope.mexp"))
    assert code == 74
    assert err != ""


def test_run_runtime_error(cli):
    code, out, err = cli("run", src(cli.path, "first[()]"))
    assert code == 70
    assert out == ""
    assert err == "first: undefined on the null list\n"


def test_run_duplicate_definition(cli):
    code, _, err = cli("run", src(cli.path, "f = A\nf = B\nf"))
    assert code == 65
    assert "duplicate" in err


def test_run_name_collision(cli):
    code, _, err = cli("run", src(cli.path, "cond[x]"))
    assert code == 65
    assert "COND" in err


def test_run_sexp_extension_selects_the_s_language(cli):
    path = src(cli.path, "(FIRST, (QUOTE, (A, B)))\n", name="prog.sexp")
    code, out, _ = cli("run", path)
    assert (code, out) == (0, "A\n")


def test_run_lang_flag_overrides_the_extension(cli):
    path = src(cli.path, "first[(A, B)]\n", name="prog.sexp")
    code, out, _ = cli("run", path, "--lang", "mexpr")
    assert (code, out) == (0, "A\n")


def test_run_pair_kernel_prints_classic(cli):
    path = src(cli.path, "(CONS (QUOTE A) (QUOTE B))", name="prog.sexp")
    code, out, _ = cli("run", path, "--kernel", "pair")
    assert (code, out) == (0, "(A . B)\n")


def test_one_process_runs_main_again_and_again(cli, capsys):
    path = src(cli.path, "x = cons[A; B]\ncons[x; x]\n")
    assert cli("run", path, "--kernel", "pair") == (0, "((A . B) A . B)\n", "")
    code, out, err = cli("run", path)
    assert (code, out) == (70, "") and "second argument is atomic" in err
    path = src(cli.path, "first[(A, B)]\n")
    assert cli("run", path, "--kernel", "pair") == (0, "A\n", "")
    assert cli("run", path) == (0, "A\n", "")
    with pytest.raises(SystemExit) as exc:
        main(["run", path, "--max-depth", "many"])
    assert exc.value.code == 2 and "--max-depth" in capsys.readouterr().err
    assert cli("run", path, "--max-depth", "5") == (0, "A\n", "")
    assert cli("translate", path) == (0, "(FIRST, (QUOTE, (A, B)))\n", "")
    assert cli("run", path, "--dialect", "classic") == (0, "A\n", "")


def test_run_list_kernel_rejects_dotted_input(cli):
    path = src(cli.path, "(FIRST (QUOTE (A . B)))", name="prog.sexp")
    code, out, err = cli("run", path, "--kernel", "list", "--dialect", "classic")
    assert code == 65
    assert out == ""
    assert "tail chain ends at atom" in err


def test_run_depth_env_var(cli, monkeypatch):
    monkeypatch.setenv("AIM8_MAX_DEPTH", "40")
    code, _, err = cli("run", src(cli.path, RUNAWAY))
    assert code == 70
    assert err == "recursion depth exceeded (40)\n"


def test_run_depth_flag_beats_env_var(cli, monkeypatch):
    monkeypatch.setenv("AIM8_MAX_DEPTH", "99999")
    code, _, err = cli("run", src(cli.path, RUNAWAY), "--max-depth", "30")
    assert code == 70
    assert err == "recursion depth exceeded (30)\n"


def test_run_with_a_huge_depth_limit(cli, monkeypatch):
    text = "append = " + corpus.APPEND + "\nappend[(A, B); (C)]\n"
    code, out, err = cli("run", src(cli.path, text), "--max-depth", "1000000000")
    assert (code, out, err) == (0, "(A, B, C)\n", "")
    monkeypatch.setenv("AIM8_MAX_DEPTH", "1000000000")
    code, out, err = cli("run", src(cli.path, text))
    assert (code, out, err) == (0, "(A, B, C)\n", "")


def test_run_prints_a_value_nested_1500_deep(cli):
    n = 1500
    text = (
        "nest = label[d; lambda[[n; acc];"
        " [null[n] -> acc; T -> d[rest[n]; combine[acc; ()]]]]]\n"
        "nest[(%s); ()]\n" % ", ".join(["A"] * n)
    )
    code, out, err = cli("run", src(cli.path, text))
    assert (code, out, err) == (0, "(" * (n + 1) + ")" * (n + 1) + "\n", "")


def nest_program(n):
    """A program whose value is () wrapped in n one-element lists."""
    return (
        "nest = label[d; lambda[[n; acc];"
        " [null[n] -> acc; T -> d[rest[n]; combine[acc; ()]]]]]\n"
        "nest[(%s); ()]\n" % ", ".join(["A"] * n)
    )


@pytest.mark.parametrize(
    "kernel, dialect, other_kernel",
    [("list", "classic", "pair"), ("pair", "aim8", "list")],
)
def test_run_prints_a_value_nested_1500_deep_in_the_other_dialect(
    cli, kernel, dialect, other_kernel
):
    # The same text as the other kernel prints in its own dialect.
    n = 1500
    if dialect == "classic":
        text = "(" * n + "NIL" + ")" * n + "\n"
    else:
        text = "(" * (n + 1) + ")" * (n + 1) + "\n"
    path = src(cli.path, nest_program(n))
    assert cli("run", path, "--kernel", other_kernel) == (0, text, "")
    assert cli("run", path, "--kernel", kernel, "--dialect", dialect) == (0, text, "")


@pytest.mark.parametrize(
    "kernel, text, message",
    [
        ("list", "x = first[A]\nx\n", "first: undefined on atoms\n"),
        ("pair", "x = first[A]\nx\n", "car: undefined on atoms\n"),
        ("list", "f = g[A]\nf\n", "unbound symbol: G\n"),
        ("pair", "f = g[A]\nf\n", "unbound symbol: G\n"),
    ],
)
def test_run_a_definition_that_fails_to_evaluate(cli, kernel, text, message):
    code, out, err = cli("run", src(cli.path, text), "--kernel", kernel)
    assert (code, out, err) == (70, "", message)


def test_run_a_file_that_is_not_utf8(cli):
    path = cli.path / "prog.mexp"
    path.write_bytes(b"\xff\xfe A")
    assert cli("run", str(path)) == (65, "", f"{path}: {NOT_UTF8}\n")


def test_run_a_value_holding_a_closure_cannot_be_printed(cli):
    for kernel, dialect, message in (
        ("list", "aim8", "cannot print a value of neither kernel in aim8"),
        ("list", "classic", "not a list-kernel value"),
        ("pair", "aim8", "not a pair-kernel value"),
        ("pair", "classic", "cannot print a value of neither kernel in classic"),
    ):
        path = src(cli.path, "combine[lambda[[x]; x]; ()]")
        code, out, err = cli("run", path, "--kernel", kernel, "--dialect", dialect)
        assert (code, out, err) == (70, "", f"{message}: #<closure (X)>\n")


def test_run_a_conditional_that_begins_a_line_is_a_new_item(cli):
    path = src(cli.path, "x = A\nx\n[T -> B]\n")
    for kernel in ("list", "pair"):
        code, out, err = cli("run", path, "--kernel", kernel)
        assert (code, out, err) == (0, "B\n", "")
    code, out, err = cli("translate", path)
    translation = "(X, (QUOTE, A))\nX\n(COND, ((QUOTE, T), (QUOTE, B)))\n"
    assert (code, out, err) == (0, translation, "")


KERNEL_OPERATIONS = ("first", "rest", "combine", "car", "cdr", "cons")
DEFINED_NAMES = ("x", "y", "z", "fn1", "g", "acc")  # random_fexpr's variables


@st.composite
def programs(draw):
    """Program text: definitions, names repeated at times, and expressions.

    The expressions are random F-expressions, some as arguments of a
    kernel operation; their variables may well be unbound.
    """
    rng = draw(st.randoms(use_true_random=False))
    lines = []
    for _ in range(rng.randrange(7)):
        e = helpers.random_fexpr(rng, rng.randrange(4))
        if rng.random() < 0.4:
            args = (e,) + tuple(
                helpers.random_fexpr(rng, 2) for _ in range(rng.randrange(2))
            )
            e = App(Var(rng.choice(KERNEL_OPERATIONS)), args)
        line = print_fexpr(e)
        if rng.random() < 0.6:
            line = f"{rng.choice(DEFINED_NAMES)} = {line}"
        lines.append(line)
    return "\n".join(lines) + "\n"


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    text=programs(),
    kernel=st.sampled_from(["list", "pair"]),
    dialect=st.sampled_from(["aim8", "classic"]),
    max_depth=st.none() | st.integers(0, 40),
)
def test_run_ends_in_a_value_or_a_documented_exit_code(
    tmp_path, text, kernel, dialect, max_depth
):
    path = tmp_path / "prog.mexp"
    path.write_text(text, encoding="utf-8")
    argv = ["run", str(path), "--kernel", kernel, "--dialect", dialect]
    if max_depth is not None:
        argv += ["--max-depth", str(max_depth)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 65, 70)
    assert (code == 0) == (err.getvalue() == "")
    if code:
        assert out.getvalue() == ""


def deep_case(case, n):
    """(run file name, its text, run flags, stdout), (translate text, flags, stdout)."""
    nest = "(" * n + "A" + ")" * n
    app = "f = lambda[[x]; x]\n" + "f[" * n + "A" + "]" * n + "\n"
    cond = "[T -> " * n + "A" + "]" * n + "\n"
    deep_depth = ["--max-depth", "1000000"]
    return {
        "aim8 list": (
            ("deep.sexp", f"(QUOTE, {nest})\n", [], nest),
            (nest, [], f"(QUOTE, {nest})"),
        ),
        "classic list": (
            ("deep.sexp", f"(QUOTE {nest})\n", ["--kernel", "pair"], nest),
            (nest, ["--dialect", "classic"], f"(QUOTE {nest})"),
        ),
        "F-application": (
            ("deep.mexp", app, deep_depth, "A"),
            (app, [], "(F, (LAMBDA, (X), X))\n" + "(F, " * n + "(QUOTE, A)" + ")" * n),
        ),
        "F-conditional": (
            ("deep.mexp", cond, deep_depth, "A"),
            (cond, [], "(COND, ((QUOTE, T), " * n + "(QUOTE, A)" + "))" * n),
        ),
    }[case]


@pytest.mark.parametrize(
    "case", ["aim8 list", "classic list", "F-application", "F-conditional"]
)
def test_run_and_translate_nesting_100000_deep(cli, case):
    (name, text, flags, value), (source, tr_flags, translation) = deep_case(case, 10**5)
    assert cli("run", src(cli.path, text, name=name), *flags) == (0, value + "\n", "")
    path = src(cli.path, source, name="deep.mexp")
    assert cli("translate", path, *tr_flags) == (0, translation + "\n", "")


FUZZ_TOKENS = (
    "(", ")", "[", "]", ",", ";", ".", "->", "=", " ", "\n", "\t", "# c\n",
    "A", "NIL", "T", "QUOTE", "x", "f", "lambda", "label", "quote", "Ab", "9",
    "first", "rest", "combine", "car", "cdr", "cons", "eq", "atom", "null",
    "lambda[[x]; ", "label[f; ", "[T -> ", "f[", "(A, B)", "(A . B)", "()",
)


@st.composite
def cli_inputs(draw):
    """File contents: text nested up to 3000 deep at times, and not UTF-8 at times."""
    pieces = st.sampled_from(FUZZ_TOKENS) | st.text(max_size=4)
    text = "".join(draw(st.lists(pieces, max_size=30)))
    if draw(st.booleans()):
        openers = ["(", "[", "f[", "(QUOTE, ", "[T -> ", "lambda[[x]; "]
        opener = draw(st.sampled_from(openers))
        closer = draw(st.sampled_from([")", "]", "", "; A]"]))
        depth = draw(st.integers(0, 3000))
        text = opener * depth + text + closer * draw(st.integers(0, depth))
    data = text.encode("utf-8")
    if draw(st.integers(0, 9)) == 0:
        data = draw(st.binary(max_size=20)) + data
    return data


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(
    data=cli_inputs(),
    command=st.sampled_from(["run", "translate", "repl"]),
    suffix=st.sampled_from([".mexp", ".sexp", ".txt"]),
    missing=st.integers(0, 19).map(lambda k: k == 0),
    kernel=st.none() | st.sampled_from(["list", "pair"]),
    dialect=st.none() | st.sampled_from(["aim8", "classic"]),
    lang=st.none() | st.sampled_from(["mexpr", "sexpr"]),
    max_depth=st.none() | st.integers(-3, 5000),
)
def test_any_text_and_flags_end_in_a_documented_exit_code(
    tmp_path, monkeypatch, data, command, suffix, missing, kernel, dialect, lang,
    max_depth,
):
    path = tmp_path / ("prog" + suffix)
    path.unlink(missing_ok=True)
    if not missing:
        path.write_bytes(data)
    argv = [command] if command == "repl" else [command, str(path)]
    for flag, value in (
        ("--kernel", kernel), ("--dialect", dialect), ("--lang", lang),
        ("--max-depth", max_depth),
    ):
        if value is not None:
            argv += [flag, str(value)]
    monkeypatch.setattr("sys.stdin", io.StringIO(data.decode("utf-8", "replace")))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 65, 70, 74)
    assert code != 1 or command == "translate"


def test_run_warns_on_junk_depth_env_var(cli, monkeypatch):
    monkeypatch.setenv("AIM8_MAX_DEPTH", "lots")
    code, out, err = cli("run", src(cli.path, "T"))
    assert (code, out) == (0, "T\n")
    assert "ignoring non-numeric" in err


# --- repl -----------------------------------------------------------------------

def test_repl_evaluates_an_f_expression(cli, monkeypatch):
    repl_input(monkeypatch, "first[(A, B)]\n")
    assert cli("repl") == (0, "A\n", "")


def test_repl_sexpr_mode(cli, monkeypatch):
    repl_input(monkeypatch, "(FIRST, (QUOTE, (A, B)))\n")
    assert cli("repl", "--lang", "sexpr") == (0, "A\n", "")


def test_repl_reports_errors_and_continues(cli, monkeypatch):
    repl_input(monkeypatch, "combine[A; B]\nfirst[(C)]\n")
    code, out, err = cli("repl")
    assert code == 0
    assert out == "C\n"
    assert err == "combine: second argument is atomic\n"


def test_repl_definitions_persist(cli, monkeypatch):
    repl_input(monkeypatch, "id = lambda[[x]; x]\nid[B]\n")
    assert cli("repl") == (0, "B\n", "")


def test_repl_pair_kernel(cli, monkeypatch):
    repl_input(monkeypatch, "(CONS (QUOTE A) (QUOTE B))\n")
    code, out, _ = cli("repl", "--kernel", "pair", "--lang", "sexpr")
    assert (code, out) == (0, "(A . B)\n")


def test_repl_skips_blank_lines(cli, monkeypatch):
    repl_input(monkeypatch, "\n   \nT\n")
    assert cli("repl") == (0, "T\n", "")


def test_repl_prints_closures_opaquely(cli, monkeypatch):
    repl_input(monkeypatch, "lambda[[x]; x]\n")
    assert cli("repl") == (0, "#<closure (X)>\n", "")


def test_every_flag_combination_is_accepted(cli, monkeypatch):
    for kernel in ("list", "pair"):
        for dialect in ("aim8", "classic"):
            for lang, text in (
                ("mexpr", "first[(A, B)]\n"),
                ("sexpr", "(FIRST, (QUOTE, (A, B)))\n"
                 if dialect == "aim8" else "(FIRST (QUOTE (A B)))\n"),
            ):
                repl_input(monkeypatch, text)
                code, out, err = cli(
                    "repl", "--kernel", kernel, "--dialect", dialect,
                    "--lang", lang,
                )
                assert (code, out, err) == (0, "A\n", ""), (kernel, dialect, lang)


def test_repl_echoed_results_reread_to_equal_values(cli, monkeypatch):
    rng = random.Random(23)
    for _ in range(25):
        v = helpers.random_list_value(rng, 3)
        rendered = print_sexpr(v, Dialect.AIM8)
        repl_input(monkeypatch, f"(QUOTE, {rendered})\n")
        code, out, _ = cli("repl", "--lang", "sexpr")
        assert code == 0
        line = out.rstrip("\n")
        assert line == rendered
        assert read_sexpr(line) == v
