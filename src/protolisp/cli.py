"""Command-line front end: repl, run and translate, over one item loop.

Exit codes.  run: 74 the file cannot be read; 65 it is not UTF-8, does
not parse, repeats a definition, uses a reserved name, or holds
S-expressions the kernel cannot represent; 70 a definition or an
expression fails to evaluate, or the last value cannot be printed in the
dialect.  translate: 74 and 65 as in run when reading; 1 a repeated
definition or a reserved name.  repl: 74 when stdin cannot be read; any
other error is reported on stderr and the next line is read.  Each exits
0 otherwise.
"""

import argparse
import functools
import os
import sys
from pathlib import Path

from .errors import (
    CyclicStructureError,
    DuplicateDefinitionError,
    EvalError,
    ImproperStructureError,
    KindMismatchError,
    LispError,
    NameCollisionError,
    ParseError,
)
from .evaluator import (
    DEFAULT_MAX_DEPTH,
    Closure,
    Kernel,
    Primitive,
    default_env,
    eval_sexpr,
)
from .fexpr import Definition, read_program
from .sexpr import print_sexpr, read_sexprs
from .translate import name_symbol, translate
from .values import Dialect, ProperList, list_to_pair, pair_to_list

EX_OK = 0
EX_TRANSLATION = 1
EX_DATAERR = 65
EX_SOFTWARE = 70
EX_IOERR = 74

MAX_DEPTH_ENV_VAR = "AIM8_MAX_DEPTH"

_CONVERSION_ERRORS = (ImproperStructureError, CyclicStructureError, KindMismatchError)


@functools.cache
def _build_parser():
    """The argument parser, built on the first call and kept: it is never changed."""
    parser = argparse.ArgumentParser(
        prog="protolisp",
        description="Two tiny Lisp kernels with an F-expression front end.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument(
            "--kernel",
            choices=["list", "pair"],
            default="list",
            help="value kernel: proper lists only, or unconstrained pairs",
        )
        p.add_argument(
            "--dialect",
            choices=["aim8", "classic"],
            default=None,
            help="S-expression notation (default: aim8 for the list kernel, "
            "classic for the pair kernel)",
        )
        p.add_argument(
            "--lang",
            choices=["mexpr", "sexpr"],
            default=None,
            help="source language (default: by file extension; mexpr in the repl)",
        )
        p.add_argument(
            "--max-depth",
            type=int,
            default=None,
            metavar="N",
            help=f"evaluation depth limit (default {DEFAULT_MAX_DEPTH}, "
            f"or ${MAX_DEPTH_ENV_VAR})",
        )

    p_repl = sub.add_parser("repl", help="interactive prompt")
    add_common(p_repl)
    p_repl.set_defaults(func=cmd_repl)

    p_run = sub.add_parser("run", help="run a program file")
    p_run.add_argument("file")
    add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_tr = sub.add_parser(
        "translate", help="print S-expression translations of an .mexp file"
    )
    p_tr.add_argument("file")
    add_common(p_tr)
    p_tr.set_defaults(func=cmd_translate)

    return parser


def _resolve_max_depth(args) -> int:
    if args.max_depth is not None:
        return args.max_depth
    from_env = os.environ.get(MAX_DEPTH_ENV_VAR)
    if from_env:
        try:
            return int(from_env)
        except ValueError:
            print(
                f"ignoring non-numeric {MAX_DEPTH_ENV_VAR}={from_env!r}",
                file=sys.stderr,
            )
    return DEFAULT_MAX_DEPTH


def _resolve_dialect(args, kernel: Kernel) -> Dialect:
    return Dialect(args.dialect or ("aim8" if kernel is Kernel.LIST else "classic"))


_KERNEL_OF = {Dialect.AIM8: Kernel.LIST, Dialect.CLASSIC: Kernel.PAIR}


def _carry(value, source: Kernel, target: Kernel):
    """Carry a value from one kernel into another."""
    if source is target:
        return value
    return list_to_pair(value) if target is Kernel.PAIR else pair_to_list(value)


def _render(value, kernel: Kernel, dialect: Dialect) -> str:
    if isinstance(value, (Closure, Primitive)):
        return repr(value)
    try:
        value = _carry(value, kernel, _KERNEL_OF[dialect])
    except TypeError as e:  # a closure inside a list or a pair
        raise KindMismatchError(str(e)) from None
    return print_sexpr(value, dialect)


def _read_file(path, lang, dialect):
    """The items of a program file, or the exit code once its failure is reported."""
    try:
        text = Path(path).read_text(encoding="utf-8")
        return read_program(text) if lang == "mexpr" else read_sexprs(text, dialect)
    except OSError as e:
        print(f"{path}: {e.strerror or e}", file=sys.stderr)
        return EX_IOERR
    except UnicodeDecodeError as e:
        print(f"{path}: {e}", file=sys.stderr)
        return EX_DATAERR
    except ParseError as e:
        print(f"{path}:{e}", file=sys.stderr)
        return EX_DATAERR


def _steps(items, lang, kernel: Kernel, dialect: Dialect, unique=False):
    """Each program item in order as a step: (name atom or None, form in kernel).

    A definition gives its name's atom and its translated body, and raises
    DuplicateDefinitionError on a repeated name if unique.  An F-expression
    gives its translation; an S-expression read in the dialect is carried
    into the kernel.  A step is made only once the caller used the one before.
    """
    seen = set()
    for item in items:
        if lang == "sexpr":
            yield None, _carry(item, _KERNEL_OF[dialect], kernel)
            continue
        name = None
        if isinstance(item, Definition):
            if unique and item.name in seen:
                raise DuplicateDefinitionError(f"duplicate definition of {item.name!r}")
            seen.add(item.name)
            name, item = name_symbol(item.name), item.body
        yield name, _carry(translate(item), Kernel.LIST, kernel)


def cmd_run(args) -> int:
    kernel = Kernel(args.kernel)
    dialect = _resolve_dialect(args, kernel)
    max_depth = _resolve_max_depth(args)
    lang = args.lang or ("sexpr" if Path(args.file).suffix == ".sexp" else "mexpr")
    items = _read_file(args.file, lang, dialect)
    if isinstance(items, int):
        return items
    env = default_env(kernel)
    last = None
    try:
        for name, form in _steps(items, lang, kernel, dialect, unique=True):
            value = eval_sexpr(form, env, kernel, max_depth)
            if name is None:
                last = value
            else:
                env = env.extend([(name, value)])
    except EvalError as e:
        print(str(e), file=sys.stderr)
        return EX_SOFTWARE
    except (NameCollisionError, DuplicateDefinitionError, *_CONVERSION_ERRORS) as e:
        print(f"{args.file}: {e}", file=sys.stderr)
        return EX_DATAERR
    if last is not None:
        try:
            print(_render(last, kernel, dialect))
        except _CONVERSION_ERRORS as e:
            print(str(e), file=sys.stderr)
            return EX_SOFTWARE
    return EX_OK


def cmd_translate(args) -> int:
    dialect = _resolve_dialect(args, Kernel.LIST)
    items = _read_file(args.file, "mexpr", dialect)
    if isinstance(items, int):
        return items
    try:
        lines = []
        for name, form in _steps(items, "mexpr", Kernel.LIST, dialect, unique=True):
            form = form if name is None else ProperList((name, form))
            lines.append(_render(form, Kernel.LIST, dialect))
    except (NameCollisionError, DuplicateDefinitionError) as e:
        print(f"{args.file}: {e}", file=sys.stderr)
        return EX_TRANSLATION
    sys.stdout.writelines(line + "\n" for line in lines)
    return EX_OK


def cmd_repl(args) -> int:
    kernel = Kernel(args.kernel)
    dialect = _resolve_dialect(args, kernel)
    max_depth = _resolve_max_depth(args)
    lang = args.lang or "mexpr"
    env = default_env(kernel)
    interactive = sys.stdin.isatty()
    prompt = "> " if interactive else ""
    while True:
        try:
            line = input(prompt)
        except EOFError:
            if interactive:
                print()
            return EX_OK
        except KeyboardInterrupt:
            print(file=sys.stderr)
            continue
        except OSError:
            return EX_IOERR
        if not line.strip():
            continue
        try:
            items = (
                read_program(line) if lang == "mexpr" else read_sexprs(line, dialect)
            )
            for name, form in _steps(items, lang, kernel, dialect):
                value = eval_sexpr(form, env, kernel, max_depth)
                if name is None:
                    print(_render(value, kernel, dialect))
                else:
                    env = env.extend([(name, value)])
        except LispError as e:
            print(str(e), file=sys.stderr)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)
