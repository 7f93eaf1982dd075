"""The interpreter written in its own language.

assets/universal.mexp defines, as five F-expression definitions, an
evaluator for the translated S-language over the list kernel.  Loading
parses and translates those definitions; meta_eval runs a quoted program
through that evaluator, which itself runs on the host interpreter with an
empty meta-environment.  assets/universal.sexp is the frozen translation,
kept for comparison so the shipped source and its S-form cannot drift.

The meta evaluator has no closure objects of its own: abstractions and
recursion forms evaluate to themselves and are applied as expressions, and
meta-environments are association lists of two-element lists.  So it
applies a LAMBDA in the caller's environment, not the one it was written
in: dynamic scope, the "funarg" behaviour of LISP 1, where the host is
lexical.  A closure applied where its free variable is bound again sees
the new binding: lambda[[x]; lambda[[f]; lambda[[x]; f[C]][B]][lambda[[y];
x]]][A] is A on the host and B under meta_eval.  First-order programs
whose value is plain data evaluate to the same value under both.  Errors
at the meta level (an unbound meta-variable, say) surface as whatever
host fault the stuck kernel operation raises.
"""

from importlib import resources

from .errors import LispError
from .evaluator import DEFAULT_MAX_DEPTH, Env, Kernel, default_env, eval_sexpr
from .fexpr import Definition, read_program
from .translate import translate_program
from .values import NULL, ProperList, Symbol

_METAEVAL = Symbol("METAEVAL")
_QUOTE = Symbol("QUOTE")


def _asset_text(name: str) -> str:
    return (resources.files(__package__) / "assets" / name).read_text(
        encoding="utf-8"
    )


def load_universal():
    """Parse and translate the shipped evaluator definitions.

    Returns the (name atom, translated body) pairs in definition order.
    """
    items = read_program(_asset_text("universal.mexp"))
    defs = []
    for item in items:
        if not isinstance(item, Definition):
            raise LispError("universal.mexp must contain definitions only")
        defs.append((item.name, item.body))
    return translate_program(defs)


def universal_env(max_depth=DEFAULT_MAX_DEPTH) -> Env:
    """The list-kernel environment with the meta definitions bound."""
    env = default_env(Kernel.LIST)
    for name, form in load_universal():
        value = eval_sexpr(form, env, Kernel.LIST, max_depth)
        env = env.extend([(name, value)])
    return env


def meta_eval(expr, env=None, max_depth=DEFAULT_MAX_DEPTH):
    """Evaluate a list-kernel program with the meta evaluator.

    Builds (METAEVAL, (QUOTE, expr), (QUOTE, ())) and hands it to the
    host.  Pass env=universal_env() to load the definitions once for many
    calls: their forms keep what the host made of them on the first call
    (see evaluator), so later calls neither load nor analyse them again.
    """
    if env is None:
        env = universal_env(max_depth)
    program = ProperList(
        (
            _METAEVAL,
            ProperList((_QUOTE, expr)),
            ProperList((_QUOTE, NULL)),
        )
    )
    return eval_sexpr(program, env, Kernel.LIST, max_depth)
