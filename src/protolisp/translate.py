"""Translation from F-expressions to list-kernel S-expressions.

The step is pure notation: variables uppercase into atoms, constants are
wrapped under QUOTE, and the three program forms become lists headed by
COND, LAMBDA and LABEL.  Because the four head atoms QUOTE, COND, LAMBDA
and LABEL carry meaning in the target language, a variable whose
uppercased spelling is one of them is refused.
"""

from .errors import DuplicateDefinitionError, NameCollisionError
from .fexpr import App, Cond, Const, Label, Lambda, Var
from .values import ProperList, Symbol

RESERVED_HEADS = frozenset({"QUOTE", "COND", "LAMBDA", "LABEL"})

_QUOTE = Symbol("QUOTE")
_COND = Symbol("COND")
_LAMBDA = Symbol("LAMBDA")
_LABEL = Symbol("LABEL")


def name_symbol(name: str) -> Symbol:
    """Uppercase a variable or definition name into its atom."""
    upper = name.upper()
    if upper in RESERVED_HEADS:
        raise NameCollisionError(
            f"name {name!r} uppercases to the reserved atom {upper}"
        )
    return Symbol(upper)


def translate(e) -> ProperList:
    """Translate one F-expression; the result is always a proper structure.

    The walk keeps its own stack, so any nesting depth translates.  todo
    holds the F-expressions still to translate, last first, and between
    them counts: a count k makes the last k forms in out into one list.
    Names are checked in the order the expression is written.
    """
    todo, out = [e], []
    while todo:
        e = todo.pop()
        if type(e) is int:
            out[-e:] = [ProperList(out[-e:])]
        elif isinstance(e, Var):
            out.append(name_symbol(e.name))
        elif isinstance(e, Const):
            out.append(ProperList((_QUOTE, e.value)))
        elif isinstance(e, App):
            todo.append(1 + len(e.args))
            todo.extend(reversed(e.args))
            todo.append(e.fn)
        elif isinstance(e, Cond):
            out.append(_COND)
            todo.append(1 + len(e.clauses))
            for test, result in reversed(e.clauses):
                todo += (2, result, test)
        elif isinstance(e, Lambda):
            out += (_LAMBDA, ProperList(tuple(name_symbol(p) for p in e.params)))
            todo += (3, e.body)
        elif isinstance(e, Label):
            out += (_LABEL, name_symbol(e.name))
            todo += (3, e.body)
        else:
            raise TypeError(f"not an F-expression: {e!r}")
    return out[0]


def translate_program(definitions):
    """Translate (name, fexpr) pairs; names must be distinct."""
    seen = set()
    out = []
    for name, body in definitions:
        if name in seen:
            raise DuplicateDefinitionError(f"duplicate definition of {name!r}")
        seen.add(name)
        out.append((name_symbol(name), translate(body)))
    return out
