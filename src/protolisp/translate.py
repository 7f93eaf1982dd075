"""Translation from F-expressions to list-kernel S-expressions.

The step is pure notation: variables uppercase into atoms, constants are
wrapped under QUOTE, and the three program forms become lists headed by
COND, LAMBDA and LABEL.  Because the four head atoms QUOTE, COND, LAMBDA
and LABEL carry meaning in the target language, a variable whose
uppercased spelling is one of them is refused.

translate and translate_program run with the cycle collector paused (see
the values module): a translation, like its source, holds no cycle.
"""

from .errors import DuplicateDefinitionError, NameCollisionError
from .fexpr import App, Cond, Const, Label, Lambda, Var
from .values import ProperList, Symbol, _paused

RESERVED_HEADS = frozenset({"QUOTE", "COND", "LAMBDA", "LABEL"})

_QUOTE = Symbol("QUOTE")
_COND = Symbol("COND")
_LAMBDA = Symbol("LAMBDA")
_LABEL = Symbol("LABEL")

# The mark of a count on translate's stack (see translate).
_CLOSE = object()


def name_symbol(name: str) -> Symbol:
    """Uppercase a variable or definition name into its atom."""
    upper = name.upper()
    if upper in RESERVED_HEADS:
        raise NameCollisionError(
            f"name {name!r} uppercases to the reserved atom {upper}"
        )
    return Symbol(upper)


@_paused
def translate(e) -> ProperList:
    """Translate one F-expression; the result is always a proper structure.

    The walk keeps its own stack, so any nesting depth translates.  todo
    holds the F-expressions still to translate, last first, and between
    them _CLOSE over a count: _CLOSE, then k, makes the last k forms in
    out into one list.  No caller has _CLOSE, so anything else that is no
    F-expression, an int included, is refused.  Names are checked in the
    order the expression is written.  A MemoryError lets go of todo and
    out first, so that whatever handles it has memory to do so.
    """
    todo, out = [e], []
    try:
        while todo:
            e = todo.pop()
            if e is _CLOSE:
                k = todo.pop()
                out[-k:] = [ProperList(out[-k:])]
            elif isinstance(e, Var):
                out.append(name_symbol(e.name))
            elif isinstance(e, Const):
                out.append(ProperList((_QUOTE, e.value)))
            elif isinstance(e, App):
                todo += (1 + len(e.args), _CLOSE)
                todo.extend(reversed(e.args))
                todo.append(e.fn)
            elif isinstance(e, Cond):
                out.append(_COND)
                todo += (1 + len(e.clauses), _CLOSE)
                for test, result in reversed(e.clauses):
                    todo += (2, _CLOSE, result, test)
            elif isinstance(e, Lambda):
                out += (_LAMBDA, ProperList(tuple(name_symbol(p) for p in e.params)))
                todo += (3, _CLOSE, e.body)
            elif isinstance(e, Label):
                out += (_LABEL, name_symbol(e.name))
                todo += (3, _CLOSE, e.body)
            else:
                raise TypeError(f"not an F-expression: {e!r}")
    except MemoryError:  # let go of what the walk holds first
        todo.clear()
        out.clear()
        raise
    return out[0]


@_paused
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
