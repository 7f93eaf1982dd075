"""The universal interpreter over translated S-expressions.

eval_sexpr walks a program expressed as data.  Four head atoms are special
forms: QUOTE returns its operand unevaluated, COND tries (test, result)
clauses in order and requires each test to produce exactly T or F, LAMBDA
builds a closure over the current environment, and LABEL gives the closure
produced by its body a name visible inside that body.  Everything else is
application: head and arguments evaluate left to right, then the head's
value is applied.

Environments are association lists: lookup returns the innermost binding
and extension never touches the parent.  Closures capture their definition
environment, so scope is lexical; LABEL (or a definition written with it)
is what covers recursion.

The same interpreter runs over either kernel.  Expressions are proper
lists of the active kernel, and the primitive names FIRST/REST/COMBINE and
CAR/CDR/CONS are all bound in both kernels: in the list kernel CONS is
combine and refuses an atomic second argument, in the pair kernel COMBINE
is the unconstrained cons.

Evaluation runs on its own stack, not the host's.  Each compound form is
evaluated by a generator that yields the (expression, environment) pairs
whose values it needs, so where the universal function would recurse it
says (yield x, env).  One loop, _Interp.run, keeps the suspended
generators and, beside them, the expressions under evaluation, outermost
first; it looks symbols up itself and sends each value back to the
generator that asked.  There is no tail-call elimination: a closure body
is evaluated inside the application that called it.

Evaluation depth is the number of expressions under evaluation, capped
(default 10000, configurable); passing the cap raises an EvalError of kind
DEPTH_EXCEEDED.  Any cap works, since only memory bounds that loop's
stack.
"""

from dataclasses import dataclass, replace

from . import kernel_list, kernel_pair
from .errors import EvalError, Fault, KernelError
from .translate import translate
from .values import NIL, Pair, ProperList, Symbol, list_to_pair

import enum


class Kernel(enum.Enum):
    LIST = "list"
    PAIR = "pair"


DEFAULT_MAX_DEPTH = 10_000

T = Symbol("T")
F = Symbol("F")

_QUOTE = Symbol("QUOTE")
_COND = Symbol("COND")
_LAMBDA = Symbol("LAMBDA")
_LABEL = Symbol("LABEL")


@dataclass(frozen=True)
class Env:
    """Association-list environment: innermost bindings first."""

    bindings: tuple = ()

    def lookup(self, name: Symbol):
        for sym, value in self.bindings:
            if sym == name:
                return value
        raise LookupError(name.name)

    def extend(self, pairs) -> "Env":
        return Env(tuple(pairs) + self.bindings)


@dataclass(frozen=True)
class Closure:
    """A function value: parameters, body, captured environment.

    self_name, when set by LABEL, is bound to the closure itself on every
    application (after the parameters, which may shadow it).
    """

    params: tuple
    body: object
    env: Env
    self_name: Symbol | None = None

    def __repr__(self):
        return f"#<closure ({' '.join(p.name for p in self.params)})>"


@dataclass(frozen=True)
class Primitive:
    """A kernel operation bound into the default environment."""

    name: str
    arity: int
    fn: object

    def __repr__(self):
        return f"#<primitive {self.name}>"


def _truth(b: bool) -> Symbol:
    return T if b else F


def default_env(kernel=Kernel.LIST) -> Env:
    """The primitives of the given kernel, and nothing else."""
    kernel = Kernel(kernel)
    if kernel is Kernel.LIST:
        ops = {
            "FIRST": (1, kernel_list.first),
            "CAR": (1, kernel_list.first),
            "REST": (1, kernel_list.rest),
            "CDR": (1, kernel_list.rest),
            "COMBINE": (2, kernel_list.combine),
            "CONS": (2, kernel_list.combine),
            "ATOM": (1, lambda x: _truth(kernel_list.atom(x))),
            "EQ": (2, lambda x, y: _truth(kernel_list.eq(x, y))),
            "NULL": (1, lambda x: _truth(kernel_list.null(x))),
        }
    else:
        ops = {
            "CAR": (1, kernel_pair.car),
            "FIRST": (1, kernel_pair.car),
            "CDR": (1, kernel_pair.cdr),
            "REST": (1, kernel_pair.cdr),
            "CONS": (2, kernel_pair.cons),
            "COMBINE": (2, kernel_pair.cons),
            "ATOM": (1, lambda x: _truth(kernel_pair.atom(x))),
            "EQ": (2, lambda x, y: _truth(kernel_pair.eq(x, y))),
            "NULL": (1, lambda x: _truth(x == NIL)),
        }
    return Env(
        tuple(
            (Symbol(name), Primitive(name, arity, fn))
            for name, (arity, fn) in ops.items()
        )
    )


class _Interp:
    def __init__(self, kernel, max_depth):
        self.kernel = Kernel(kernel)
        self.max_depth = max_depth
        self.stack = []

    def _error(self, kind, detail, kernel_error=None):
        return EvalError(kind, detail, trace=self.stack[-8:], kernel_error=kernel_error)

    def _sequence(self, v):
        """The subexpressions of a compound form, or None if v is not one."""
        if self.kernel is Kernel.LIST:
            if isinstance(v, ProperList):
                return list(v.items)
            return None
        if v == NIL:
            return []
        if isinstance(v, Pair):
            items = []
            node = v
            while isinstance(node, Pair):
                items.append(node.head)
                node = node.tail
            if node != NIL:
                return None
            return items
        return None

    def run(self, task):
        """Drive task, a generator that yields (expr, env), to its value.

        Each yielded expression is pushed on self.stack and evaluated: a
        symbol here, a compound form by a generator of its own, suspended
        above the one that asked.  When the evaluation ends its value is
        sent back to the asker.
        """
        tasks = [task]
        value = None
        while True:
            try:
                expr, env = tasks[-1].send(value)
            except StopIteration as done:
                tasks.pop()
                if not tasks:
                    return done.value
                self.stack.pop()
                value = done.value
                continue
            self.stack.append(expr)
            if len(self.stack) > self.max_depth:
                raise self._error(
                    Fault.DEPTH_EXCEEDED,
                    f"recursion depth exceeded ({self.max_depth})",
                )
            if isinstance(expr, Symbol):
                value = self._lookup(expr, env)
                self.stack.pop()
            else:
                tasks.append(self._form(expr, env))
                value = None

    def _lookup(self, sym, env):
        # A binding wins over self-evaluation, so a LABEL named T or F
        # still works; unbound, the truth atoms (and NIL in the pair
        # kernel) stand for themselves.
        try:
            return env.lookup(sym)
        except LookupError:
            if sym == T or sym == F:
                return sym
            if self.kernel is Kernel.PAIR and sym == NIL:
                return sym
            raise self._error(Fault.UNBOUND, f"unbound symbol: {sym.name}")

    def _form(self, expr, env):
        """Evaluate a compound form, yielding each (expr, env) it needs."""
        items = self._sequence(expr)
        if items is None:
            raise self._error(
                Fault.MALFORMED, f"not an expression of the {self.kernel.value} kernel: {expr!r}"
            )
        if not items:
            raise self._error(Fault.MALFORMED, "the empty list is not a form")
        head = items[0]
        if head == _QUOTE:
            if len(items) != 2:
                raise self._error(Fault.MALFORMED, "QUOTE takes exactly one operand")
            return items[1]
        if head == _COND:
            for clause in items[1:]:
                parts = self._sequence(clause)
                if parts is None or len(parts) != 2:
                    raise self._error(
                        Fault.MALFORMED, "each COND clause must be a two-element list"
                    )
                t = yield parts[0], env
                if t == T:
                    return (yield parts[1], env)
                if t != F:
                    raise self._error(
                        Fault.BAD_TRUTH_VALUE,
                        f"COND test produced {t!r}, which is neither T nor F",
                    )
            raise self._error(Fault.COND_EXHAUSTED, "no COND test evaluated to T")
        if head == _LAMBDA:
            return self._make_closure(items, env)
        if head == _LABEL:
            if len(items) != 3 or not isinstance(items[1], Symbol):
                raise self._error(Fault.MALFORMED, "LABEL takes an atom and a body")
            value = yield items[2], env
            if not isinstance(value, Closure):
                raise self._error(Fault.MALFORMED, "LABEL body must produce a closure")
            return replace(value, self_name=items[1])
        fn = yield head, env
        args = []
        for a in items[1:]:
            args.append((yield a, env))
        return (yield from self.apply(fn, args))

    def _make_closure(self, items, env):
        if len(items) != 3:
            raise self._error(
                Fault.MALFORMED, "LAMBDA takes a parameter list and a body"
            )
        params = self._sequence(items[1])
        if params is None or not all(isinstance(p, Symbol) for p in params):
            raise self._error(
                Fault.MALFORMED, "LAMBDA parameters must be a list of atoms"
            )
        if len(set(params)) != len(params):
            raise self._error(Fault.MALFORMED, "LAMBDA parameters must be distinct")
        return Closure(tuple(params), items[2], env)

    def apply(self, fn, args):
        """Apply fn to evaluated args; a closure body is yielded, not run."""
        if isinstance(fn, Primitive):
            if len(args) != fn.arity:
                raise self._error(
                    Fault.ARITY,
                    f"{fn.name} expects {fn.arity} argument(s), got {len(args)}",
                )
            try:
                return fn.fn(*args)
            except KernelError as ke:
                raise self._error(Fault.KERNEL_FAULT, str(ke), kernel_error=ke) from ke
        if isinstance(fn, Closure):
            if len(args) != len(fn.params):
                raise self._error(
                    Fault.ARITY,
                    f"closure expects {len(fn.params)} argument(s), got {len(args)}",
                )
            pairs = list(zip(fn.params, args))
            if fn.self_name is not None:
                pairs.append((fn.self_name, fn))
            return (yield fn.body, fn.env.extend(pairs))
        raise self._error(Fault.NOT_CALLABLE, f"not callable: {fn!r}")


def _value_of(expr, env):
    """The task whose value is that of expr in env."""
    return (yield expr, env)


def eval_sexpr(expr, env=None, kernel=Kernel.LIST, max_depth=DEFAULT_MAX_DEPTH):
    """Evaluate a translated S-expression.

    With env=None the primitives of the active kernel are bound and
    nothing else.
    """
    kernel = Kernel(kernel)
    if env is None:
        env = default_env(kernel)
    return _Interp(kernel, max_depth).run(_value_of(expr, env))


def apply_fn(fn, args, kernel=Kernel.LIST, max_depth=DEFAULT_MAX_DEPTH):
    """Apply an already-evaluated function value to evaluated arguments."""
    interp = _Interp(kernel, max_depth)
    return interp.run(interp.apply(fn, list(args)))


def eval_fexpr(e, env=None, kernel=Kernel.LIST, max_depth=DEFAULT_MAX_DEPTH):
    """Translate an F-expression and evaluate the result.

    Under the pair kernel the translated program is first carried over by
    list_to_pair, since translation always produces list-kernel data.
    """
    kernel = Kernel(kernel)
    program = translate(e)
    if kernel is Kernel.PAIR:
        program = list_to_pair(program)
    return eval_sexpr(program, env, kernel, max_depth)
