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

Each compound form is analysed once, into a node that has already
decided what the form is: a quoted constant, a COND clause list, a
LAMBDA, a LABEL or an application.  A form is analysed on its first
evaluation, or with the application it is an operand of.  The nodes are cached
by the identity of the form, per interpreter (one per eval_sexpr or
apply_fn call, so per kernel), and every later evaluation of the form
starts from its node.  Head atoms, like every symbol, are interned, so
dispatch and variable lookup are identity tests.  Malformed syntax
analyses to a node that raises, so it still fails only when it is
evaluated.

Evaluation runs on its own stack, not the host's.  A node makes a
generator that yields the (expression, environment) pairs whose values it
needs, so where the universal function would recurse it says
(yield x, env).  One loop, _Interp.run, keeps the suspended generators
and, beside them, the expressions under evaluation, outermost first; it
looks symbols up and returns quoted constants itself, and sends each
value back to the generator that asked.  There is no tail-call
elimination: a closure body is evaluated inside the application that
called it.

Most of the universal function is primitives applied to primitives:
eq[first[e]; QUOTE], first[rest[rest[fn]]].  Such a tree is applied in one
step, without a task per application or a turn of the loop per operand,
the superinstruction of Piumarta and Riccardi ("Optimizing direct
threaded code by selective inlining", PLDI 1998).  An application whose
head is a symbol and whose operands are symbols, quoted constants and
such applications, at most eight high, gets a plan when it is analysed.
When the loop meets it, it looks up every head of the tree first; if
each is bound to a primitive of the arity used, and the tree fits under
the depth cap, the plan evaluates the tree, else the application's task
does.  Looking up is all that happens before that choice, so nothing is
evaluated twice, and the plan keeps the order, the primitive calls, the
errors and the trace of the tasks it stands in for.

A plan remembers what its heads resolved to, for one closure: the
inline cache of Deutsch and Schiffman ("Efficient implementation of the
Smalltalk-80 system", POPL 1984).  Applying a closure makes a frame that
binds its parameters, then its LABEL name (to the closure itself), then
the environment the closure captured, which never changes; the closure
is that frame's owner.  A head that is not a parameter therefore means
the same in every frame of one owner, so a plan whose heads include no
parameter of the owner keeps the owner and its answer (primitives, or
None) and skips the lookup while it meets frames of that owner.  A
recursive function and the meta evaluator re-enter one closure object
on every call, so nearly every lookup is skipped.  The key is the
closure and not the scope: one form object can sit in several scopes,
and one LAMBDA form makes closures over different environments, but each
frame has exactly one owner.  Any other environment has no owner, and
its lookups are not kept.

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
_SPECIAL = frozenset((_QUOTE, _COND, _LAMBDA, _LABEL))

# The height of the highest tree of applications that has a plan; see _plan.
_PLAN_HEIGHT = 8

# The owner of a plan's empty cache: no environment has it (see _plan).
_UNOWNED = object()


@dataclass(frozen=True)
class Env:
    """Association-list environment: innermost bindings first.

    The frame that applying a closure makes also records that closure as
    its owner (see _Interp.apply); owner is not a field, so it takes no
    part in construction, equality, hashing or repr, and every other
    environment has None.
    """

    bindings: tuple = ()
    owner = None

    def lookup(self, name: Symbol):
        for sym, value in self.bindings:
            if sym is name:
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
            "NULL": (1, lambda x: _truth(x is NIL)),
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
        self._nodes = {}  # id(form) -> (start, constant, form, plan), see _analyse

    def _error(self, kind, detail, kernel_error=None):
        return EvalError(kind, detail, trace=self.stack[-8:], kernel_error=kernel_error)

    def _fault(self, ke):
        return self._error(Fault.KERNEL_FAULT, str(ke), kernel_error=ke)

    def _sequence(self, v):
        """The items of v if it is a proper list of the active kernel, else None.

        A chain of pairs is one only if it ends at NIL without meeting a
        pair twice, so a cyclic form is malformed, not endless.
        """
        if self.kernel is Kernel.LIST:
            return v.items if isinstance(v, ProperList) else None
        items, seen = [], set()
        while isinstance(v, Pair):
            if id(v) in seen:
                return None
            seen.add(id(v))
            items.append(v.head)
            v = v.tail
        return items if v is NIL else None

    def run(self, task):
        """Drive task, a generator that yields (expr, env), to its value.

        Each yielded expression is pushed on self.stack and evaluated: a
        symbol or a quoted constant here, an application with a plan here
        too when its heads resolve to primitives and its height fits under
        the cap, and any other compound form by the task its node makes,
        suspended above the one that asked.  When the evaluation ends its
        value is sent back to the asker.
        """
        tasks = [task]
        stack = self.stack
        nodes = self._nodes
        max_depth = self.max_depth
        value = None
        try:
            while True:
                try:
                    expr, env = tasks[-1].send(value)
                except StopIteration as done:
                    tasks.pop()
                    if not tasks:
                        return done.value
                    stack.pop()
                    value = done.value
                    continue
                stack.append(expr)
                if len(stack) > max_depth:
                    raise self._error(
                        Fault.DEPTH_EXCEEDED,
                        f"recursion depth exceeded ({max_depth})",
                    )
                if isinstance(expr, Symbol):
                    value = self._lookup(expr, env)
                    stack.pop()
                    continue
                start, constant, _, plan = nodes.get(id(expr)) or self._analyse(expr)
                if start is None:
                    value = constant
                    stack.pop()
                    continue
                if plan is not None and len(stack) + plan[0] <= max_depth:
                    cache, owner = plan[3], env.owner
                    if cache[0] is owner:
                        fns = cache[1]
                    else:
                        fns = _primitives(plan[1], env)
                        if owner is not None and not any(
                            sym in owner.params for sym, _ in plan[1]
                        ):
                            cache[:] = owner, fns
                    if fns is not None:
                        try:
                            value = plan[2](env, fns)
                        except StopIteration as e:  # as in a task (PEP 479)
                            raise RuntimeError("generator raised StopIteration") from e
                        stack.pop()
                        continue
                tasks.append(start(env))
                value = None
        finally:
            # The nodes' closures refer back to this interpreter; dropping
            # them here frees it at once, not at the next cycle collection.
            nodes.clear()

    def _lookup(self, sym, env):
        for name, value in env.bindings:
            if name is sym:
                return value
        return self._free(sym)

    def _free(self, sym):
        # A binding wins over self-evaluation, so a LABEL named T or F
        # still works; unbound, the truth atoms (and NIL in the pair
        # kernel) stand for themselves.  sym is on top of self.stack.
        if sym is T or sym is F:
            return sym
        if self.kernel is Kernel.PAIR and sym is NIL:
            return sym
        raise self._error(Fault.UNBOUND, f"unbound symbol: {sym.name}")

    def _analyse(self, form):
        """The node of a compound form, made on its first evaluation.

        A node is (start, constant, form, plan).  For QUOTE start is None
        and the constant is the value; for any other form start(env) makes
        the task that evaluates the form in env.  Malformed syntax gives a
        start that raises, so it fails only where it is evaluated.  An
        application may also have a plan (see _plan); any other node has
        None.  The node keeps the form alive, so that no other object can
        take the id it is cached by.

        The operands of an application are analysed before it, so that its
        plan can be made from their nodes: every form reached from form
        through operands of applications gets its node here, before its
        own first evaluation, on an explicit stack.  An application met again inside itself (a cyclic
        pair-kernel form) has no node yet where it is an operand, so the
        applications around it get no plan.
        """
        nodes = self._nodes
        todo = [(form, None)]  # (form, its items once its operands are queued)
        opened = set()  # ids of the forms whose operands are queued
        while todo:
            f, items = todo.pop()
            if id(f) in nodes or (items is None and id(f) in opened):
                continue
            if items is None:
                items = self._sequence(f)
                if items and isinstance(items[0], Symbol) and items[0] not in _SPECIAL:
                    opened.add(id(f))
                    todo.append((f, items))
                    for x in items[1:]:
                        if not isinstance(x, Symbol):
                            todo.append((x, None))
                    continue
            nodes[id(f)] = self._node(f, items)
        return nodes[id(form)]

    def _node(self, form, items):
        start = constant = plan = None
        if items is None:
            start = self._malformed(
                f"not an expression of the {self.kernel.value} kernel: {form!r}"
            )
        elif not items:
            start = self._malformed("the empty list is not a form")
        elif items[0] is _QUOTE:
            if len(items) == 2:
                constant = items[1]
            else:
                start = self._malformed("QUOTE takes exactly one operand")
        elif items[0] is _COND:
            start = self._cond(items[1:])
        elif items[0] is _LAMBDA:
            start = self._lambda(items)
        elif items[0] is _LABEL:
            start = self._label(items)
        else:
            start = self._application(items[0], items[1:])
            plan = self._plan(items[0], items[1:])
        return (start, constant, form, plan)

    def _malformed(self, detail):
        def start(env):
            raise self._error(Fault.MALFORMED, detail)

        return start

    def _cond(self, clauses):
        # A clause that is not a (test, result) list is kept as None and
        # raises only once the clauses before it have been tried.
        clauses = [self._sequence(c) for c in clauses]
        clauses = [c if c is not None and len(c) == 2 else None for c in clauses]

        def start(env):
            for clause in clauses:
                if clause is None:
                    raise self._error(
                        Fault.MALFORMED, "each COND clause must be a two-element list"
                    )
                t = yield clause[0], env
                if t is T:
                    return (yield clause[1], env)
                if t is not F:
                    raise self._error(
                        Fault.BAD_TRUTH_VALUE,
                        f"COND test produced {t!r}, which is neither T nor F",
                    )
            raise self._error(Fault.COND_EXHAUSTED, "no COND test evaluated to T")

        return start

    def _lambda(self, items):
        if len(items) != 3:
            return self._malformed("LAMBDA takes a parameter list and a body")
        params = self._sequence(items[1])
        if params is None or not all(isinstance(p, Symbol) for p in params):
            return self._malformed("LAMBDA parameters must be a list of atoms")
        if len(set(params)) != len(params):
            return self._malformed("LAMBDA parameters must be distinct")
        params, body = tuple(params), items[2]

        def start(env):
            yield from ()  # a task that needs no values
            return Closure(params, body, env)

        return start

    def _label(self, items):
        if len(items) != 3 or not isinstance(items[1], Symbol):
            return self._malformed("LABEL takes an atom and a body")
        name, body = items[1], items[2]

        def start(env):
            value = yield body, env
            if not isinstance(value, Closure):
                raise self._error(Fault.MALFORMED, "LABEL body must produce a closure")
            return replace(value, self_name=name)

        return start

    def _application(self, head, operands):
        def start(env):
            fn = yield head, env
            args = []
            for a in operands:
                args.append((yield a, env))
            return (yield from self.apply(fn, args))

        return start

    def _plan(self, head, operands):
        """The plan of an application, or None if it cannot have one.

        An application has a plan when its head is a symbol and each
        operand is a symbol, a quoted constant or an application with a
        plan, and the tree of them is at most _PLAN_HEIGHT high.  A plan is
        (height, heads, run, cache).  heads holds each head symbol of the
        tree once, with the number of operands it takes there: if each is
        bound to a Primitive of that arity, run(env, fns), given the fns of
        those primitives by symbol (see _primitives), evaluates the tree in
        env and returns its value.  The height is the number of levels the
        evaluation would push on self.stack above the application, so the
        tree fits under the cap when len(self.stack) + height does.  cache
        is [owner, fns]: the result of _primitives in a frame of owner,
        which _Interp.run reuses in every frame of that owner (see the
        module docstring); it starts with an owner no environment has.

        run takes the steps the tasks would take, in the same order: each
        nested application and each operand symbol is on self.stack while
        it is evaluated, each primitive is called once through its fn, and
        a KernelError becomes the same KERNEL_FAULT.  It recurses on the
        host stack once per level, which _PLAN_HEIGHT bounds.
        """
        if not isinstance(head, Symbol):
            return None
        heads = {head: len(operands)}
        height = 1
        gets = []
        for x in operands:
            if isinstance(x, Symbol):
                gets.append(self._get_symbol(x))
                continue
            node = self._nodes.get(id(x))
            if node is None:  # x is an application inside itself
                return None
            start, constant, _, plan = node
            if start is None:
                gets.append(lambda env, fns, constant=constant: constant)
                continue
            if plan is None:
                return None
            sub_height, sub_heads, sub_run, _ = plan
            for sym, arity in sub_heads:
                if heads.setdefault(sym, arity) != arity:
                    return None
            height = max(height, sub_height + 1)
            gets.append(self._get_nested(x, sub_run))
        if height > _PLAN_HEIGHT:
            return None
        run = self._call(head, gets)
        return height, tuple(heads.items()), run, [_UNOWNED, None]

    def _get_symbol(self, sym):
        stack, free = self.stack, self._free

        def get(env, fns):
            for name, value in env.bindings:
                if name is sym:
                    return value
            stack.append(sym)
            value = free(sym)
            stack.pop()
            return value

        return get

    def _get_nested(self, form, run):
        stack = self.stack

        def get(env, fns):
            stack.append(form)
            value = run(env, fns)
            stack.pop()
            return value

        return get

    def _call(self, head, gets):
        if len(gets) == 1:
            (get,) = gets

            def run(env, fns):
                try:
                    return fns[head](get(env, fns))
                except KernelError as ke:
                    raise self._fault(ke) from ke

        elif len(gets) == 2:
            get0, get1 = gets

            def run(env, fns):
                try:
                    return fns[head](get0(env, fns), get1(env, fns))
                except KernelError as ke:
                    raise self._fault(ke) from ke

        else:

            def run(env, fns):
                try:
                    return fns[head](*[get(env, fns) for get in gets])
                except KernelError as ke:
                    raise self._fault(ke) from ke

        return run

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
                raise self._fault(ke) from ke
        if isinstance(fn, Closure):
            if len(args) != len(fn.params):
                raise self._error(
                    Fault.ARITY,
                    f"closure expects {len(fn.params)} argument(s), got {len(args)}",
                )
            pairs = list(zip(fn.params, args))
            if fn.self_name is not None:
                pairs.append((fn.self_name, fn))
            env = fn.env.extend(pairs)
            object.__setattr__(env, "owner", fn)
            return (yield fn.body, env)
        raise self._error(Fault.NOT_CALLABLE, f"not callable: {fn!r}")


def _primitives(heads, env):
    """The fn of each head's Primitive by symbol, or None.

    None unless env binds every (symbol, arity) of heads to a Primitive
    of that arity.  Only bindings are read, so nothing is evaluated.
    """
    fns = {}
    for sym, arity in heads:
        for name, value in env.bindings:
            if name is sym:
                break
        else:
            return None
        if not isinstance(value, Primitive) or value.arity != arity:
            return None
        fns[sym] = value.fn
    return fns


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
