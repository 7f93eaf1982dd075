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
value back to the generator that asked.

Most of the universal function is primitives applied to primitives:
eq[first[e]; QUOTE], first[rest[rest[fn]]].  Such a tree is applied in one
step, without a task per application or a turn of the loop per operand,
the superinstruction of Piumarta and Riccardi ("Optimizing direct
threaded code by selective inlining", PLDI 1998).  An application whose
head is a symbol and whose operands are symbols, quoted constants and
such applications, at most eight high, gets a plan when it is analysed.

The two steps of the universal function, evcon choosing a COND clause
and apply binding parameters to evaluate a body, are taken by the loop
itself when they can be, without a task.  An application whose operands
could each be evaluated by a plan, and a COND whose tests could, has a
step.  When the loop meets it, it looks up the head and the heads of
those plans first; if the plans' heads are bound to primitives of the
arity used, the head (of an application) to a closure or a primitive,
and the form fits under the depth cap, the loop evaluates the operands
or tests through the plans.  It then calls the primitive, or makes the
closure's frame and goes on with its body, or goes on with the chosen
result, in the same turn.  Else the form's task does it all.  Looking up
is all that happens before that choice, so nothing is evaluated twice,
and the steps keep the order, the primitive calls, the errors and the
trace of the tasks they stand in for.  There is no tail-call
elimination: the form a step goes on from stays on the stack until the
form it goes on with has its value, so that the depth, where it runs
out and every trace stay those of the universal function, which
evaluates a closure body inside the application that called it.

A step remembers what its heads resolved to, for one closure: the
inline cache of Deutsch and Schiffman ("Efficient implementation of the
Smalltalk-80 system", POPL 1984).  Applying a closure makes a frame that
binds its parameters, then its LABEL name (to the closure itself), then
the environment the closure captured, which never changes; the closure
is that frame's owner.  A head that is not a parameter therefore means
the same in every frame of one owner.  A step whose plans' heads include
no parameter keeps the owner and its answer (primitives, or None), and
so does one whose answer is None because of a head that is no parameter;
then it skips the lookup while it meets frames of that owner, all but
that of an application's head if that is a parameter.  A recursive
function and the meta evaluator re-enter one closure object on every
call, so nearly every lookup is skipped.  The key is the closure and
not the scope: one form object can sit in several scopes, and one LAMBDA
form makes closures over different environments, but each frame has
exactly one owner.  Any other environment has no owner, and its lookups
are not kept.

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
# The special forms whose nodes are made from no inner form (see _analyse).
_LEAVES = frozenset((_QUOTE, _LAMBDA, _LABEL))

# The height of the highest tree of applications that has a plan; see _steps.
_PLAN_HEIGHT = 8

# The owner of a step's empty cache: no environment has it (see _steps).
_UNOWNED = object()
# A cached head that is a parameter of the owner, so looked up in each frame.
_PARAM = object()


@dataclass(frozen=True)
class Env:
    """Association-list environment: innermost bindings first.

    The frame that applying a closure makes also records that closure as
    its owner (see _Interp._frame); owner is not a field, so it takes no
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
        self._nodes = {}  # id(form) -> its node, see _analyse

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
        symbol or a quoted constant here, an application or a COND with a
        step here too when its step applies (see _steps), and any other
        compound form by the task its node makes, suspended above the one
        that asked.  A step that ends in another expression, a closure
        body or a COND's chosen result, pushes that one and goes on.  A
        task's expression stays on the stack while the task runs, and each
        value it is sent finds the stack cut back to that height.
        """
        tasks = [task]
        levels = [len(self.stack)]  # len(stack) as each task was made
        stack = self.stack
        nodes = self._nodes
        max_depth = self.max_depth
        value = None
        try:
            while True:
                del stack[levels[-1] :]
                try:
                    expr, env = tasks[-1].send(value)
                except StopIteration as done:
                    tasks.pop()
                    levels.pop()
                    if not tasks:
                        return done.value
                    value = done.value
                    continue
                try:
                    while True:
                        stack.append(expr)
                        if len(stack) > max_depth:
                            raise self._error(
                                Fault.DEPTH_EXCEEDED,
                                f"recursion depth exceeded ({max_depth})",
                            )
                        if isinstance(expr, Symbol):
                            value = self._lookup(expr, env)
                            break
                        node = nodes.get(id(expr)) or self._analyse(expr)
                        start, constant, _, _, step = node
                        if start is None:
                            value = constant
                            break
                        if step is not None and len(stack) + step[0] <= max_depth:
                            _, _, gets, cache, head, cond = step
                            if cache[0] is env.owner:
                                _, fn, fns = cache
                                if fn is _PARAM:
                                    fn = _binding(head, env)
                            else:
                                fn, fns = _resolve(step, env)
                            if fns is not None:
                                if cond is not None:
                                    results, end = cond
                                    for get, result in zip(gets, results):
                                        t = get(env, fns)
                                        if t is T:
                                            break
                                        if t is not F:
                                            raise self._not_truth(t)
                                    else:
                                        raise self._error(*end)
                                    expr = result
                                    continue
                                if isinstance(fn, Closure):
                                    args = [get(env, fns) for get in gets]
                                    env = self._frame(fn, args)
                                    expr = fn.body
                                    continue
                                if isinstance(fn, Primitive):
                                    args = [get(env, fns) for get in gets]
                                    value = self._primitive(fn, args)
                                    break
                        tasks.append(start(env))
                        levels.append(len(stack))
                        value = None
                        break
                except StopIteration as e:  # as in a task (PEP 479)
                    raise RuntimeError("generator raised StopIteration") from e
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

        A node is (start, constant, form, plan, step).  For QUOTE start is
        None and the constant is the value; for any other form start(env)
        makes the task that evaluates the form in env.  Malformed syntax
        gives a start that raises, so it fails only where it is evaluated.
        An application may also have a plan (see _steps), and an
        application or a COND a step; any other node has None.  The node
        keeps the form alive, so that no other object can take the id it
        is cached by.

        The operands of an application and the tests of a COND are
        analysed before it, so that its plan and step can be made from
        their nodes: every form reached from form through them gets its
        node here, before its own first evaluation, on an explicit stack.
        A form met again inside itself (a cyclic pair-kernel form) has no
        node yet where it is reached, so the forms around it get no plan
        and no step.
        """
        nodes = self._nodes
        todo = [(form, None)]  # (form, its items once its inner forms are queued)
        opened = set()  # ids of the forms whose inner forms are queued
        while todo:
            f, items = todo.pop()
            if id(f) in nodes or (items is None and id(f) in opened):
                continue
            if items is None:
                items = self._sequence(f)
                if items and isinstance(items[0], Symbol) and items[0] not in _LEAVES:
                    opened.add(id(f))
                    todo.append((f, items))
                    inner = items[1:]
                    if items[0] is _COND:
                        inner = self._clauses(inner)[0]
                    for x in inner:
                        if not isinstance(x, Symbol):
                            todo.append((x, None))
                    continue
            nodes[id(f)] = self._node(f, items)
        return nodes[id(form)]

    def _node(self, form, items):
        start = constant = plan = step = None
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
            start, step = self._cond(items[1:])
        elif items[0] is _LAMBDA:
            start = self._lambda(items)
        elif items[0] is _LABEL:
            start = self._label(items)
        else:
            start = self._application(items[0], items[1:])
            if isinstance(items[0], Symbol):
                plan, step = self._steps(items[0], items[1:])
        return (start, constant, form, plan, step)

    def _malformed(self, detail):
        def start(env):
            raise self._error(Fault.MALFORMED, detail)

        return start

    def _clauses(self, clauses):
        """(tests, results, end): the clauses up to the first malformed one.

        end is the error of a COND whose tests there all give F: a
        malformed clause raises only once the clauses before it are tried.
        """
        tests, results = [], []
        for c in clauses:
            c = self._sequence(c)
            if c is None or len(c) != 2:
                detail = "each COND clause must be a two-element list"
                return tests, results, (Fault.MALFORMED, detail)
            tests.append(c[0])
            results.append(c[1])
        return tests, results, (Fault.COND_EXHAUSTED, "no COND test evaluated to T")

    def _not_truth(self, t):
        return self._error(
            Fault.BAD_TRUTH_VALUE, f"COND test produced {t!r}, which is neither T nor F"
        )

    def _cond(self, clauses):
        tests, results, end = self._clauses(clauses)

        def start(env):
            for test, result in zip(tests, results):
                t = yield test, env
                if t is T:
                    return (yield result, env)
                if t is not F:
                    raise self._not_truth(t)
            raise self._error(*end)

        found = self._operands(tests)
        if found is None:
            return start, None
        height, heads, gets = found
        cache = [_UNOWNED, None, None]
        step = (height, tuple(heads.items()), gets, cache, None, (results, end))
        return start, step

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

    def _steps(self, head, operands):
        """(plan, step) of an application with a symbol head; each may be None.

        A step is (height, heads, gets, cache, head, None) for an
        application and (height, heads, gets, cache, None, (results, end))
        for a COND (see _clauses).  It is made when the operands, or the
        tests, can each be evaluated without a task (see _operands): gets
        evaluates them, in order, given the fns of heads.  The height is the
        number of levels that evaluation pushes on self.stack above the
        form, so it fits under the cap when len(self.stack) + height does.
        cache is [owner, fn, fns]: what _resolve found in a frame of owner,
        which _Interp.run reuses in every frame of that owner (see the
        module docstring); it starts with an owner no environment has.

        When the head is bound to a closure, the step makes the frame that
        applying it makes, and run goes on with its body; when the head is
        bound to a primitive, the step calls it.  Either way the arity is
        checked after the operands, as in the task.

        A plan is (height, heads, run), and the operands of the step of
        another application or COND may have one: run(env, fns) evaluates
        the application in env, given the fns of heads, which here include
        the head.  An application has a plan when its height is at most
        _PLAN_HEIGHT and its head is used at one arity throughout the tree.
        """
        found = self._operands(operands)
        if found is None:
            return None, None
        height, heads, gets = found
        step = (height, tuple(heads.items()), gets, [_UNOWNED, None, None], head, None)
        if height > _PLAN_HEIGHT or heads.setdefault(head, len(gets)) != len(gets):
            return None, step
        return (height, tuple(heads.items()), self._call(head, gets)), step

    def _operands(self, forms):
        """(height, heads, gets) of forms, or None if one needs a task.

        Each form must be a symbol, a quoted constant or an application with
        a plan.  heads holds each head symbol of those plans once, with the
        number of operands it takes there, and None is returned if one
        takes two numbers.  If each head is bound to a Primitive of that
        arity, gets[i](env, fns), given the fns of those primitives by
        symbol (see _resolve), evaluates forms[i] in env.  The height is at
        least 1, the level of the forms themselves.

        The gets take the steps the tasks would take, in the same order:
        each nested application and each operand symbol is on self.stack
        while it is evaluated, each primitive is called once through its
        fn, and a KernelError becomes the same KERNEL_FAULT.  They recurse
        on the host stack once per level, which _PLAN_HEIGHT bounds.
        """
        heads = {}
        height = 1
        gets = []
        for x in forms:
            if isinstance(x, Symbol):
                gets.append(self._get_symbol(x))
                continue
            node = self._nodes.get(id(x))
            if node is None:  # x is a form inside itself
                return None
            start, constant, _, plan, _ = node
            if start is None:
                gets.append(lambda env, fns, constant=constant: constant)
                continue
            if plan is None:
                return None
            sub_height, sub_heads, sub_run = plan
            for sym, arity in sub_heads:
                if heads.setdefault(sym, arity) != arity:
                    return None
            height = max(height, sub_height + 1)
            gets.append(self._get_nested(x, sub_run))
        return height, heads, gets

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
        if isinstance(fn, Closure):
            return (yield fn.body, self._frame(fn, args))
        if isinstance(fn, Primitive):
            return self._primitive(fn, args)
        raise self._error(Fault.NOT_CALLABLE, f"not callable: {fn!r}")

    def _primitive(self, fn, args):
        if len(args) != fn.arity:
            raise self._error(
                Fault.ARITY,
                f"{fn.name} expects {fn.arity} argument(s), got {len(args)}",
            )
        try:
            return fn.fn(*args)
        except KernelError as ke:
            raise self._fault(ke) from ke

    def _frame(self, fn, args):
        """The frame that applying closure fn to args makes; fn owns it."""
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
        return env


def _binding(sym, env):
    """The value env binds sym to, or None if it binds none."""
    for name, value in env.bindings:
        if name is sym:
            return value
    return None


def _resolve(step, env):
    """(fn, fns) of a step in env, kept in its cache where that is sound.

    fn is the head's binding (None for a COND, or if unbound).  fns is the
    fn of each Primitive of heads by symbol, or None unless env binds every
    (symbol, arity) of heads to a Primitive of that arity.  Only bindings
    are read, so nothing is evaluated.

    In a frame, a symbol that is not a parameter of the owner means the
    same in every frame of that owner.  So the answer is kept when no head
    is a parameter, or when it is None because of a head that is not one;
    fn is kept unless the head is a parameter, and _PARAM stands for it.
    """
    _, heads, _, cache, head, _ = step
    fn = None if head is None else _binding(head, env)
    fns = {}
    for sym, arity in heads:
        value = _binding(sym, env)
        if not isinstance(value, Primitive) or value.arity != arity:
            fns = None
            break
        fns[sym] = value.fn
    owner = env.owner
    if owner is not None:
        params = owner.params
        if fns is None:
            kept = sym not in params
        else:
            kept = not any(s in params for s, _ in heads)
        if kept:
            cache[:] = owner, _PARAM if head in params else fn, fns
    return fn, fns


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
