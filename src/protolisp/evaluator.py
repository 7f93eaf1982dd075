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
evaluation, or with the application it is an operand of, and keeps its
node in its _node slot for as long as it lives, so every later
evaluation of the form, in this eval_sexpr or apply_fn call or a later
one, starts from its node: the meta evaluator's bodies are analysed
once, not once per meta_eval.
A ProperList is only ever a form of the list kernel and a Pair only one
of the pair kernel, so the node a form keeps is its own kernel's; a form
of the other kernel, or any other value, is analysed afresh each time it
is evaluated, into a node that raises.  A node refers to the inner forms
of its form and to no interpreter, so it is freed with its form.  Head
atoms, like every symbol, are interned, so dispatch and variable lookup
are identity tests.  Malformed syntax analyses to a node that raises, so
it still fails only when it is evaluated.

Evaluation runs on its own stack, not the host's.  One loop,
_Interp.run, takes an expression to its value.  Where the universal
function recurses for the value of an operand, a COND test or a LABEL
body, the loop pushes a frame and goes on with that expression, and
resumes the frame with the value: the recursion's continuation,
defunctionalized (Danvy and Nielsen, "Defunctionalization at work", PPDP
2001), which makes the loop a CEK machine (Felleisen and Friedman, 1986).
A frame holds the form's node, the environment, what the form's heads
resolved to, the values so far, and the height of the stack of
expressions under evaluation with the form on top.  A closure body and a
COND's chosen result need no frame; their value is the form's.

Most of the universal function is primitives applied to primitives:
eq[first[e]; QUOTE], first[rest[rest[fn]]].  An application whose head is
a symbol and whose one or two operands are symbols, quoted constants and
such applications, at most eight high, gets a plan when it is analysed,
which applies the tree in one go: the superinstruction of Piumarta and
Riccardi ("Optimizing direct threaded code by selective inlining", PLDI
1998).  A plan pushes nothing on the stack of expressions under
evaluation, since its nesting is fixed and its height is checked against
the depth cap before it runs.  Where a primitive faults or a symbol is
unbound inside it, the error is raised as a signal that each nested
application it leaves adds itself to, and the loop rebuilds the trace
from that path: what the trace costs is paid on the raise, not on the way
in, as with the zero-cost exceptions of CPython 3.11.

An application with a symbol head, and a COND, is a step.  The loop
first reads the bindings of its head and of its plans' heads, and
nothing else.  It evaluates the operands or tests in place, symbols,
quoted constants and plans whose heads are primitives of the arity used,
up to the first that is none of these, such as append's app[rest[x]; y]
in combine[first[x]; app[rest[x]; y]].  There the step suspends: the
loop pushes its frame and goes on with that operand, and resumes the
step in place when the value comes back.  It then calls the primitive,
or binds the closure's parameters and goes on with its body, or goes on
with the chosen result.  Where the plans' height does not fit under the
depth cap, or an application's head is unbound or not a symbol, the loop
evaluates each operand, head or test itself, checking the cap at each.
So the order, the primitive calls, the errors and the traces are those
of the universal function.  There is no tail-call elimination: a form
stays on the stack until the body or result it goes on with has its
value, as in the universal function, so the depth, where it runs out
and every trace stay the same.

A step remembers where its heads are bound: the inline cache of Deutsch
and Schiffman ("Efficient implementation of the Smalltalk-80 system",
POPL 1984).  Applying a closure binds its parameters, then its LABEL
name (to the closure itself), in front of the environment it captured;
the closure owns the environment this makes.  Every environment of one
owner has that layout, so a symbol's innermost binding sits at one index
in all of them, its lexical address (SICP, section 5.5.6), and only the
parameters' values differ.  So a step keeps, under the owner, its head's
address, through which it reads the head on every hit, and the functions
of the primitives its plans' heads are bound to; a plan whose head is a
parameter gets no get there, and runs as a step.  A recursive function
and the meta evaluator re-enter one closure object on every call, so
nearly every lookup of a head is skipped.  The key is the closure and not
the scope: one form object can sit in several scopes, and one LAMBDA
form makes closures over different environments, but each environment
has at most one owner.  Other environments have none, and their lookups
are not kept.  The cache lives on the step, so it outlives a run: a
closure that a later call applies again, such as the meta evaluator of a
universal_env, finds its heads resolved.  It keeps no value a head is
bound to, and refers to its owner weakly, so that a closure's body keeps
no closure alive, itself included.  Its entry is one tuple, read once and
replaced whole, so a thread that evaluates a form another thread
evaluates too sees one owner's answer, never parts of two.

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
import weakref


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

# The height of the highest tree of applications that has a plan; see _step.
_PLAN_HEIGHT = 8

# The kinds of node (see _node): what the loop does with the form.
# The two whose node holds a step come first (see _Interp.run).
_APPLY, _CHOOSE, _CONSTANT, _CLOSE, _NAME, _FAIL = range(6)

# The entry of a step's empty cache: its owner is None, which owns nothing
# (see _step).
_NO_ENTRY = (lambda: None, None, None, None)


@dataclass(frozen=True)
class Env:
    """Association-list environment: innermost bindings first.

    The environment that applying a closure makes also records that
    closure as its owner (see _Interp._bind); owner is not a field, so it
    takes no part in construction, equality, hashing or repr, and every
    other environment has None.
    """

    bindings: tuple = ()
    owner = None

    def lookup(self, name: Symbol):
        at = _address(name, self.bindings)
        if at is None:
            raise LookupError(name.name)
        return self.bindings[at][1]

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
        return f"#<closure ({' '.join([p.name for p in self.params])})>"


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
        tuple([(Symbol(n), Primitive(n, a, fn)) for n, (a, fn) in ops.items()])
    )


class _Interp:
    """One eval_sexpr or apply_fn call.

    It holds the kernel, the depth cap and the stack of expressions under
    evaluation, and nothing that analysis makes refers to it, so it is
    freed when the call returns (see _analyse).
    """

    def __init__(self, kernel, max_depth):
        self.kernel = Kernel(kernel)
        self.max_depth = max_depth
        self.stack = []

    def _error(self, kind, detail, kernel_error=None):
        return EvalError(kind, detail, trace=self.stack[-8:], kernel_error=kernel_error)

    def _fault(self, ke):
        return self._error(Fault.KERNEL_FAULT, str(ke), kernel_error=ke)

    def _unbound(self, sym):
        return self._error(Fault.UNBOUND, f"unbound symbol: {sym.name}")

    def run(self, expr, env):
        """The value of expr in env.

        Each expression is pushed on self.stack and evaluated: a symbol, a
        quoted constant and a LAMBDA at once, an application or a COND as
        a step (see _step), a LABEL by its body.  What a form does not
        evaluate in place is evaluated above its frame, (node, env, fns,
        gets, values, level): fns and gets are what _resolve gave the step
        (all gets are None where the loop evaluates every item), values
        holds the head's and the operands' values so far, or an F for each
        test that gave F, and level is len(self.stack) with the form on
        top, to which the stack is cut back before the frame resumes.  A
        form's node is the one it keeps from an earlier evaluation, in this
        run or another, or is made now (see _analyse).  A _Signal from a
        get becomes its EvalError here, with the trace rebuilt.
        """
        frames = []
        stack = self.stack
        kernel = self.kernel
        form_class = _FORM[kernel]
        max_depth = self.max_depth
        try:
            while True:
                while True:  # evaluate expr in env, or go on with another
                    stack.append(expr)
                    if len(stack) > max_depth:
                        detail = f"recursion depth exceeded ({max_depth})"
                        raise self._error(Fault.DEPTH_EXCEEDED, detail)
                    if isinstance(expr, Symbol):
                        value = self._lookup(expr, env)
                        break
                    if expr.__class__ is form_class:
                        try:
                            node = expr._node
                        except AttributeError:  # not analysed yet
                            node = _analyse(expr, kernel)
                    else:
                        node = _analyse(expr, kernel)
                    kind, step, body = node
                    if kind <= _CHOOSE:
                        height, _, cache, forms, _, _, _, choice = step
                        owner, at, fns, gets = cache[0]
                        if len(stack) + height > max_depth:
                            at, fns, gets = None, None, (None,) * len(forms)
                        elif not (owner() is env.owner is not None):
                            at, fns, gets = _resolve(step, env)
                        fn = None if at is None else env.bindings[at][1]
                        if choice is not None:
                            for i, get in enumerate(gets):
                                if get is None:
                                    break
                                t = get(env, fns)
                                if t is T:
                                    break
                                if t is not F:
                                    raise self._not_truth(t)
                            else:
                                raise self._error(*choice[1])
                            if get is not None:
                                expr = choice[0][i]
                                continue
                            values = [F] * i
                        elif fn is not None:
                            args = []
                            for get in gets:
                                if get is None:
                                    break
                                args.append(get(env, fns))
                            else:
                                if isinstance(fn, Closure):
                                    env = self._bind(fn, args)
                                    expr = fn.body
                                    continue
                                value = self._apply(fn, args)
                                break
                            values = [fn, *args]
                        else:  # the loop evaluates the head and each operand
                            gets, values = (None,) * len(forms), []
                        frames.append((node, env, fns, gets, values, len(stack)))
                        expr = forms[len(values)]
                        continue
                    if kind == _CONSTANT:
                        value = step
                        break
                    if kind == _CLOSE:
                        value = Closure(step, body, env)
                        break
                    if kind == _NAME:
                        frames.append((node, env, None, None, None, len(stack)))
                        expr = body
                        continue
                    raise self._error(Fault.MALFORMED, step)
                while frames:  # resume the top frame with value
                    node, env, fns, gets, values, level = frames[-1]
                    del stack[level:]
                    kind, step, _ = node
                    if kind == _APPLY:
                        forms = step[3]
                        values.append(value)
                        i = len(values)
                        while i < len(forms) and gets[i - 1] is not None:
                            values.append(gets[i - 1](env, fns))
                            i += 1
                        if i < len(forms):
                            expr = forms[i]
                            break
                        frames.pop()
                        fn, *args = values
                        if isinstance(fn, Closure):
                            env = self._bind(fn, args)
                            expr = fn.body
                            break
                        value = self._apply(fn, args)
                    elif kind == _CHOOSE:
                        forms, (results, end) = step[3], step[7]
                        i = len(values)  # the test whose value this is
                        while value is F and i + 1 < len(forms) and gets[i + 1]:
                            i += 1
                            value = gets[i](env, fns)
                        if value is T:
                            frames.pop()
                            expr = results[i]
                            break
                        if value is not F:
                            raise self._not_truth(value)
                        if i + 1 == len(forms):
                            raise self._error(*end)
                        values[:] = [F] * (i + 1)
                        expr = forms[i + 1]
                        break
                    else:
                        frames.pop()
                        if not isinstance(value, Closure):
                            detail = "LABEL body must produce a closure"
                            raise self._error(Fault.MALFORMED, detail)
                        value = replace(value, self_name=step)
                else:
                    return value
        except StopIteration as e:  # a primitive's, raised as PEP 479 has it
            raise RuntimeError("generator raised StopIteration") from e
        except _Signal as s:
            cause, path = s.args
        # A get signalled: the trace is stack as the gets would have left it,
        # with the forms they were inside, outermost first, on top.
        stack.extend(reversed(path))
        if isinstance(cause, Symbol):
            raise self._unbound(cause)
        error = self._fault(cause)
        error.__cause__ = error.__context__ = cause  # as raise ... from cause
        raise error

    def _lookup(self, sym, env):
        at = _address(sym, env.bindings)
        if at is not None:
            return env.bindings[at][1]
        if sym in _SELF[self.kernel]:
            return sym
        raise self._unbound(sym)

    def _not_truth(self, t):
        return self._error(
            Fault.BAD_TRUTH_VALUE, f"COND test produced {t!r}, which is neither T nor F"
        )

    def _apply(self, fn, args):
        """The value of fn, which is no closure, applied to evaluated args."""
        if not isinstance(fn, Primitive):
            raise self._error(Fault.NOT_CALLABLE, f"not callable: {fn!r}")
        if len(args) != fn.arity:
            raise self._error(
                Fault.ARITY,
                f"{fn.name} expects {fn.arity} argument(s), got {len(args)}",
            )
        try:
            return fn.fn(*args)
        except KernelError as ke:
            raise self._fault(ke) from ke

    def _bind(self, fn, args):
        """The environment that applying closure fn to args makes; fn owns it."""
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


# Per kernel: the class of its compound forms, the only ones that keep a
# node (see _analyse), and the atoms that stand for themselves unbound.  A
# binding wins over self-evaluation, so a LABEL named T or F still works.
_FORM = {Kernel.LIST: ProperList, Kernel.PAIR: Pair}
_SELF = {Kernel.LIST: (T, F), Kernel.PAIR: (T, F, NIL)}


class _Signal(Exception):
    """A kernel fault or an unbound symbol inside a plan, on its way to the loop.

    args are (cause, path): cause is the KernelError or the unbound symbol,
    and path the forms the loop would have had on its stack above the
    step's form, innermost first.  Each get it leaves adds its form (see
    _get_nested), and _Interp.run makes it the EvalError.
    """


def _sequence(v, kernel):
    """The items of v if it is a proper list of kernel, else None.

    A cyclic chain of pairs is none (see kernel_pair.heads), so a cyclic
    form is malformed, not endless.
    """
    if kernel is Kernel.LIST:
        return v.items if isinstance(v, ProperList) else None
    return kernel_pair.heads(v)


def _kept(form, kernel):
    """The node form keeps for kernel, or None if it keeps none."""
    if form.__class__ is _FORM[kernel]:
        try:
            return form._node
        except AttributeError:
            pass
    return None


def _analyse(form, kernel):
    """The node of a compound form of kernel, made on its first evaluation.

    The node is kept on the form, in the _node slot of its list cell or
    pair, which is no part of the value.  A ProperList is only ever
    a form of the list kernel and a Pair one of the pair kernel, so the
    node a form keeps is its kernel's; a form of the other kernel, and
    any other value, is analysed again each time, into a node that raises.

    The operands of an application with a symbol head and the tests of a
    COND are analysed before it, so that its plan and step can be made
    from their nodes: every form reached from form through them gets its
    node here, before its own first evaluation, on an explicit stack.  A
    form met again inside itself (a cyclic pair-kernel form) has no node
    yet where it is reached, so the loop always evaluates it there.
    """
    todo = [(form, None)]  # (form, its items once its inner forms are queued)
    opened = set()  # ids of the forms whose inner forms are queued
    while todo:
        f, items = todo.pop()
        if items is None:
            if id(f) in opened or (f is not form and _kept(f, kernel) is not None):
                continue
            items = _sequence(f, kernel)
            if items and isinstance(items[0], Symbol) and items[0] not in _LEAVES:
                opened.add(id(f))
                todo.append((f, items))
                inner = items[1:]
                if items[0] is _COND:
                    inner = _clauses(inner, kernel)[0]
                for x in inner:
                    if not isinstance(x, Symbol):
                        todo.append((x, None))
                continue
        node = _node(f, items, kernel)
        if f.__class__ is _FORM[kernel]:
            object.__setattr__(f, "_node", node)  # past __setattr__
    return node  # form's, which is made last


def _node(form, items, kernel):
    """(kind, a, b): what the loop does with form (see _Interp.run).

    _CONSTANT: QUOTE, a is the value.  _CLOSE: LAMBDA, a and b are the
    parameters and the body.  _NAME: LABEL, a and b are the name and the
    body.  _CHOOSE: COND, a is its step.  _APPLY: any other form, a is its
    step and b its plan or None (see _step).  _FAIL: malformed syntax, a
    is the message, so it fails only where it is evaluated.  A node refers
    to form's inner forms, never to form itself, so it is freed with form.
    """
    if items is None:
        detail = f"not an expression of the {kernel.value} kernel: {form!r}"
    elif not items:
        detail = "the empty list is not a form"
    elif items[0] is _QUOTE:
        if len(items) == 2:
            return (_CONSTANT, items[1], None)
        detail = "QUOTE takes exactly one operand"
    elif items[0] is _COND:
        tests, results, end = _clauses(items[1:], kernel)
        return (_CHOOSE, _step(tests, kernel, (results, end))[1], None)
    elif items[0] is _LAMBDA:
        params = _sequence(items[1], kernel) if len(items) == 3 else None
        if len(items) != 3:
            detail = "LAMBDA takes a parameter list and a body"
        elif params is None or not all([isinstance(p, Symbol) for p in params]):
            detail = "LAMBDA parameters must be a list of atoms"
        elif len(set(params)) != len(params):
            detail = "LAMBDA parameters must be distinct"
        else:
            return (_CLOSE, tuple(params), items[2])
    elif items[0] is _LABEL:
        if len(items) == 3 and isinstance(items[1], Symbol):
            return (_NAME, items[1], items[2])
        detail = "LABEL takes an atom and a body"
    else:
        plan, step = _step(items, kernel)
        return (_APPLY, step, plan)
    return (_FAIL, detail, None)


def _clauses(clauses, kernel):
    """(tests, results, end): the clauses up to the first malformed one.

    end is the error of a COND whose tests there all give F: a malformed
    clause raises only once the clauses before it are tried.
    """
    tests, results = [], []
    for c in clauses:
        c = _sequence(c, kernel)
        if c is None or len(c) != 2:
            detail = "each COND clause must be a two-element list"
            return tests, results, (Fault.MALFORMED, detail)
        tests.append(c[0])
        results.append(c[1])
    return tests, results, (Fault.COND_EXHAUSTED, "no COND test evaluated to T")


def _step(forms, kernel, choice=None):
    """(plan, step) of an application, whose items are forms, or a COND.

    A step is (height, head, cache, forms, heads, gets, needs, choice).
    For a COND, forms are its tests, choice is (results, end) (see
    _clauses) and head is None.  For an application, forms are its items,
    head first, choice is None, and head is None unless a symbol.  gets
    and needs are those of the operands or tests (see _operands), heads
    the (symbol, arity) pairs of their plans, and height the levels the
    gets reach above the form.  cache is a list of one entry, (owner, at,
    fns, gets): what _resolve found in an environment of owner(), with at
    the index of the head's binding there (owner is a weak reference; see
    _resolve).  The entry is read once and replaced whole, so a thread
    never sees half of another's; it starts as _NO_ENTRY.

    A plan is (height, heads, head, gets): the application applies head
    to what its operands' gets give, and heads, which here include head,
    are what it needs of fns.  An application has a plan when it has one
    or two operands, as every primitive takes, each operand has a get, its
    height is at most _PLAN_HEIGHT and its head has one arity in the whole
    tree.
    """
    cache = [_NO_ENTRY]
    head = forms[0] if choice is None else None
    if choice is None and not isinstance(head, Symbol):
        return None, (0, None, cache, tuple(forms), (), (), (), None)
    operands = forms if head is None else forms[1:]
    height, heads, gets, needs = _operands(operands, kernel)
    step = (
        height, head, cache, tuple(forms), tuple(heads.items()), gets, needs, choice
    )
    if (
        choice is not None
        or len(gets) not in (1, 2)
        or None in gets
        or height > _PLAN_HEIGHT
        or heads.setdefault(head, len(gets)) != len(gets)
    ):
        return None, step
    return (height, tuple(heads.items()), head, gets), step


def _operands(forms, kernel):
    """(height, heads, gets, needs) of the operands or tests forms.

    gets[i](env, fns) evaluates forms[i] in env without the loop, given
    fns (see _resolve): forms[i] is a symbol, a quoted constant or an
    application with a plan, whose heads are needs[i].  Any other form
    has None, as has a plan that uses a head at another arity than an
    earlier one.  heads maps each symbol of needs to its arity, and the
    height is the highest level the gets reach, at least 1.

    The gets take the steps the loop would take, in the same order, and
    each primitive is called once through its fn.  They push nothing on
    the loop's stack: a plan's nesting is fixed, and the loop checks its
    height against the cap before it runs a get.  A KernelError or an
    unbound symbol raises a _Signal instead, which each nested get adds
    its form to on the way out, so the trace is rebuilt only when there is
    an error.  The gets recurse on the host stack once per level, which
    _PLAN_HEIGHT bounds.
    """
    heads = {}
    height = 1
    gets, needs = [], []
    for x in forms:
        get, need = None, _NO_HEADS
        if isinstance(x, Symbol):
            get = _get_symbol(x, kernel)
        else:  # with no node, x is a form inside itself or none of kernel
            kind, a, plan = _kept(x, kernel) or (_FAIL, None, None)
            if kind == _CONSTANT:
                get = lambda env, fns, constant=a: constant  # noqa: E731
            elif kind == _APPLY and plan is not None:
                sub_height, sub_heads, sub_head, sub_gets = plan
                if all([heads.get(sym, n) == n for sym, n in sub_heads]):
                    heads.update(sub_heads)
                    height = max(height, sub_height + 1)
                    get = _get_nested(x, sub_head, sub_gets)
                    need = frozenset(dict(sub_heads))
        gets.append(get)
        needs.append(need)
    return height, heads, tuple(gets), tuple(needs)


# The needs of a get that needs no head (see _operands).
_NO_HEADS = frozenset()
# (symbol, kernel) -> its get: one per symbol, which lives as long.
_SYMBOL_GETS = {}


def _get_symbol(sym, kernel):
    """The get of sym in kernel, made once and kept in _SYMBOL_GETS."""
    get = _SYMBOL_GETS.get((sym, kernel))
    if get is not None:
        return get
    stands = sym in _SELF[kernel]

    def lookup(env, fns):
        for name, value in env.bindings:
            if name is sym:
                return value
        if stands:
            return sym
        raise _Signal(sym, [sym])

    # setdefault: of two threads making the same get, both keep the first.
    return _SYMBOL_GETS.setdefault((sym, kernel), lookup)


def _get_nested(form, head, gets):
    """The get of form, an application with a plan: head applied to gets',
    of which there are one or two (see _step)."""
    if len(gets) == 1:
        (get,) = gets

        def nested(env, fns):
            try:
                return fns[head](get(env, fns))
            except KernelError as ke:
                raise _Signal(ke, [form])
            except _Signal as s:
                s.args[1].append(form)
                raise

    else:
        get0, get1 = gets

        def nested(env, fns):
            try:
                return fns[head](get0(env, fns), get1(env, fns))
            except KernelError as ke:
                raise _Signal(ke, [form])
            except _Signal as s:
                s.args[1].append(form)
                raise

    return nested


def _address(sym, bindings):
    """The index of sym's innermost binding in bindings, or None if unbound.

    The one walk of an environment: Env.lookup, _Interp._lookup and
    _resolve read through it.  A symbol's get walks inline (see
    _get_symbol), since every owner shares it, so it has no address.
    """
    for at, (name, _) in enumerate(bindings):
        if name is sym:
            return at
    return None


def _resolve(step, env):
    """(at, fns, gets) of a step in env, kept in its cache where that is sound.

    at is the index of the head's binding in env.bindings (None for a
    COND, or if unbound), so the head is env.bindings[at][1].  fns maps
    each symbol of heads that env binds to a Primitive of the arity used,
    and that is no parameter of env's owner, to its fn.  gets is the
    step's, with None for each operand or test whose plan needs a head
    that fns lacks, so that the operand runs as a step.  Only bindings are
    read.

    Every environment of one owner has one layout (see _Interp._bind): the
    owner's parameters, its LABEL name if it has one, then the bindings it
    captured, the same tuple each time.  So a symbol's innermost binding
    sits at one index in each, and a symbol that is no parameter is bound
    to one value in each: the entry, (owner, at, fns, gets), serves every
    environment of its owner, since fns leaves the parameters out.  It
    holds the owner by a weak reference, and no value a head is bound to:
    the owner's body holds the step, so a strong reference there would
    make a cycle, and the closure and its forms would outlive their last
    use until a cycle collection.
    """
    _, head, cache, _, heads, gets, needs, _ = step
    bindings = env.bindings
    at = None if head is None else _address(head, bindings)
    owner = env.owner
    params = () if owner is None else owner.params
    fns = {}
    for sym, arity in heads:
        i = _address(sym, bindings)
        if i is not None and sym not in params:
            value = bindings[i][1]
            if isinstance(value, Primitive) and value.arity == arity:
                fns[sym] = value.fn
    if len(fns) < len(heads):
        gets = tuple([g if n <= fns.keys() else None for g, n in zip(gets, needs)])
    if owner is not None:
        cache[0] = weakref.ref(owner), at, fns, gets
    return at, fns, gets


def eval_sexpr(expr, env=None, kernel=Kernel.LIST, max_depth=DEFAULT_MAX_DEPTH):
    """Evaluate a translated S-expression.

    With env=None the primitives of the active kernel are bound and
    nothing else.
    """
    kernel = Kernel(kernel)
    if env is None:
        env = default_env(kernel)
    return _Interp(kernel, max_depth).run(expr, env)


def apply_fn(fn, args, kernel=Kernel.LIST, max_depth=DEFAULT_MAX_DEPTH):
    """Apply an already-evaluated function value to evaluated arguments."""
    interp = _Interp(kernel, max_depth)
    args = list(args)
    if isinstance(fn, Closure):
        return interp.run(fn.body, interp._bind(fn, args))
    try:
        return interp._apply(fn, args)
    except StopIteration as e:  # as in _Interp.run
        raise RuntimeError("generator raised StopIteration") from e


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
