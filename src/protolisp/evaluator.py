"""The universal interpreter over translated S-expressions.

eval_sexpr walks a program expressed as data.  Four head atoms are special
forms: QUOTE returns its operand unevaluated, COND tries (test, result)
clauses in order and requires each test to produce exactly T or F, LAMBDA
builds a closure over the current environment, and LABEL gives the closure
produced by its body a name visible inside that body.  Everything else is
application: head and arguments evaluate left to right, then the head's
value is applied.

An environment is a chain of frames, as LISP 1.5's pairlis conses a
call's bindings onto the a-list it shares: applying a closure makes one
frame of its parameters (and its LABEL name) over the environment the
closure captured, which is shared and never copied, so a call costs the
same whatever is bound around it.  Lookup returns the innermost binding,
and extension never touches the parent.  Closures capture their
definition environment, so scope is lexical; LABEL (or a definition
written with it) is what covers recursion.

The same interpreter runs over either kernel.  Expressions are proper
lists of the active kernel, and the primitive names FIRST/REST/COMBINE and
CAR/CDR/CONS are all bound in both kernels: in the list kernel CONS is
combine and refuses an atomic second argument, in the pair kernel COMBINE
is the unconstrained cons.

Each compound form is analysed once, into a node that has already
decided what the form is: a quoted constant, a COND clause list, a
LAMBDA, a LABEL or an application.  Analysis reads the form alone, and
no binding.  A form is analysed on its first evaluation, or when the
gets of a step it is an operand of are built, and keeps its node in its
_node slot for as long as it lives, so every later evaluation of the
form, in this eval_sexpr or apply_fn call or a later one, starts from
its node: the meta evaluator's bodies are analysed once, not once per
meta_eval.  A ProperList is only ever a form of the list kernel and a
Pair only one of the pair kernel, so the node a form keeps is its own
kernel's; a form of the other kernel, or any other value, is analysed
afresh each time it is evaluated, into a node that raises.  A node
refers to the inner forms of its form and to no interpreter, so it is
freed with its form.  Head atoms, like every symbol, are interned, so
dispatch and variable lookup are identity tests.  Malformed syntax
analyses to a node that raises, so it still fails only when it is
evaluated.

Evaluation runs on its own stack, not the host's.  One loop,
_Interp.run, takes an expression to its value.  Where the universal
function recurses for the value of an operand, a COND test or a LABEL
body, the loop pushes a frame and goes on with that expression, and
resumes the frame with the value: the recursion's continuation,
defunctionalized (Danvy and Nielsen, "Defunctionalization at work", PPDP
2001), which makes the loop a CEK machine (Felleisen and Friedman, 1986).
A frame holds the form's node, the environment, the gets of its operands
or tests, the values so far, and the height of the stack of expressions
under evaluation with the form on top.  A closure body and a COND's
chosen result need no frame; their value is the form's.

An application with a symbol head, and a COND, is a step.  Where the
loop meets a step in an environment, it first resolves it there (see
below): it reads the binding of its head, and builds a get for each
operand or test that can be evaluated in place.  A symbol and a quoted
constant have one.  So has a plan: an application of one or two
operands that have gets, whose head is bound to a primitive of that
arity, in a tree at most eight high.  Most of the universal function is
primitives applied to primitives, eq[first[e]; QUOTE],
first[rest[rest[fn]]], and a plan applies such a tree in one go: the
superinstruction of Piumarta and Riccardi ("Optimizing direct threaded
code by selective inlining", PLDI 1998), chosen here by the bindings
rather than by the form alone.  The loop evaluates the operands or tests
through their gets, up to the first that has none, such as append's
app[rest[x]; y] in combine[first[x]; app[rest[x]; y]].  There the step
suspends: the loop pushes its frame and goes on with that operand, and
resumes the step in place when the value comes back.  It then calls the
primitive, or binds the closure's parameters and goes on with its body,
or goes on with the chosen result.

A get pushes nothing on the stack of expressions under evaluation: its
nesting is fixed, and the height the step's gets reach is checked
against the depth cap before any runs.  Where it does not fit, or an
application's head is unbound or not a symbol, the loop evaluates each
operand, head or test itself, checking the cap at each.  Where a
primitive faults or a symbol is unbound inside a get, the error is
raised as a signal that each nested application it leaves adds itself
to, and the loop rebuilds the trace from that path: what the trace costs
is paid on the raise, not on the way in, as with the zero-cost
exceptions of CPython 3.11.  So the order, the primitive calls, the
errors and the traces are those of the universal function.  There is no
tail-call elimination: a form stays on the stack until the body or
result it goes on with has its value, as in the universal function, so
the depth, where it runs out and every trace stay the same.

A step keeps what it resolved, per owning closure: the inline cache of
Deutsch and Schiffman ("Efficient implementation of the Smalltalk-80
system", POPL 1984).  Applying a closure makes a frame of its
parameters, then its LABEL name (bound to the closure itself), over the
environment it captured; the closure owns the environment this makes.
Every environment of one owner is such a frame over the same captured
environment, so a symbol's innermost binding sits at one address in all
of them, (frames up, index in that frame), its lexical address (SICP,
section 5.5.6), and only the parameters' values differ.  So a step
keeps, under the owner, a get of its head by that address, which reads
the head on every hit, and its gets, of which a symbol's reads it by its
address too; no get applies a parameter, so a plan whose head is a
parameter gets no get, and runs as a step.  A recursive function and the
meta evaluator re-enter one closure object on every call, so nearly
every step is resolved once.  The key is the closure and not the scope:
one form object can sit in several scopes, and one LAMBDA form makes
closures over different environments, but each environment has at most
one owner.  Other environments have none, and a step is
resolved each time it is evaluated in one.  The cache lives on the step,
so it outlives a run: a closure that a later call applies again, such as
the meta evaluator of a universal_env, finds its steps resolved.  It
keeps no value a head is bound to, only the functions of the primitives
its plans apply, and refers to its owner weakly, so that a closure's
body keeps no closure alive, itself included.  Its entry is one tuple,
read once and replaced whole, so a thread that evaluates a form another
thread evaluates too sees one owner's answer, never parts of two.

Evaluation depth is the number of expressions under evaluation, capped
(default 10000, configurable); passing the cap raises an EvalError of kind
DEPTH_EXCEEDED.  Any cap works, since only memory bounds that loop's
stack.
"""

from dataclasses import dataclass, replace

from . import kernel_list, kernel_pair
from .errors import EvalError, Fault, KernelError
from .translate import translate
from .values import NIL, NULL, Pair, ProperList, Symbol, list_to_pair

import enum
import weakref


class Kernel(enum.Enum):
    LIST = "list"
    PAIR = "pair"

    # Members are singletons, equal only to themselves: hashing by identity
    # keeps Enum's Python-level __hash__ off every per-kernel table lookup.
    __hash__ = object.__hash__


DEFAULT_MAX_DEPTH = 10_000

T = Symbol("T")
F = Symbol("F")

_QUOTE = Symbol("QUOTE")
_COND = Symbol("COND")
_LAMBDA = Symbol("LAMBDA")
_LABEL = Symbol("LABEL")

# The height of the highest tree of applications that has a plan; see _get.
_PLAN_HEIGHT = 8

# The kinds of node (see _node): what the loop does with the form.
# The two whose node holds a step come first (see _Interp.run).
_APPLY, _CHOOSE, _CONSTANT, _CLOSE, _NAME, _FAIL = range(6)

# The entry of a step's empty cache: its owner is None, which owns nothing
# (see _resolve).
_NO_ENTRY = (lambda: None, None, 1, ())


class Env:
    """An environment: a frame of bindings over the environment it extends.

    names and values are the frame's own bindings, first the innermost,
    and parent is the environment it extends, or None: it is shared, never
    copied.  The environment that applying a closure makes is one frame of
    its parameters, then its LABEL name, over the environment the closure
    captured, and records that closure as its owner (see _Interp._bind);
    every other environment has owner None.  Env(bindings) is one frame of
    bindings, and extend copies only the innermost frame, so that a
    program's top level stays one frame.

    bindings is every binding in scope, innermost first, the frames
    flattened; equality, the hash and repr are those of bindings alone.
    No slot can be assigned or deleted, and copy and pickle keep owner.
    """

    __slots__ = ("names", "values", "parent", "owner")

    def __new__(cls, bindings=()):
        return _frame((), (), None, None).extend(bindings)

    @property
    def bindings(self):
        out, env = [], self
        while env is not None:
            out += zip(env.names, env.values)
            env = env.parent
        return tuple(out)

    def lookup(self, name: Symbol):
        at = _address(name, self)
        if at is None:
            raise LookupError(name.name)
        return _get_at(at)(self)

    def extend(self, pairs) -> "Env":
        pairs = tuple(pairs)
        names = tuple([name for name, _ in pairs]) + self.names
        values = tuple([value for _, value in pairs]) + self.values
        return _frame(names, values, self.parent, None)

    def __setattr__(self, attr, value):
        raise AttributeError(f"cannot assign to field {attr!r} of an environment")

    def __delattr__(self, attr):
        raise AttributeError(f"cannot delete field {attr!r} of an environment")

    def __eq__(self, other):
        if other.__class__ is not Env:
            return NotImplemented
        return self.bindings == other.bindings

    def __hash__(self):
        return hash((self.bindings,))

    def __repr__(self):
        return f"Env(bindings={self.bindings!r})"

    def __reduce__(self):
        return _frame, (self.names, self.values, self.parent, self.owner)


# The stores of Env's slots, which go round its __setattr__: only _frame and
# _Interp._bind, which makes a frame on every closure call, use them.
_NAMES, _VALUES, _PARENT, _OWNER = (
    Env.names.__set__, Env.values.__set__, Env.parent.__set__, Env.owner.__set__
)


def _frame(names, values, parent, owner):
    """The environment of those slots."""
    env = object.__new__(Env)
    _NAMES(env, names)
    _VALUES(env, values)
    _PARENT(env, parent)
    _OWNER(env, owner)
    return env


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


def _atom(x):
    return T if isinstance(x, Symbol) else F


def _eq(x, y):
    if x.__class__ is Symbol and y.__class__ is Symbol:
        return T if x is y else F
    return T if kernel_list.eq(x, y) else F  # raises the kernel's fault


def _null(x):
    return T if x is NULL else F


def _nil(x):
    return T if x is NIL else F


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
            "ATOM": (1, _atom),
            "EQ": (2, _eq),
            "NULL": (1, _null),
        }
    else:
        ops = {
            "CAR": (1, kernel_pair.car),
            "FIRST": (1, kernel_pair.car),
            "CDR": (1, kernel_pair.cdr),
            "REST": (1, kernel_pair.cdr),
            "CONS": (2, kernel_pair.cons),
            "COMBINE": (2, kernel_pair.cons),
            "ATOM": (1, _atom),
            "EQ": (2, _eq),
            "NULL": (1, _nil),
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
        a step (see _resolve), a LABEL by its body.  What a form does not
        evaluate in place is evaluated above its frame, (node, env, gets,
        values, level): gets are what _resolve gave the step (all None
        where the loop evaluates every item), values holds the head's and
        the operands' values so far, or an F for each test that gave F, and
        level is len(self.stack) with the form on top, to which the stack
        is cut back before the frame resumes.  A form's node is the one it
        keeps from an earlier evaluation, in this run or another, or is
        made now (see _analyse).  A _Signal from a get becomes its
        EvalError here, with the trace rebuilt.
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
                        _, cache, forms, choice = step
                        owner, head, height, gets = cache[0]
                        if not (owner() is env.owner is not None):
                            head, height, gets = _resolve(step, env, kernel)
                        if len(stack) + height > max_depth:
                            head, gets = None, (None,) * len(forms)
                        fn = None if head is None else head(env)
                        if choice is not None:
                            for i, get in enumerate(gets):
                                if get is None:
                                    break
                                t = get(env)
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
                                args.append(get(env))
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
                        frames.append((node, env, gets, values, len(stack)))
                        expr = forms[len(values)]
                        continue
                    if kind == _CONSTANT:
                        value = step
                        break
                    if kind == _CLOSE:
                        value = Closure(step, body, env)
                        break
                    if kind == _NAME:
                        frames.append((node, env, None, None, len(stack)))
                        expr = body
                        continue
                    raise self._error(Fault.MALFORMED, step)
                while frames:  # resume the top frame with value
                    node, env, gets, values, level = frames[-1]
                    del stack[level:]
                    kind, step, _ = node
                    if kind == _APPLY:
                        forms = step[2]
                        values.append(value)
                        i = len(values)
                        while i < len(forms) and gets[i - 1] is not None:
                            values.append(gets[i - 1](env))
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
                        _, _, forms, (results, end) = step
                        i = len(values)  # the test whose value this is
                        while value is F and i + 1 < len(forms) and gets[i + 1]:
                            i += 1
                            value = gets[i](env)
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
        at = _address(sym, env)
        if at is not None:
            return _get_at(at)(env)
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
        """The environment that applying closure fn to args makes; fn owns it.

        It is one frame over fn.env, which is shared: the parameters bound
        to args, then fn's LABEL name, if it has one, bound to fn.  This is
        _frame, inline.
        """
        params = fn.params
        if len(args) != len(params):
            raise self._error(
                Fault.ARITY,
                f"closure expects {len(params)} argument(s), got {len(args)}",
            )
        env = object.__new__(Env)
        if fn.self_name is None:
            _NAMES(env, params)
            _VALUES(env, tuple(args))
        else:
            _NAMES(env, (*params, fn.self_name))
            _VALUES(env, (*args, fn))
        _PARENT(env, fn.env)
        _OWNER(env, fn)
        return env


# Per kernel: the class of its compound forms, the only ones that keep a
# node (see _analyse), and the atoms that stand for themselves unbound.  A
# binding wins over self-evaluation, so a LABEL named T or F still works.
_FORM = {Kernel.LIST: ProperList, Kernel.PAIR: Pair}
_SELF = {Kernel.LIST: (T, F), Kernel.PAIR: (T, F, NIL)}


class _Signal(Exception):
    """A kernel fault or an unbound symbol inside a get, on its way to the loop.

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


def _analyse(form, kernel):
    """The node of form for kernel: the one it keeps, or one made now.

    The node is kept on the form, in the _node slot of its list cell or
    pair, which is no part of the value.  A ProperList is only ever a form
    of the list kernel and a Pair one of the pair kernel, so the node a
    form keeps is its kernel's; a form of the other kernel, and any other
    value, is analysed again each time, into a node that raises.  Only
    form itself is analysed: its inner forms get their nodes where they
    are evaluated, or where a step's gets are built (see _get).
    """
    if form.__class__ is not _FORM[kernel]:
        return _node(form, _sequence(form, kernel), kernel)
    try:
        return form._node
    except AttributeError:
        node = _node(form, _sequence(form, kernel), kernel)
        object.__setattr__(form, "_node", node)  # past __setattr__
        return node


def _node(form, items, kernel):
    """(kind, a, b): what the loop does with form (see _Interp.run).

    _CONSTANT: QUOTE, a is the value and b its get (see _get).  _CLOSE:
    LAMBDA, a and b are the parameters and the body.  _NAME: LABEL, a and
    b are the name and the body.  _CHOOSE: COND, and _APPLY: any other
    form, a is its step (see _resolve).  _FAIL: malformed syntax, a is the
    message, so it fails only where it is evaluated.  A node refers to
    form's inner forms, never to form itself, so it is freed with form.
    """
    if items is None:
        detail = f"not an expression of the {kernel.value} kernel: {form!r}"
    elif not items:
        detail = "the empty list is not a form"
    elif items[0] is _QUOTE:
        if len(items) == 2:
            constant = items[1]
            return (_CONSTANT, constant, lambda env: constant)
        detail = "QUOTE takes exactly one operand"
    elif items[0] is _COND:
        tests, results, end = _clauses(items[1:], kernel)
        return (_CHOOSE, (None, [_NO_ENTRY], tuple(tests), (results, end)), None)
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
        head = items[0] if isinstance(items[0], Symbol) else None
        return (_APPLY, (head, [_NO_ENTRY], tuple(items), None), None)
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


def _resolve(step, env, kernel):
    """(head, height, gets) of a step in env, kept in its cache where that is sound.

    A step is (head, cache, forms, choice).  For an application, forms
    are its items, head first, head is that symbol or None, and choice is
    None.  For a COND, forms are its tests, head is None and choice is
    (results, end) (see _clauses).  cache is a list of one entry, (owner,
    head, height, gets), which starts as _NO_ENTRY.

    The head resolves to the get of its binding's address (see _get_at),
    so the head is head(env); it is None for a COND, or if unbound.  gets
    holds one get per operand or test, or None where the loop evaluates it
    (see _get); an application whose head the loop evaluates gets none.
    height is the highest level the gets reach above the step's form, and
    at least 1, the level of the head or first test the loop would push
    itself, so that a step on the cap leaves the cap to the loop.  Only
    bindings are read.

    Every environment of one owner is a frame of the owner's parameters,
    then its LABEL name if it has one, over the environment it captured,
    the same object each time (see _Interp._bind).  So a symbol's
    innermost binding sits at one address in each, and a symbol bound
    above the frame is bound to one value in each: the entry serves every
    environment of its owner, since no plan applies a parameter.  It holds
    the owner by a weak reference, and no value a head is bound to, only
    the functions of the primitives its gets apply: the owner's body holds
    the step, so a strong reference there would make a cycle, and the
    closure and its forms would outlive their last use until a cycle
    collection.  The entry is read once and replaced whole, so a thread
    never sees half of another's.  An environment of no owner has its step
    resolved each time.
    """
    head, cache, forms, choice = step
    owner = env.owner
    at = None if head is None else _address(head, env)
    height, gets = 1, []
    if at is not None or choice is not None:
        params = () if owner is None else owner.params
        for x in forms if choice is not None else forms[1:]:
            get, reach = _get(x, _PLAN_HEIGHT + 1, env, params, kernel)
            gets.append(get)
            height = max(height, reach)
    head = None if at is None else _get_at(at)
    if owner is not None:
        cache[0] = weakref.ref(owner), head, height, gets
    return head, height, gets


def _get(x, room, env, params, kernel):
    """(get, reach): how an operand or test x of a step is evaluated in place.

    get(env) evaluates x in env, or in an environment of env's owner,
    without the loop, and reach is the highest level it takes above the
    form x is an operand of, at most room; or get is None, and the loop
    evaluates x.  x has a get when it is a symbol (see _get_at and
    _get_unbound), a quoted constant, or a plan: an application of one or
    two operands, each with a get, whose head is no parameter of the owner
    (params) and is bound to a Primitive of that arity.  A step's operands
    have room _PLAN_HEIGHT + 1, so a plan's tree is at most _PLAN_HEIGHT
    high.

    The gets take the steps the loop would take, in the same order, and
    each primitive is called once through its fn.  They push nothing on
    the loop's stack: a plan's nesting is fixed, and the loop checks its
    reach against the cap before it runs a get.  A KernelError or an
    unbound symbol raises a _Signal instead, which each nested get adds
    its form to on the way out, so the trace is rebuilt only when there is
    an error.  The gets recurse on the host stack once per level, which
    _PLAN_HEIGHT bounds, as it bounds this walk.
    """
    if isinstance(x, Symbol):
        at = _address(x, env)
        return (_get_unbound(x, kernel) if at is None else _get_at(at)), 1
    kind, step, get = _analyse(x, kernel)
    if kind == _CONSTANT:
        return get, 1
    if kind != _APPLY or room < 2:
        return None, 0
    head, _, forms, _ = step
    if head is None or head in params or not 2 <= len(forms) <= 3:
        return None, 0
    # The last operand first: lists nest there, so a tree too high for a
    # plan fails after a visit to each node, before a binding is read.
    last, reach = _get(forms[-1], room - 1, env, params, kernel)
    if last is None:
        return None, 0
    at = _address(head, env)
    prim = None if at is None else _get_at(at)(env)
    if not (isinstance(prim, Primitive) and prim.arity == len(forms) - 1):
        return None, 0
    if len(forms) == 2:
        return _get_nested(x, prim.fn, [last]), reach + 1
    first, first_reach = _get(forms[1], room - 1, env, params, kernel)
    if first is None:
        return None, 0
    return _get_nested(x, prim.fn, [first, last]), max(reach, first_reach) + 1


# Address -> the get of the binding there: one per address, shared by every
# owner, which lives as long as the module.
_ADDRESS_GETS = {}


def _get_at(at):
    """The get of the binding at address at, made once and kept in _ADDRESS_GETS.

    at is (up, i): the binding is the i-th of the frame up parents above
    the innermost (see _address).
    """
    get = _ADDRESS_GETS.get(at)
    if get is not None:
        return get
    up, i = at
    if up == 0:

        def get(env):
            return env.values[i]

    elif up == 1:

        def get(env):
            return env.parent.values[i]

    else:

        def get(env):
            for _ in range(up):
                env = env.parent
            return env.values[i]

    # setdefault: of two threads making the same get, both keep the first.
    return _ADDRESS_GETS.setdefault(at, get)


# Per kernel, symbol -> its get where it is unbound: one per symbol, which
# lives as long.
_UNBOUND_GETS = {kernel: {} for kernel in Kernel}


def _get_unbound(sym, kernel):
    """The get of sym where it is unbound in kernel, made once and kept.

    It reads no binding: an entry serves only environments in which sym
    is unbound too (see _resolve).  It gives sym where sym stands for
    itself, and raises a _Signal otherwise.
    """
    gets = _UNBOUND_GETS[kernel]
    get = gets.get(sym)
    if get is not None:
        return get
    if sym in _SELF[kernel]:

        def get(env):
            return sym

    else:

        def get(env):
            raise _Signal(sym, [sym])

    return gets.setdefault(sym, get)


def _get_nested(form, fn, gets):
    """The get of form, a plan: fn applied to what gets give, of which there
    are one or two (see _get)."""
    if len(gets) == 1:
        (get,) = gets

        def nested(env):
            try:
                return fn(get(env))
            except KernelError as ke:
                raise _Signal(ke, [form])
            except _Signal as s:
                s.args[1].append(form)
                raise

    else:
        get0, get1 = gets

        def nested(env):
            try:
                return fn(get0(env), get1(env))
            except KernelError as ke:
                raise _Signal(ke, [form])
            except _Signal as s:
                s.args[1].append(form)
                raise

    return nested


def _address(sym, env):
    """The address (up, i) of sym's innermost binding in env, or None if unbound.

    The binding is the i-th of the frame up parents above env (see Env).
    This is the one search of an environment for a symbol: Env.lookup,
    _Interp._lookup, _resolve and _get read through it.
    """
    up = 0
    while env is not None:
        names = env.names
        if sym in names:
            return up, names.index(sym)
        env = env.parent
        up += 1
    return None


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
