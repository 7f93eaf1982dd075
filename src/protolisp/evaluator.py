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
same whatever is bound around it.  As pairlis is one step, so is making
that frame: one call builds a tuple of its names, values, parent and
owner, and its names are the layout the closure worked out once, when it
was made: its parameters, then its LABEL name.  The loop and apply_fn
both make it through _Interp._bind, and no field of a frame is ever
assigned.  Lookup returns the innermost binding, and extension never
touches the parent.  Closures capture their definition environment, so
scope is lexical; LABEL (or a definition written with it) is what covers
recursion.

The same interpreter runs over either kernel.  Expressions are proper
lists of the active kernel, and the primitive names FIRST/REST/COMBINE and
CAR/CDR/CONS are all bound in both kernels: in the list kernel CONS is
combine and refuses an atomic second argument, in the pair kernel COMBINE
is the unconstrained cons.

Each compound form is analysed once, into a node that has already
decided what the form is: a quoted constant, a COND clause list, a
LAMBDA, a LABEL or an application.  Analysis reads the form alone, and
no binding.  A form is analysed on its first evaluation, or when the
items of a step it is an operand of are described, and keeps its node
in its _node slot for as long as it lives, so every later evaluation of
the form, in this eval_sexpr or apply_fn call or a later one, starts
from its node: the meta evaluator's bodies are analysed once, not once
per meta_eval.  A ProperList is only ever a form of the list kernel and a
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
A frame holds the form's step, the environment, the runs of its items
or tests, an application's values so far or a COND's next test, and the
height of the stack of expressions under evaluation with the form on
top.  A closure body and a COND's chosen result need no frame; their
value is the form's.

An application and a COND are steps.  An application's items are its head
and its operands, head first, evaluated alike, left to right, as the
universal function evaluates them.  Where the loop meets a step in a
closure's environment, it first resolves it (see below): it describes
each item or test that can be evaluated in place.  A symbol and a quoted
constant can; an unbound symbol is described too, by the error it
raises.  So can a plan: an application of one or two operands that can,
whose head is a symbol bound to a primitive of that arity, in a tree at
most eight high.  Most of the universal function is primitives applied to
primitives, eq[first[e]; QUOTE], first[rest[rest[fn]]], and a plan
applies such a tree in one go: the superinstruction of Piumarta and
Riccardi ("Optimizing direct threaded code by selective inlining", PLDI
1998), chosen here by the bindings rather than by the form alone.  The
items are cut at each that has no run, such as a LAMBDA head, or
append's app[rest[x]; y] in combine[first[x]; app[rest[x]; y]], and each
run of up to eight items between cuts becomes one Python function of
straight-line code, which reads each symbol at its address and applies
each primitive in turn.  It calls a primitive's function, unless that is
one of the kernel's own, FIRST, REST, CAR, CDR, ATOM, EQ or NULL: their
type test and field read are inline in the run's code, which calls the
function, on the same line, only where the test fails, as Chambers and
Ungar's customized code does ("Customization: optimizing compiler
technology for SELF", PLDI 1989).  Those are pure and a frame never
changes, so a tree of them over addresses alone, first[e] say, is
computed once in a run, and its value serves every later place in the
run that it reaches only through that computation, the later tests of a
COND and the result its test chooses.  For an application it gives the
items' values.  A COND's run goes on into the clause it picks, whose
result it describes too: a result that can be evaluated in place gives
the COND's value; an application whose items all can be is a tail exit,
whose items the run evaluates, for the loop to push the form and bind or
apply, as Steele's "Lambda: the ultimate GOTO" (MIT AI Memo 443, 1977)
has a tail call be a jump with arguments; a nested COND whose tests can
be folds into the run the same way.  A tail exit to the closure's own
LABEL name, with as many operands as it has parameters, from a COND that
is the closure's body, is a jump back into that body, as LABEL's
recursion is in McCarthy's universal function: the run makes the call's
frame itself, as _Interp._bind would, and goes on from its first test,
where the COND has one run for all its tests and leaves no result to the
loop.  A result that is an application whose first item without a run is
a call, append's combine[first[x]; app[rest[x]; y]], is held: the run
evaluates its items up to and including the call's, and the loop pushes
the result's form and its frame as though it had met the result's step
and suspended there, and binds or applies the call.  Any other result the
loop goes on with, as it goes on with the result of every test it
evaluates itself that gives T.  An application's item that is a call, an
application whose items all can be evaluated in place, as a tail exit's
can, such as app[rest[x]; y] above, is taken the same way: the step
keeps, beside its runs, a run of the call's own that evaluates those
items, with the text a tail exit's items get.  Its text is made from the
run's shape alone, the addresses, the kinds of leaf and of result and
the arities, and compiled once per shape; the primitives, constants and
forms are its arguments, never its text.  The loop calls the runs up to
the first item that has none.  There the step suspends: the loop pushes
its frame, and either goes on with that item, or, where it is a call,
calls the call's run, pushes the call's form and binds or applies the
head's value, as at a tail exit, so that it never meets the call's own
step; it resumes the step in place when the value comes back.  Meeting a
step and resuming it are one block of the loop, which takes the step on
from its next item, with no value or with that item's; when the values
are complete it binds the head's closure's parameters and goes on with
its body, or calls the head's primitive, in the one place that binds or
applies.

A run's nesting is fixed, and the height the step's runs reach, chosen
results included, and a held result's own runs above its form, is
checked against the depth cap before any is called.  Where it does not
fit, the loop evaluates each item, test or result itself, checking the
cap at each.  A run pushes on the stack of expressions under evaluation
only where it loops: each turn pushes what the loop would have, the
nested COND forms the call is in, the call's form and the body, and
takes the turn only where the body's runs fit under the cap above them;
where they do not, the run hands the call back as a tail exit, so the
loop pushes, binds and runs out of depth as it always does.  Where a
primitive faults, a symbol is unbound, a test gives no truth value or a
nested COND runs out of clauses inside a run, the run raises a signal
with the forms the loop would have had on its stack there, which it
finds from the line the fault is on, and the loop rebuilds the trace
from that path: what the trace costs is paid on the raise, not on the
way in, as with the zero-cost exceptions of CPython 3.11; after a turn,
the forms the turns pushed are under that path, as they would be in the
loop.  A result the loop goes on with, a held result and a tail exit come
back with the forms the loop would have pushed on the way, which it
pushes.  So the order, the errors and the traces are those of the
universal function, and so are the calls of every primitive that can be
observed, a wrapped or counting one or any other that is not the
kernel's own: those are inlined, and one over the same addresses is
computed once per run, which no program can tell.  There is no tail-call
elimination: a form stays on the stack until the body or result it goes
on with has its value, as in the universal function, so the depth, where
it runs out and every trace stay the same.

A step keeps what it resolved, per owning closure: the inline cache of
Deutsch and Schiffman ("Efficient implementation of the Smalltalk-80
system", POPL 1984).  Applying a closure makes a frame of its
parameters, then its LABEL name (bound to the closure itself), over the
environment it captured; the closure owns the environment this makes.
Every environment of one owner is such a frame over the same captured
environment, so a symbol's innermost binding sits at one address in all
of them, (frames up, index in that frame), its lexical address (SICP,
section 5.5.6), and only the parameters' values differ.  So a step
keeps, under the owner, its runs, which read symbols, heads included,
by their addresses on every hit; no run applies a parameter, so a plan
whose head is a parameter is left to the loop, as a step.  A recursive
function and the meta evaluator re-enter one closure object on every
call, so nearly every step is resolved once.  The key is the closure
and not the scope: one form object can sit in several scopes, and one
LAMBDA form makes closures over different environments, but each
environment has at most one owner.  Other environments have none: they
hold code outside any closure, which runs once, so a cache would gain it
nothing, and the loop evaluates every item of its steps itself, as it
does where a step does not fit under the cap.  The cache lives on the
step, so it outlives a run: a closure that a later call applies again,
such as the meta evaluator of a universal_env, finds its steps resolved.
It keeps no value a symbol is bound to, only the functions of the
primitives its runs apply, and refers to its owner weakly, so that a
closure's body keeps no closure alive, itself included.  Its entry is
one tuple, read once and replaced whole, so a thread that evaluates a
form another thread evaluates too sees one owner's answer, never parts
of two.

Evaluation depth is the number of expressions under evaluation, capped
(default 10000, configurable); passing the cap raises an EvalError of kind
DEPTH_EXCEEDED.  Any cap works, since only memory bounds that loop's
stack.
"""

from collections import _tuplegetter
from dataclasses import dataclass, replace

from . import kernel_list, kernel_pair
from .errors import EvalError, Fault, KernelError
from .translate import translate
from .values import NIL, NULL, Pair, ProperList, Symbol, list_to_pair

import enum
import itertools
import threading
import weakref
from types import FunctionType


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

# The most operands or tests one run evaluates; see _resolve.
_RUN_ITEMS = 8

# The shapes of a constant and of an unbound symbol, beside an address
# (up, i) and a plan's (None, ...); see _get.
_CONSTANT_LEAF, _UNBOUND_LEAF = 0, 1

# The most tests of nested CONDs that one run folds into its results; see
# _exit.
_FOLD_TESTS = 32

# What a COND's run gives, (how, x, y) (see _source): _FELL, x tests gave
# F; _VALUE, the COND's value x; _GO, push the forms x and go on with y;
# _TAIL, push x and apply y, (the head's value, the operands' values);
# _HOLD, push x, then a frame of a result's step, and apply its call (see
# _Interp.run).  The loop takes an application's runs as _FELL where an
# item has none, and as _TAIL once every item has its value.  _NEST and
# _LOOP, beside them, are the kinds of a result that is a COND the run
# folds and of a tail call the run loops on (see _exit).
_FELL, _VALUE, _GO, _TAIL, _NEST, _LOOP, _HOLD = range(7)

# The choose of a call's shape, beside 0 and 1, an application's operands
# and a COND's clauses (see _run).
_CALL = 2

# The kinds of node (see _node): what the loop does with the form.
# The two whose node holds a step come first (see _Interp.run).
_APPLY, _CHOOSE, _CONSTANT, _CLOSE, _NAME, _FAIL = range(6)

# The entry of a step's empty cache: its owner is None, which is no
# closure (see _resolve).
_NO_ENTRY = (lambda: None, 1, (), ())

# What the loop has for a step it has just met, where a frame it resumes
# has the value of its next item (see _Interp.run).
_NO_VALUE = object()


class Env(tuple):
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
    flattened; equality, the hash and repr are those of bindings alone,
    and an environment equals only an environment.  A frame is a tuple of
    its four fields, made in one step (see _NEW), so no field can be
    assigned or deleted; copy and pickle keep owner.
    """

    __slots__ = ()
    # The fields, read as namedtuple reads its own.
    names, values, parent, owner = [_tuplegetter(i, None) for i in range(4)]

    def __new__(cls, bindings=()):
        return _NEW(Env, ((), (), None, None)).extend(bindings)

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
        return _read(at, self)

    def extend(self, pairs) -> "Env":
        pairs = tuple(pairs)
        names = tuple([name for name, _ in pairs]) + self.names
        values = tuple([value for _, value in pairs]) + self.values
        return _NEW(Env, (names, values, self.parent, None))

    # Not the tuple's comparisons, by which a frame would equal a tuple of
    # its fields, or be ordered, from either side.
    def __eq__(self, other):
        return other.__class__ is Env and self.bindings == other.bindings

    def __ne__(self, other):
        return not self == other

    def __lt__(self, other):
        raise TypeError("environments are not ordered")

    __le__ = __gt__ = __ge__ = __lt__

    def __hash__(self):
        return hash((self.bindings,))

    def __repr__(self):
        return f"Env(bindings={self.bindings!r})"

    def __reduce__(self):
        return _NEW, (Env, (self.names, self.values, self.parent, self.owner))


# _NEW(Env, (names, values, parent, owner)) is the environment of those
# fields, made in one step, past Env.__new__: the one way every frame is
# made, on every closure call among them (see _Interp._bind).
_NEW = tuple.__new__


@dataclass(frozen=True, init=False)
class Closure:
    """A function value: parameters, body, captured environment.

    self_name, when set by LABEL, is bound to the closure itself on every
    application (after the parameters, which may shadow it).  names, no
    field, is the layout of the frame an application makes (see
    _Interp._bind): the parameters, then self_name if set, worked out once
    when the closure is made, so a plain LAMBDA's is its parameters.  A
    copy or a pickle keeps it with the fields; replace, as LABEL renames
    a closure, makes a new one through __init__, which works out its own.
    """

    params: tuple
    body: object
    env: Env
    self_name: Symbol | None = None

    def __init__(self, params, body, env, self_name=None):
        _SET(self, "params", params)
        _SET(self, "body", body)
        _SET(self, "env", env)
        _SET(self, "self_name", self_name)
        _SET(self, "names", params if self_name is None else (*params, self_name))

    def __repr__(self):
        return f"#<closure ({' '.join([p.name for p in self.params])})>"


# Past the frozen dataclass's __setattr__, as its own __init__ goes.
_SET = object.__setattr__


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


# The kernel's own primitives, which a run computes inline (see _source).
# An entry's place here is its code in a plan's shape (see _get); code 0
# is any other function, which a run calls.  An entry is the function and
# the text of its value over the names of its operands, {0} and {1}: it
# reads the value off where the function would, and calls the function,
# {f}, on the same line everywhere else, so that a fault is the kernel's
# own.  L, P and Y are the classes of list cells, pairs and symbols.  Each
# is pure: its value depends on its operands alone, and it makes nothing.
_INLINE = (
    None,
    (kernel_list.first, "{0}.head if {0}.__class__ is L and {0} is not NULL else {f}({0})"),
    (kernel_list.rest, "{0}.tail if {0}.__class__ is L and {0} is not NULL else {f}({0})"),
    (kernel_pair.car, "{0}.head if {0}.__class__ is P else {f}({0})"),
    (kernel_pair.cdr, "{0}.tail if {0}.__class__ is P else {f}({0})"),
    (_atom, "T if isinstance({0}, Y) else F"),
    (_eq, "(T if {0} is {1} else F) if {0}.__class__ is Y and {1}.__class__ is Y"
          " else {f}({0}, {1})"),
    (_null, "T if {0} is NULL else F"),
    (_nil, "T if {0} is NIL else F"),
)
# By the function's identity: these functions live as long as the module,
# so no other object has their id, and any other callable, hashable or
# not, a wrapped or counting one included, is code 0.
_CODES = {id(entry[0]): code for code, entry in enumerate(_INLINE) if entry}


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
        quoted constant and a LAMBDA at once, an application or a COND as a
        step (see _resolve), a LABEL by its body.  One block advances a step
        from its next item, i: a step the loop has just met enters it at
        item 0 with no value, and a frame it resumes enters it with the
        value of its item i.  There the loop calls the step's runs, from item
        i up to the next item that has none, and takes one outcome, (how, x,
        y), as a COND's run gives it (see _source); an application's is
        _FELL where an item has no run, and _TAIL, with no forms to push,
        once every item has its value.  At _FELL the step suspends in a
        frame, (step, env, runs, calls, done, level): runs and calls are
        what _resolve gave the step (all None outside a closure or over the
        cap, and the loop evaluates every item), done is an application's
        values so far, a list, or a COND's next test, and level is
        len(self.stack) with the form on top, to which the stack is cut back
        when the frame resumes; a LABEL's frame is (name, env, None, None,
        None, level).  Where the item has a call, the call's run gives (head,
        operands), and the outcome is _TAIL with the call's form to push, as
        at a COND's tail exit; otherwise the loop goes on with the
        item.  Where a test that frame resumes with gives T, the outcome is
        _GO to its clause's result.  A COND's run is called with the stack
        and room, the highest level at which its step's runs fit under the
        cap, so that it may loop (see _source); room is stale in a COND
        frame resumed, whose runs never loop, since a COND that loops has
        one run for all its tests and is never suspended.  After a turn the
        loop's env and level are stale: a run that loops gives only _VALUE,
        _TAIL, _HOLD or _FELL with no test left, which read neither.  At
        _HOLD the loop pushes the forms, then a frame of the result's step
        in the env the run ended in, over the values of its items before the
        call, then goes on as at _TAIL with the call's form.  At _TAIL the
        head's value is bound or applied, in the one place that does it.  A
        step that finishes where it starts makes no list and no frame.  A
        MemoryError lets go of the frames and the stack before it goes on,
        so that whatever handles it has memory to do so.  A form's node is
        the one it keeps from an earlier evaluation, in this run or another,
        or is made now (see _analyse).  A _Signal from a run becomes its
        EvalError here, with the trace rebuilt.
        """
        frames = []
        stack = self.stack
        kernel = self.kernel
        form_class = _FORM[kernel]
        max_depth = self.max_depth
        try:
            while True:
                stack.append(expr)  # evaluate expr in env
                level = len(stack)
                if level > max_depth:
                    detail = f"recursion depth exceeded ({max_depth})"
                    raise self._error(Fault.DEPTH_EXCEEDED, detail)
                if isinstance(expr, Symbol):
                    value = self._lookup(expr, env)
                else:
                    if expr.__class__ is form_class:
                        try:
                            node = expr._node
                        except AttributeError:  # not analysed yet
                            node = _keep(expr, kernel)
                    else:
                        node = _analyse(expr, kernel)
                    kind, step, body = node
                    if kind <= _CHOOSE:
                        forms, cache, choice = step
                        ref, height, runs, calls = cache[0]
                        owner = env.owner
                        if ref() is not owner is not None:
                            height, runs, calls = _resolve(step, env, kernel)
                        room = max_depth - height
                        if owner is None or level > room:
                            runs = calls = (None,) * len(forms)  # the loop takes all
                        value = _NO_VALUE
                    elif kind == _CONSTANT:
                        value = step
                    elif kind == _CLOSE:
                        value = Closure(step, body, env)
                    elif kind == _NAME:
                        frames.append((step, env, None, None, None, level))
                        expr = body
                        continue
                    else:
                        raise self._error(Fault.MALFORMED, step)
                while True:  # advance a step, until there is an expression to evaluate
                    if value is not _NO_VALUE:  # that of the top frame's next item
                        if not frames:
                            return value
                        frame = frames.pop()
                        step, env, runs, calls, done, level = frame
                        del stack[level:]
                        if runs is None:  # a LABEL's, whose step is its name
                            if not isinstance(value, Closure):
                                detail = "LABEL body must produce a closure"
                                raise self._error(Fault.MALFORMED, detail)
                            value = replace(value, self_name=step)
                            continue
                        forms, _, choice = step
                    n = len(forms)
                    if choice is None:  # an application
                        if value is _NO_VALUE:
                            i, values = 0, ()
                        else:
                            values = done
                            values.append(value)
                            i = len(values)
                        while i < n:
                            run = runs[i]
                            if run is None:
                                break
                            values += run(env)
                            i = len(values)
                        if i < n:
                            how = _FELL
                        else:
                            how, x, y = _TAIL, (), (values[0], values[1:])
                    else:  # a COND
                        if value is _NO_VALUE:
                            how, i = _FELL, 0
                        elif value is T:  # test done gave T: take its result
                            how, x, y = _GO, (), choice[0][done]
                        elif value is F:
                            how, i = _FELL, done + 1
                        else:
                            raise self._not_truth(value)
                        if how == _FELL:
                            while i < n:
                                run = runs[i]
                                if run is None:
                                    break
                                # room is stale in a resumed frame, whose runs
                                # never loop: a COND that loops has one run.
                                how, x, y = run(env, stack, room)
                                if how != _FELL:
                                    break
                                i += x
                    if how == _FELL:  # item i has no run: take its call, or go on with it
                        if i == n:
                            raise self._error(*choice[1])
                        if choice:
                            frame = (step, env, runs, calls, i, level)
                        elif value is _NO_VALUE:
                            frame = (step, env, runs, calls, [*values], level)
                        frames.append(frame)
                        call = calls[i]
                        if call is None:
                            expr = forms[i]
                            break
                        how, y, x = _TAIL, call(env), (forms[i],)
                    elif how == _HOLD:  # the result's frame, then its call
                        step, runs, calls, done, form, fn, args, env = y
                        stack += x
                        frames.append((step, env, runs, calls, done, len(stack)))
                        how, x, y = _TAIL, (form,), (fn, args)
                    if how == _TAIL:  # the head's value, then the operands'
                        stack += x
                        fn, args = y
                        if isinstance(fn, Closure):
                            env = self._bind(fn, args)
                            expr = fn.body
                            break
                        value = self._apply(fn, args)
                    elif how == _VALUE:
                        value = x
                    else:  # _GO
                        stack += x
                        expr = y
                        break
        except MemoryError:  # let go of what the evaluation holds first
            frames.clear()
            del stack[:]
            raise
        except StopIteration as e:  # a primitive's, raised as PEP 479 has it
            raise RuntimeError("generator raised StopIteration") from e
        except _Signal as s:
            cause, path = s.args
        # A run signalled: the trace is stack as the loop would have left it,
        # with the forms the fault was inside, outermost first, on top.
        stack.extend(reversed(path))
        if isinstance(cause, Symbol):
            raise self._unbound(cause)
        if cause.__class__ is tuple:  # a COND's error: (kind, detail)
            kind, detail = cause
            if kind is Fault.BAD_TRUTH_VALUE:
                raise self._not_truth(detail)
            raise self._error(kind, detail)
        error = self._fault(cause)
        error.__cause__ = error.__context__ = cause  # as raise ... from cause
        raise error

    def _lookup(self, sym, env):
        at = _address(sym, env)
        if at is not None:
            return _read(at, env)
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

        It is one frame over fn.env, which is shared, made in one step from
        fn's layout (see Closure): fn.names, the parameters and then fn's
        LABEL name, if it has one, bound to args and then to fn, so that the
        arity is checked by one comparison of counts.  The loop and apply_fn
        both call it: every call's frame is made here.
        """
        values = tuple(args) if fn.self_name is None else (*args, fn)
        names = fn.names
        if len(values) != len(names):
            raise self._error(
                Fault.ARITY,
                f"closure expects {len(fn.params)} argument(s), got {len(args)}",
            )
        return _NEW(Env, (names, values, fn.env, fn))


# Per kernel: the class of its compound forms, the only ones that keep a
# node (see _analyse), and the atoms that stand for themselves unbound.  A
# binding wins over self-evaluation, so a LABEL named T or F still works.
_FORM = {Kernel.LIST: ProperList, Kernel.PAIR: Pair}
_SELF = {Kernel.LIST: (T, F), Kernel.PAIR: (T, F, NIL)}


class _Signal(Exception):
    """An error inside a run, on its way to the loop.

    args are (cause, path): cause is the KernelError, the unbound symbol,
    or a COND's error as (kind, detail), whose detail is the value itself
    for a bad truth value; path is the forms the loop would have had on
    its stack above the step's form, innermost first, which the run knows
    from where the error is (see _source).  _Interp.run makes it the
    EvalError.
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
    are evaluated, or where a step's items are described (see _get).
    """
    if form.__class__ is not _FORM[kernel]:
        return _node(form, _sequence(form, kernel), kernel)
    try:
        return form._node
    except AttributeError:
        return _keep(form, kernel)


def _keep(form, kernel):
    """The node of form, a form of kernel that has none yet, made and kept on it."""
    node = _node(form, _sequence(form, kernel), kernel)
    object.__setattr__(form, "_node", node)  # past __setattr__
    return node


def _node(form, items, kernel):
    """(kind, a, b): what the loop does with form (see _Interp.run).

    _CONSTANT: QUOTE, a is the value and b what _get gives for it.  _CLOSE:
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
            return (_CONSTANT, items[1], ((_CONSTANT_LEAF, (items[1],)), 1))
        detail = "QUOTE takes exactly one operand"
    elif items[0] is _COND:
        tests, results, end = _clauses(items[1:], kernel)
        return (_CHOOSE, (tuple(tests), [_NO_ENTRY], (results, end)), None)
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
        return (_APPLY, (tuple(items), [_NO_ENTRY], None), None)
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
    """(height, runs, calls) of a step in env, kept in its cache for its owner.

    A step is (forms, cache, choice).  For an application, forms are its
    items, the head first, and choice is None.  For a COND, forms are its
    tests and choice is (results, end) (see _clauses).  cache is a list of
    one entry, (owner, height, runs, calls), which starts as _NO_ENTRY.

    runs holds, per form, the run that evaluates it in place, or None
    where it has none (see _get).  An application's head is its item 0,
    described like every operand, so an unbound head is a leaf whose run
    signals before any operand is evaluated.  The items are cut at each
    that has none, and after every _RUN_ITEMS, and each run of items
    between cuts is one function, compiled for its shape (see _run):
    run(env) gives the values of an application's items, left to right.
    A COND's run takes its tests in turn, and takes the result of the
    first that gives T, so each test in a run has its clause's result
    described with it (see _exit): run(env) gives (how, x, y) (see
    _source).  Where the loop evaluates a test, it goes on with that
    clause's result itself, so nothing is described or compiled for that
    result.  Each item of a run holds it, and the loop calls it at its
    first.  calls holds, per form, None, or the run of an application's
    item that has no run and is a call (see _call): run(env) gives (head
    value, operand values), as a COND's tail exit does, for the loop to
    bind or apply (see _Interp.run), which reads it only where runs holds
    None.  A COND's tests have no calls: the loop evaluates each test that
    has no run.  height is the highest level the runs and calls reach
    above the step's form, results included, and at least 1, the level of
    the first item the loop would push itself, so that a step on the cap
    leaves the cap to the loop.  Only bindings are read, in one walk of
    the items and the results that describes them and builds their shape.
    A COND's tail calls to its owner loop (see _exit) only where the COND
    is the owner's body, one run takes all its tests, at most _RUN_ITEMS,
    and no result, nested ones included, is left to the loop (_GO): after
    a turn, any other outcome would meet the loop's stale environment and
    level.  Where that fails they are tail exits (see _tails).

    Every environment of one owner is a frame of the owner's parameters,
    then its LABEL name if it has one, over the environment it captured,
    the same object each time (see _Interp._bind).  So a symbol's
    innermost binding sits at one address in each, and a symbol bound
    above the frame is bound to one value in each: the entry serves every
    environment of its owner, since no plan applies a parameter.  It holds
    the owner by a weak reference, and no value a symbol is bound to, only
    the functions of the primitives its runs apply: the owner's body holds
    the step, so a strong reference there would make a cycle, and the
    closure and its forms would outlive their last use until a cycle
    collection.  The entry is read once and replaced whole, so a thread
    never sees half of another's.  env always has an owner: the loop
    evaluates a step of any other environment itself (see _Interp.run).
    """
    forms, cache, choice = step
    owner = env.owner
    params = owner.params
    height, runs, calls = 1, [], [None] * len(forms)
    shape, objs, budget = [1 if choice else 0], [], _FOLD_TESTS
    loop = choice and _analyse(owner.body, kernel)[1] is step
    for j, x in enumerate(forms):
        item, reach = _get(x, _PLAN_HEIGHT + 1, env, params, kernel)
        if item is None or len(shape) > _RUN_ITEMS:
            if loop:  # no one run takes every test: its tail calls stay tail exits
                shape[1:], loop = _tails(shape[1:]), False
            if len(shape) > 1:  # the items so far make a run
                runs += [_run(shape, objs)] * (len(shape) - 1)
                del shape[1:], objs[:]
            budget = _FOLD_TESTS
        if item is None:
            runs.append(None)
            if not choice:
                item, reach = _call(x, _PLAN_HEIGHT + 1, env, params, kernel)
                if item is not None:
                    calls[j] = _run((_CALL, *item[0]), item[1])
                    height = max(height, reach)
            continue
        if choice:  # the clause's result, taken in the run that picks it
            got, got_reach, tests = _exit(
                choice[0][j], _PLAN_HEIGHT + 1, env, params, kernel, budget, loop
            )
            budget -= tests
            item = (item[0], got[0]), item[1] + got[1]
            reach = max(reach, got_reach)
        shape.append(item[0])
        objs += item[1]
        if reach > height:
            height = reach
    if loop and _GO in _kinds(shape[1:], set()):  # a result left to the loop
        shape[1:] = _tails(shape[1:])
    if len(shape) > 1:
        runs += [_run(shape, objs)] * (len(shape) - 1)
    cache[0] = weakref.ref(owner), height, runs, calls
    return height, runs, calls


def _get(x, room, env, params, kernel):
    """(item, reach): how an item, test or result x of a step is evaluated in place.

    item describes how x is evaluated in env, and in every environment of
    env's owner, without the loop, and reach is the highest level that
    takes above the form x is an item of, at most room; or item is None,
    and the loop evaluates x.  x has an item when it is a symbol, a
    quoted constant, or a plan: an application of one or two operands,
    each with an item, whose head is a symbol, no parameter of the owner
    (params), bound to a Primitive of that arity.  A step's items have
    room _PLAN_HEIGHT + 1, so a plan's tree is at most _PLAN_HEIGHT high.

    item is (shape, objs).  shape holds only ints, None and tuples: a
    bound symbol's is its address (up, i) (see _address); a constant's,
    and that of an unbound symbol that stands for itself, is
    _CONSTANT_LEAF; any other unbound symbol's is _UNBOUND_LEAF; and a
    plan's is (None, code, shape of each operand): code is the place of
    the primitive's function in _INLINE, or 0.  objs are the objects that
    code of that shape needs, in the order the shape is walked: a
    constant or unbound symbol, and for a plan the primitive's function
    and the plan's form, then its operands'.  The shape and the objs are
    built in this one walk.

    A run takes the steps the loop would take, in the same order, and
    calls each primitive once through its fn, but for the kernel's own,
    which it computes inline, once per run for one over the same
    addresses (see _source).  It pushes nothing on the loop's stack: a
    plan's nesting is fixed, and the loop checks its reach against the
    cap before it calls a run.  A KernelError or an
    unbound symbol raises a _Signal instead, with the forms the loop would
    have pushed (see _source), so the trace is rebuilt only when there is
    an error.  This walk recurses on the host stack once per level, which
    _PLAN_HEIGHT bounds.  A COND's result that has no item may still be
    taken in the run, as a tail exit or a nested COND (see _exit).
    """
    if isinstance(x, Symbol):
        at = _address(x, env)
        if at is not None:
            return (at, ()), 1
        return ((_CONSTANT_LEAF if x in _SELF[kernel] else _UNBOUND_LEAF), (x,)), 1
    kind, step, got = _analyse(x, kernel)
    if kind == _CONSTANT:
        return got
    if kind != _APPLY or room < 2:
        return None, 0
    forms = step[0]
    head = forms[0]
    if not (2 <= len(forms) <= 3 and isinstance(head, Symbol)) or head in params:
        return None, 0
    # The last operand first: lists nest there, so a tree too high for a
    # plan fails after a visit to each node, before a binding is read.
    last, reach = _get(forms[-1], room - 1, env, params, kernel)
    if last is None:
        return None, 0
    at = _address(head, env)
    prim = None if at is None else _read(at, env)
    if not (isinstance(prim, Primitive) and prim.arity == len(forms) - 1):
        return None, 0
    code = _CODES.get(id(prim.fn), 0)
    if len(forms) == 2:
        return ((None, code, last[0]), (prim.fn, x) + last[1]), reach + 1
    first, first_reach = _get(forms[1], room - 1, env, params, kernel)
    if first is None:
        return None, 0
    shape = (None, code, first[0], last[0])
    return (shape, (prim.fn, x) + first[1] + last[1]), max(reach, first_reach) + 1


def _exit(x, room, env, params, kernel, budget, loop):
    """(item, reach, tests): how a run takes x, the result of a COND's clause.

    item is ((kind, shape), objs), as _get's (shape, objs), and kind is:

    - _VALUE where x has an item (see _get), whose shape and objs it is;
      a quoted constant's is read off the form (see _quoted);
    - _TAIL for a call (see _call): shape is the shape of each item, objs
      x then theirs;
    - _LOOP, as _TAIL, for a call whose head is the owner's LABEL name,
      at its address (0, len(params)) (a parameter that shadows it has a
      lower index), with len(params) operands, where loop is true: the
      COND is its owner's body, so the run goes on from its first test in
      the frame the call makes (see _source);
    - _NEST for a COND whose tests all have items, at most budget of them
      with those of the CONDs its results fold in turn: shape holds (shape
      of its test, (kind, shape) of its result) per clause, objs are x,
      its end (see _clauses), then each test's objs and result's;
    - _HOLD for an application whose first item without a run is a call
      (see _hold);
    - _GO, shape None and objs (x,), where the loop evaluates x.

    A nested COND's tests and results have one level less of room, so the
    nesting is bounded.  reach is the highest level the run reaches to
    take x, above the COND whose result x is, or 0 where the loop
    evaluates x, which checks the cap itself; tests is the number of
    nested tests folded.
    """
    quoted = _quoted(x, kernel)
    if quoted is not None:
        return ((_VALUE, _CONSTANT_LEAF), quoted), 1, 0
    item, reach = _get(x, room, env, params, kernel)
    if item is not None:
        return ((_VALUE, item[0]), item[1]), reach, 0
    go = ((_GO, None), (x,)), 0, 0
    item, reach = _call(x, room, env, params, kernel)
    if item is not None:
        shape = item[0]
        own = loop and shape[0] == (0, len(params)) and len(shape) == len(params) + 1
        return ((_LOOP if own else _TAIL, shape), item[1]), reach, 0
    kind, step, _ = _analyse(x, kernel)
    if kind == _APPLY:
        return _hold(x, step, env, params, kernel) or go
    if kind != _CHOOSE or room < 2 or not 0 < len(step[0]) <= budget:
        return go
    tests, _, (results, end) = step
    clauses, objs, reach, used = [], [x, end], 1, len(tests)
    for test, result in zip(tests, results):
        item, t_reach = _get(test, room - 1, env, params, kernel)
        if item is None:
            return go
        got, r_reach, more = _exit(result, room - 1, env, params, kernel, budget - used, loop)
        used += more
        clauses.append((item[0], got[0]))
        objs += item[1] + got[1]
        reach = max(reach, t_reach, r_reach)
    return ((_NEST, tuple(clauses)), tuple(objs)), reach + 1, used


def _hold(x, step, env, params, kernel):
    """(item, reach, 0) of x, a COND's result held in the run that picks it, or None.

    x is an application, and step its step, resolved for env's owner here
    if it is not yet (see _resolve).  x is held where its first item
    without a run, at most the _RUN_ITEMS + 1st, is a call: item is
    ((_HOLD, (shapes of the items before it, shapes of the call's items)),
    objs), and objs are x, step, its runs and calls, then the items' objs
    and the call's (see _call).  The run evaluates those items, and the
    loop pushes x and a frame of step over their values, as it would at
    x's item i, and applies the call (see _Interp.run): the frame resumes
    with the call's value on the runs step has.  reach is 1 + step's
    height, so that those runs fit under the cap wherever the COND's do.
    """
    ref, height, runs, calls = step[1][0]
    if ref() is not env.owner:
        height, runs, calls = _resolve(step, env, kernel)
    if None not in runs:
        return None
    i = runs.index(None)
    if i > _RUN_ITEMS or calls[i] is None:
        return None
    forms = step[0]
    shape, objs = [], [x, step, runs, calls]
    for o in forms[:i]:
        item, _ = _get(o, _PLAN_HEIGHT + 1, env, params, kernel)
        shape.append(item[0])
        objs += item[1]
    item, _ = _call(forms[i], _PLAN_HEIGHT + 1, env, params, kernel)
    return ((_HOLD, (tuple(shape), item[0])), (*objs, *item[1])), height + 1, 0


def _kinds(clauses, into):
    """into, with the kind of each result of clauses, those of nested CONDs too."""
    for _, (kind, k) in clauses:
        into.add(kind)
        if kind == _NEST:
            _kinds(k, into)
    return into


def _tails(clauses):
    """clauses, as _exit describes them, with each _LOOP result a _TAIL."""
    out = []
    for test, (kind, k) in clauses:
        if kind == _NEST:
            k = _tails(k)
        out.append((test, (_TAIL if kind == _LOOP else kind, k)))
    return tuple(out)


def _call(x, room, env, params, kernel):
    """(item, reach) of x as a call, or (None, 0) where x is none.

    A call is an application whose items, head and operands, at most
    _RUN_ITEMS + 1, all have items (see _get): item is (shape of each,
    objs of x then theirs), and reach is the highest level that evaluating
    them takes above the form x is an item or result of.  It is a COND's
    tail exit (see _exit), and an application's item that has a call's
    run (see _resolve).
    """
    kind, step, _ = _analyse(x, kernel)
    if kind != _APPLY or len(step[0]) > _RUN_ITEMS + 1:
        return None, 0
    shape, objs, reach = [], [x], 0
    for o in step[0]:
        item, o_reach = _get(o, room, env, params, kernel)
        if item is None:
            return None, 0
        shape.append(item[0])
        objs += item[1]
        reach = max(reach, o_reach)
    return (tuple(shape), tuple(objs)), reach + 1


def _quoted(x, kernel):
    """(value,) where x is a form of kernel that quotes value, else None.

    It reads the form's cells and makes no node, as _analyse would: a
    COND's results are described where it is resolved, most are never
    evaluated there, and analysing a new one costs several times what
    the rest of its description does.
    """
    if kernel is Kernel.LIST:
        if x.__class__ is ProperList and x.length == 2 and x.head is _QUOTE:
            return (x.tail.head,)
    elif x.__class__ is Pair and x.head is _QUOTE:
        rest = x.tail
        if rest.__class__ is Pair and rest.tail is NIL:
            return (rest.head,)
    return None


# Shape -> the run of that shape with no objs, whose code every run of the
# shape shares (see _run).  It holds no form and no value, so it keeps no
# program alive, and at most _RUNS_KEPT runs: when it is full, the one
# stored last gives way.  It is read without the lock and changed under it.
_RUNS = {}
_RUNS_KEPT = 4096
_RUNS_LOCK = threading.Lock()
_RUN_NUMBERS = itertools.count()


def _run(shape, objs):
    """The run of the items whose shape and objs are these (see _resolve).

    shape is (choose, shape of each item): choose 0 for an application's
    operands, 1 for a COND's clauses, each (shape of its test, (kind,
    shape) of its result) (see _exit), and _CALL for a call's head and
    operands (see _call); objs are the items' objs, a call's after its
    form.  The code of a shape is compiled once (see _source) and kept in
    _RUNS, as a run whose parameters have no defaults; the run is that
    code made a function whose parameters after env, and a COND's stack
    and room, default to objs, then to the values of _TRAILING that its
    text names after them, or that run itself where there are none, as
    where every operand is a symbol, so such runs are made once.
    """
    shape = tuple(shape)
    run = _RUNS.get(shape)
    if run is None:
        with _RUNS_LOCK:
            run = _RUNS.get(shape)
            if run is None:
                # A file name per shape, so that a profile tells shapes apart.
                name = f"<run {next(_RUN_NUMBERS)}>"
                namespace = {}
                exec(compile(_source(shape), name, "exec"), namespace)
                run = FunctionType(namespace["run"].__code__, _RUN_GLOBALS)
                if len(_RUNS) >= _RUNS_KEPT:
                    _RUNS.popitem()
                _RUNS[shape] = run
    code = run.__code__
    lead = 3 if shape[0] == 1 else 1  # env, and a COND's stack and room
    trailing = code.co_varnames[len(objs) + lead:code.co_argcount]
    objs = (*objs, *[_TRAILING[name] for name in trailing])
    if not objs:
        return run
    return FunctionType(code, _RUN_GLOBALS, None, objs)


# The only names a run reads beyond its parameters.
_RUN_GLOBALS = {
    "S": _Signal, "E": KernelError, "F": F, "N": Fault.BAD_TRUTH_VALUE, "NEW": _NEW, "V": Env,
}

# The parameters a run may have after the objs, with their defaults: T for
# a COND's run, which tells T by it, and all of them for a run that
# computes a primitive inline (see _INLINE).  They are parameters, not
# names in _RUN_GLOBALS, so that _RUNS keeps no value alive.
_TRAILING = {"T": T, "NULL": NULL, "NIL": NIL, "L": ProperList, "P": Pair, "Y": Symbol}


def _source(shape):
    """The Python source of the runs of shape (see _run).

    It defines run(env, a0, a1, ...), whose parameters after env (and a
    COND's stack and room) are the objs of the items, then T where a test is
    told from it, or all the names of _TRAILING where a primitive is
    computed inline.  The run reads each frame it needs once, then evaluates
    the items in order, one primitive to a line, and reads each address
    inline.  A primitive with a code (see _INLINE) is its text, over names:
    an address it reads is read into a local first.  known maps the shape of
    each address so read, and of each such plan whose operands are known, to
    the name of its value, for as long as the line that computed it is on
    every way to the line being made: up to the end of the block of a
    clause's result, or to the end of the run.  A plan found there is not
    computed again; that is safe, since those primitives are pure and the
    frames never change, so it gives the same value and cannot fault where
    the line that computed it did not.  An application's run returns the
    items' values.  A COND's run, run(env, stack, room, a0, ...), returns
    (how, x, y): (_FELL, the number of its tests, None) when every test gave
    F; (_VALUE, the value, None); (_GO, forms, form), the loop pushes the
    forms, outermost first, and goes on with form; (_TAIL, forms, (head,
    operands)), the loop pushes the forms and binds or applies the head's
    value to the operands' values; or (_HOLD, forms, (step, runs, calls,
    values, form, head, operands, env)) for a held result (see _hold), whose
    forms end with the result's: the loop pushes them and a frame of step in
    env over values, the items' before the call's form, and applies the call
    as at _TAIL.  A COND whose results loop is one while loop, which reads
    the innermost frame at the top of each turn; those above it are the
    owner's captured ones, the same in every turn.  At a _LOOP result, where
    the level after this turn's pushes is at most room, it pushes the forms
    the loop would have, the nested CONDs' and the call's, then the owner's
    body, which is this COND, makes the call's frame as _Interp._bind makes
    it, and turns; elsewhere it returns the call as _TAIL.  A call's run
    returns (head, operands), in the text a tail exit's gets; the loop
    pushes the call's form once it returns, and the forms of a _Signal from
    it start with that form.  Every item, a tail exit's or a call's head
    included, is read by value(), in order, so an unbound head signals
    before an operand is evaluated.  The text is made from the shape alone,
    so from ints: no symbol, constant or form is ever part of it.  An unbound
    symbol, a test that gives no truth value and a nested COND out of
    clauses raise their _Signal where they are met; one except clause turns
    a KernelError into its _Signal, with the forms the loop would have
    pushed above the step's form, innermost first, found by the line the
    call that raised is on.
    """
    choose, *items = shape
    lines, paths, ups, known = [], {}, [], {}
    count, pad, inline, loops = 0, "", False, False

    def emit(line):
        lines.append(pad + line)

    def take(n):  # the index of the first of the next n objs
        nonlocal count
        count += n
        return count - n

    def tuple_of(indices):
        return "(" + "".join([f"a{a}, " for a in indices]) + ")"

    def value(k, outer):
        # The expression of k's value, after the lines that compute it.
        nonlocal inline
        if k.__class__ is tuple and k[0] is not None:  # an address
            if k[0] not in ups:
                ups.append(k[0])
            return known.get(k) or f"f{k[0]}[{k[1]}]"
        a = take(1)
        if k == _CONSTANT_LEAF:
            return f"a{a}"
        if k == _UNBOUND_LEAF:
            emit(f"raise S(a{a}, {tuple_of((a, *outer))})")
            return "None"
        take(1)  # the primitive's function and the plan's form
        code, operands = k[1], k[2:]
        args = [value(o, (a + 1, *outer)) for o in operands]
        if k in known:  # computed already, on a line every way here passes
            return known[k]
        if code:
            inline = True
            for j, o in enumerate(operands):  # the text names each operand often
                if o.__class__ is tuple and o[0] is not None and o not in known:
                    known[o] = args[j] = f"v{o[0]}_{o[1]}"
                    emit(f"{args[j]} = f{o[0]}[{o[1]}]")
            emit(f"n{a} = " + _INLINE[code][1].format(*args, f=f"a{a}"))
        else:
            emit(f"n{a} = a{a}({', '.join(args)})")
        paths[len(lines)] = (a + 1, *outer)
        if code and all([o in known for o in operands]):  # pure, over addresses only
            known[k] = f"n{a}"
        return f"n{a}"

    def choose_clause(clauses, outer):
        # Each test in turn; the first that gives T takes its result, and
        # what its lines computed is known only there.
        nonlocal pad
        for test, result in clauses:
            emit(f"t = {value(test, outer)}")
            emit("if t is T:")
            pad += "    "
            mark = len(known)
            take_result(result, outer)
            for key in list(known)[mark:]:
                del known[key]
            pad = pad[:-4]
            emit(f"if t is not F: raise S((N, t), {tuple_of(outer)})")

    def call(k, outer):
        # (a, head, operands): the call's form is a{a}, head the value of
        # its item k[0] and operands the text of the tuple of the others',
        # after the lines that compute them.
        a = take(1)
        values = [value(o, (a, *outer)) for o in k]
        return a, values[0], f"({''.join([f'{v}, ' for v in values[1:]])})"

    def take_result(result, outer):
        # Lines that return the outcome of a chosen result, or raise.
        nonlocal loops
        kind, k = result
        if kind == _VALUE:
            emit(f"return ({_VALUE}, {value(k, outer)}, None)")
        elif kind == _GO:
            emit(f"return ({_GO}, {tuple_of(outer[::-1])}, a{take(1)})")
        elif kind == _TAIL or kind == _LOOP:
            a, head, operands = call(k, outer)
            forms = (a, *outer)[::-1]
            if kind == _LOOP:  # the next turn, in the frame _bind would make
                loops = True
                emit(f"if len(stack) <= room - {len(forms) + 1}:")
                emit(f"    stack += ({''.join([f'a{f}, ' for f in forms])}{head}.body)")
                emit(f"    env = NEW(V, (env.names, ({operands[1:-1]}{head},),"
                     f" env.parent, {head}))")
                emit("    continue")
            emit(f"return ({_TAIL}, {tuple_of(forms)}, ({head}, {operands}))")
        elif kind == _HOLD:
            before, k = k
            a = take(4)  # the result's form, its step, runs and calls
            outer = (a, *outer)
            done = "".join([f"{value(o, outer)}, " for o in before])
            c, head, operands = call(k, outer)
            frame = f"a{a + 1}, a{a + 2}, a{a + 3}, [{done}]"
            emit(f"return ({_HOLD}, {tuple_of(outer[::-1])},"
                 f" ({frame}, a{c}, {head}, {operands}, env))")
        else:  # _NEST
            a = take(2)  # the COND's form and its end
            choose_clause(k, (a, *outer))
            emit(f"raise S(a{a + 1}, {tuple_of((a, *outer))})")

    if choose == _CALL:
        _, head, operands = call(items, ())
        emit(f"return ({head}, {operands})")
    elif choose:
        choose_clause(items, ())
        emit(f"return ({_FELL}, {len(items)}, None)")
    else:
        emit(f"return ({''.join([value(k, ()) + ', ' for k in items])})")
    trailing = _TRAILING if inline else ["T"] if choose == 1 else []
    names = [f"a{a}, " for a in range(count)] + [f"{name}, " for name in trailing]
    head = [f"def run(env, {'stack, room, ' if choose == 1 else ''}{''.join(names)}):"]
    head += [f"    f{up} = env{'.parent' * up}.values" for up in ups if up or not loops]
    if loops:  # each turn reads its own frame; those above are the same
        lines = ["while True:", "    f0 = env.values"] + [f"    {line}" for line in lines]
        paths = {n + 2: p for n, p in paths.items()}
    if paths:  # the line of each call, in the text, and its forms
        base = len(head) + 1
        where = ", ".join([f"{base + n}: {tuple_of(p)}" for n, p in paths.items()])
        head.append("    try:")
        lines = [f"    {line}" for line in lines] + [
            "except E as e:",
            f"    raise S(e, {{{where}}}[e.__traceback__.tb_lineno])",
        ]
    return "\n".join(head + [f"    {line}" for line in lines]) + "\n"


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


def _read(at, env):
    """The value of the binding at address at in env (see _address)."""
    up, i = at
    for _ in range(up):
        env = env.parent
    return env.values[i]


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
