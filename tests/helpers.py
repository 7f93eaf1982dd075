"""Shared test machinery: random value generators with fixed seeds,
exhaustive enumerators for small value spaces, messy (non-canonical but
valid) renderings for canonicalization tests, reference oracles for the
little library programs and for the evaluator, and hypothesis strategies.
"""

import itertools
import random
from dataclasses import replace

import hypothesis.strategies as st

from protolisp import (
    DEFAULT_MAX_DEPTH,
    NIL,
    NULL,
    App,
    Closure,
    Cond,
    Const,
    EvalError,
    F,
    Fault,
    Kernel,
    KernelError,
    Label,
    Lambda,
    Pair,
    Primitive,
    ProperList,
    Symbol,
    T,
    Var,
    default_env,
)

A, B, C, D = Symbol("A"), Symbol("B"), Symbol("C"), Symbol("D")
ALPHABET3 = (A, B, C)

_ATOM_NAMES = ("A", "B", "C", "X1", "Y2", "LONGATOM9")
_NIL_FREE_NAMES = tuple(n for n in _ATOM_NAMES if n != "NIL")
_IDENT_NAMES = ("x", "y", "z", "fn1", "g", "acc")


# ---------------------------------------------------------------- random

def random_symbol(rng, names=_ATOM_NAMES):
    return Symbol(rng.choice(names))


def random_list_value(rng, depth, names=_ATOM_NAMES):
    """A list-kernel value of nesting depth at most `depth`."""
    if depth <= 0 or rng.random() < 0.35:
        return random_symbol(rng, names)
    n = rng.randrange(0, 4)
    return ProperList(
        tuple(random_list_value(rng, depth - 1, names) for _ in range(n))
    )


def random_pair_value(rng, depth):
    """A pair-kernel value; NIL appears as an ordinary leaf too."""
    if depth <= 0 or rng.random() < 0.35:
        return rng.choice((NIL,) + tuple(Symbol(n) for n in _NIL_FREE_NAMES))
    return Pair(random_pair_value(rng, depth - 1), random_pair_value(rng, depth - 1))


def random_fexpr(rng, depth):
    """A well-formed F-expression of nesting depth at most `depth`.

    Variable names avoid the words whose uppercase spelling the translator
    reserves, so every generated expression also translates cleanly.
    """
    if depth <= 0:
        return rng.choice(
            (Var(rng.choice(_IDENT_NAMES)), Const(random_list_value(rng, 1)))
        )
    kind = rng.randrange(6)
    if kind == 0:
        return Var(rng.choice(_IDENT_NAMES))
    if kind == 1:
        return Const(random_list_value(rng, depth - 1))
    if kind == 2:
        return App(
            random_fexpr(rng, depth - 1),
            tuple(random_fexpr(rng, depth - 1) for _ in range(rng.randrange(0, 3))),
        )
    if kind == 3:
        return Cond(
            tuple(
                (random_fexpr(rng, depth - 1), random_fexpr(rng, depth - 1))
                for _ in range(rng.randrange(1, 4))
            )
        )
    if kind == 4:
        params = rng.sample(_IDENT_NAMES, rng.randrange(0, 3))
        return Lambda(tuple(params), random_fexpr(rng, depth - 1))
    return Label(rng.choice(_IDENT_NAMES), random_fexpr(rng, depth - 1))


# ------------------------------------------------------------ exhaustive

def enumerate_list_values(depth, atoms=(A, B), max_width=2):
    """Every list-kernel value of the given depth/width bound, atoms included."""
    if depth == 0:
        return list(atoms) + [NULL]
    smaller = enumerate_list_values(depth - 1, atoms, max_width)
    out = list(smaller)
    for n in range(1, max_width + 1):
        for combo in itertools.product(smaller, repeat=n):
            out.append(ProperList(combo))
    return list(dict.fromkeys(out))


def flat_lists(alphabet, max_len):
    """All flat lists over `alphabet` with length 0..max_len."""
    return [
        ProperList(combo)
        for n in range(max_len + 1)
        for combo in itertools.product(alphabet, repeat=n)
    ]


def deep_proper(pv):
    """Properness of a pair structure at every node, heads included."""
    from protolisp.kernel_pair import proper

    if not isinstance(pv, Pair):
        return True
    if not proper(pv):
        return False
    node = pv
    while isinstance(node, Pair):
        if not deep_proper(node.head):
            return False
        node = node.tail
    return True


# ------------------------------------------- messy but valid renderings

def messy_aim8(v, rng):
    """A non-canonical aim8 rendering of v that the reader must accept."""
    pad = lambda: rng.choice(("", " ", "  ", "\t", " # noise\n", "\n"))
    if isinstance(v, Symbol):
        return v.name
    parts = [messy_aim8(x, rng) for x in v.items]
    sep = lambda: rng.choice((", ", " ", ",", "  ,  ", " ,\n", "\t"))
    body = ""
    for i, p in enumerate(parts):
        if i:
            body += sep()
        body += p
    return "(" + pad() + body + pad() + ")"


def messy_classic(v, rng):
    """A non-canonical classic rendering of v: random mix of list sugar,
    explicit dotted tails, commas-as-separators, and stray whitespace."""
    if isinstance(v, Symbol):
        return v.name
    if rng.random() < 0.4:
        return (
            "("
            + messy_classic(v.head, rng)
            + rng.choice((" . ", " .  ", "  . "))
            + messy_classic(v.tail, rng)
            + ")"
        )
    parts = []
    node = v
    while isinstance(node, Pair) and (not parts or rng.random() < 0.8):
        parts.append(messy_classic(node.head, rng))
        node = node.tail
    sep = lambda: rng.choice((" ", "  ", ", ", " , ", "\n"))
    body = sep().join(parts)
    if node == NIL:
        return "(" + body + ")"
    return "(" + body + " . " + messy_classic(node, rng) + ")"


# ----------------------------------------------------- reference oracles

def py_append(x, y):
    return ProperList(x.items + y.items)


def py_member(e, l):
    return Symbol("T") if any(item == e for item in l.items) else Symbol("F")


def py_subst(x, y, z):
    if z == NULL:
        return NULL
    if isinstance(z, Symbol):
        return x if z == y else z
    return ProperList(tuple(py_subst(x, y, item) for item in z.items))


def py_equal(x, y):
    return Symbol("T") if x == y else Symbol("F")


def py_zip(ns, vs):
    return ProperList(
        tuple(ProperList((n, v)) for n, v in zip(ns.items, vs.items))
    )


def py_reverse(x):
    return ProperList(tuple(reversed(x.items)))


def py_last(x):
    return x.items[-1]


def reference_eval(expr, env=None, kernel=Kernel.LIST, max_depth=DEFAULT_MAX_DEPTH):
    """eval_sexpr as the plain recursive universal function, for comparison.

    It recurses on the host stack, so a caller must be ready for a
    RecursionError.  The expressions under evaluation are kept in a list,
    as eval_sexpr keeps them, so the errors carry the same kinds,
    messages and traces.
    """
    kernel = Kernel(kernel)
    stack = []

    def fail(kind, detail, kernel_error=None):
        return EvalError(kind, detail, trace=stack[-8:], kernel_error=kernel_error)

    def items_of(v):  # the items of a proper list of the kernel, or None
        if kernel is Kernel.LIST:
            return list(v.items) if isinstance(v, ProperList) else None
        items, seen = [], set()
        while isinstance(v, Pair) and id(v) not in seen:
            seen.add(id(v))
            items.append(v.head)
            v = v.tail
        return items if v is NIL else None

    def ev(x, env):
        stack.append(x)
        if len(stack) > max_depth:
            raise fail(
                Fault.DEPTH_EXCEEDED, f"recursion depth exceeded ({max_depth})"
            )
        value = form(x, env)
        stack.pop()
        return value

    def form(x, env):
        if isinstance(x, Symbol):
            for name, value in env.bindings:
                if name is x:
                    return value
            if x is T or x is F or (kernel is Kernel.PAIR and x is NIL):
                return x
            raise fail(Fault.UNBOUND, f"unbound symbol: {x.name}")
        items = items_of(x)
        if items is None:
            raise fail(
                Fault.MALFORMED,
                f"not an expression of the {kernel.value} kernel: {x!r}",
            )
        if not items:
            raise fail(Fault.MALFORMED, "the empty list is not a form")
        head, operands = items[0], items[1:]
        if head is QUOTE:
            if len(operands) != 1:
                raise fail(Fault.MALFORMED, "QUOTE takes exactly one operand")
            return operands[0]
        if head is COND:
            for clause in operands:
                clause = items_of(clause)
                if clause is None or len(clause) != 2:
                    raise fail(
                        Fault.MALFORMED, "each COND clause must be a two-element list"
                    )
                t = ev(clause[0], env)
                if t is T:
                    return ev(clause[1], env)
                if t is not F:
                    raise fail(
                        Fault.BAD_TRUTH_VALUE,
                        f"COND test produced {t!r}, which is neither T nor F",
                    )
            raise fail(Fault.COND_EXHAUSTED, "no COND test evaluated to T")
        if head is LAMBDA:
            if len(operands) != 2:
                raise fail(Fault.MALFORMED, "LAMBDA takes a parameter list and a body")
            params = items_of(operands[0])
            if params is None or not all(isinstance(p, Symbol) for p in params):
                raise fail(Fault.MALFORMED, "LAMBDA parameters must be a list of atoms")
            if len(set(params)) != len(params):
                raise fail(Fault.MALFORMED, "LAMBDA parameters must be distinct")
            return Closure(tuple(params), operands[1], env)
        if head is LABEL:
            if len(operands) != 2 or not isinstance(operands[0], Symbol):
                raise fail(Fault.MALFORMED, "LABEL takes an atom and a body")
            fn = ev(operands[1], env)
            if not isinstance(fn, Closure):
                raise fail(Fault.MALFORMED, "LABEL body must produce a closure")
            return replace(fn, self_name=operands[0])
        fn = ev(head, env)
        args = [ev(a, env) for a in operands]
        if isinstance(fn, Primitive):
            if len(args) != fn.arity:
                raise fail(
                    Fault.ARITY,
                    f"{fn.name} expects {fn.arity} argument(s), got {len(args)}",
                )
            try:
                return fn.fn(*args)
            except KernelError as ke:
                raise fail(Fault.KERNEL_FAULT, str(ke), ke) from ke
        if isinstance(fn, Closure):
            if len(args) != len(fn.params):
                raise fail(
                    Fault.ARITY,
                    f"closure expects {len(fn.params)} argument(s), got {len(args)}",
                )
            pairs = list(zip(fn.params, args))
            if fn.self_name is not None:
                pairs.append((fn.self_name, fn))
            return ev(fn.body, fn.env.extend(pairs))
        raise fail(Fault.NOT_CALLABLE, f"not callable: {fn!r}")

    return ev(expr, default_env(kernel) if env is None else env)


QUOTE, COND, LAMBDA, LABEL = (Symbol(n) for n in ("QUOTE", "COND", "LAMBDA", "LABEL"))


# -------------------------------------------------- hypothesis strategies

symbols = st.sampled_from([Symbol(n) for n in _ATOM_NAMES])
nil_free_symbols = st.sampled_from([Symbol(n) for n in _NIL_FREE_NAMES])

list_values = st.recursive(
    symbols | st.just(NULL),
    lambda ch: st.lists(ch, max_size=4).map(lambda xs: ProperList(tuple(xs))),
    max_leaves=25,
)

nil_free_list_values = st.recursive(
    nil_free_symbols | st.just(NULL),
    lambda ch: st.lists(ch, max_size=4).map(lambda xs: ProperList(tuple(xs))),
    max_leaves=25,
)

pair_values = st.recursive(
    symbols | st.just(NIL),
    lambda ch: st.tuples(ch, ch).map(lambda t: Pair(*t)),
    max_leaves=25,
)

idents = st.sampled_from(_IDENT_NAMES)

fexprs = st.recursive(
    st.builds(Var, idents) | st.builds(Const, list_values),
    lambda ch: st.one_of(
        st.tuples(ch, st.lists(ch, max_size=3)).map(
            lambda t: App(t[0], tuple(t[1]))
        ),
        st.lists(st.tuples(ch, ch), min_size=1, max_size=3).map(
            lambda cs: Cond(tuple(cs))
        ),
        st.tuples(st.lists(idents, max_size=3, unique=True), ch).map(
            lambda t: Lambda(tuple(t[0]), t[1])
        ),
        st.tuples(idents, ch).map(lambda t: Label(t[0], t[1])),
    ),
    max_leaves=20,
)
