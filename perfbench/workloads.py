"""Seeded inputs, reference results and timed operations of the workloads.

Every workload hands out rounds.  A round is a fixed list of operations:
the same program kinds at the same sizes in every run, whatever the seed.
The seed chooses the atoms, the shape of nested data and the order in
which the round's operations run.  So two runs on different seeds do the
same amount of work, and their figures can be compared.

Reference values are plain Python: an atom is a str, a list is a tuple.
The expected outputs are computed from them by the reference functions
and printers below, which share no code with protolisp.
"""

import contextlib
import io
import random
from dataclasses import dataclass

# ------------------------------------------------------------ reference side

# Atoms for generated data.  NIL is left out because the pair kernel reads
# it as the end of a list, and Z-atoms are kept for values that must not
# occur in the data (a member that is absent, a substitute, a difference).
DATA_ATOMS = tuple(
    f"{c}{d}" for c in "ABCDEGHKMPRSUWY" for d in range(10)
) + ("X", "Q", "LONGATOM7")
ABSENT, SUBSTITUTE, DIFFERENT, LAST = "Z0", "Z1", "Z2", "Z3"


def aim8(v):
    """Canonical aim8 text of a reference value."""
    if isinstance(v, str):
        return v
    return "(" + ", ".join(aim8(x) for x in v) + ")"


def classic(v):
    """Canonical classic text of the pair-kernel image of a reference value."""
    if isinstance(v, str):
        return v
    if not v:
        return "NIL"
    return "(" + " ".join(classic(x) for x in v) + ")"


def to_value(pl, v):
    """The list-kernel value of a reference value, via public constructors."""
    if isinstance(v, str):
        return pl.Symbol(v)
    return pl.ProperList(tuple(to_value(pl, x) for x in v))


def ref_subst(x, y, z):
    if isinstance(z, str):
        return x if z == y else z
    return tuple(ref_subst(x, y, item) for item in z)


def truth(b):
    return "T" if b else "F"


# The library: F-language definition, argument maker and reference result.
# Each argument maker takes (rng, n, variant) and returns the arguments as
# reference values; n counts the atoms of the main argument.
LIBRARY = {
    "reverse": (
        "label[rv; lambda[[x; acc];"
        " [null[x] -> acc; T -> rv[rest[x]; combine[first[x]; acc]]]]]",
        lambda rng, n, variant: (flat_or_nested(rng, n, variant), ()),
        lambda x, acc: tuple(reversed(x)) + acc,
    ),
    "append": (
        "label[app; lambda[[x; y];"
        " [null[x] -> y; T -> combine[first[x]; app[rest[x]; y]]]]]",
        lambda rng, n, variant: (flat_or_nested(rng, n, variant), atoms(rng, 3)),
        lambda x, y: x + y,
    ),
    "member": (
        "label[mem; lambda[[e; l];"
        " [null[l] -> F; eq[e; first[l]] -> T; T -> mem[e; rest[l]]]]]",
        lambda rng, n, variant: member_args(rng, n, variant),
        lambda e, l: truth(e in l),
    ),
    "subst": (
        "label[sb; lambda[[x; y; z];"
        " [null[z] -> (); atom[z] -> [eq[z; y] -> x; T -> z];"
        " T -> combine[sb[x; y; first[z]]; sb[x; y; rest[z]]]]]]",
        lambda rng, n, variant: (SUBSTITUTE, rng.choice(DATA_ATOMS), nested(rng, n)),
        ref_subst,
    ),
    "equal": (
        "label[eql; lambda[[x; y];"
        " [atom[x] -> [atom[y] -> eq[x; y]; T -> F];"
        " atom[y] -> F;"
        " null[x] -> [null[y] -> T; T -> F];"
        " null[y] -> F;"
        " eql[first[x]; first[y]] -> eql[rest[x]; rest[y]];"
        " T -> F]]]",
        lambda rng, n, variant: equal_args(rng, n, variant),
        lambda x, y: truth(x == y),
    ),
    "walk": (
        "label[wk; lambda[[x]; [null[x] -> (); T -> wk[rest[x]]]]]",
        lambda rng, n, variant: (flat_or_nested(rng, n, variant),),
        lambda x: (),
    ),
    "zip": (
        "label[zp; lambda[[ns; vs];"
        " [null[ns] -> ();"
        " T -> combine[combine[first[ns]; combine[first[vs]; ()]];"
        " zp[rest[ns]; rest[vs]]]]]]",
        lambda rng, n, variant: (atoms(rng, n), atoms(rng, n)),
        lambda ns, vs: tuple((a, b) for a, b in zip(ns, vs)),
    ),
}
KINDS = tuple(LIBRARY)


def atoms(rng, n):
    return tuple(rng.choice(DATA_ATOMS) for _ in range(n))


def nested(rng, n):
    """A list holding n atoms: most items atoms, some short sublists or ()."""
    items = []
    left = n
    while left > 0:
        p = rng.random()
        if p < 0.12 and left >= 2:
            k = min(left, rng.randint(2, 4))
            items.append(atoms(rng, k))
            left -= k
        elif p < 0.15:
            items.append(())
        else:
            items.append(rng.choice(DATA_ATOMS))
            left -= 1
    return tuple(items)


def flat_or_nested(rng, n, variant):
    return atoms(rng, n) if variant % 2 else nested(rng, n)


def member_args(rng, n, variant):
    # Both variants walk the whole list: the atom is absent, or only last.
    l = atoms(rng, n - 1) + (LAST,)
    return (ABSENT if variant % 2 else LAST, l)


def equal_args(rng, n, variant):
    # Both variants compare the whole structure: equal, or unequal at the end.
    x = nested(rng, n)
    if variant % 2 and isinstance(x[-1], str):
        return (x, x[:-1] + (DIFFERENT,))
    return (x, x)


def spread(lo, hi, count, slot):
    """Size number `slot` of `count` sizes spaced evenly over [lo, hi]."""
    return round(lo + (hi - lo) * ((slot % count) + 0.5) / count)


def sized(groups, lo, hi, per):
    """(group, j, n) for `per` operations in each group, sizes over [lo, hi].

    Every round uses the same sizes for the same groups, so the deepest
    recursion, and with it the peak memory, is the same in every run.
    """
    count = groups * per
    for g in range(groups):
        for j in range(per):
            yield g, j, spread(lo, hi, count, (g * per + j) * 11)


def program_call(kind, args):
    """The F-text applying the kind's definition inline to its arguments."""
    definition = LIBRARY[kind][0]
    return definition + "[" + "; ".join(aim8(a) for a in args) + "]"


@dataclass
class Op:
    """One timed call.  `run` is timed; `before` and `check` are not."""

    cls: str  # "small" or "large"
    kind: str
    run: object
    check: object
    before: object = None


class Workload:
    setup_modules = ("protolisp",)
    # Percentile reported as large_tail_ms.  It is fixed per workload, so
    # that every run and every commit is compared on the same quantile:
    # the highest whole percentile that leaves 10 large samples beyond it
    # in the shortest 30 s runs seen (host 70, meta 63, text 152 samples).
    TAIL_PERCENTILE = 85

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def setup(self, pl, api):
        """The workload's own program set-up, timed as part of setup_s."""

    def rng(self, round_index):
        return random.Random(f"{self.name}/{self.seed}/{round_index}")


# ------------------------------------------------------------------ host


class Host(Workload):
    """`protolisp run` in-process on generated library programs."""

    name = "host"
    setup_modules = ("protolisp", "protolisp.cli")
    KERNELS = ("list", "pair")
    SMALL = (24, 48, 5)  # sizes lo, hi, and operations per kind and kernel
    LARGE = (2000, 3000, 1)

    def round_ops(self, r, pl, api):
        rng = self.rng(r)
        ops = []
        combos = [(k, kern) for k in KINDS for kern in self.KERNELS]
        for cls, (lo, hi, per) in (("small", self.SMALL), ("large", self.LARGE)):
            for c, j, n in sized(len(combos), lo, hi, per):
                kind, kernel = combos[c]
                ops.append(self._op(rng, cls, kind, kernel, n, j + r, api))
        rng.shuffle(ops)
        return ops

    def _op(self, rng, cls, kind, kernel, n, variant, api):
        definition, make_args, reference = LIBRARY[kind]
        args = make_args(rng, n, variant)
        fname = kind[:3] + "x"
        text = f"# {kind} over {n} atoms\n{fname} = {definition}\n"
        text += fname + "[" + "; ".join(aim8(a) for a in args) + "]\n"
        value = reference(*args)
        expected = (aim8(value) if kernel == "list" else classic(value)) + "\n"
        path = self.workdir / f"{kind}-{kernel}.mexp"
        argv = ["run", str(path), "--kernel", kernel]

        def before():
            path.write_text(text, encoding="utf-8")

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = api.cli_main(argv)
            return code, out.getvalue(), err.getvalue()

        def check(result):
            return result == (0, expected, "")

        return Op(cls, f"{kind}/{kernel}", run, check, before)


# ------------------------------------------------------------------ meta


class Meta(Workload):
    """meta_eval of the same library kinds, one universal_env per set-up."""

    name = "meta"
    TAIL_PERCENTILE = 84
    SMALL = (2, 8, 6)
    LARGE = (30, 60, 1)

    def setup(self, pl, api):
        # One environment for plain rounds and one for traced rounds.
        self.envs = getattr(self, "envs", {})
        self.envs[api.traced] = api.universal_env()

    def round_ops(self, r, pl, api):
        rng = self.rng(r)
        ops = []
        for cls, (lo, hi, per) in (("small", self.SMALL), ("large", self.LARGE)):
            for c, j, n in sized(len(KINDS), lo, hi, per):
                ops.append(self._op(rng, cls, KINDS[c], n, j + r, pl, api))
        rng.shuffle(ops)
        return ops

    def _op(self, rng, cls, kind, n, variant, pl, api):
        _, make_args, reference = LIBRARY[kind]
        args = make_args(rng, n, variant)
        form = pl.translate(pl.read_fexpr(program_call(kind, args)))
        expected = to_value(pl, reference(*args))
        env = self.envs[api.traced]

        def run():
            return api.meta_eval(form, env)

        def check(result):
            return result == expected and result == pl.eval_sexpr(form)

        return Op(cls, kind, run, check)


# ------------------------------------------------------------------ text

IDENTS = ("x", "y", "z", "acc", "fn", "walk", "tree", "item", "ns", "vs", "g2")
CONST_ATOMS = ("A", "B", "C", "T", "F", "X1", "Y2", "LONGATOM9", "K7")


def gen_value(rng, budget, depth):
    """A reference value with about `budget` atoms, nested at most `depth`."""
    items = []
    while budget > 0:
        p = rng.random()
        if depth > 0 and p < 0.2 and budget > 2:
            # Small sublists keep the cost per character alike across seeds.
            k = rng.randint(1, min(budget, 24))
            items.append(gen_value(rng, k, depth - 1))
            budget -= k
        elif p < 0.24:
            items.append(())
            budget -= 1
        else:
            items.append(rng.choice(DATA_ATOMS))
            budget -= 1
    return tuple(items)


def gen_fexpr(rng, depth):
    """A random F-expression as (F-text, expected aim8 text of its translation)."""
    p = rng.random() if depth > 0 else rng.random() * 0.45
    if p < 0.2:
        name = rng.choice(IDENTS)
        return name, name.upper()
    if p < 0.3:
        a = rng.choice(CONST_ATOMS)
        return a, f"(QUOTE, {a})"
    if p < 0.45:
        v = aim8(gen_value(rng, rng.randint(0, 6), 2))
        return v, f"(QUOTE, {v})"
    if p < 0.7:
        fn = rng.choice(IDENTS)
        args = [gen_fexpr(rng, depth - 1) for _ in range(rng.randint(0, 3))]
        return (
            fn + "[" + "; ".join(f for f, _ in args) + "]",
            "(" + ", ".join([fn.upper()] + [s for _, s in args]) + ")",
        )
    if p < 0.85:
        clauses = [
            (gen_fexpr(rng, depth - 1), gen_fexpr(rng, depth - 1))
            for _ in range(rng.randint(1, 3))
        ]
        return (
            "[" + "; ".join(f"{t[0]} -> {e[0]}" for t, e in clauses) + "]",
            "(COND, " + ", ".join(f"({t[1]}, {e[1]})" for t, e in clauses) + ")",
        )
    if p < 0.95:
        params = rng.sample(IDENTS, rng.randint(0, 3))
        body_f, body_s = gen_fexpr(rng, depth - 1)
        return (
            "lambda[[" + "; ".join(params) + "]; " + body_f + "]",
            "(LAMBDA, (" + ", ".join(q.upper() for q in params) + "), " + body_s + ")",
        )
    name = rng.choice(IDENTS)
    body_f, body_s = gen_fexpr(rng, depth - 1)
    return f"label[{name}; {body_f}]", f"(LABEL, {name.upper()}, {body_s})"


def gen_program(rng, chars):
    """An F-program of about `chars` characters and its expected translation.

    Top-level items are definitions and applications of a named function,
    so that no item can run on into the next one.
    """
    f_lines, s_lines, size, count = [], [], 0, 0
    while size < chars:
        count += 1
        if rng.random() < 0.6:
            body_f, body_s = gen_fexpr(rng, 6)
            f_line = f"d{count} = {body_f}"
            s_line = f"(D{count}, {body_s})"
        else:
            fn = rng.choice(IDENTS)
            args = [gen_fexpr(rng, 5) for _ in range(rng.randint(1, 3))]
            f_line = fn + "[" + "; ".join(f for f, _ in args) + "]"
            s_line = "(" + ", ".join([fn.upper()] + [s for _, s in args]) + ")"
        f_lines.append(f_line)
        s_lines.append(s_line)
        size += len(f_line) + 1
    return "\n".join(f_lines) + "\n", "\n".join(s_lines)


class Text(Workload):
    """Front end only: read, translate and print; no evaluation."""

    name = "text"
    TAIL_PERCENTILE = 93
    # Characters per input: lo, hi, and operations per round of each shape.
    SMALL = (200, 800, 24)
    LARGE = (10_000, 40_000, 4)

    def round_ops(self, r, pl, api):
        rng = self.rng(r)
        ops = []
        for cls, (lo, hi, per) in (("small", self.SMALL), ("large", self.LARGE)):
            for _, _, chars in sized(1, lo, hi, per):
                ops.append(self._program_op(rng, cls, chars, pl, api))
                ops.append(self._data_op(rng, cls, chars, pl, api))
        rng.shuffle(ops)
        return ops

    def _program_op(self, rng, cls, chars, pl, api):
        text, expected = gen_program(rng, chars)

        def run():
            lines = []
            items = api.read_program(text)
            for item in items:
                if isinstance(item, pl.Definition):
                    [(name, form)] = api.translate_program([(item.name, item.body)])
                    form = pl.ProperList((name, form))
                else:
                    form = api.translate(item)
                lines.append(api.print_sexpr(form, pl.Dialect.AIM8))
            return "\n".join(lines)

        return Op(cls, "program", run, lambda out: out == expected)

    def _data_op(self, rng, cls, chars, pl, api):
        value = gen_value(rng, chars // 4, 30)
        text_aim8, text_classic = aim8(value), classic(value)
        expected = to_value(pl, value)
        aim8_d, classic_d = pl.Dialect.AIM8, pl.Dialect.CLASSIC

        def run():
            v = api.read_sexpr(text_aim8, aim8_d)
            again = api.print_sexpr(v, aim8_d)
            as_pairs = api.list_to_pair(v)
            printed = api.print_sexpr(as_pairs, classic_d)
            back = api.pair_to_list(api.read_sexpr(printed, classic_d))
            return v, again, printed, back

        def check(result):
            v, again, printed, back = result
            return (
                v == expected
                and again == text_aim8
                and printed == text_classic
                and back == expected
            )

        return Op(cls, "data", run, check)


WORKLOADS = {w.name: w for w in (Host, Meta, Text)}
