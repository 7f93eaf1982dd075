"""Differential runner: this checkout's evaluator against another revision's.

    python3 tests/differential.py --base REV [--seeds 1,2,3] [--forms 300]

The --base revision's src/ is taken with `git archive` into a temporary
directory.  Each side then runs the same seeded cases in a process of
its own, with its own protolisp and this checkout's tests/helpers.py and
tests/corpus.py, and writes one outcome per case.  The runner compares
the two lists and prints how many outcomes are identical and, for each
class of outcome that differs, how many and one example.  It exits 0
only when every outcome is identical and both sides ran to the end.

A case is:

- eval_sexpr on helpers.random_fexpr forms, on both kernels, at max
  depths 3, 7, 40 and 10000, in three environments (the primitives;
  data bound to the free names; FN1, G and Z bound to FIRST, COMBINE and
  EQ), each evaluated twice, so that the second meets what the first
  kept;
- each such form closed over its free names and applied through apply_fn
  four times at each of those depths, and meta_eval on every fifth form
  with one universal_env;
- COND-heavy recursive closures (tests and results of every kind a run
  may fold or leave to the loop: values, plans, tail calls to the
  closure itself, to a parameter, to a primitive of the wrong arity or to
  data, nested CONDs, bad truth values, unbound symbols, kernel faults),
  applied several times on both kernels and evaluated at top level;
- recursive closures whose operands, heads and COND tests are calls,
  applications whose every item a run can evaluate: to the closure
  itself and to another closure; to a parameter bound to a closure, to a
  primitive or to data; to a primitive of the wrong arity; with an
  unbound head; with an item that faults; applied on both kernels at
  every cap from 3 to 8, just under and over the heights of their steps,
  and at ample ones;
- recursive closures whose COND results mix tail calls to the closure's
  own LABEL name, which its run loops on, with results that wrap a call,
  which it holds, and with plain values, nested CONDs, tests left to the
  loop, a parameter that shadows the LABEL name, a self call of the
  wrong arity and items that fault; applied on both kernels at every cap
  from 3 to 8, and at 12, 40 and 10000;
- cli.main run on the corpus programs, on every kernel x dialect x
  --lang (an S-expression file holds the program's translation printed in
  that dialect), and with --max-depth 30; translate on them, and the
  corpus under meta_eval;
- cli.main repl, fed lines on stdin on every kernel x dialect x --lang:
  definitions, the corpus programs, lines that fail to read or to
  evaluate, and seeded random forms;
- hand-written programs whose parameters, LABEL names and definitions
  are T, F or NIL, which a binding shadows: through eval_sexpr at top
  level and as the body of a closure applied by apply_fn, on both
  kernels, and through cli.main run on every kernel x dialect x --lang;
- the front end alone: seeded S-texts in both dialects and F-texts and
  programs, some with messy aim8 constants, two of them long enough to
  take several of the lexer's windows, each well-formed and with a
  few characters edited at random (Unicode blanks, letters and digits
  among them), through read_sexpr, read_sexprs, parse_sexpr (value and
  end offset, at offset 0 and after a prefix), read_fexpr, read_program,
  translate, translate_program, print_sexpr in both dialects,
  print_fexpr, repr and the kernel conversions;
- values nested 10000 deep, through the first element and through the
  last, as arguments and results of apply_fn, eval_sexpr and meta_eval on
  both kernels, and read and printed by cli.main run on every kernel x
  dialect;
- cyclic pairs made with unsafe_set_tail, through print_sexpr, repr,
  pair_to_list and ==;
- the random forms, the COND-heavy closures, the closures of calls and
  of loops, cli.main run on the corpus and the corpus under meta_eval
  again, with
  the kernel's own primitives in place of the recorded ones, so that the
  runs compute them inline (see evaluator._INLINE): their call list is
  empty.

An outcome is the value (closures with their parameters, body and
environment), or the error's kind, message, trace, kernel error, cause
and context, together with the sequence of primitive calls, each
recorded with its arguments and its result or exception, and whether
the cycle collector is on after it.  Only the standard library is used
here; tests/helpers.py needs what the tests need.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEPTHS = (3, 7, 40, 10000)


# ---------------------------------------------------------------- the runner


def export(rev, into):
    """The src/ directory of revision rev, unpacked under into."""
    tar = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
        check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        if hasattr(tarfile, "data_filter"):  # Python 3.12, and 3.10.12 and 3.11.4 on
            archive.extractall(into, filter="data")
        else:
            archive.extractall(into)
    return Path(into) / "src"


def run_side(src, seed, forms, out):
    """The outcomes of one side, from a process of its own, or None if it crashed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", str(src),
           "--seeds", str(seed), "--forms", str(forms), "--out", str(out)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    done = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        print(f"side {src} crashed on seed {seed}:\n{done.stderr[-4000:]}")
        return None
    with open(out, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def compare(base, head):
    """(identical, classes): classes maps a class of difference to [count, example]."""
    classes, same = {}, 0
    if [k for k, _ in base] != [k for k, _ in head]:
        return 0, {("case lists differ",): [1, (len(base), len(head))]}
    for (key, a), (_, b) in zip(base, head):
        if a == b:
            same += 1
            continue
        family = key.split("/")[0]
        cls = (family, a.split(" ")[0], b.split(" ")[0])
        entry = classes.setdefault(cls, [0, (key, a[:400], b[:400])])
        entry[0] += 1
    return same, classes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="the revision to compare with, e.g. HEAD")
    parser.add_argument("--seeds", default="1,2,3")
    parser.add_argument("--forms", type=int, default=300,
                        help="random forms per seed; the other cases scale with it")
    parser.add_argument("--worker", metavar="SRC", help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    if args.worker:
        return worker(Path(args.worker), seeds[0], args.forms, Path(args.out))
    if not args.base:
        parser.error("--base is required")
    tmp = Path(tempfile.mkdtemp(prefix="differential-"))
    ok = True
    try:
        base_src = export(args.base, tmp / "base")
        for seed in seeds:
            base = run_side(base_src, seed, args.forms, tmp / "base.jsonl")
            head = run_side(ROOT / "src", seed, args.forms, tmp / "head.jsonl")
            if base is None or head is None:
                ok = False
                continue
            same, classes = compare(base, head)
            print(f"seed {seed}: {same} of {len(head)} outcomes identical")
            for cls, (count, example) in sorted(classes.items()):
                print(f"  differs {count}x {cls}: {example}")
            ok = ok and not classes
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("no difference" if ok else "DIFFERENCES OR CRASHES")
    return 0 if ok else 1


# ---------------------------------------------------------------- one side


def worker(src, seed, forms, out):
    sys.path[:0] = [str(src), str(HERE)]
    import protolisp

    if Path(protolisp.__file__).resolve().parent != src.resolve() / "protolisp":
        raise SystemExit(f"protolisp imported from {protolisp.__file__}, not {src}")
    side = _Side(seed)
    with open(out, "w", encoding="utf-8") as fh, tempfile.TemporaryDirectory() as work:
        os.chdir(work)  # the CLI's messages name the file: the same name on both sides
        for key, text in side.cases(forms):
            fh.write(json.dumps([key, text]) + "\n")
    return 0


class _Side:
    def __init__(self, seed):
        import corpus
        import helpers
        import protolisp as pl
        from protolisp import cli, metacircular

        self.pl, self.helpers, self.corpus = pl, helpers, corpus
        self.seed = seed
        self.calls = []
        real = pl.default_env

        def recorded(kernel=pl.Kernel.LIST):
            # The kernel's primitives, each recording its calls.
            return pl.Env([(name, self._record(p)) for name, p in real(kernel).bindings])

        # The CLI and the meta evaluator build their environments through these.
        cli.default_env = metacircular.default_env = recorded
        self.recorded, self.real = recorded, real
        self.prims = {k: recorded(k) for k in (pl.Kernel.LIST, pl.Kernel.PAIR)}

    @contextlib.contextmanager
    def _unrecorded(self):
        # The kernel's own primitives, unwrapped, for the cases in the block:
        # those that the runs compute inline are never called there.
        from protolisp import cli, metacircular

        recorded = self.prims
        cli.default_env = metacircular.default_env = self.real
        self.prims = {k: self.real(k) for k in recorded}
        try:
            yield
        finally:
            cli.default_env = metacircular.default_env = self.recorded
            self.prims = recorded

    def _record(self, p):
        calls, render = self.calls, self.render

        def fn(*args):
            try:
                result = p.fn(*args)
            except Exception as e:
                calls.append(f"{p.name}{[render(a) for a in args]} raised {e!r}")
                raise
            calls.append(f"{p.name}{[render(a) for a in args]} = {render(result)}")
            return result

        return self.pl.Primitive(p.name, p.arity, fn)

    # ----------------------------------------------------------- outcomes

    def render(self, v, depth=0):
        pl = self.pl
        if isinstance(v, pl.Closure):
            if depth > 3:
                return "closure ..."
            params = " ".join([p.name for p in v.params])
            return (f"closure(({params}) {v.body!r} self={v.self_name!r}"
                    f" env={self.render(v.env, depth + 1)})")
        if isinstance(v, pl.Env):
            return "{" + ", ".join(
                [f"{n.name}: {self.render(x, depth + 1)}" for n, x in v.bindings]
            ) + "}"
        if isinstance(v, pl.Primitive):
            return f"primitive {v.name}/{v.arity}"
        return repr(v)

    def _error(self, e):
        if e is None:
            return "None"
        if isinstance(e, self.pl.KernelError):
            return f"{type(e).__name__}({e}; {e.kind}; {e.operation}; {self.render(e.offending)})"
        return f"{type(e).__name__}({e})"

    def outcome(self, thunk):
        self.calls.clear()
        try:
            text = "value " + self.render(thunk())
        except self.pl.EvalError as e:
            trace = [self.render(t) for t in e.trace]
            text = (f"{e.kind.name} {e} trace={trace} kernel_error={self._error(e.kernel_error)}"
                    f" cause={self._error(e.__cause__)} context={self._error(e.__context__)}")
        except Exception as e:
            text = f"exception {self._error(e)}"
        digest = hashlib.md5("\n".join(self.calls).encode()).hexdigest()
        return f"{text} calls={len(self.calls)}:{digest} gc={gc.isenabled()}"

    # ---------------------------------------------------------------- cases

    def cases(self, forms):
        yield from self.random_forms(forms)
        yield from self.cond_programs(max(forms // 3, 1))
        yield from self.call_programs(max(forms // 3, 1))
        yield from self.loop_programs(max(forms // 3, 1))
        yield from self.corpus_runs()
        yield from self.repl_sessions(max(forms // 3, 1))
        yield from self.constant_names()
        yield from self.front_end(max(forms // 3, 1))
        yield from self.deep_values()
        yield from self.cyclic_pairs()
        with self._unrecorded():
            for key, text in itertools.chain(
                self.random_forms(forms), self.cond_programs(max(forms // 3, 1)),
                self.call_programs(max(forms // 3, 1)), self.loop_programs(max(forms // 3, 1)),
                self.corpus_runs(),
            ):
                yield f"own/{key}", text

    def _in(self, kernel, v):
        pl = self.pl
        return pl.list_to_pair(v) if kernel is pl.Kernel.PAIR else v

    def _envs(self, rng):
        pl, h = self.pl, self.helpers
        names = [pl.Symbol(n) for n in ("X", "Y", "Z", "FN1", "G", "ACC")]
        data = [h.random_list_value(rng, 3) for _ in names]
        envs = {}
        for kernel in (pl.Kernel.LIST, pl.Kernel.PAIR):
            prims = self.prims[kernel]
            bound = [(n, self._in(kernel, d)) for n, d in zip(names, data)]
            heads = dict(bound)
            for name, prim in (("FN1", "FIRST"), ("G", "COMBINE"), ("Z", "EQ")):
                heads[pl.Symbol(name)] = prims.lookup(pl.Symbol(prim))
            envs[kernel] = {"prims": prims, "data": prims.extend(bound),
                            "heads": prims.extend(heads.items())}
        return names, data, envs

    def random_forms(self, forms):
        pl, h = self.pl, self.helpers
        rng = random.Random(f"forms/{self.seed}")
        names, data, envs = self._envs(rng)
        universal = pl.universal_env()
        for n in range(forms):
            form = pl.translate(h.random_fexpr(rng, rng.randrange(1, 5)))
            for kernel in (pl.Kernel.LIST, pl.Kernel.PAIR):
                expr = self._in(kernel, form)
                k = kernel.value
                for env_name, env in envs[kernel].items():
                    for depth in DEPTHS:
                        for rep in (0, 1):
                            yield (f"eval/{n}/{k}/{env_name}/{depth}/{rep}",
                                   self.outcome(lambda: pl.eval_sexpr(expr, env, kernel, depth)))
                # The form closed over its free names, applied with data and heads.
                lam = self._in(kernel, pl.ProperList(
                    (pl.Symbol("LAMBDA"), pl.ProperList(tuple(names)), form)))
                fn = pl.eval_sexpr(lam, self.prims[kernel], kernel)
                heads = envs[kernel]["heads"]
                argsets = [[self._in(kernel, d) for d in data],
                           [heads.lookup(x) for x in names]]
                for rep in range(4):
                    args = argsets[rep % 2]
                    for depth in DEPTHS:
                        yield (f"apply/{n}/{k}/{rep}/{depth}",
                               self.outcome(lambda: pl.apply_fn(fn, args, kernel, depth)))
            if n % 5 == 0:
                for depth in (7, 40, 10000):
                    yield (f"meta/{n}/{depth}",
                           self.outcome(lambda: pl.meta_eval(form, universal, depth)))

    def cond_programs(self, count):
        pl = self.pl
        rng = random.Random(f"conds/{self.seed}")
        gs = ("lambda[[z]; [atom[z] -> T; T -> F]]", "lambda[[z]; z]",
              "lambda[[z; w]; z]", "first", "atom", "(A, B)", "lambda[[z]; [null[z] -> A]]")
        for n in range(count):
            text = _cond_program(rng)
            g = rng.choice(gs)
            for kernel in (pl.Kernel.LIST, pl.Kernel.PAIR):
                k = kernel.value
                prims = self.prims[kernel]
                fn = pl.eval_fexpr(pl.read_fexpr(text), prims, kernel)
                gv = pl.eval_fexpr(pl.read_fexpr(g), prims, kernel)
                for rep in range(3):
                    x = self._in(kernel, self.helpers.random_list_value(rng, 3))
                    y = self._in(kernel, self.helpers.random_list_value(rng, 2))
                    for depth in (3, 7, 12, 40, 10000):
                        yield (f"cond/{n}/{k}/{rep}/{depth}",
                               self.outcome(lambda: pl.apply_fn(fn, [x, y, gv], kernel, depth)))
                # The same COND at top level, in an environment of no owner.
                body = pl.translate(pl.read_fexpr(text)).items[2].items[2]
                env = prims.extend([(pl.Symbol("X"), x), (pl.Symbol("Y"), y),
                                    (pl.Symbol("G"), gv), (pl.Symbol("F1"), fn)])
                body = self._in(kernel, body)
                for depth in (3, 7, 40):
                    yield (f"cond-top/{n}/{k}/{depth}",
                           self.outcome(lambda: pl.eval_sexpr(body, env, kernel, depth)))

    def call_programs(self, count):
        # Closures whose operands, heads and COND tests are calls, applied at
        # caps around the heights of their steps and at ample ones.  K and P
        # are closures bound above the frame, g a parameter bound to a
        # closure, a primitive or data.
        pl = self.pl
        rng = random.Random(f"calls/{self.seed}")
        gs = ("lambda[[z]; [atom[z] -> T; T -> F]]", "lambda[[z]; z]", "lambda[[z; w]; z]",
              "lambda[[z]; first]", "first", "combine", "atom", "(A, B)")
        above = {
            "K": "label[k; lambda[[z]; [atom[z] -> z; null[z] -> (); T -> combine[first[z];"
                 " k[rest[z]]]]]]",
            "P": "lambda[[z]; [atom[z] -> T; null[z] -> T; T -> F]]",
        }
        for n in range(count):
            text = _call_program(rng)
            g = rng.choice(gs)
            for kernel in (pl.Kernel.LIST, pl.Kernel.PAIR):
                prims = self.prims[kernel].extend([
                    (pl.Symbol(name), pl.eval_fexpr(pl.read_fexpr(f), self.prims[kernel], kernel))
                    for name, f in above.items()
                ])
                fn = pl.eval_fexpr(pl.read_fexpr(text), prims, kernel)
                gv = pl.eval_fexpr(pl.read_fexpr(g), prims, kernel)
                for rep in range(3):
                    x = self._in(kernel, self.helpers.random_list_value(rng, 3))
                    y = self._in(kernel, self.helpers.random_list_value(rng, 2))
                    for depth in (3, 4, 5, 6, 7, 8, 12, 40, 10000):
                        yield (f"call/{n}/{kernel.value}/{rep}/{depth}",
                               self.outcome(lambda: pl.apply_fn(fn, [x, y, gv], kernel, depth)))

    def loop_programs(self, count):
        # Closures whose runs loop on their own tail calls and hold results
        # that wrap a call, applied at caps around the heights of their
        # steps and at ample ones.  K is a closure bound above the frame,
        # g a parameter bound to a closure, a primitive or data.
        pl = self.pl
        rng = random.Random(f"loops/{self.seed}")
        gs = ("lambda[[z]; [atom[z] -> T; T -> F]]", "lambda[[z]; z]", "first", "(A, B)")
        k = ("label[k; lambda[[z]; [atom[z] -> z; null[z] -> (); T -> combine[first[z];"
             " k[rest[z]]]]]]")
        for n in range(count):
            text = _loop_program(rng)
            g = rng.choice(gs)
            for kernel in (pl.Kernel.LIST, pl.Kernel.PAIR):
                prims = self.prims[kernel]
                prims = prims.extend([(pl.Symbol("K"), pl.eval_fexpr(pl.read_fexpr(k), prims, kernel))])
                fn = pl.eval_fexpr(pl.read_fexpr(text), prims, kernel)
                gv = pl.eval_fexpr(pl.read_fexpr(g), prims, kernel)
                for rep in range(3):
                    # A list of up to eight elements, so that f1 recurses for a while.
                    x = [rng.choice(("A", "B", "(A)", "(B, C)")) for _ in range(rng.randrange(9))]
                    x = self._in(kernel, pl.read_sexpr("(" + ", ".join(x) + ")"))
                    y = self._in(kernel, self.helpers.random_list_value(rng, 2))
                    for depth in (3, 4, 5, 6, 7, 8, 12, 40, 10000):
                        yield (f"loop/{n}/{kernel.value}/{rep}/{depth}",
                               self.outcome(lambda: pl.apply_fn(fn, [x, y, gv], kernel, depth)))

    def corpus_runs(self):
        pl = self.pl
        from protolisp import cli

        universal = pl.universal_env()
        for prog in self.corpus.PROGRAMS:
            path = f"{prog.name}.mexp"
            Path(path).write_text(prog.source + "\n", encoding="utf-8")
            form = pl.translate(pl.read_fexpr(prog.source))
            files = {"mexpr": path}
            for d in _DIALECTS:
                files[d] = f"{prog.name}.{d}.sexp"
                Path(files[d]).write_text(_printed(pl, form, d) + "\n", encoding="utf-8")
            yield from self._runs(cli, f"run/{prog.name}", files)
            argv = ["run", path, "--max-depth", "30"]
            yield f"run/{prog.name}/depth", self.outcome(lambda: _cli(cli, argv))
            yield f"translate/{prog.name}", self.outcome(lambda: _cli(cli, ["translate", path]))
            yield f"meta-corpus/{prog.name}", self.outcome(lambda: pl.meta_eval(form, universal))

    def repl_sessions(self, count):
        # The same lines, in F-notation (after some definitions) or
        # translated and printed in the dialect, fed to a repl per kernel x
        # dialect x --lang, eight a session, so that a difference points
        # at its lines.
        pl, h = self.pl, self.helpers
        from protolisp import cli

        rng = random.Random(f"repl/{self.seed}")
        sources = [p.source for p in self.corpus.PROGRAMS]
        sources += [pl.print_fexpr(h.random_fexpr(rng, rng.randrange(1, 5))) for _ in range(count)]
        sources += ["first[A]", "zz[first[(A)]]", "[atom[(A)] -> A]", "first[(A)",
                    "lambda[[x]; x][(A); (B)]", "(A, B)[C]"]
        definitions = ["f = lambda[[x]; first[x]]", "f[(A, B)]", "f[A]",
                       "g = label[g; lambda[[x]; [atom[x] -> x; T -> g[first[x]]]]]",
                       "g[(((B)))]", "f = A"]
        lines = {"mexpr": definitions + sources}
        for d in _DIALECTS:
            printed = []
            for text in sources:
                try:
                    printed.append(_printed(pl, pl.translate(pl.read_fexpr(text)), d))
                except pl.LispError:  # it does not read: fed as it is
                    printed.append(text)
            lines[d] = printed
        for k, d, lang in itertools.product(_KERNELS, _DIALECTS, _LANGS):
            session = lines["mexpr" if lang == "mexpr" else d]
            argv = ["repl", "--kernel", k, "--dialect", d, "--lang", lang]
            for n in range(0, len(session), 8):
                stdin = "\n".join(session[n:n + 8]) + "\n"
                yield (f"repl/{k}/{d}/{lang}/{n}",
                       self.outcome(lambda: _cli(cli, argv, stdin)))

    def constant_names(self):
        pl = self.pl
        from protolisp import cli

        for n, text in enumerate(_NAMED_AFTER_CONSTANTS):
            fexpr = not text.startswith("(")
            form = pl.translate(pl.read_fexpr(text)) if fexpr else pl.read_sexpr(text)
            for kernel in (pl.Kernel.LIST, pl.Kernel.PAIR):
                expr, k = self._in(kernel, form), kernel.value
                prims = self.prims[kernel]
                body = pl.Closure((), expr, prims)  # one owner, so its cache is met
                for depth in (3, 7, 10000):
                    for rep in (0, 1):
                        yield (f"names/{n}/{k}/top/{depth}/{rep}",
                               self.outcome(lambda: pl.eval_sexpr(expr, prims, kernel, depth)))
                        yield (f"names/{n}/{k}/body/{depth}/{rep}",
                               self.outcome(lambda: pl.apply_fn(body, [], kernel, depth)))
            files = {d: f"names{n}.{d}.sexp" for d in _DIALECTS}
            for d in _DIALECTS:
                Path(files[d]).write_text(_printed(pl, form, d) + "\n", encoding="utf-8")
            if fexpr:
                files["mexpr"] = f"names{n}.mexp"
                Path(files["mexpr"]).write_text(text + "\n", encoding="utf-8")
            yield from self._runs(cli, f"names/{n}/run", files)
        for n, text in enumerate(_DEFINED_AS_CONSTANTS):
            files = {"mexpr": f"defined{n}.mexp"}
            Path(files["mexpr"]).write_text(text + "\n", encoding="utf-8")
            yield from self._runs(cli, f"defined/{n}/run", files)

    def front_end(self, count):
        # Each text is read, and what it reads to is printed, converted and
        # translated, one outcome a call.
        pl, h = self.pl, self.helpers
        from protolisp.sexpr import parse_sexpr

        rng = random.Random(f"front/{self.seed}")
        texts = []
        for n in range(count):
            v = h.random_list_value(rng, rng.randrange(1, 6))
            texts.append(("aim8", pl.print_sexpr(v) if n % 2 else h.messy_aim8(v, rng)))
            p = h.random_pair_value(rng, rng.randrange(1, 6))
            texts.append(("classic", pl.print_sexpr(p, pl.Dialect.CLASSIC) if n % 2
                          else h.messy_classic(p, rng)))
            texts.append(("mexpr", pl.print_fexpr(h.random_fexpr(rng, rng.randrange(1, 5)))))
            messy = h.messy_aim8(h.random_list_value(rng, rng.randrange(1, 5)), rng)
            texts.append(("mexpr", f"f[{messy};\n{pl.print_fexpr(h.random_fexpr(rng, 2))}]"))
            items = [pl.print_fexpr(h.random_fexpr(rng, rng.randrange(0, 4)))
                     for _ in range(rng.randrange(1, 5))] + [messy]
            texts.append(("program", "\n".join(
                [f"d{i} = {t}" if rng.random() < 0.5 else t for i, t in enumerate(items)])))
        # and texts longer than the lexer's window of 4096 characters
        longer = [("aim8", "(" + ",\n".join(t for lang, t in texts if lang == "aim8") + ")"),
                  ("program", "\n".join(t for lang, t in texts if lang == "program"))]
        texts += longer
        texts += [(lang, _mutated(rng, text)) for lang, text in texts + longer * 5]
        for n, (lang, text) in enumerate(texts):
            key = f"front/{n}/{lang}"
            if lang == "program":
                yield f"{key}/read", self.outcome(lambda: pl.read_program(text))
                try:
                    items = pl.read_program(text)
                except pl.LispError:
                    continue
                defs = [(i.name, i.body) if isinstance(i, pl.Definition) else (f"e{j}", i)
                        for j, i in enumerate(items)]
                yield f"{key}/translate", self.outcome(lambda: pl.translate_program(defs))
                continue
            if lang == "mexpr":
                yield f"{key}/read", self.outcome(lambda: pl.read_fexpr(text))
                try:
                    e = pl.read_fexpr(text)
                except pl.LispError:
                    continue
                yield f"{key}/print", self.outcome(lambda: pl.print_fexpr(e))
                yield f"{key}/translate", self.outcome(lambda: pl.translate(e))
                make = lambda: pl.translate(e)  # noqa: E731
            else:
                d = pl.Dialect(lang)
                yield f"{key}/read", self.outcome(lambda: pl.read_sexpr(text, d))
                yield f"{key}/parse", self.outcome(lambda: parse_sexpr(text, 0, d))
                pre = ("x", "A, ", "(\n", "# c\n", "\xa0é²")[n % 5]
                yield f"{key}/parse-at", self.outcome(
                    lambda: parse_sexpr(pre + text, len(pre), d))
                yield f"{key}/reads", self.outcome(lambda: pl.read_sexprs(text + "\n" + text, d))
                make = lambda: pl.read_sexpr(text, d)  # noqa: E731
            try:  # the value read or translated: print and convert it
                v = make()
            except pl.LispError:
                continue
            for d in (pl.Dialect.AIM8, pl.Dialect.CLASSIC):
                yield f"{key}/print/{d.value}", self.outcome(lambda: pl.print_sexpr(v, d))
            yield f"{key}/repr", self.outcome(lambda: repr(v))
            yield f"{key}/to-pair", self.outcome(lambda: pl.list_to_pair(v))
            yield f"{key}/to-list", self.outcome(lambda: pl.pair_to_list(v))

    def deep_values(self):
        # 10000-deep values as arguments and as results; the programs are
        # not recursive, so that the recorded primitive calls stay few.
        pl = self.pl
        from protolisp import cli

        n = 10_000
        deep = {"heads": pl.read_sexpr("(" * n + "A" + ")" * n),
                "tails": pl.read_sexpr("(A, " * n + "B" + ")" * n)}
        programs = ("lambda[[x]; x]", "lambda[[x]; first[x]]", "lambda[[x]; rest[x]]",
                    "lambda[[x]; combine[x; (B)]]", "lambda[[x]; combine[x; x]]",
                    "lambda[[x]; [atom[x] -> A; T -> combine[first[x]; x]]]",
                    "lambda[[x]; eq[x; x]]", "lambda[[x]; first[first[first[x]]]]")
        quote = pl.Symbol("QUOTE")
        for name, v in deep.items():
            for kernel in (pl.Kernel.LIST, pl.Kernel.PAIR):
                k, arg = kernel.value, self._in(kernel, v)
                prims = self.prims[kernel]
                quoted = self._in(kernel, pl.ProperList((quote, v)))
                yield (f"deep/{name}/{k}/quote",
                       self.outcome(lambda: pl.eval_sexpr(quoted, prims, kernel)))
                for i, text in enumerate(programs):
                    fn = pl.eval_fexpr(pl.read_fexpr(text), prims, kernel)
                    yield (f"deep/{name}/{k}/{i}",
                           self.outcome(lambda: pl.apply_fn(fn, [arg], kernel)))
            for i, text in enumerate(programs[:3]):
                fn = pl.translate(pl.read_fexpr(text))
                form = pl.ProperList((fn, pl.ProperList((quote, v))))
                yield f"deep/{name}/meta/{i}", self.outcome(lambda: pl.meta_eval(form))
            path = f"deep-{name}.sexp"
            Path(path).write_text(f"(QUOTE, {pl.print_sexpr(v)})\n", encoding="utf-8")
            for k, d in itertools.product(_KERNELS, _DIALECTS):
                argv = ["run", path, "--kernel", k, "--dialect", d]
                yield f"deep/{name}/run/{k}/{d}", self.outcome(lambda: _cli(cli, argv))

    def cyclic_pairs(self):
        pl = self.pl
        A, B, NIL = pl.Symbol("A"), pl.Symbol("B"), pl.NIL

        def shapes():
            # Each shape made anew, so that == compares two separate graphs.
            loop = pl.Pair(A, NIL)  # (A A A ...)
            pl.unsafe_set_tail(loop, loop)
            yield "loop", loop
            first, last = pl.Pair(A, NIL), pl.Pair(B, NIL)  # (A B A B ...)
            pl.unsafe_set_tail(first, last)
            pl.unsafe_set_tail(last, first)
            yield "two", first
            yield "prefixed", pl.Pair(B, pl.Pair(A, first))  # (B A A B A B ...)
            inner = pl.Pair(A, NIL)
            outer = pl.Pair(inner, NIL)
            pl.unsafe_set_tail(inner, outer)  # a cycle through a head
            yield "head", outer
            yield "inside", pl.Pair(pl.Pair(B, NIL), pl.Pair(outer, pl.Pair(A, B)))
            self_tail = pl.Pair(A, B)
            pl.unsafe_set_tail(self_tail, pl.Pair(self_tail, NIL))
            yield "nested", self_tail

        made, again = dict(shapes()), dict(shapes())
        for name, v in made.items():
            key = f"cyclic/{name}"
            for d in (pl.Dialect.AIM8, pl.Dialect.CLASSIC):
                yield f"{key}/print/{d.value}", self.outcome(lambda: pl.print_sexpr(v, d))
            yield f"{key}/repr", self.outcome(lambda: repr(v))
            yield f"{key}/to-list", self.outcome(lambda: pl.pair_to_list(v))
            for other, w in again.items():
                yield f"{key}/eq/{other}", self.outcome(lambda: v == w)

    def _runs(self, cli, key, files):
        # cli.main run on each file: files maps "mexpr", or a dialect for
        # the S-expression file printed in it, to a file name.
        for k, d, lang in itertools.product(_KERNELS, _DIALECTS, _LANGS):
            file = files.get("mexpr" if lang == "mexpr" else d)
            if file is not None:
                argv = ["run", file, "--kernel", k, "--dialect", d, "--lang", lang]
                yield f"{key}/{k}/{d}/{lang}", self.outcome(lambda: _cli(cli, argv))


_KERNELS, _DIALECTS, _LANGS = ("list", "pair"), ("aim8", "classic"), ("mexpr", "sexpr")

# Programs that bind T, F or NIL as a parameter or a LABEL name.  A binding
# wins over the atom's own value, in a COND test, an operand and a head.
_NAMED_AFTER_CONSTANTS = (
    "lambda[[f]; f][A]",
    "lambda[[t]; t][A]",
    "lambda[[nil]; nil][A]",
    "lambda[[f]; combine[f; ()]][A]",
    "lambda[[nil]; combine[nil; nil]][(A)]",
    "lambda[[t; f]; [t -> A; f -> B; T -> C]][F; T]",
    "lambda[[t]; [eq[t; T] -> A; T -> B]][T]",
    "lambda[[f; t]; combine[f; combine[t; ()]]][(A); (B)]",
    "lambda[[t]; [t -> A; T -> B]][(C)]",
    "label[f; lambda[[x]; [null[x] -> f; T -> f[rest[x]]]]][(A, B)]",
    "label[t; lambda[[x]; [atom[x] -> x; T -> t[first[x]]]]][((A))]",
    "label[nil; lambda[[x]; [null[x] -> nil; T -> nil[rest[x]]]]][(A)]",
    "label[f; lambda[[t]; [atom[t] -> combine[t; ()]; T -> f[first[t]]]]][((B))]",
    "lambda[[g]; g[(A, B)]][label[nil; lambda[[x]; [null[rest[x]] -> x; T -> nil[rest[x]]]]]]",
    "((LAMBDA, (T), (COND, (T, (QUOTE, A)), ((QUOTE, T), (QUOTE, B)))), (QUOTE, F))",
    "((LAMBDA, (F), (COND, ((ATOM, F), F), (T, (QUOTE, B)))), (QUOTE, (C)))",
    "((LAMBDA, (T, F), (COND, (F, T), (T, F))), (QUOTE, F), (QUOTE, T))",
    "((LABEL, T, (LAMBDA, (X), (COND, ((ATOM, X), X), (T, (T, (FIRST, X)))))),"
    " (QUOTE, ((A))))",
    "((LAMBDA, (NIL), (COMBINE, NIL, (QUOTE, ()))), (QUOTE, A))",
    "((LAMBDA, (NIL), (NULL, NIL)), NIL)",
    "((LABEL, F, (LAMBDA, (NIL), (COND, ((ATOM, NIL), NIL), (T, (F, (FIRST, NIL))))))"
    ", (QUOTE, ((B))))",
)

# Programs whose definitions are named T, F or NIL: each binds that name at
# top level for the items after it.
_DEFINED_AS_CONSTANTS = (
    "t = (A)\nf = lambda[[x]; combine[t; x]]\nf[(B)]",
    "f = (A)\n[f -> B; T -> C]",
    "nil = lambda[[x]; first[x]]\nnil[(A, B)]",
    "t = F\ng = lambda[[x]; [t -> x; T -> B]]\ng[A]",
    "f = label[f; lambda[[x]; [atom[x] -> x; T -> f[first[x]]]]]\nf[(((C)))]",
)


def _printed(pl, form, dialect):
    """The text of a translated form in dialect: classic prints pairs."""
    if dialect == "classic":
        form = pl.list_to_pair(form)
    return pl.print_sexpr(form, pl.Dialect(dialect))


def _mutated(rng, text):
    """text with one to three characters deleted, inserted or replaced."""
    for _ in range(rng.randrange(1, 4)):
        i = rng.randrange(len(text) + 1)
        c = rng.choice("()[];,.-> #\nAxZ9\r\x0b\xa0\u2028\u3000bé²_")
        edit = rng.randrange(3)
        if edit == 0:
            text = text[:i] + text[i + 1:]
        elif edit == 1:
            text = text[:i] + c + text[i:]
        else:
            text = text[:i] + c + text[i + 1:]
    return text


def _cli(cli, argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    real, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = real
    return f"exit {code} out {out.getvalue()!r} err {err.getvalue()!r}"


def _cond_program(rng, depth=2):
    """F-language text of label[f1; lambda[[x; y; g]; COND]], COND made at random.

    The tests and results cover what a run may fold and what it leaves to
    the loop; f1 recurses on rest[x], so it ends by a fault, a chosen
    result or the depth cap.
    """

    def tree(d):  # a primitive tree over x and y
        leaves = ("x", "y", "(A)", "A", "()")
        if d <= 0 or rng.random() < 0.3:
            return rng.choice(leaves)
        op = rng.choice(("first", "rest", "combine", "atom", "null", "eq"))
        if op in ("combine", "eq"):
            return f"{op}[{tree(d - 1)}; {tree(d - 1)}]"
        return f"{op}[{tree(d - 1)}]"

    def test(d):
        return rng.choice((
            lambda: f"atom[{tree(d)}]", lambda: f"null[{tree(d)}]",
            lambda: f"eq[{tree(d)}; {tree(d)}]", lambda: "T", lambda: "F",
            lambda: tree(d),  # most often no truth value
            lambda: "g[x]", lambda: "zz", lambda: f"atom[g[{tree(1)}]]",
            lambda: "f1[rest[x]; y; g]",
        ))()

    def result(d):
        kinds = [
            lambda: rng.choice(("x", "y", "T", "zz", "(A, B)")),
            lambda: tree(2),
            lambda: "f1[rest[x]; y; g]", lambda: f"f1[rest[x]; {tree(1)}; g]",
            lambda: f"g[{tree(1)}]", lambda: "first[x; y]", lambda: "y[x]",
            lambda: f"combine[first[x]; f1[rest[x]; y; g]]",
            lambda: "lambda[[z]; z]", lambda: f"first[{tree(1)}]",
        ]
        if d > 0:
            kinds.append(lambda: cond(d - 1))
        return rng.choice(kinds)()

    def cond(d):
        clauses = [f"{test(1)} -> {result(d)}" for _ in range(rng.randrange(1, 5))]
        for guard in ("atom[x]", "null[x]"):  # so that more runs end in a value
            if rng.random() < 0.6:
                clauses.insert(0, f"{guard} -> {result(0)}")
        return "[" + "; ".join(clauses) + "]"

    return f"label[f1; lambda[[x; y; g]; {cond(depth)}]]"


def _call_program(rng):
    """F-language text of label[f1; lambda[[x; y; g]; COND]], with calls made at random.

    A call is an application whose head and operands a run can evaluate;
    here each is one to f1 itself, to the closures K and P, to the
    parameter g, or, one time in five, one that fails: to a primitive or
    closure of the wrong arity, with an unbound head, or with an item that
    faults.  They sit among the operands of primitives, of closures and of
    calls, in the head of an application, and as COND tests; f1 recurses
    on rest[x], so it ends by a fault, a chosen result or the depth cap.
    """
    good = ("f1[rest[x]; y; g]", "f1[rest[x]; first[y]; g]", "k[x]", "k[rest[x]]",
            "k[combine[x; y]]", "g[x]", "g[first[x]]", "g[x][y]", "p[x]", "p[first[x]]")
    bad = ("g[x; y]", "first[x; y]", "combine[x]", "zz[x]", "zz[first[x]]",
           "k[first[first[x]]]", "f1[rest[first[x]]; y; g]", "k[x; y]")

    def call():
        return rng.choice(bad if rng.random() < 0.2 else good)

    def operand():
        return call() if rng.random() < 0.7 else rng.choice(("x", "y", "first[x]", "(A)"))

    def result(d):
        kinds = [
            lambda: f"combine[{operand()}; {operand()}]", lambda: f"eq[{operand()}; {operand()}]",
            lambda: f"combine[first[x]; {call()}]", call, lambda: f"k[{call()}]",
            lambda: f"lambda[[z]; combine[z; z]][{operand()}]", lambda: f"{call()}[{operand()}]",
        ]
        if d > 0:
            kinds.append(lambda: cond(d - 1))
        return rng.choice(kinds)()

    def cond(d):
        tests = (call, lambda: "p[k[x]]", lambda: "p[first[x]]", lambda: "T")
        clauses = [f"{rng.choice(tests)()} -> {result(d)}" for _ in range(rng.randrange(1, 4))]
        for guard in ("atom[x]", "null[x]"):  # so that more runs end in a value
            if rng.random() < 0.6:
                clauses.insert(0, f"{guard} -> {operand()}")
        return "[" + "; ".join(clauses) + "]"

    return f"label[f1; lambda[[x; y; g]; {cond(1)}]]"


def _loop_program(rng):
    """F-language text of label[f1; lambda[[x; y; g]; COND]], whose run may loop.

    Its results are tail calls to f1 itself, which the run loops on, or
    of the wrong arity; applications that wrap a call, to f1, K or g,
    which the run holds, with items after the call that read the frame;
    plain values and nested CONDs; one time in eight a result or test
    that the loop takes, a result whose items fault, or, for the whole
    COND, a parameter named f1 that shadows the LABEL name.  f1 recurses
    on rest[x], so it ends by a fault, a chosen result or the depth cap.
    """
    own = ("f1[rest[x]; y; g]", "f1[rest[x]; combine[x; y]; g]", "f1[rest[x]; first[x]; g]")
    holds = ("combine[first[x]; f1[rest[x]; y; g]]", "combine[f1[rest[x]; y; g]; x]",
             "eq[f1[rest[x]; y; g]; y]", "combine[k[x]; f1[rest[x]; x; g]]",
             "combine[g[x]; y]", "combine[first[x]; combine[k[y]; x]]")
    odd = ("f1[rest[x]; y]", "f1[rest[first[x]]; y; g]", "lambda[[z]; z][x]",
           "lambda[[z]; combine[z; y]][first[x]]",
           "combine[first[first[x]]; f1[rest[x]; y; g]]",
           "lambda[[z]; z][f1[rest[x]; y; g]]", "combine[x; k[y]][f1[rest[x]; y; g]]")

    def result(d):
        kinds = [lambda: rng.choice(own), lambda: rng.choice(holds),
                 lambda: rng.choice(("x", "y", "first[x]", "(A)", "combine[x; y]"))]
        if rng.random() < 0.125:
            return rng.choice(odd)
        if d > 0:
            kinds.append(lambda: cond(d - 1))
        return rng.choice(kinds)()

    def cond(d):
        tests = ("atom[first[x]]", "eq[first[x]; A]", "null[y]", "atom[y]", "T",
                 "g[x]" if rng.random() < 0.125 else "null[rest[x]]")
        clauses = [f"{rng.choice(tests)} -> {result(d)}" for _ in range(rng.randrange(1, 4))]
        end = rng.choice(("y", "x", "(A)", "combine[k[y]; x]", "eq[x; y]"))
        clauses.insert(0, f"null[x] -> {rng.choice(odd) if rng.random() < 0.125 else end}")
        if rng.random() < 0.7:
            clauses.append(f"T -> {rng.choice(own)}")
        return "[" + "; ".join(clauses) + "]"

    params = "x; y; f1" if rng.random() < 0.125 else "x; y; g"
    body = cond(1)
    if params.endswith("f1"):
        body = body.replace("g[", "f1[").replace("; g]", "; f1]")
    return f"label[f1; lambda[[{params}]; {body}]]"


if __name__ == "__main__":
    sys.exit(main())
