"""Spans around calls into protolisp's public functions, for the traced run.

Nothing in the package is edited.  The traced run reaches the layers in
three ways, all from here:

* the public functions the workloads call are wrapped in `traced_api`;
* the functions that `protolisp.cli` and `protolisp.metacircular` call
  are wrapped by replacing those module attributes, for the traced
  rounds only (`Tracer.patches`);
* kernel primitives are wrapped by building the environment from wrapped
  `Primitive`s through the public `Env` and `Primitive` constructors.

Each span records (id, parent id, layer, start, end).  Every span of the
run is kept in memory, five doubles each in one flat array, and written
out at the end as gzipped CSV.  The totals per layer count the same spans:
calls, time, time covered by direct child spans, and characters or forms
handled where that applies.
"""

import contextlib
import csv
import gzip
import sys
from array import array
from time import perf_counter
from types import SimpleNamespace

SPAN_FIELDS = ("id", "parent", "layer", "start_s", "end_s")

# Layer of each span name, as reported in the per-layer metrics.
LAYERS = (
    "cli",
    "fexpr.read",
    "sexpr.read",
    "sexpr.print",
    "translate",
    "evaluator",
    "kernel_list",
    "kernel_pair",
    "values",
    "metacircular.load",
    "metacircular.meta_eval",
)


class Tracer:
    def __init__(self):
        # layer -> [calls, seconds, seconds in direct children, chars, forms]
        self.totals = {layer: [0, 0.0, 0.0, 0, 0] for layer in LAYERS}
        self.spans = array("d")  # SPAN_FIELDS of each span, one after another
        self._stack = []
        self._next_id = 0

    def reset(self):
        for row in self.totals.values():
            row[:] = [0, 0.0, 0.0, 0, 0]

    def snapshot(self):
        return {layer: (row[1], row[2]) for layer, row in self.totals.items()}

    def wrap(self, layer, fn, chars=None, forms=None):
        row = self.totals[layer]
        layer_index = LAYERS.index(layer)
        stack = self._stack
        record = self.spans.extend

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                row[0] += 1
                row[1] += end - start
                row[2] += frame[1]
                if stack:
                    stack[-1][1] += end - start
                record((span_id, parent, layer_index, start, end))
            if chars is not None:
                row[3] += chars(args, result)
            if forms is not None:
                row[4] += forms(args, result)
            return result

        return traced

    def kernel_env(self, pl, kernel=None):
        """default_env(kernel), rebuilt from wrapped primitives."""
        kernel = pl.Kernel(kernel or pl.Kernel.LIST)
        layer = "kernel_list" if kernel is pl.Kernel.LIST else "kernel_pair"
        return pl.Env(
            tuple(
                (sym, pl.Primitive(p.name, p.arity, self.wrap(layer, p.fn)))
                for sym, p in pl.default_env(kernel).bindings
            )
        )

    @contextlib.contextmanager
    def patches(self, pl):
        """Route the calls made by cli and metacircular through spans."""
        import protolisp.cli as cli
        import protolisp.metacircular as meta

        env = lambda kernel=None: self.kernel_env(pl, kernel)  # noqa: E731
        targets = [
            (cli, "read_program", self.wrap("fexpr.read", pl.read_program, _in_chars)),
            (cli, "read_sexprs", self.wrap("sexpr.read", pl.read_sexprs, _in_chars)),
            (cli, "translate", self.wrap("translate", pl.translate, forms=_one)),
            (cli, "eval_sexpr", self.wrap("evaluator", pl.eval_sexpr)),
            (cli, "print_sexpr", self.wrap("sexpr.print", pl.print_sexpr, _out_chars)),
            (cli, "list_to_pair", self.wrap("values", pl.list_to_pair)),
            (cli, "pair_to_list", self.wrap("values", pl.pair_to_list)),
            (cli, "default_env", env),
            (meta, "read_program", self.wrap("fexpr.read", pl.read_program, _in_chars)),
            (
                meta,
                "translate_program",
                self.wrap("translate", pl.translate_program, forms=_out_len),
            ),
            (meta, "load_universal", self.wrap("metacircular.load", pl.load_universal)),
            (meta, "eval_sexpr", self.wrap("evaluator", pl.eval_sexpr)),
            (meta, "default_env", env),
        ]
        saved = [(module, name, getattr(module, name)) for module, name, _ in targets]
        for module, name, fn in targets:
            setattr(module, name, fn)
        try:
            yield
        finally:
            for module, name, fn in saved:
                setattr(module, name, fn)

    def span_count(self):
        return len(self.spans) // len(SPAN_FIELDS)

    def write_spans(self, path):
        with gzip.open(path, "wt", newline="", encoding="utf-8", compresslevel=1) as fh:
            out = csv.writer(fh)
            out.writerow(SPAN_FIELDS)
            s = self.spans
            for i in range(0, len(s), len(SPAN_FIELDS)):
                out.writerow((int(s[i]), int(s[i + 1]), LAYERS[int(s[i + 2])],
                              repr(s[i + 3]), repr(s[i + 4])))


def _in_chars(args, result):
    return len(args[0])


def _out_chars(args, result):
    return len(result)


def _one(args, result):
    return 1


def _out_len(args, result):
    return len(result)


def plain_api(pl):
    """The public functions the workloads call, unwrapped.

    protolisp.cli is only imported by the workloads that use it, so that
    it is timed in their set-up and in no other.
    """
    cli = sys.modules.get("protolisp.cli")
    return SimpleNamespace(
        traced=False,
        cli_main=cli and cli.main,
        universal_env=pl.universal_env,
        meta_eval=pl.meta_eval,
        read_program=pl.read_program,
        translate=pl.translate,
        translate_program=pl.translate_program,
        print_sexpr=pl.print_sexpr,
        read_sexpr=pl.read_sexpr,
        list_to_pair=pl.list_to_pair,
        pair_to_list=pl.pair_to_list,
    )


def traced_api(pl, tracer):
    """The same functions, each call recorded as a span of its layer."""
    api = plain_api(pl)
    w = tracer.wrap
    return SimpleNamespace(
        traced=True,
        cli_main=w("cli", api.cli_main),
        universal_env=api.universal_env,
        meta_eval=w("metacircular.meta_eval", api.meta_eval),
        read_program=w("fexpr.read", api.read_program, _in_chars),
        translate=w("translate", api.translate, forms=_one),
        translate_program=w("translate", api.translate_program, forms=_out_len),
        print_sexpr=w("sexpr.print", api.print_sexpr, _out_chars),
        read_sexpr=w("sexpr.read", api.read_sexpr, _in_chars),
        list_to_pair=w("values", api.list_to_pair),
        pair_to_list=w("values", api.pair_to_list),
    )
