"""The protolisp benchmark: one workload, closed loop, one caller thread.

    python3 perfbench/run.py --workload {host,meta,text} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from its src/.
The run first times SETUP_REPS set-ups (import of protolisp plus the
workload's own set-up), then runs whole rounds of operations until S
seconds have passed, timing each operation from outside and checking its
output.  Before every operation a short, fixed pure-Python reference loop
is timed, and every time is also given normalized to that loop:

    normalized = raw * NOMINAL_REF_S / median(8 nearest reference times)

so that a change of the host's speed during the run cancels out.  The
last line of standard output is one JSON object with the normalized
end-to-end metrics (--trace 0) or the per-layer metrics of a traced run
(--trace 1); the raw figures are printed on the line before, after "RAW".
"""

import argparse
import gc
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_REPS = 25
REF_SIDE = 4  # reference times taken into account on each side of an operation
# About the reference loop's median time on the machine the bounds were
# set on; only a scale, so that normalized times read like times.
NOMINAL_REF_S = 2.8e-4

_REF_KEYS = ("first", "rest", "combine", "atom", "eq", "null")


def _ref_walk(tree, table):
    if isinstance(tree, str):
        return table[tree]
    total = 0
    for item in tree:
        total += _ref_walk(item, table)
    return total


def reference_time():
    """Time one pass of fixed tuple-building and tree-walking work."""
    table = {k: i for i, k in enumerate(_REF_KEYS)}
    start = perf_counter()
    for _ in range(5):
        tree = ()
        for i in range(60):
            tree = ((_REF_KEYS[i % 6], _REF_KEYS[(i * 5) % 6]),) + tree[:40]
        _ref_walk(tree, table)
    return perf_counter() - start


def normalizers(refs):
    """Scale factor for the operation timed between refs[j] and refs[j + 1]."""
    out = []
    for j in range(len(refs)):
        window = refs[max(0, j + 1 - REF_SIDE) : j + 1 + REF_SIDE]
        out.append(NOMINAL_REF_S / statistics.median(window))
    return out


def import_protolisp():
    """Import protolisp from this checkout's sources, and nowhere else."""
    if not (SRC / "protolisp" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no protolisp package under {SRC}")
    sys.path.insert(0, str(SRC))
    pl = importlib.import_module("protolisp")
    if Path(pl.__file__).resolve().parent != SRC / "protolisp":
        raise SystemExit(f"perfbench: protolisp imported from {pl.__file__}")
    return pl


def measure_setup(workload):
    """Time SETUP_REPS fresh imports plus workload set-ups."""
    refs, times = [], []
    for _ in range(SETUP_REPS):
        for name in [m for m in sys.modules if m.split(".")[0] == "protolisp"]:
            del sys.modules[name]
        gc.collect()
        refs.append(reference_time())
        start = perf_counter()
        for name in workload.setup_modules:
            importlib.import_module(name)
        pl = sys.modules["protolisp"]
        workload.setup(pl, tracing.plain_api(pl))
        times.append(perf_counter() - start)
    refs.append(reference_time())
    scale = normalizers(refs)
    normalized = [t * scale[i] for i, t in enumerate(times)]
    return statistics.median(times), statistics.median(normalized), pl


class Runner:
    """Runs rounds of operations, timing, checking and counting each."""

    def __init__(self):
        self.refs = []
        self.samples = []  # (class, raw seconds, reference index, kind)
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.wrong = []

    def run(self, ops, tracer=None, per_class=None):
        """Run one round; return its summed raw operation time."""
        total = 0.0
        for op in ops:
            if op.before is not None:
                op.before()
            self.refs.append(reference_time())
            if tracer is not None:
                before = tracer.snapshot()
            self.attempted += 1
            start = perf_counter()
            try:
                result = op.run()
            except Exception:  # an operation that fails is counted, not fatal
                self.failed += 1
                traceback.print_exc(file=sys.stderr)
                continue
            elapsed = perf_counter() - start
            total += elapsed
            self.samples.append((op.cls, elapsed, len(self.refs) - 1, op.kind))
            if tracer is not None:
                _add_layer_deltas(per_class, op.cls, before, tracer.snapshot())
            if not op.check(result):
                self.correct = False
                self.wrong.append(op.kind)
        gc.collect()
        return total

    def finish(self):
        self.refs.append(reference_time())
        self.scale = normalizers(self.refs)

    def kind_medians_ms(self):
        """Median normalized time of each (class, kind) of operation."""
        groups = {}
        for c, t, j, kind in self.samples:
            groups.setdefault(f"{c}:{kind}", []).append(t * self.scale[j] * 1e3)
        return {k: round(statistics.median(v), 3) for k, v in sorted(groups.items())}

    def times(self, normalized, cls=None):
        return [
            t * (self.scale[j] if normalized else 1.0)
            for c, t, j, _ in self.samples
            if cls is None or c == cls
        ]


def _add_layer_deltas(per_class, cls, before, after):
    row = per_class.setdefault(cls, {"ops": 0})
    row["ops"] += 1
    for layer, (total, child) in after.items():
        t0, c0 = before[layer]
        row[layer] = row.get(layer, 0.0) + (total - t0) - (child - c0)


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile.

    A weighted mean of all order statistics, with Beta((n+1)p, (n+1)(1-p))
    weights.  Where the times of different program kinds leave gaps, it
    moves smoothly, while the sample quantile jumps from one side of a
    gap to the other.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 8
    weights = []
    for i in range(n):
        w = 0.0
        for k in range(steps):
            t = (i + (k + 0.5) / steps) / n
            w += math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
        weights.append(w)
    total = sum(weights)
    return sum(w * x for w, x in zip(weights, xs)) / total


def end_to_end(runner, setup_s, normalized, tail_percentile):
    all_times = runner.times(normalized)
    small = runner.times(normalized, "small")
    large = runner.times(normalized, "large")
    metrics = {
        "ops_per_s": (len(all_times) / sum(all_times), "1/s"),
        "small_ms": (quantile(small, 0.5) * 1e3, "ms"),
        "large_ms": (quantile(large, 0.5) * 1e3, "ms"),
        "large_tail_ms": (quantile(large, tail_percentile / 100) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def run_plain(workload, pl, seconds):
    api = tracing.plain_api(pl)
    runner = Runner()
    start = perf_counter()
    rounds = 0
    while perf_counter() - start < seconds:
        runner.run(workload.round_ops(rounds, pl, api))
        rounds += 1
    runner.finish()
    return runner, {"rounds": rounds, "wall_s": perf_counter() - start}


def run_traced(workload, pl, seconds, spans_path):
    """Alternate plain and traced copies of each round; report per layer."""
    tracer = tracing.Tracer()
    traced = tracing.traced_api(pl, tracer)
    plain = tracing.plain_api(pl)
    with tracer.patches(pl):
        workload.setup(pl, traced)
    load_s = tracer.totals["metacircular.load"][1]
    tracer.reset()
    runner = Runner()
    per_class = {}
    plain_s = traced_s = 0.0
    plain_refs, traced_refs = [], []
    start = perf_counter()
    rounds = 0
    while perf_counter() - start < seconds:
        first = len(runner.refs)
        plain_s += runner.run(workload.round_ops(rounds, pl, plain))
        plain_refs += runner.refs[first:]
        first = len(runner.refs)
        with tracer.patches(pl):
            traced_s += runner.run(workload.round_ops(rounds, pl, traced), tracer, per_class)
        traced_refs += runner.refs[first:]
        rounds += 1
    runner.finish()
    tracer.write_spans(spans_path)

    scale = NOMINAL_REF_S / statistics.median(traced_refs)
    plain_scale = NOMINAL_REF_S / statistics.median(plain_refs)
    t = tracer.totals

    def per_round(x):
        return x / rounds

    def secs(layer):
        return per_round(t[layer][1]) * scale

    def self_secs(layer):
        return per_round(t[layer][1] - t[layer][2]) * scale

    def rate(chars, seconds_):
        return chars / seconds_ if seconds_ > 0 else 0.0

    sexpr_s = t["sexpr.read"][1] + t["sexpr.print"][1]
    overhead = per_round(traced_s * scale - plain_s * plain_scale)
    metrics = {
        "kernel_list.calls": (per_round(t["kernel_list"][0]), "count"),
        "kernel_list.s": (secs("kernel_list"), "s"),
        "kernel_pair.calls": (per_round(t["kernel_pair"][0]), "count"),
        "kernel_pair.s": (secs("kernel_pair"), "s"),
        "evaluator.calls": (per_round(t["evaluator"][0]), "count"),
        "evaluator.s": (secs("evaluator"), "s"),
        "evaluator.self_s": (self_secs("evaluator"), "s"),
        "metacircular.load_s": (load_s * scale, "s"),
        "metacircular.meta_eval_s": (secs("metacircular.meta_eval"), "s"),
        "fexpr.read_s": (secs("fexpr.read"), "s"),
        "fexpr.chars_per_s": (rate(t["fexpr.read"][3], t["fexpr.read"][1] * scale), "1/s"),
        "sexpr.read_s": (secs("sexpr.read"), "s"),
        "sexpr.print_s": (secs("sexpr.print"), "s"),
        "sexpr.chars_per_s": (
            rate(t["sexpr.read"][3] + t["sexpr.print"][3], sexpr_s * scale),
            "1/s",
        ),
        "translate.s": (secs("translate"), "s"),
        "translate.forms": (per_round(t["translate"][4]), "count"),
        "values.convert_s": (secs("values"), "s"),
        "cli.calls": (per_round(t["cli"][0]), "count"),
        "cli.self_s": (self_secs("cli"), "s"),
        "trace.overhead_s": (overhead, "s"),
        "trace.overhead_share": (overhead / per_round(plain_s * plain_scale), "ratio"),
    }
    layer_self_ms = {
        cls: {
            layer: round(v / row["ops"] * scale * 1e3, 4)
            for layer, v in row.items()
            if layer != "ops" and v
        }
        for cls, row in per_class.items()
    }
    info = {
        "rounds": rounds,
        "wall_s": perf_counter() - start,
        "spans": tracer.span_count(),
        "self_ms_per_op": layer_self_ms,
    }
    return runner, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_protolisp()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup_raw, setup_norm, pl = measure_setup(workload)
        stem = f"{args.workload}-s{args.seed}-t{args.trace}"
        if args.trace:
            spans_path = OUT / f"trace-{args.workload}-s{args.seed}.csv.gz"
            runner, metrics, info = run_traced(workload, pl, args.seconds, spans_path)
            raw = None
        else:
            runner, info = run_plain(workload, pl, args.seconds)
            tail = workload.TAIL_PERCENTILE
            metrics = end_to_end(runner, setup_norm, True, tail)
            raw = end_to_end(runner, setup_raw, False, tail)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info.update(
        samples={c: len(runner.times(False, c)) for c in ("small", "large")},
        tail_percentile=workload.TAIL_PERCENTILE,
        reference_us={
            "median": statistics.median(runner.refs) * 1e6,
            "min": min(runner.refs) * 1e6,
            "max": max(runner.refs) * 1e6,
        },
        wrong=sorted(set(runner.wrong)),
        kind_median_ms=runner.kind_medians_ms(),
    )
    result = {
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    with open(OUT / f"result-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"result": result, "raw": raw, "info": info,
                   "samples": [(c, k, t, runner.scale[j]) for c, t, j, k in runner.samples],
                   }, fh)
    print("INFO " + json.dumps(info))
    if raw is not None:
        print("RAW " + json.dumps({k: v["value"] for k, v in raw.items()}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
