"""Steadiness check: run each workload in two alternating sets and compare them.

    python3 perfbench/steady.py [--workloads host,meta,text] [--seed0 1000]

Runs perfbench/run.py RUNS times per set and workload for the run length
in BENCHMARK.json, every run on its own seed, alternating the sets
(A1 B1 A2 B2 ...).  For each end-to-end metric it prints each set's
median and quartiles, the spread (distance between the quartiles over the
median), the same spread of the raw, unnormalized figure, how far apart
the two sets' medians are (as a share of the first), and whether the
sets agree within the metric's bound in BENCHMARK.json: each set's spread
within the bound, and the two medians apart by no more than the bound, in
either direction.  The sets also disagree if any run reports a wrong
output or a failed operation, or if the share of failed operations is not
the same in every run.  Exits 0 only when they agree.  Run from the
checkout root.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
RUNS = 10  # per set and workload


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(lines[-1])
    raw = next(json.loads(l[4:]) for l in lines if l.startswith("RAW "))
    return result, raw


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seed0", type=int, default=1000)
    args = p.parse_args(argv)
    names = args.workloads.split(",")
    metrics = bench["end_to_end"]

    runs = {(w, s): [] for w in names for s in range(SETS)}
    seed = args.seed0
    verdict = True
    for i in range(RUNS):
        for s in range(SETS):
            for w in names:
                t0 = time.monotonic()
                result, raw = run_once(w, seed, bench["run_seconds"])
                ok = result["correct"] and result["failed"] == 0
                verdict = verdict and ok
                runs[(w, s)].append((seed, result, raw))
                print(f"# {w} set {s} run {i} seed {seed}: {time.monotonic() - t0:.1f}s"
                      f" attempted {result['attempted']} failed {result['failed']}"
                      f" correct {result['correct']}{'' if ok else '  <-- FAIL'}",
                      flush=True)
                seed += 1

    summary = {}
    for w in names:
        shares = {r["failed"] / r["attempted"] for s in range(SETS) for _, r, _ in runs[(w, s)]}
        verdict = verdict and len(shares) == 1
        print(f"\n== {w}  (failed share per run: {sorted(shares)})")
        print(f"{'metric':15} {'set':>3} {'q1':>11} {'median':>11} {'q3':>11}"
              f" {'spread':>7} {'raw spread':>10} {'apart':>6} {'bound':>6}  verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            first_median = None
            for s in range(SETS):
                values = [r["metrics"][name]["value"] for _, r, _ in runs[(w, s)]]
                raws = [raw[name] for _, _, raw in runs[(w, s)]]
                q1, med, q3, spread = quartiles(values)
                raw_spread = quartiles(raws)[3]
                ok = spread <= bound
                if first_median is None:
                    first_median, apart = med, ""
                else:
                    gap = abs(med - first_median) / first_median
                    ok = ok and gap <= bound
                    apart = f"{gap:.3f}"
                verdict = verdict and ok
                summary[f"{w}/{name}/{s}"] = {"q1": q1, "median": med, "q3": q3,
                                             "spread": spread, "raw_spread": raw_spread}
                print(f"{name:15} {s:>3} {q1:11.4f} {med:11.4f} {q3:11.4f}"
                      f" {spread:7.3f} {raw_spread:10.3f} {apart:>6} {bound:6.2f}  {'ok' if ok else 'NO'}")
    (HERE / "out").mkdir(exist_ok=True)
    out = HERE / "out" / f"steady-{int(time.time())}.json"
    out.write_text(json.dumps({"args": vars(args), "runs_per_set": RUNS, "summary": summary,
                               "runs": {f"{w}/{s}": v for (w, s), v in runs.items()}}, indent=1))
    print(f"\n{'AGREE' if verdict else 'DISAGREE'} within bounds; details in {out}")
    return 0 if verdict else 1


if __name__ == "__main__":
    sys.exit(main())
