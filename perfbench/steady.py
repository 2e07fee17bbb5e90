"""Steadiness check: run each workload repeatedly and report each metric's
spread against the bound in BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [WORKLOAD ...]
    python3 perfbench/steady.py --trace [--first-seed 1] [WORKLOAD ...]

Untraced: one run per seed.  For each end-to-end metric it prints the
median, the quartiles of statistics.quantiles(values, n=4), and the spread
(q3 - q1) / median against the metric's bound; a spread above a third of
the bound is marked.  It also checks that failed / attempted is the same
in every run.  With --trace it makes two traced runs with the same seed
and checks that every count repeats exactly.

Runs one benchmark process at a time, from the root of the checkout.
Summaries go to perfbench/out/.  Exits 1 when a spread (other than
setup_s) exceeds its bound, the failed share differs, a count differs or
a run reports an incorrect output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench_run(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spreads(spec, workload, runs, first_seed):
    results = [bench_run(spec, workload, s, 0) for s in range(first_seed, first_seed + runs)]
    ok = all(r["correct"] for r in results)
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"{workload}: {runs} runs, correct={ok}, failed shares {sorted(shares)}")
    ok = ok and len(shares) == 1
    summary = {"workload": workload, "runs": results, "metrics": {}}
    for m in spec["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        flag = "" if spread <= m["bound"] / 3 else (
            " (above a third of the bound)" if spread <= m["bound"] else " TOO WIDE")
        if spread > m["bound"] and m["name"] != "setup_s":
            ok = False
        print(f"  {m['name']:22s} median {med:12.4f} {m['unit']:6s} q1 {q1:12.4f} q3 {q3:12.4f}"
              f"  spread {spread:.4f} / bound {m['bound']}{flag}")
        summary["metrics"][m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
    (HERE / "out" / f"steady-{workload}.json").write_text(json.dumps(summary, indent=1))
    return ok


def repeat_counts(spec, workload, seed):
    a, b = (bench_run(spec, workload, seed, 1) for _ in range(2))
    ok = a["correct"] and b["correct"]
    for name, m in a["metrics"].items():
        if m["unit"] == "count" and m["value"] != b["metrics"][name]["value"]:
            ok = False
            print(f"  {name}: {m['value']} then {b['metrics'][name]['value']}")
    over = [r["metrics"]["trace.overhead_ratio"]["value"] for r in (a, b)]
    print(f"{workload}: counts {'repeat' if ok else 'DIFFER'}, "
          f"tracing overhead {over[0]:.3f} and {over[1]:.3f}")
    return ok


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workloads", nargs="*")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    (HERE / "out").mkdir(exist_ok=True)
    ok = True
    for w in names:
        ok &= (repeat_counts(spec, w, args.first_seed) if args.trace
               else spreads(spec, w, args.runs, args.first_seed))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
