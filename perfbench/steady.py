"""Steadiness check: two sets of ten runs of perfbench/run.py on every workload.

    python3 perfbench/steady.py [--first-seed N] [--traced-runs N]

Every run lasts BENCHMARK.json's run_seconds and has its own seed:
first-seed, first-seed + 1, ... across the two sets, round robin over the
workloads.  For each workload and end-to-end metric it prints each set's
median and quartile spread (q3 - q1) / median, and the two sets agree when
every spread is within the metric's bound and the medians differ by at most
the bound, |b - a| / a, in either direction.  With --traced-runs N the first
N runs of each workload are each followed by a traced run on the same seed,
and the tracing overhead is the median over these pairs of
1 - traced steps_per_s / untraced steps_per_s.  Raw results go to
perfbench/out/steady.json.  Exits 0 when the two sets agree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10  # per set and workload
SETS = 2


def one_run(workload, seed, seconds, trace):
    t = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    wall = time.perf_counter() - t
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2, q2


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--traced-runs", type=int, default=0)
    args = parser.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = {w: [[] for _ in range(SETS)] for w in workloads}
    traced = {w: [] for w in workloads}
    seed = args.first_seed
    for s in range(SETS):
        for _ in range(RUNS):
            for w in workloads:  # round robin, so drifts in load touch all alike
                r = one_run(w, seed, seconds, 0)
                results[w][s].append(r)
                line = f"set {s} {w} seed {seed}: wall {r['wall_s']:.1f} s, " + ", ".join(
                    f"{k} {v['value']:.4g}" for k, v in r["metrics"].items())
                if len(traced[w]) < args.traced_runs:
                    t = one_run(w, seed, seconds, 1)
                    traced[w].append(t)
                    line += f", traced {t['metrics']['trace.steps_per_s']['value']:.4g}"
                print(line, flush=True)
            seed += 1

    ok = True
    report = {}
    for w in workloads:
        report[w] = {}
        for name, bound in bounds.items():
            row = {}
            for s in range(SETS):
                sp, med = spread([r["metrics"][name]["value"] for r in results[w][s]])
                row[f"set{s}"] = {"median": med, "spread": sp}
                ok &= sp <= bound
            a, b = row["set0"]["median"], row["set1"]["median"]
            row["shift"] = (b - a) / a
            ok &= abs(row["shift"]) <= bound
            report[w][name] = row
            print(f"{w:16s} {name:12s} bound {bound:.2f} " + "  ".join(
                f"set{s}: median {row[f'set{s}']['median']:.4g} spread {row[f'set{s}']['spread']:.3f}"
                for s in range(SETS)) + f"  shift {row['shift']:+.3f}")
        shares = {f"set{s}": sum(r["failed"] for r in results[w][s])
                  / sum(r["attempted"] for r in results[w][s]) for s in range(SETS)}
        correct = all(r["correct"] for rs in results[w] for r in rs)
        ok &= correct and len(set(shares.values())) == 1
        report[w]["failed_share"] = shares
        report[w]["correct"] = correct
        walls = [r["wall_s"] for rs in results[w] for r in rs]
        report[w]["wall_s_max"] = max(walls)
        line = f"{w:16s} failed share {shares}, correct {correct}, wall max {max(walls):.1f} s"
        if traced[w]:
            plain = [r["metrics"]["steps_per_s"]["value"] for rs in results[w] for r in rs]
            with_trace = [t["metrics"]["trace.steps_per_s"]["value"] for t in traced[w]]
            report[w]["tracing_overhead"] = statistics.median(
                1.0 - b / a for a, b in zip(plain, with_trace))
            line += f", tracing overhead {report[w]['tracing_overhead']:+.3f}"
        print(line)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(
        {"args": vars(args), "ok": ok, "report": report, "runs": results, "traced": traced},
        indent=1))
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
