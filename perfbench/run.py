"""paritylab benchmark: one workload run, its metrics as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each run starts the workload in a fresh
process (perfbench/worker.py), which imports the program from ./src, writes
`lab` configs from the seed, calls `labcli.main` until S seconds of `lab`
wall time are used, and checks every output.  With --trace 0 the last
line holds the end-to-end metrics; with --trace 1 it holds the per-layer
metrics of a traced run of a fixed number of invocations.  Set-up time is the
median over the workload's own process and PROBES extra processes that stop
before the first `lab` call, half of them started before it and half after.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

PROBES = 4
TIME_LIMIT_S = 170.0


def spawn(args, extra, deadline):
    """Run the worker; its parsed JSON line, or None after printing why."""
    env = {k: v for k, v in os.environ.items() if k != "LAB_THREADS"}
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    spawned_at = time.perf_counter()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], env=env,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned_at))
    except subprocess.TimeoutExpired:
        print(f"worker passed the {TIME_LIMIT_S:.0f} s limit", file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"worker exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.perf_counter() + TIME_LIMIT_S

    def probe_setups(count):
        probes = [spawn(args, ["--probe"], deadline) for _ in range(0 if args.trace else count)]
        return None if None in probes else [p["setup_s"] for p in probes]

    # half the probes before the workload process and half after, so the
    # set-up times are taken across the run and not in one phase of the machine
    before = probe_setups(PROBES // 2)
    if before is None:
        return 1
    result = spawn(args, [], deadline)
    if result is None:
        return 1
    after = probe_setups(PROBES - PROBES // 2)
    if after is None:
        return 1
    for message in result["messages"]:
        print(message, file=sys.stderr)

    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in result["per_layer"].items()}
        metrics["trace.steps_per_s"] = {"value": result["steps_per_s"], "unit": "steps/s"}
    else:
        setups = before + [result["setup_s"]] + after
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "steps_per_s": {"value": result["steps_per_s"], "unit": "steps/s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
