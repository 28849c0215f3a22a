"""One workload run in a fresh process: set up, call `lab`, check, report.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                                --spawned-at T [--probe]

``--spawned-at`` is the parent's ``time.perf_counter()`` just before it
started this process (CLOCK_MONOTONIC, shared by all processes), so set-up
time covers interpreter start, ``import paritylab`` and writing the first
config.  With ``--probe`` the process stops there.  Prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, lab_seed  # noqa: E402


def import_paritylab():
    """Import the program from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "paritylab" / "__init__.py").is_file():
        sys.exit(f"no program sources at {src}")
    sys.path.insert(0, str(src))
    import paritylab
    import paritylab.labcli  # noqa: F401  (imports every other module)

    if Path(paritylab.__file__).resolve().parent != src / "paritylab":
        sys.exit(f"paritylab was imported from {paritylab.__file__}, not {src}")
    return paritylab


def write_config(workload, run_dir: Path, seed: int, index: int):
    """The `lab` config of one invocation: (config path, output dir, lab seed)."""
    s = lab_seed(seed, index)
    out = run_dir / f"inv{index}"
    path = run_dir / f"inv{index}.json"
    path.write_text(json.dumps({"experiment": workload.command, "seed": s,
                                "output_dir": str(out), "parameters": workload.params}))
    return path, out, s


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()

    pl = import_paritylab()
    workload = WORKLOADS[args.workload]
    tag = "probe" if args.probe else f"trace{args.trace}"
    run_dir = OUT / f"{workload.name}-seed{args.seed}-{tag}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    pending = write_config(workload, run_dir, args.seed, 0)
    setup_s = time.perf_counter() - args.spawned_at
    if args.probe:
        shutil.rmtree(run_dir)
        print(json.dumps({"setup_s": setup_s}))
        return

    tracer = Tracer() if args.trace else None
    untrace = tracer.install(pl) if tracer else None
    runs = []  # (output dir, lab seed, exit code) per invocation
    lab_s = 0.0  # summed wall time of the `lab` calls
    while True:
        path, out, s = pending
        t0 = time.perf_counter()
        try:
            code = pl.labcli.main([workload.command, "--config", str(path)])
        except Exception:  # a crash is one failed invocation, not the end of the run
            traceback.print_exc()
            code = 1
        lab_s += time.perf_counter() - t0
        runs.append((out, s, code))
        if tracer:
            if len(runs) == workload.traced_invocations:
                break
        elif lab_s >= args.seconds:
            break
        pending = write_config(workload, run_dir, args.seed, len(runs))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if untrace:
        untrace()

    # a failed invocation counts in `failed`; `correct` speaks of the outputs
    # of the invocations that did not fail, and of the program checks
    failed, wrong, messages, steps = 0, [], [], 0
    for out, s, code in runs:
        if code:
            fails = []
            messages.append(f"lab seed {s}: lab exited {code}")
        else:
            fails = [f"lab seed {s}: {m}" for m in workload.check_output(out, s)]
            wrong += fails
        failed += bool(code or fails)
        steps += 0 if code or fails else workload.steps()
    wrong += workload.check_program(pl, args.seed)
    result = {
        "correct": not wrong,
        "attempted": len(runs),
        "failed": failed,
        "steps_per_s": steps / lab_s,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "messages": messages + wrong,
    }
    if tracer:
        result["per_layer"] = tracer.metrics()
        tracer.write(run_dir / "spans.npz")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
