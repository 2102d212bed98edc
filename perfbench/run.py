"""Benchmark of the agririsk pipeline, end to end and per layer.

    python3 perfbench/run.py --workload eu22-fft --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py             # every workload, untraced then traced

An operation is one ``analyze``, ``dist`` or ``simulate`` command run
in-process (ops.py); a pass runs a workload's operations (workloads.py) once,
in order, from one single-threaded closed loop. After an untimed warm-up
pass, timed passes repeat until at least three have run and ``--seconds`` of
pass time have elapsed. Each operation's output is checked (checks.py); an
exception or a failed check counts the operation as failed. Run-level checks
(CLI parity, counts that repeat across passes and across runs of the same
seed) fail the run.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: ``setup_s``,
the median of five fresh interpreters importing agririsk and agririsk.cli;
``pass_s``, each operation's median time over the timed passes, summed over
the workload's operations; and ``peak_rss_mb``. Both times are in seconds at
a fixed reference speed: a reference kernel (reference.py) is timed before
every operation and setup sample, and the times are multiplied by its stored
reference time over its median time in the run. Printed above the result:
the same sums by kind of operation (``analyze_s``, ``dist_s``,
``simulate_s``) beside their unscaled per-pass medians, quartiles and sample
counts; ``cli_s``, the cold wall time of the workload's command run once as
``python -m agririsk.cli``; and ``fail_frac``, failed operations over
attempted operations.

``--trace 1`` alternates traced and untraced passes. Spans around each layer
call (spans.py) give per-layer self times (median over traced passes,
scaled), counts come from array sizes, and ``trace.overhead_s`` is the traced
minus the untraced pass time, each summed from operation medians and scaled.
The spans are written to ``.perfbench/`` at the end.

agririsk is imported from the ``src`` directory beside this one, by absolute
path. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def run_all(seed: int, seconds: float) -> int:
    """Run every workload untraced and traced, each in a fresh interpreter."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in ("0", "1"):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", trace]
            done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
            lines = done.stdout.splitlines()
            if done.returncode != 0 or not lines:
                print(f"workload {name} trace {trace} exited {done.returncode}", file=sys.stderr)
                return 1
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="agririsk pipeline benchmark")
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "agririsk" / "__init__.py").is_file():
        print(f"agririsk source not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    sys.path.insert(0, str(SRC))
    import agririsk

    if Path(agririsk.__file__).resolve().parent != SRC / "agririsk":
        print(f"agririsk was imported from {agririsk.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from bench import run_workload

    print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
