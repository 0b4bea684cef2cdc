"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload local-writes --seed 1 --seconds 8 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` runs an untraced arm and a traced arm on identical inputs
and prints the per-layer metrics (span files land in
``.perfbench_out/``).  Every metric is printed as ``name value unit``;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = (
    "local-writes",
    "durable-local",
    "durable-contended",
    "read-mostly",
    "sim-saturated",
)

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(
            f"perfbench: {SRC}/repro not found; run from a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [SRC, HERE]
    from common import END_TO_END, PER_LAYER

    out = os.path.join(ROOT, ".perfbench_out")
    scratch = os.path.join(ROOT, ".perfbench_tmp", f"{args.workload}-{os.getpid()}")
    os.makedirs(out, exist_ok=True)
    trace = bool(args.trace)
    try:
        if args.workload == "sim-saturated":
            import sim_bench

            outcome = sim_bench.run(args.seed, args.seconds, trace, out)
        else:
            from runtime_bench import WORKLOADS as RUNTIME, RuntimeBench

            bench = RuntimeBench(RUNTIME[args.workload], args.seed, args.seconds, scratch, out)
            outcome = bench.run(trace)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass  # another run's directory is still there

    if trace:
        outcome.put("audit.safety_violations", outcome.safety_violations, "count")
        outcome.put("audit.failed_frac", outcome.failed_frac, "ratio")
        outcome.put("audit.boot_failures", outcome.boot_failures, "count")
        for name, unit in PER_LAYER:
            outcome.metrics.setdefault(name, (0.0, unit))
        declared = PER_LAYER
    else:
        declared = END_TO_END

    for name, (value, unit) in sorted(outcome.metrics.items()):
        print(f"{name} {value:.6g} {unit}")
    # Reported through "failed" and "correct" in the JSON line: both are
    # 0 on a healthy run, which a bounded relative spread cannot hold.
    print(f"failed_frac {outcome.failed_frac:.6g} ratio")
    print(f"safety_violations {outcome.safety_violations} count")
    print(f"boot_failures {outcome.boot_failures} count")
    for name, value in outcome.notes.items():
        print(f"note {name} {value}")
    print(f"attempted {outcome.attempted} failed {outcome.failed}")
    for error in outcome.errors:
        print(f"error {error}")
    metrics = {
        name: {"value": outcome.metrics[name][0], "unit": unit}
        for name, unit in declared
    }
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": max(outcome.attempted, 1),
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
