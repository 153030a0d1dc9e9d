"""FlowPulse benchmark: one command, four workloads, every check.

    python3 perfbench/run.py --workload fleet-serve --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics untraced; ``--trace 1`` measures them again, then repeats the
run with in-memory spans around each layer's entry points, writes the
spans to ``.perfbench_out/`` and reports the per-layer metrics plus the
tracing overhead (the gap between the two).  The last line of stdout is
the JSON result; progress goes to stderr.  The exit code is 0 when
every correctness check held, 1 when one failed, 2 when the program
cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("fleet-serve", "fleet-live", "chaos-simnet", "roc-trials")
#: Workloads that run in this process alone (no shard workers).
SERIAL = ("chaos-simnet", "roc-trials")


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {src}/repro; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    from common import END_TO_END, PER_LAYER, Outcome, environment

    if args.workload in SERIAL:
        # One process, one thread: keep it on one CPU so that scheduler
        # migrations add no run-to-run noise of their own.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    out = Outcome()
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    if args.workload == "fleet-serve":
        from workload_fleet import run_serve as run
    elif args.workload == "fleet-live":
        from workload_fleet import run_live as run
    elif args.workload == "chaos-simnet":
        from workload_chaos import run
    else:
        from workload_trials import run
    run(args.seed, args.seconds, bool(args.trace), out, out_dir)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(environment())
    for line in out.notes:
        print(line)
    wanted = PER_LAYER if args.trace else END_TO_END
    values = out.layers if args.trace else out.e2e
    metrics = {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in wanted.items()
    }
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']!r} {entry['unit']}")
    fraction = out.failed / out.attempted if out.attempted else 0.0
    print(f"failed_fraction = {fraction!r} ({out.failed} of {out.attempted} attempted)")
    for violation in out.violations[:20]:
        print(f"CHECK FAILED: {violation}")
    correct = not out.violations
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(1, out.attempted),
                "failed": out.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
