"""Regenerate ``pins.json``: the expected outcome of every chaos-simnet
scenario (event count, outcome digest) and of every roc-trials pool
entry (score, triggered flag, suspects).

    python3 perfbench/pin.py

The pins record what the program computed when the benchmark was
added; a later change that alters any of them changes the program's
output, and the benchmark reports it as a failed check.
"""

from __future__ import annotations

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workload_chaos  # noqa: E402
import workload_trials  # noqa: E402


def main() -> None:
    chaos = []
    for seed in workload_chaos.SCENARIO_SEEDS:
        one = workload_chaos.run_one(seed)
        if one["violations"]:
            raise SystemExit(f"scenario {seed} violates invariants: {one['violations']}")
        chaos.append({"seed": seed, "kind": one["kind"], "events": one["events"], "digest": one["digest"]})
        print(f"chaos seed {seed}: {one['kind']} {one['events']} events", file=sys.stderr)
    trials = [workload_trials.one_trial(i) for i in range(workload_trials.POOL_SIZE)]
    pins = {"chaos": chaos, "roc_trials": trials}
    path = pathlib.Path(__file__).with_name("pins.json")
    text = json.dumps(pins, separators=(",", ":"))
    path.write_text(text.replace('],[', '],\n[').replace('},{', '},\n{') + "\n")
    print(f"wrote {path}", file=sys.stderr)


if __name__ == "__main__":
    main()
