"""Record the reference values the benchmark checks outputs against.

    PYTHONPATH=src python3 benchmarks/record_references.py --workload closedform

Runs every operation of the workload on every input of its grid and
writes ``references/<workload>.json``: for each input key, the values
each operation's check returns (estimate values, or the four ladder
estimates).  An output that fails its invariant check stops the recording.
Re-record only when a change is meant to move the numbers, and say so.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from workloads import REFERENCE_DIR, WORKLOADS, reference_key

OUT_DIR = Path(__file__).resolve().parent.parent / ".bench_run"


def record(name: str) -> dict:
    workload = WORKLOADS[name]
    model = workload.setup()
    table = {}
    out_dir = OUT_DIR / f"record-{name}"
    out_dir.mkdir(parents=True, exist_ok=True)
    for L, axis in workload.grid:
        entry = {}
        for op in workload.ops(model, L, axis, out_dir):
            values, _ = op.check(op.run())
            entry[op.label] = values
        table[reference_key(L)] = entry
        print(f"{name} L={L!r} done", file=sys.stderr, flush=True)
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    table = record(args.workload)
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / f"{args.workload}.json"
    lines = [f"{json.dumps(key)}: {json.dumps(table[key], sort_keys=True)}"
             for key in sorted(table, key=float)]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
