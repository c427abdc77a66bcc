"""Run one cubemass benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload closedform --seed 1 --seconds 30 --trace 0

Workloads: ``closedform``, ``symbolic-survey``, ``ladder`` (see README.md
next to this file).  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` the per-layer metrics of a traced run.

Every process is started one at a time and waited for.  With
``--trace 0``, set-up probes (fresh interpreters that import cubemass,
build the model and stop) run before and after the workload process, so
that they sample the machine at both ends of the run; ``setup_s`` is the
median over them and the workload process itself.

``wall_s`` and ``setup_s`` are scaled to a fixed machine speed (see
``speed.py``): the median pass time by the mean reference-kernel time
over the workload's passes, the median set-up time by the mean kernel
time right after each set-up.  The raw medians are printed alongside and
kept in the result file.

Lines before the last one are for people: the environment, the pass
count, the output checks and every metric with its unit.  The last line
is the JSON result ``{"correct", "attempted", "failed", "metrics"}``.
Files go to ``.bench_run/`` at the root of the checkout.
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

import speed
from tracing import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = ROOT / ".bench_run"
PROBES_EACH_SIDE = 3
DEADLINE_S = 170.0

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))


class WorkerFailed(Exception):
    pass


def _spawn(args: list, deadline: float) -> tuple:
    """Run worker.py to completion; returns (start time, its JSON output)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    started = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              stdout=subprocess.PIPE, env=env, cwd=ROOT,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        raise WorkerFailed("worker exceeded the run deadline") from None
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.decode("utf-8").strip().splitlines()
    if not lines:
        raise WorkerFailed("worker printed nothing")
    return started, json.loads(lines[-1])


def _setup_time(common: list, deadline: float) -> tuple:
    started, probe = _spawn(common + ["--setup-only"], deadline)
    return probe["ready"] - started, probe["setup_kernel_s"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("closedform", "symbolic-survey", "ladder"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cubemass" / "__init__.py").is_file():
        print(f"error: no cubemass sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    RUN_DIR.mkdir(exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--out-dir", str(RUN_DIR)]
    probes = 0 if args.trace else PROBES_EACH_SIDE
    try:
        setups = [_setup_time(common, deadline) for _ in range(probes)]
        started, run = _spawn(common + ["--seed", str(args.seed),
                                        "--seconds", str(args.seconds),
                                        "--trace", str(args.trace)], deadline)
        setups.append((run["ready"] - started, run["setup_kernel_s"]))
        setups += [_setup_time(common, deadline) for _ in range(probes)]
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    passes = len(run["pass_s"])
    raw_setup = statistics.median(raw for raw, _ in setups)
    raw_wall = statistics.median(run["pass_s"])
    setup_kernel = statistics.fmean(k for _, ks in setups for k in ks)
    run_kernel = statistics.fmean(run["kernel_s"])
    if args.trace:
        metrics = {name: {"value": run["layers"][name], "unit": unit}
                   for name, unit in LAYER_METRICS}
    else:
        values = {"setup_s": speed.scaled(raw_setup, setup_kernel),
                  "wall_s": speed.scaled(raw_wall, run_kernel),
                  "peak_rss_mb": run["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    attempted, failed = run["attempted"], run["failed"]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = dict(run, workload=args.workload, seed=args.seed, trace=args.trace,
                  setup_s_samples=[raw for raw, _ in setups], result=result)
    (RUN_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(run["env"]))
    print(f"passes {passes} untraced"
          + (f", {len(run['traced_pass_s'])} traced" if args.trace else ""))
    print(f"raw medians: pass {raw_wall:.6g} s, set-up {raw_setup:.6g} s; mean "
          f"reference kernel {run_kernel * 1e3:.4g} ms over {len(run['kernel_s'])} "
          f"timings in the passes, {setup_kernel * 1e3:.4g} ms after set-up "
          f"(scaled to {speed.REFERENCE_S * 1e3:.4g} ms)")
    for line in run["failures"]:
        print(f"FAILED {line}")
    print(f"fail_rate {failed / attempted:.6g}  ({failed} of {attempted} operations failed)")
    print(f"max deviation from references {run['max_deviation']:.3g} "
          f"(share of max(1, |ref|)); max breakdown residual {run['max_residual']:.3g}")
    if run["unreferenced"]:
        print(f"{run['unreferenced']} operations had no recorded reference "
              "and were checked on invariants alone")
    for name, entry in metrics.items():
        extra = f"  (median of {passes} passes)" if name == "wall_s" else ""
        print(f"{name} {entry['value']:.6g} {entry['unit']}{extra}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
