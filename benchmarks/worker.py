"""One workload run in a fresh process, started by ``run.py``.

    PYTHONPATH=src python3 benchmarks/worker.py --workload closedform \
        --seed 1 --seconds 30 --trace 0 --out-dir .bench_run [--setup-only]

Imports ``cubemass`` from the checkout, builds the workload's model and
does its lazy set-up, then runs passes until ``--seconds`` have elapsed.
Each pass runs the workload's fixed operation list on the next seeded
input; outputs are checked after the pass clock stops.  During untraced
passes a ``speed.Sampler`` times the reference kernel every 60 ms; its
time is taken off the pass and its timings give the run's mean host
speed.  With ``--trace 1`` passes alternate untraced and traced, so the
run measures the tracing overhead as well as the per-layer split.
Prints one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import speed
from tracing import LAYER_METRICS, Tracer, summarize
from workloads import DRIFT, WORKLOADS, CheckFailed, load_references, reference_key

ROOT = Path(__file__).resolve().parent.parent
SETUP_KERNEL_SAMPLES = 10


def _import_package() -> None:
    import cubemass
    expected = (ROOT / "src" / "cubemass").resolve()
    if Path(cubemass.__file__).resolve().parent != expected:
        raise SystemExit(f"cubemass was imported from {cubemass.__file__}, "
                         f"not from {expected}")


def _run_pass(ops, sampler=None) -> tuple:
    """Runs the operations, with ``sampler`` active if one is given;
    returns the pass seconds, less the sampler's time, and the results."""
    results = []
    spent = sampler.spent if sampler else 0.0
    started = time.perf_counter()
    with sampler.active() if sampler else contextlib.nullcontext():
        for op in ops:
            try:
                results.append((True, op.run()))
            except Exception as exc:  # an operation that raises is counted as failed
                results.append((False, f"{type(exc).__name__}: {exc}"))
    seconds = time.perf_counter() - started
    if sampler:
        seconds -= sampler.spent - spent
    return seconds, results


class Checks:
    """Failure counts and deviations over every operation of a run."""

    def __init__(self, references: dict):
        self.references = references
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.max_deviation = 0.0
        self.max_residual = 0.0
        self.unreferenced = 0

    def record(self, L: float, ops, results) -> None:
        refs = self.references.get(reference_key(L), {})
        for op, (ok, result) in zip(ops, results):
            self.attempted += 1
            try:
                if not ok:
                    raise CheckFailed(result)
                values, residual = op.check(result)
                self.max_residual = max(self.max_residual, residual)
                if op.label not in refs:
                    self.unreferenced += 1
                    continue
                expected = refs[op.label]
                if len(expected) != len(values):
                    raise CheckFailed(f"{len(values)} values, reference has {len(expected)}")
                for value, ref in zip(values, expected):
                    deviation = abs(value - ref) / max(1.0, abs(ref))
                    self.max_deviation = max(self.max_deviation, deviation)
                    if not deviation <= DRIFT:
                        raise CheckFailed(f"{value!r} drifted from reference {ref!r}")
            except Exception as exc:  # any malformed output counts as a failure
                self.failed += 1
                self.failures.append(f"L={L!r} {op.label}: {type(exc).__name__}: {exc}")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    from cubemass.quad import QuadratureSpec
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas": _blas(),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": _git_commit(),
        "quadrature": QuadratureSpec().describe(),
    }


def layer_metrics(tracer, rows: list, plain: list, traced: list, kernel: list) -> dict:
    """Per-pass layer metrics: counts from the traced passes (which must
    agree exactly), times as their median.  ``trace.overhead_s`` is scaled
    like ``wall_s``; the layer times are raw.  Traced passes run without
    the speed sampler, so the layer times include none of its time."""
    out = {}
    for name, unit in LAYER_METRICS:
        if name in ("metric.model_build_s", "trace.overhead_s"):
            continue
        values = [row[name] for row in rows]
        if unit == "s":
            out[name] = statistics.median(values)
        elif any(v != values[0] for v in values):
            raise RuntimeError(f"{name} differs between traced passes: {values}")
        else:
            out[name] = values[0]
    out["metric.model_build_s"] = tracer.model_build_s()
    out["trace.overhead_s"] = speed.scaled(
        statistics.median(traced) - statistics.median(plain), statistics.fmean(kernel))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", default=str(ROOT / ".bench_run"))
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    _import_package()
    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = Tracer()
        with tracer.active():
            model = workload.setup()
    else:
        model = workload.setup()
    ready = time.monotonic()
    speed.kernel_s()  # first call warms numpy's einsum and linalg paths
    setup_kernel = [speed.kernel_s() for _ in range(SETUP_KERNEL_SAMPLES)]
    if args.setup_only:
        print(json.dumps({"ready": ready, "setup_kernel_s": setup_kernel}))
        return 0

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    checks = Checks(load_references(workload.name))
    plain, traced, rows = [], [], []
    sampler = speed.Sampler()
    started = time.perf_counter()
    for k, (L, axis) in enumerate(workload.inputs(args.seed)):
        ops = workload.ops(model, L, axis, out_dir)
        traced_pass = tracer is not None and k % 2 == 1
        if traced_pass:
            first = len(tracer.spans)
            with tracer.active():
                seconds, results = _run_pass(ops)
            rows.append(summarize(tracer, first, len(tracer.spans)))
            traced.append(seconds)
        else:
            seconds, results = _run_pass(ops, sampler)
            plain.append(seconds)
        checks.record(L, ops, results)
        if time.perf_counter() - started >= args.seconds and (tracer is None or traced_pass):
            break

    result = {
        "ready": ready,
        "setup_kernel_s": setup_kernel,
        "pass_s": plain,
        "traced_pass_s": traced,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.failures[:20],
        "max_deviation": checks.max_deviation,
        "max_residual": checks.max_residual,
        "unreferenced": checks.unreferenced,
        "kernel_s": sampler.samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, rows, plain, traced, sampler.samples)
        tracer.write(out_dir / f"trace-{workload.name}-seed{args.seed}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
