"""The benchmark workloads: seeded inputs, the operations of one pass and
the checks on their outputs.

Every workload draws its passes from a fixed grid of inputs (cube
half-side L, or ladder start L0, with an axis).  The seed only permutes
the grid, so no (model, L) pair repeats within a run and every input has
a reference value recorded by ``record_references.py``.  Node counts are
fixed by the default ``QuadratureSpec``, so a pass does the same work for
every input.

Imports of ``cubemass`` happen inside the functions: the package is
loaded from the checkout by the worker process, never by the runner.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "references"

#: A point inside every model's chart; one jet there triggers lazy set-up.
WARMUP_POINT = (3.0, 2.0, 1.0)

#: A value and the documented combination of its breakdown terms (see the
#: table in ``cubemass/mass.py``) may differ by this share of the terms'
#: scale: the estimators evaluate the same formula, so only rounding.
ROUNDING = 1e-13

#: Drift rule: |value - reference| <= DRIFT * max(1, |reference|).
DRIFT = 1e-12

_16PI = 16.0 * math.pi
_8PI = 8.0 * math.pi


class CheckFailed(Exception):
    """An operation returned an output that fails its check."""


@dataclass(frozen=True)
class Op:
    """One estimate or one ladder command.

    ``check(result)`` returns the values compared against references and
    the largest invariant residual, or raises :class:`CheckFailed`.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple]


@dataclass(frozen=True)
class Workload:
    name: str
    grid: tuple                       # pass inputs: (L or L0, axis index)
    setup: Callable[[], object]       # model build and lazy set-up
    ops: Callable[..., list]          # (model, L, axis, out_dir) -> [Op]

    def inputs(self, seed: int) -> list:
        order = list(range(len(self.grid)))
        random.Random(seed).shuffle(order)
        return [self.grid[k] for k in order]


def reference_key(L: float) -> str:
    return repr(float(L))


def load_references(name: str) -> dict:
    path = REFERENCE_DIR / f"{name}.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _finite(values) -> None:
    for v in values:
        if not math.isfinite(v):
            raise CheckFailed(f"non-finite value {v!r}")


def _residual(value: float, combination: float, terms, denominator: float) -> float:
    scale = max(abs(value), sum(abs(t) for t in terms) / denominator, 1e-300)
    residual = abs(value - combination) / scale
    if residual > ROUNDING:
        raise CheckFailed(f"value {value!r} differs from the combination "
                          f"{combination!r} of its breakdown terms")
    return residual


def check_estimate(est) -> tuple:
    """Value against the documented combination of its breakdown terms."""
    b = est.breakdown
    _finite([est.value, *b.values()])
    if est.method in ("adm_cube", "adm_sphere"):
        r = _residual(est.value, b["face_term"] / _16PI, [b["face_term"]], _16PI)
    elif est.method == "gromov_cube":
        face, edge = b["face_term"], b["edge_term"]
        r = max(_residual(est.value, (-face + edge) / _8PI, [face, edge], _8PI),
                _residual(b["edge_term_alpha"], edge, [edge], 1.0))
    elif est.method == "gauss_bonnet_slices":
        terms = [b[f"slice_term_{k}"] for k in (1, 2, 3)]
        r = _residual(est.value, (terms[0] + terms[1] + terms[2]) / _8PI, terms, _8PI)
    elif est.method == "bkks_direction":
        flux, corr = b["gradient_flux_term"], b["correction_term"]
        (slice_term,) = [v for k, v in b.items() if k.startswith("slice_term_")]
        terms = [flux, slice_term, corr]
        r = max(_residual(est.value, (flux + slice_term - corr) / _8PI, terms, _8PI),
                _residual(b["uncorrected_value"], (flux + slice_term) / _8PI,
                          terms[:2], _8PI))
    elif est.method == "bartnik_sum":
        total = b["gradient_flux_term"]
        parts = [b[f"gradient_flux_term_{k}"] for k in (1, 2, 3)]
        r = max(_residual(est.value, total / _16PI, [total], _16PI),
                _residual(total, parts[0] + parts[1] + parts[2], parts, 1.0))
    else:
        raise CheckFailed(f"unexpected method {est.method!r}")
    return [est.value], r


def check_defect(d) -> tuple:
    _finite([d.defect, d.face_term, d.edge_term])
    r = _residual(d.defect, (-d.face_term + d.edge_term) / _8PI,
                  [d.face_term, d.edge_term], _8PI)
    return [d.defect], r


def check_flux(value) -> tuple:
    _finite([value])
    return [value], 0.0


def _ladder_check(out: Path, Ls: list):
    def check(exit_code) -> tuple:
        if exit_code != 0:
            raise CheckFailed(f"converge exited with code {exit_code}")
        report = json.loads(out.read_text(encoding="utf-8"))
        if report["verdict"] != "pass":
            raise CheckFailed(f"ladder verdict {report['verdict']!r}")
        if [L for L, _ in report["ladder"]] != Ls:
            raise CheckFailed("ladder sizes differ from the requested ones")
        values = [v for _, v in report["ladder"]]
        ref = report["reference_mass"]
        _finite(values + report["errors"] + [ref])
        r = max(_residual(e, abs(v - ref), [v, ref], 1.0)
                for v, e in zip(values, report["errors"]))
        return values, r
    return check


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _estimate_op(label, model, method, L, axis=None) -> Op:
    from cubemass import mass
    return Op(label, lambda: mass.estimate(model, method, L, axis=axis), check_estimate)


def _closedform_setup():
    from cubemass import metric
    model = metric.schwarzschild_model(1.0)
    metric.metric_jet(model, WARMUP_POINT)
    return model


def _closedform_ops(model, L, axis, out_dir) -> list:
    from cubemass import mass
    return [
        _estimate_op("adm", model, "adm_cube", L),
        _estimate_op("adm_sphere", model, "adm_sphere", L),
        _estimate_op("gromov", model, "gromov_cube", L),
        Op("defect", lambda: mass.gromov_defect(model, L), check_defect),
        _estimate_op("gauss_bonnet", model, "gauss_bonnet_slices", L),
        *[_estimate_op(f"bkks{k + 1}", model, "bkks_direction", L, axis=k)
          for k in range(3)],
        _estimate_op("bartnik_sum", model, "bartnik_sum", L),
        Op("bartnik_integral",
           lambda: mass.bartnik_gradient_integral(model, L, axis), check_flux),
    ]


def _survey_setup():
    from cubemass import metric
    model = metric.composed_model()
    metric.metric_jet(model, WARMUP_POINT)
    return model


def _survey_ops(model, L, axis, out_dir) -> list:
    return [
        _estimate_op("adm", model, "adm_cube", L),
        _estimate_op("gromov", model, "gromov_cube", L),
        _estimate_op("gauss_bonnet", model, "gauss_bonnet_slices", L),
        _estimate_op("bkks", model, "bkks_direction", L, axis=axis),
        _estimate_op("bartnik_sum", model, "bartnik_sum", L),
    ]


def _ladder_setup():
    # the ladder commands build their own model; this one only triggers
    # whatever set-up a pullback model defers to its first evaluation
    from cubemass import cli, metric  # noqa: F401  (cli import is set-up)
    model = metric.pullback_model(0.75)
    metric.metric_jet(model, WARMUP_POINT)
    return model


def _ladder_ops(model, L0, axis, out_dir) -> list:
    from cubemass import cli
    Ls = [L0 * 2.0 ** k for k in range(4)]
    ops = []
    for method in ("adm", "gromov"):
        out = Path(out_dir) / f"ladder-{method}.json"
        argv = ["converge", "--metric", "pullback", "--tau", "0.75",
                "--method", method, "--Ls", ",".join(repr(L) for L in Ls),
                "--out", str(out)]
        ops.append(Op(method, lambda argv=argv: cli.main(argv), _ladder_check(out, Ls)))
    return ops


WORKLOADS = {w.name: w for w in (
    Workload("closedform",
             tuple((float(L), k % 3) for k, L in enumerate(range(50, 401))),
             _closedform_setup, _closedform_ops),
    Workload("symbolic-survey",
             tuple((50.0 + 10.0 * k, k % 3) for k in range(36)),
             _survey_setup, _survey_ops),
    Workload("ladder",
             tuple((20.0 + 0.25 * k, 0) for k in range(80)),
             _ladder_setup, _ladder_ops),
)}
