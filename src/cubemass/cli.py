"""Command-line interface: estimate, converge, stern, check.

Reports are JSON with every number rendered at 17 significant digits so
values round-trip exactly; identical invocations (and seeds) produce
identical reports apart from the wall-clock ``runtime_seconds`` field.
Exit codes: 0 success, 1 failed checks, 2 invalid flags/config,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import __version__, checks, converge, mass, metric, stern
from .errors import (BadInterval, CubeMassError, DegenerateFit, DegenerateGradient,
                     DomainError, ExpressionSyntaxError, InsufficientPoints,
                     NotPositiveDefinite, OutsideDomain, UnknownIdentifier,
                     ValidationError)
from .quad import QuadratureSpec

_CONFIG_ERRORS = (ValidationError, ExpressionSyntaxError, UnknownIdentifier)
_NUMERIC_ERRORS = (OutsideDomain, NotPositiveDefinite, DomainError,
                   DegenerateGradient, BadInterval, InsufficientPoints,
                   DegenerateFit)

_METHOD_FLAGS = {
    "adm": "adm_cube", "adm-sphere": "adm_sphere", "gromov": "gromov_cube",
    "gauss-bonnet": "gauss_bonnet_slices", "bkks": "bkks_direction",
    "bartnik": "bartnik_sum", "defect": "gromov_defect",
}


# ---------------------------------------------------------------------------
# JSON with fixed float rendering
# ---------------------------------------------------------------------------

def dumps(obj, indent=0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  {json.dumps(str(k))}: {dumps(v, indent + 1)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {dumps(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, float):
        if obj != obj or obj in (float("inf"), float("-inf")):
            raise DomainError("non-finite number in report")
        return format(obj, ".17g")
    if isinstance(obj, int):
        return str(obj)
    return json.dumps(obj)


def _emit(text: str, out_path):
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# model and spec construction from flags
# ---------------------------------------------------------------------------

def _build_model(args) -> metric.MetricModel:
    name = args.metric
    if name is None:
        raise ValidationError("--metric is required")
    if name.startswith("file:"):
        return metric.load_model(name[5:])
    if name == "flat":
        return metric.flat_model()
    if name == "schwarzschild":
        return metric.schwarzschild_model(**_given(mass=args.mass))
    if name == "conformal":
        # U = 1 + c*r^(-tau): --mass doubles as the amplitude c
        tau = 1.0 if args.tau is None else args.tau
        amp = 1.0 if args.mass is None else args.mass
        exact = 2.0 * amp if tau == 1.0 else None
        return metric.conformal_model(f"1 + {amp!r}*r^(-{tau!r})", tau,
                                      inner_radius=1.0, exact_mass=exact)
    if name == "pullback":
        return metric.pullback_model(**_given(tau=args.tau, amplitude=args.mass))
    raise ValidationError(
        f"unknown --metric '{name}' (flat|schwarzschild|conformal|pullback|file:<path>)")


def _given(**flags) -> dict:
    """The flags that were set, so a constructor's own default holds for the rest."""
    return {name: value for name, value in flags.items() if value is not None}


def _axis_index(args) -> int | None:
    return None if args.axis is None else args.axis - 1


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_estimate(args) -> int:
    started = time.perf_counter()
    model = _build_model(args)
    spec = QuadratureSpec(args.order)
    if args.L is None:
        raise ValidationError("--L is required for estimate")
    method = _METHOD_FLAGS[args.method]
    axis = _axis_index(args)
    if method == "gromov_defect":
        defect = mass.gromov_defect(model, args.L, spec)
        value = defect.defect
        breakdown = {"face_term": defect.face_term, "edge_term": defect.edge_term}
        measure = "g"
    elif method == "bartnik_sum" and axis is not None:
        flux = mass.bartnik_gradient_integral(model, args.L, axis, spec)
        method = "bartnik_integral"
        value = flux
        breakdown = {"gradient_flux_term": flux}
        measure = "g"
    else:
        est = mass.estimate(model, method, args.L, spec, axis=axis,
                            measure=args.measure)
        value, breakdown, measure = est.value, est.breakdown, est.measure
    report = {
        "method": method,
        "model": model.describe(),
        "L": float(args.L),
        "value": value,
        "breakdown": breakdown,
        "quadrature": spec.describe(),
        "measure": measure,
        "runtime_seconds": time.perf_counter() - started,
        "version": __version__,
    }
    _emit(dumps(report) + "\n", args.out)
    return 0


def cmd_converge(args) -> int:
    started = time.perf_counter()
    model = _build_model(args)
    spec = QuadratureSpec(args.order)
    if not args.Ls:
        raise ValidationError("--Ls is required for converge")
    try:
        Ls = [float(v) for v in args.Ls.split(",") if v.strip()]
    except ValueError:
        raise ValidationError(f"--Ls must be comma-separated numbers, got '{args.Ls}'") from None
    method = _METHOD_FLAGS[args.method]
    if method == "gromov_defect":
        raise ValidationError("converge does not apply to the defect diagnostic")
    report = converge.run_ladder(model, method, Ls, spec, axis=_axis_index(args),
                                 measure=args.measure)
    payload = {
        "method": report.method,
        "model": report.model,
        "ladder": [[L, v] for L, v in report.ladder],
        "errors": report.errors,
        "reference_mass": report.reference_mass,
        "expected_rate": report.expected_rate,
        "rate_band": report.rate_band,
        "fitted_rate": report.fitted_rate,
        "fitted_constant": report.fitted_constant,
        "fit_r_squared": report.fit_r_squared,
        "verdict": report.verdict,
        "quadrature_floor": report.quadrature_floor,
        "quadrature": spec.describe(),
        "measure": args.measure,
        "runtime_seconds": time.perf_counter() - started,
        "version": __version__,
    }
    _emit(dumps(payload) + "\n", args.out)
    csv_text = converge.ladder_csv(report)
    if args.out:
        Path(args.out).with_suffix(".csv").write_text(csv_text, encoding="utf-8")
    else:
        sys.stdout.write(csv_text)
    return 0


_HARMONIC_FLAGS = {"linear": "flat_linear", "monopole": "flat_monopole",
                   "dipole": "flat_dipole", "schwarzschild": "schwarzschild_radial"}


def cmd_stern(args) -> int:
    started = time.perf_counter()
    model = _build_model(args)
    hid = _HARMONIC_FLAGS[args.harmonic]
    if hid == "schwarzschild_radial":
        if model.kind != "conformal" or "schwarzschild_mass" not in model.params:
            raise ValidationError(
                "--harmonic schwarzschild needs --metric schwarzschild")
        u = stern.schwarzschild_radial(model.params["schwarzschild_mass"])
    else:
        if model.kind != "flat":
            raise ValidationError(f"--harmonic {args.harmonic} needs --metric flat")
        u = stern.BUILTIN_HARMONICS[hid]()
    survey = stern.stern_survey(model, u, sample_count=args.samples, seed=args.seed,
                                r_min=args.rmin, r_max=args.rmax,
                                fd_step_factor=args.fd_step)
    payload = {
        "method": "stern_survey",
        "model": model.describe(),
        "harmonic": {"id": u.id, "params": u.params},
        "samples": survey.sample_count,
        "seed": survey.seed,
        "fd_step_factor": survey.fd_step_factor,
        "annulus": [args.rmin, args.rmax],
        "max_residual": survey.max_residual,
        "median_residual": survey.median_residual,
        "worst": survey.worst,
        "runtime_seconds": time.perf_counter() - started,
        "version": __version__,
    }
    _emit(dumps(payload) + "\n", args.out)
    return 0


def cmd_check(args) -> int:
    results = checks.run_checks(flat_only=args.flat_only,
                                inject_fault=args.inject_fault)
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name}: {res.detail}")
        failed += 0 if res.passed else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--metric", help="flat|schwarzschild|conformal|pullback|file:<path>")
    p.add_argument("--mass", type=float,
                   help="mass for schwarzschild; amplitude for conformal/pullback")
    p.add_argument("--tau", type=float, help="falloff rate for conformal/pullback")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.add_argument("--seed", type=int, default=0)


def _add_estimator(p: argparse.ArgumentParser, ladder: bool):
    _add_common(p)
    p.add_argument("--method", choices=sorted(_METHOD_FLAGS), default="adm")
    p.add_argument("--axis", type=int, choices=(1, 2, 3),
                   help="direction for bkks/bartnik")
    if ladder:
        p.add_argument("--Ls", help="comma-separated increasing cube half-sides")
    else:
        p.add_argument("--L", type=float, help="cube half-side (sphere radius for adm-sphere)")
    p.add_argument("--order", type=int, default=QuadratureSpec().order)
    p.add_argument("--measure", choices=("g", "euclidean"), default="euclidean",
                   help="ADM flux measure policy (other estimators fix their own)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubemass",
        description="Mass of asymptotically flat 3-metrics from coordinate cubes")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="run one estimator at one cube size")
    _add_estimator(p_est, ladder=False)
    p_est.set_defaults(handler=cmd_estimate)

    p_conv = sub.add_parser("converge", help="ladder of cube sizes plus rate fit")
    _add_estimator(p_conv, ladder=True)
    p_conv.set_defaults(handler=cmd_converge)

    p_stern = sub.add_parser("stern", help="survey the harmonic level-set identity")
    _add_common(p_stern)
    p_stern.add_argument("--harmonic", choices=sorted(_HARMONIC_FLAGS),
                         default="monopole")
    p_stern.add_argument("--samples", type=int, default=1000)
    p_stern.add_argument("--rmin", type=float, default=2.0)
    p_stern.add_argument("--rmax", type=float, default=20.0)
    p_stern.add_argument("--fd-step", type=float, default=None, dest="fd_step",
                         help="relative step factor (default eps^(1/3))")
    p_stern.set_defaults(handler=cmd_stern)

    p_check = sub.add_parser("check", help="run the reduced-scale property suite")
    p_check.add_argument("--flat-only", action="store_true", dest="flat_only")
    p_check.add_argument("--inject-fault", choices=("kappa-sign",),
                         dest="inject_fault", help=argparse.SUPPRESS)
    p_check.set_defaults(handler=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _NUMERIC_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except CubeMassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
