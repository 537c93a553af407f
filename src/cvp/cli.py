"""Command-line driver: minimize / certify / bounds / scan / exact / flag-check.

Single artifacts are emitted as JSON (sorted keys, stable float repr), scans
as CSV, so identical configuration and seed give byte-identical output.
Exit codes: 0 success, 2 invalid configuration or violated hypothesis,
3 I/O failure.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys

import numpy as np

from . import analysis, exact, measure as measure_mod, optimize
from .manifold import TAU_MAX, ManifoldModel, kernel_matrix
from .measure import action, density_action, measure_to_dict
from .optimize import AnnealSchedule

SCAN_MAX_ROWS = 10_000  # most rows `cvp scan` runs; each row is a few anneals
BOUNDS_MAX_TIMES = 1_000  # most heat times `cvp bounds` takes; it calibrates every pair


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write_or_print(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _schedule_overrides(args) -> dict:
    """The schedule options given on the command line; the rest keep their defaults."""
    names = ("t_start", "t_end", "cooling", "steps_per_temp", "restarts")
    return {name: getattr(args, name) for name in names if getattr(args, name, None) is not None}


def _certificate_payload(model, meas, tol) -> dict:
    report = analysis.certify(model, meas, tol=tol)
    payload = report.to_dict()
    if model.kind != "flag":
        payload["antipodal_obstruction"] = analysis.antipodal_obstruction(model)
        payload["obstruction_conflict"] = analysis.gt_obstruction_conflict(model, report)
    return payload


def cmd_minimize(args) -> int:
    model = ManifoldModel(args.manifold, args.tau, args.f)
    sched = AnnealSchedule.default(model, seed=args.seed, **_schedule_overrides(args))
    meas = optimize.anneal(model, args.m, sched)
    merged = optimize.merge_clusters(model, meas, optimize._MERGE_RADIUS).measure
    measure_doc = measure_to_dict(model, merged)
    cert_doc = _certificate_payload(model, merged, args.tol)
    if args.out_measure is not None:
        _write_or_print(_dump(measure_doc), args.out_measure)
    if args.out_certificate is not None:
        _write_or_print(_dump(cert_doc), args.out_certificate)
    sys.stdout.write(_dump({"measure": measure_doc, "certificate": cert_doc}))
    return 0


def cmd_certify(args) -> int:
    model, meas = measure_mod.load_measure(args.measure)
    payload = _certificate_payload(model, meas, args.tol)
    _write_or_print(_dump(payload), args.output)
    return 0


def _heat_grid(t_min: float, t_max: float, t_count: int) -> np.ndarray:
    """t_count geometric heat times from t_min to t_max, checked before any
    work: the pair count against BOUNDS_MAX_TIMES and the truncation degree
    of the smallest time, the deepest, against the heat series' cap."""
    if not (math.isfinite(t_min) and math.isfinite(t_max)):
        raise ValueError("--t-min and --t-max must be finite")
    if t_min <= 0:
        raise ValueError("--t-min must be positive")
    if t_min > t_max:
        raise ValueError("--t-min must not exceed --t-max")
    if not 2 <= t_count <= BOUNDS_MAX_TIMES:
        raise ValueError(f"--t-count must lie in [2, {BOUNDS_MAX_TIMES}]")
    try:
        analysis._heat_lmax(t_min)
    except ValueError:
        raise ValueError(
            f"--t-min {t_min:g} needs more than {analysis._HEAT_MAX_DEGREE} Legendre degrees: "
            "raise --t-min"
        ) from None
    return np.geomspace(t_min, t_max, t_count)


def cmd_bounds(args) -> int:
    model = ManifoldModel.sphere(args.tau)
    packings = [analysis.load_packing(p) for p in args.packing]
    best_found = None
    if args.measure is not None:
        mmodel, meas = measure_mod.load_measure(args.measure)
        if mmodel.kind != "sphere" or mmodel.tau != args.tau:
            raise ValueError("--measure must hold a sphere measure at the same tau")
        best_found = action(model, meas)
    t_grid = _heat_grid(args.t_min, args.t_max, args.t_count)
    report = analysis.bounds_report(
        model, packings=packings, best_found=best_found, t_grid=t_grid
    )
    payload = report.to_dict()
    gap = report.sandwich_gap()
    payload["sandwich_gap"] = None if gap == float("inf") else gap
    _write_or_print(_dump(payload), args.output)
    return 0


def _scan_grid(tau_min: float, tau_max: float, tau_step: float) -> list:
    """tau_min, tau_min + step, ... up to tau_max; the row count is checked
    against SCAN_MAX_ROWS before the grid is built."""
    if not all(math.isfinite(t) for t in (tau_min, tau_max, tau_step)):
        raise ValueError("--tau-min, --tau-max and --tau-step must be finite")
    if tau_step <= 0:
        raise ValueError("--tau-step must be positive")
    if tau_min > tau_max:
        raise ValueError("the tau grid is empty: --tau-min must not exceed --tau-max")
    if not (1.0 <= tau_min and tau_max <= TAU_MAX):
        raise ValueError(f"--tau-min and --tau-max must lie in [1, {TAU_MAX:g}]")
    span = (tau_max - tau_min) / tau_step + 1e-9
    if not span < SCAN_MAX_ROWS:
        raise ValueError(
            f"the tau grid would have more than {SCAN_MAX_ROWS} rows: raise --tau-step"
        )
    n = int(np.floor(span)) + 1
    grid = [tau_min + i * tau_step for i in range(n)]
    return [t for t in grid if t <= tau_max + 1e-12]


def cmd_scan(args) -> int:
    grid = _scan_grid(args.tau_min, args.tau_max, args.tau_step)
    rows = optimize.tau_scan(
        args.manifold,
        grid,
        args.m,
        f=args.f,
        seed=args.seed,
        **_schedule_overrides(args),
    )
    buf = io.StringIO()
    optimize.write_scan_csv(rows, buf)
    _write_or_print(buf.getvalue(), args.output)
    return 0


def cmd_exact(args) -> int:
    if args.construction == "chain":
        chain = exact.circle_chain_minimizer(args.tau, force=args.force)
        model, meas = ManifoldModel.circle(args.tau), chain.measure
        payload = {"m0": chain.m0, "gamma": chain.gamma, "action": chain.action}
    elif args.construction == "uniform":
        model, meas = ManifoldModel.circle(args.tau), exact.circle_uniform(args.m)
        payload = {"action": action(model, meas)}
    elif args.construction == "octahedron":
        model, meas = ManifoldModel.sphere(args.tau), exact.octahedron()
        nu0 = analysis.nu0_lower_bound(model)
        payload = {"action": action(model, meas), "nu0": nu0.value, "nu0_valid": nu0.valid}
    else:  # density
        model = ManifoldModel.sphere(args.tau)
        dm = exact.three_band_density()
        mass, moment_cos, moment_p2 = measure_mod._zonal_legendre_moments(dm, 2).tolist()
        act = density_action(model, dm)
        nu0 = analysis.nu0_lower_bound(model)
        payload = {
            "mass": mass,
            "moment_cos": moment_cos,
            "moment_p2": moment_p2,
            "action": act,
            "nu0": nu0.value,
            "nu0_valid": nu0.valid,
            "action_minus_nu0": act - nu0.value,
        }
    if args.construction != "density":
        payload["measure"] = measure_to_dict(model, meas)
        payload["certificate"] = _certificate_payload(model, meas, args.tol)
    _write_or_print(_dump(payload), args.output)
    return 0


def cmd_flag_check(args) -> int:
    witness = exact.flag_negative_witness(args.f, args.tau, args.eps)
    model = ManifoldModel.flag(args.f, args.tau)
    kernel_gram = kernel_matrix(model, witness.points)
    payload = {
        "f": args.f,
        "tau": args.tau,
        "eps": args.eps,
        "gram": witness.gram.tolist(),
        "det": witness.det,
        "det_negative": witness.det < 0,
        "kernel_gram_max_diff": float(np.max(np.abs(kernel_gram - witness.gram))),
        "gt_threshold": analysis.flag_gt_threshold(args.f),
    }
    _write_or_print(_dump(payload), args.output)
    return 0


def _minimize_args(p):
    p.add_argument("--manifold", required=True, choices=("circle", "sphere", "flag"))
    p.add_argument("--tau", required=True, type=float)
    p.add_argument("--f", type=int, default=None, help="flag manifold dimension")
    p.add_argument("--m", required=True, type=int, help="number of support points")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--t-start", dest="t_start", type=float, default=None)
    p.add_argument("--t-end", dest="t_end", type=float, default=None)
    p.add_argument("--cooling", type=float, default=None)
    p.add_argument("--steps-per-temp", dest="steps_per_temp", type=int, default=None)
    p.add_argument("--restarts", type=int, default=None)
    p.add_argument("--tol", type=float, default=analysis._ANNEALED_TOL,
                   help="certification tolerance")
    p.add_argument("--out-measure", dest="out_measure", default=None)
    p.add_argument("--out-certificate", dest="out_certificate", default=None)


def _certify_args(p):
    p.add_argument("--measure", required=True)
    p.add_argument("--tol", type=float, default=analysis._EXACT_TOL)
    p.add_argument("--output", default=None)


def _bounds_args(p):
    p.add_argument("--tau", required=True, type=float)
    p.add_argument("--packing", action="append", default=[],
                   help="packing file (repeatable)")
    p.add_argument("--measure", default=None, help="measure JSON for best_found")
    t_min, t_max, t_count = analysis._HEAT_TIMES
    p.add_argument("--t-min", dest="t_min", type=float, default=t_min)
    p.add_argument("--t-max", dest="t_max", type=float, default=t_max)
    p.add_argument("--t-count", dest="t_count", type=int, default=t_count)
    p.add_argument("--output", default=None)


def _scan_args(p):
    p.add_argument("--manifold", required=True, choices=("circle", "sphere", "flag"))
    p.add_argument("--f", type=int, default=None)
    p.add_argument("--tau-min", dest="tau_min", required=True, type=float)
    p.add_argument("--tau-max", dest="tau_max", required=True, type=float)
    p.add_argument("--tau-step", dest="tau_step", required=True, type=float)
    p.add_argument("--m", required=True, type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cooling", type=float, default=None)
    p.add_argument("--steps-per-temp", dest="steps_per_temp", type=int, default=None)
    p.add_argument("--restarts", type=int, default=None)
    p.add_argument("--output", default=None)


def _exact_args(p):
    p.add_argument("construction", choices=("chain", "uniform", "octahedron", "density"))
    p.add_argument("--tau", required=True, type=float)
    p.add_argument("--m", type=int, default=4, help="uniform construction size")
    p.add_argument("--force", action="store_true",
                   help="build the chain below the theorem's tau_d hypothesis")
    p.add_argument("--tol", type=float, default=analysis._EXACT_TOL)
    p.add_argument("--output", default=None)


def _flag_check_args(p):
    p.add_argument("--f", required=True, type=int)
    p.add_argument("--tau", required=True, type=float)
    p.add_argument("--eps", required=True, type=float)
    p.add_argument("--output", default=None)


# (name, help, argument adder, handler) of each command, in the order --help lists them
_COMMANDS = (
    ("minimize", "anneal a weighted measure and certify it", _minimize_args, cmd_minimize),
    ("certify", "certify a measure loaded from JSON", _certify_args, cmd_certify),
    ("bounds", "lower/upper bounds for the sphere action", _bounds_args, cmd_bounds),
    ("scan", "tau continuation scan, CSV output", _scan_args, cmd_scan),
    ("exact", "closed-form constructions", _exact_args, cmd_exact),
    ("flag-check", "negative-eigenvalue witness on the flag", _flag_check_args, cmd_flag_check),
)


def _parser(commands) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvp",
        description="Causal variational principles: minimize, certify and bound "
        "actions of measures on the circle, the sphere and flag manifolds.",
    )
    # with fewer commands built, the usage line still names all of them
    metavar = None if commands is _COMMANDS else "{%s}" % ",".join(c[0] for c in _COMMANDS)
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, help_text, add_args, func in commands:
        p = sub.add_parser(name, help=help_text)
        add_args(p)
        p.set_defaults(func=func)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The parser with all six commands, as ``cvp --help`` shows it.

    ``main`` builds only the invoked command's subparser when its first
    argument names one, since the other five are never read and their
    ``add_argument`` calls cost more than the one it needs; that parser
    prints the same help, usage and error text as this one.
    """
    return _parser(_COMMANDS)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    chosen = tuple(c for c in _COMMANDS if argv and c[0] == argv[0])
    args = (_parser(chosen) if chosen else build_parser()).parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
