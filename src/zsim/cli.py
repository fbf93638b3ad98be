"""Command-line interface.

Verbs:

* run      integrate a scenario, export the trajectory and a summary,
           and print one drift PASS/FAIL line per formulation
* verify   run a scenario and check its tolerances (PASS/FAIL lines),
           or check the analytic identity batteries (--suite identities)
* compare  integrate all formulations from matched ICs, report divergence
* emit     export selected columns (e.g. ``emit s1 s2 s3``)
* sample   Bernoulli spin-measurement tally
* ensemble uniform-density transport check (free or corrupted flow)
* wave     sample the wave function on a coordinate-plane grid as CSV

Exit codes: 0 success, 1 a tolerance or statistical gate failed,
2 usage or configuration error.  Artifacts are deterministic (no
timestamps or timing data); wall-clock timing goes to stderr only.
Output directory: --out, else the ZSIM_OUT_DIR environment variable,
else the working directory.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import dynamics, spinor, spinstates, spintensor, trajio, wavefield
from .constants import C, MASS, OMEGA0, OMEGA1
from .minkowski import mdot
from .scenario import (
    Scenario,
    ScenarioError,
    load_scenario,
    parse_angle,
    parse_velocity,
    path_component,
    preset_names,
)
from .states import FORMULATIONS, Trajectory

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _out_dir(args) -> Path:
    path = Path(args.out or os.environ.get("ZSIM_OUT_DIR") or ".")
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # e.g. the path names an existing file
        raise ScenarioError(f"cannot use {str(path)!r} as output directory: {exc.strerror}") from None
    return path


def _timing(message: str) -> None:
    print(message, file=sys.stderr)


def _scenario_formulations(sc: Scenario) -> list[str]:
    return list(sc.states) if sc.formulation == "all" else [sc.formulation]


def _run_one(sc: Scenario, formulation: str, corrupt_momentum: float = 0.0,
             validate: bool = True) -> Trajectory:
    """Integrate one formulation; ``corrupt_momentum`` scales the position
    formulation's pi by 1 + corrupt_momentum (compare's negative control)."""
    state = sc.initial_state(formulation)
    if corrupt_momentum and formulation == "position":
        state = dynamics.PositionState(
            state.x, state.u, state.y, state.pi * (1.0 + corrupt_momentum)
        )
    t0 = time.perf_counter()
    traj = dynamics.integrate(
        state,
        sc.field,
        dt=sc.dt,
        n_steps=sc.n_steps,
        q=sc.charge,
        record_every=sc.record_every,
        validate=validate,
    )
    _timing(f"integrated {sc.name}/{formulation}: {sc.n_steps} steps "
            f"in {time.perf_counter() - t0:.2f}s")
    return traj


def _drift_value(traj: Trajectory) -> float:
    return max(abs(v) for v in traj.max_residuals().values())


def _check(name: str, value: float, tol: float) -> bool:
    """Print one ``PASS|FAIL <name>: <value> <= <tol>`` line; True on PASS."""
    ok = value <= tol
    print(f"{'PASS' if ok else 'FAIL'} {name}: {value:.3e} <= {tol:.3e}")
    return ok


def cmd_run(args) -> int:
    sc = load_scenario(args.scenario)
    drift_tol = sc.tolerances["drift"]
    status = EXIT_OK
    for formulation in ([args.formulation] if args.formulation else _scenario_formulations(sc)):
        traj = _run_one(sc, formulation)
        out = _out_dir(args)
        stem = f"{sc.name}-{formulation}"
        trajio.write_csv(traj, out / f"{stem}.csv")
        summary = {
            "scenario": sc.name,
            "formulation": formulation,
            "field": sc.field_variant,
            "dt": sc.dt,
            "n_steps": sc.n_steps,
            "record_every": sc.record_every,
            "max_residuals": traj.max_residuals(),
            "columns": trajio.column_names(formulation),
            "trajectory_csv": f"{stem}.csv",
        }
        if sc.field_variant == "free":
            summary["oracle_error"] = dynamics.oracle_errors(
                traj, sc.initial_state("position")
            )
        summary["drift"] = _drift_value(traj)
        summary["drift_tolerance"] = drift_tol
        trajio.write_json_report(out / f"{stem}-summary.json", summary)
        if not _check(f"drift[{formulation}]", summary["drift"], drift_tol):
            status = EXIT_FAIL
    return status


def _identity_checks() -> list[tuple[str, float, float]]:
    """Analytic identity batteries on a deterministic grid of states."""
    rng = np.random.default_rng(0)
    worst_tensor = 0.0
    worst_operator = 0.0
    for _ in range(50):
        theta = rng.uniform(0.0, math.pi)
        phi = rng.uniform(-math.pi, math.pi)
        velocity = rng.uniform(-0.6, 0.6, 3)
        state = dynamics.matched_initial_states(theta, phi, velocity=velocity)[
            "position"
        ]
        worst_tensor = max(worst_tensor,
                           max(spintensor.identity_suite(state).values()))
        worst_operator = max(worst_operator,
                             max(spinor.operator_identity_suite(state.pi).values()))
    return [
        ("identities[spintensor]", worst_tensor, 1e-10),
        ("identities[operator]", worst_operator, 1e-13),
    ]


def cmd_verify(args) -> int:
    checks: list[tuple[str, float, float]] = []
    if args.suite == "identities":
        if args.scenario is not None:
            raise ScenarioError("verify --suite identities takes no --scenario")
        checks = _identity_checks()
    else:
        if args.scenario is None:
            raise ScenarioError("verify --suite scenario needs --scenario")
        sc = load_scenario(args.scenario)
        trajs: dict[str, Trajectory] = {}
        for formulation in _scenario_formulations(sc):
            traj = _run_one(sc, formulation)
            trajs[formulation] = traj
            checks.append((f"drift[{formulation}]", _drift_value(traj), sc.tolerances["drift"]))
            if sc.field_variant == "free":
                err = dynamics.oracle_errors(traj, sc.initial_state("position"))
                checks.append((f"oracle[{formulation}]", err["overall"], sc.tolerances["oracle"]))
        if len(trajs) > 1:
            report = dynamics.compare_trajectories(trajs)
            checks.append(("equivalence", report.overall, sc.tolerances["compare"]))
    passed = [_check(*c) for c in checks]  # a line per check, failed or not
    return EXIT_OK if all(passed) else EXIT_FAIL


def cmd_compare(args) -> int:
    sc = load_scenario(args.scenario)
    formulations = _scenario_formulations(sc)
    if len(formulations) < 2:
        raise ScenarioError("compare needs a scenario with formulation = all")
    # a partial of a module-level function pickles; a closure would not
    run = functools.partial(_run_one, sc, corrupt_momentum=args.corrupt_momentum,
                            validate=not args.no_validate)
    t0 = time.perf_counter()
    if args.jobs > 1:
        # imported here: only this branch uses it, and it costs import time
        from concurrent.futures import ProcessPoolExecutor

        # a fork-started pool launches all its workers at once, needed or not
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(formulations))) as pool:
            trajs = dict(zip(formulations, pool.map(run, formulations)))
    else:
        trajs = {f: run(f) for f in formulations}
    _timing(f"compare {sc.name}: {time.perf_counter() - t0:.2f}s")
    report = dynamics.compare_trajectories(trajs)
    tol = sc.tolerances["compare"]
    payload = {
        "scenario": sc.name,
        "field": sc.field_variant,
        "formulations": formulations,
        "per_pair": report.per_pair,
        "overall": report.overall,
        "tolerance": tol,
        "pass": bool(report.overall <= tol),
    }
    out = _out_dir(args)
    trajio.write_json_report(out / f"{sc.name}-compare.json", payload)
    _check(f"equivalence[{sc.name}]", report.overall, tol)
    return EXIT_OK if payload["pass"] else EXIT_FAIL


def cmd_emit(args) -> int:
    sc = load_scenario(args.scenario)
    formulation = args.formulation or _scenario_formulations(sc)[0]
    names = trajio.column_names(formulation)
    residuals = ["res_c1", "res_c2", "res_c3", "res_g"]
    wanted = [c for col in args.columns for c in (residuals if col == "residuals" else [col])]
    unknown = [c for c in wanted if c not in names]
    if unknown:
        raise ScenarioError(f"unknown columns {unknown} for {formulation}; available: {names}")
    table = trajio.row_table(_run_one(sc, formulation))
    columns = {c: table[:, names.index(c)] for c in ["tau", *wanted]}
    out = _out_dir(args)
    path = out / f"{sc.name}-{formulation}-emit.csv"
    trajio.write_columns_csv(path, columns)
    print(path)
    return EXIT_OK


def cmd_sample(args) -> int:
    report = spinstates.sample_measurements(
        theta=parse_angle(args.theta),
        phi=parse_angle(args.phi),
        count=args.count,
        seed=args.seed,
        device_axis=spinstates.axis_vector(
            parse_angle(args.device_theta), parse_angle(args.device_phi)
        ),
    )
    out = _out_dir(args)
    trajio.write_json_report(out / f"sample-{args.tag}.json", report)
    z = report["z_score"]
    print(f"n_up={report['n_up']} n_dn={report['n_dn']} "
          f"p_hat={report['p_up_hat']:.5f} p={report['p_up_theory']:.5f} z={z:+.2f}")
    return EXIT_OK if _check("sample[z]", abs(z), 5.0) else EXIT_FAIL


# criterion 10's significance level: a p-value below it rejects uniformity
ENSEMBLE_ALPHA = 0.01


def cmd_ensemble(args) -> int:
    state = dynamics.matched_initial_states(
        parse_angle(args.theta), parse_angle(args.phi),
        velocity=parse_velocity(args.velocity, "--velocity"),
    )["position"]
    # w0 |tau0| at the far corner of the box plus the span: the largest phase a flow evaluates
    _phase_bound(OMEGA0 * args.box * float(np.abs(state.pi[1:]).sum()) / (MASS * C**2)
                 + 2.0 * math.pi * args.periods, f"--box {args.box!r} and this --velocity")
    # either flow ends within box + span (|drift| + |(a, b)|) on each axis; a bin k ulps of that
    # end wide biases its count by about 1/k, and the chi2 excess n/k^2 must stay below sqrt(2 dof)
    drift, osc_a, osc_b = wavefield._oscillation_coefficients(state)
    speed = float(np.max(np.abs(drift) + np.hypot(osc_a, osc_b)))
    end = args.box + 2.0 * math.pi * args.periods / OMEGA0 * speed
    dof = args.bins**3 - 1  # one cell (dof = 0) holds every count: no floor
    floor = args.bins * math.ulp(end) * (args.n**2 / (2.0 * dof)) ** 0.25 if dof else 0.0
    if args.box < floor:
        raise ScenarioError(f"--box {args.box!r} is below its float resolution floor {floor:.3g}")
    t0 = time.perf_counter()
    report = wavefield.ensemble_uniformity(
        state,
        n=args.n,
        periods=args.periods,
        seed=args.seed,
        bins=args.bins,
        box=args.box,
        flow=args.flow,
    )
    _timing(f"ensemble {args.flow}: {time.perf_counter() - t0:.2f}s")
    uniform = report["p_value"] >= ENSEMBLE_ALPHA
    report["alpha"] = ENSEMBLE_ALPHA
    report["uniform"] = bool(uniform)
    report["pass"] = bool(uniform == (args.flow == "free"))
    out = _out_dir(args)
    trajio.write_json_report(out / f"ensemble-{args.flow}-{args.seed}.json", report)
    print(f"{'PASS' if report['pass'] else 'FAIL'} ensemble[{args.flow}]: "
          f"chi2={report['chi2']:.1f} dof={report['dof']} p={report['p_value']:.4g}")
    return EXIT_OK if report["pass"] else EXIT_FAIL


_EVENT_AXES = ("x0", "x1", "x2", "x3")


def cmd_wave(args) -> int:
    sc = load_scenario(args.scenario)
    state = sc.initial_state("spinor")
    axes = args.axes.replace(",", " ").split()
    if len(axes) != 2 or len(set(axes)) != 2 or any(
        a not in _EVENT_AXES for a in axes
    ):
        raise ScenarioError(
            f"--axes needs two distinct names from {list(_EVENT_AXES)}, "
            f"got {args.axes!r}"
        )
    if args.points < 2:
        raise ScenarioError("--points must be >= 2")
    cols = [_EVENT_AXES.index(a) for a in axes]
    # w1 |tau| at the grid corners, tau from the state's event: the largest phase psi evaluates
    _phase_bound(OMEGA1 * float(np.abs(state.pi[cols]).sum()) * args.extent / (2.0 * MASS * C**2)
                 + OMEGA1 * abs(mdot(state.pi, state.x)) / (MASS * C**2),
                 f"--extent {args.extent!r} on these --axes from this origin")
    grid = np.linspace(-args.extent / 2.0, args.extent / 2.0, args.points)
    ga, gb = np.meshgrid(grid, grid, indexing="ij")
    events = np.zeros((args.points * args.points, 4))
    events[:, cols[0]], events[:, cols[1]] = ga.ravel(), gb.ravel()
    psi = wavefield.wave_function_at(state, events)
    columns = {name: events[:, j] for j, name in enumerate(_EVENT_AXES)}
    for k in range(4):
        columns[f"re{k + 1}"] = psi[:, k].real
        columns[f"im{k + 1}"] = psi[:, k].imag
    out = _out_dir(args)
    path = out / f"{sc.name}-wave.csv"
    trajio.write_columns_csv(path, columns)
    print(path)
    return EXIT_OK


_SIGNS = {"positive": lambda v: v > 0, "non-negative": lambda v: v >= 0, "": lambda v: True}


# Sizes share the scenario's step bound; --bins and --points are bounded by
# their bins**3 histogram cells and points**2 grid events:
# 208063**3 <= 2**53 < 208064**3 and 94906265 = isqrt(2**53).  Both ensemble
# flows are closed forms whose cost does not depend on --periods; its bound,
# 2**53 / 50, keeps the zitter phase they evaluate, 2 pi periods, below 2**51,
# where the float spacing of that phase is at most a quarter radian; _phase_bound
# holds ensemble's span plus its start phases across --box, and wave's phase at
# its grid corners, to the same _MAX_PHASE.
_MAX_SIZE = 2**53
_MAX_PERIODS = _MAX_SIZE / 50
_MAX_PHASE = 2.0**51
_MAX_BINS = 208_063
_MAX_POINTS = 94_906_265


def _phase_bound(phase: float, where: str) -> None:
    if phase > _MAX_PHASE:
        raise ScenarioError(f"the phase at {where} passes 2**51")


def _finite(kind, sign: str = "positive", most=None):
    """argparse converter that rejects NaN, infinities, ints beyond the float
    range, values above ``most`` and, unless ``sign`` is empty, values that
    are not ``sign``."""
    def convert(text: str):
        value = kind(text)
        try:
            ok = math.isfinite(value) and _SIGNS[sign](value)
        except OverflowError:  # an int too large for a float
            ok = False
        if not ok or (most is not None and value > most):
            bound = f" at most {most}" if most is not None else ""
            raise argparse.ArgumentTypeError(f"must be a {sign + ' ' if sign else ''}finite "
                                             f"{kind.__name__}{bound}, got {text!r}")
        return value

    convert.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return convert


def _tag(text: str) -> str:
    """argparse converter for --tag: one plain path component."""
    try:
        return path_component(text, "a tag")
    except ScenarioError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zsim",
        description="Zitter electron simulator: three equivalent formulations "
        "of a spinning relativistic electron.",
        epilog=f"scenario presets: {', '.join(preset_names())}",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, scenario_required=True):
        p.add_argument("--scenario", required=scenario_required,
                       help="preset name or INI file path")
        p.add_argument("--out", default=None, help="output directory")

    p_run = sub.add_parser("run", help="integrate and export a trajectory")
    common(p_run)
    p_run.add_argument("--formulation", choices=FORMULATIONS, default=None)
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="run and check scenario tolerances")
    common(p_verify, scenario_required=False)
    p_verify.add_argument("--suite", choices=["scenario", "identities"],
                          default="scenario",
                          help="'identities' checks the analytic batteries "
                               "and needs no scenario")
    p_verify.set_defaults(func=cmd_verify)

    p_cmp = sub.add_parser("compare", help="equivalence of the formulations")
    common(p_cmp)
    p_cmp.add_argument("--jobs", type=_finite(int), default=1,
                       help="integrate formulations in parallel processes")
    p_cmp.add_argument("--no-validate", action="store_true",
                       help="skip the initial-state constraint validator")
    p_cmp.add_argument("--corrupt-momentum", type=_finite(float, ""), default=0.0,
                       help="scale the position-formulation momentum by 1+x "
                            "(negative control; use with --no-validate)")
    p_cmp.set_defaults(func=cmd_compare)

    p_emit = sub.add_parser("emit", help="export selected columns as CSV")
    p_emit.add_argument("columns", nargs="+",
                        help="column names, or 'residuals' for all four")
    common(p_emit)
    p_emit.add_argument("--formulation", choices=FORMULATIONS, default=None)
    p_emit.set_defaults(func=cmd_emit)

    p_sample = sub.add_parser("sample", help="spin measurement tally")
    p_sample.add_argument("--theta", required=True, help="spin axis polar angle")
    p_sample.add_argument("--phi", default="0")
    p_sample.add_argument("--device-theta", default="0")
    p_sample.add_argument("--device-phi", default="0")
    p_sample.add_argument("--count", type=_finite(int, most=_MAX_SIZE), default=100_000)
    p_sample.add_argument("--seed", type=_finite(int, "non-negative"), default=0)
    p_sample.add_argument("--tag", type=_tag, default="spin", help="artifact name suffix")
    p_sample.add_argument("--out", default=None)
    p_sample.set_defaults(func=cmd_sample)

    p_ens = sub.add_parser("ensemble", help="density uniformity transport check")
    p_ens.add_argument("--flow", choices=["free", "corrupted"], default="free")
    p_ens.add_argument("--n", type=_finite(int, most=_MAX_SIZE), default=100_000)
    p_ens.add_argument("--periods", type=_finite(float, most=_MAX_PERIODS), default=10.0)
    p_ens.add_argument("--seed", type=_finite(int, "non-negative"), default=0)
    p_ens.add_argument("--bins", type=_finite(int, most=_MAX_BINS), default=16)
    p_ens.add_argument("--box", type=_finite(float), default=2.0)
    p_ens.add_argument("--velocity", default="0.7 0 0")
    p_ens.add_argument("--theta", default="0")
    p_ens.add_argument("--phi", default="0")
    p_ens.add_argument("--out", default=None)
    p_ens.set_defaults(func=cmd_ensemble)

    p_wave = sub.add_parser("wave", help="wave function on a plane grid as CSV")
    common(p_wave)
    p_wave.add_argument("--axes", default="x0 x1",
                        help="two event coordinates spanning the grid")
    p_wave.add_argument("--points", type=_finite(int, most=_MAX_POINTS), default=41,
                        help="grid points per axis")
    p_wave.add_argument("--extent", type=_finite(float), default=8.0,
                        help="grid side length, centered on the origin")
    p_wave.set_defaults(func=cmd_wave)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, MemoryError) as exc:
        print(f"error: {exc or type(exc).__name__}", file=sys.stderr)
        return EXIT_USAGE
    except (dynamics.ConstraintViolationError, dynamics.IntegrationDivergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
