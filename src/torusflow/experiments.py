"""Reproducible experiment runner.

Parses JSON scenario configs, orchestrates base / perturbation / direct
runs, applies every estimate check, and writes deterministic artifacts:

  out/
    spec.json           resolved configuration (defaults echoed)
    base/               save_trajectory layout for the 2D base run (its
                        snapshots stream into base/snapshots.partial/
                        while it runs; likewise the other two)
    perturbation/       idem for the 3D perturbation run (if configured)
    direct/             idem for the optional full 3D run
    constants.json      calibrated constants and the stability budget
    inequalities.json   one entry per inequality id with margin and status
    windows.csv         one row per window (fixed column schema)
    summary.txt         human-readable table
    meta.json           wall-clock metadata (excluded from determinism)
"""

import json
import math
import os
import time
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field as dc_field, asdict

import numpy as np

from .grid import TorusGrid, make_grid
from .field import (Field, extrude_field, physical_field, random_divfree_field,
                    spectral_field)
from .solver import (BlowUpError, ForcingSpec, SolverConfig, Trajectory,
                     check_strides, check_viscous_scale, load_trajectory,
                     run_2d_base, run_perturbation, save_trajectory,
                     taylor_green_exact)
from . import estimates as est
from .estimates import (FAIL, PASS, VACUOUS, InequalityReport, StabilityBudget,
                        TwoDBudget)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_ERROR = 2

WINDOW_CSV_COLUMNS = ("window", "t_start", "t_end", "X_sq_start", "X_sq_end",
                      "int_A_sq", "int_G_sq", "hypotheses", "worst_margin")

#: the phases of run_experiment timed in meta.json
PHASES = ("base", "perturbation", "direct", "analysis", "writing")


class ConfigError(ValueError):
    """Scenario configuration rejected, with a schema-level message."""


# ---------------------------------------------------------------------------
# configuration

_DEFAULTS = {
    "scenario": "custom",
    "seed": 0,
    "windows": 3,
    "L": 2.0 * math.pi,
    "N": 16,
    "nu": 1.0,
    "dt": 2e-3,
    "T": 1.0,
    "sigma": 4.0,
    "snapshot_stride": 250,
    "norm_stride": 25,
    "base": {"initial": {"kind": "taylor-green", "amplitude": 0.005},
             "forcing": {"kind": "zero"}},
    "perturbation": None,
    "direct_3d": False,
    "budget": {"gamma_frac": 0.5, "c_star_frac": 0.5, "alpha": 0.03,
               "gamma": None, "gamma_star": None, "c_star": None,
               "c1": None, "c3": None, "c4": None, "c5": None},
    "tolerance": {"C": 1.0},
}

_PERT_DEFAULTS = {
    "initial": {"kind": "random", "seed": 7, "decay": 4.0,
                "h1_sq_frac_of_gamma": 0.5},
    "forcing": {"kind": "zero"},
    "snapshot_stride": 250,
}


def _merged(defaults: dict, given: dict, where: str) -> dict:
    out = dict(defaults)
    for key, val in given.items():
        if key not in defaults:
            raise ConfigError(f"unknown key {key!r} in {where}")
        if isinstance(defaults[key], dict) and isinstance(val, dict) \
                and "kind" not in defaults[key]:
            out[key] = _merged(defaults[key], val, f"{where}.{key}")
        else:
            out[key] = val
    return out


@dataclass
class ExperimentSpec:
    """Fully resolved experiment configuration (all defaults filled in)."""

    raw: dict

    def __getitem__(self, key):
        return self.raw[key]

    def to_json(self) -> str:
        return json.dumps(self.raw, indent=2, sort_keys=True)


def parse_config(text: str) -> ExperimentSpec:
    """Parse a JSON scenario config, filling and recording defaults.

    Schema errors carry line-level positions (JSON decoder) or dotted key
    paths; a value of the wrong type, a grid or dt that
    solver.check_viscous_scale refuses, strides that solver.check_strides
    refuses, a budget that _resolve_budget refuses and a force the run
    would not apply in full (_check_forcing) are refused here, before any
    run starts.  The base run alone records a norm series, at the required
    norm_stride.
    """
    try:
        given = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(given, dict):
        raise ConfigError("top-level config must be a JSON object")
    raw = _merged(_DEFAULTS, given, "config")
    if raw["perturbation"] is not None:
        raw["perturbation"] = _merged(_PERT_DEFAULTS, raw["perturbation"],
                                      "config.perturbation")
    for key in ("nu", "dt", "T", "L"):
        if not _is_number(raw[key], (int, float)) or not raw[key] > 0:
            raise ConfigError(f"{key} must be a positive number, got "
                              f"{raw[key]!r}")
    for key in ("N", "windows", "seed"):
        if not _is_number(raw[key], int):
            raise ConfigError(f"{key} must be an integer, got {raw[key]!r}")
    if raw["windows"] < 1:
        raise ConfigError("need at least one window")
    dim = 2 if raw["perturbation"] is None else 3  # 3D has the larger kmax
    try:
        check_viscous_scale(TorusGrid(raw["L"], raw["N"], dim), raw["nu"],
                            raw["dt"])
    except ValueError as exc:
        raise ConfigError(f"config: {exc}")
    if raw["norm_stride"] is None:
        raise ConfigError("config: norm_stride must be a positive integer, "
                          "got None")
    for where, section in (("config", raw),
                           ("config.perturbation", raw["perturbation"])):
        if section is not None:
            try:
                check_strides(raw["T"], raw["dt"], section["snapshot_stride"],
                              section.get("norm_stride"))
            except ValueError as exc:
                raise ConfigError(f"{where}: {exc}")
    _resolve_budget(raw)
    t_end = raw["windows"] * raw["T"]
    for where, section, dim in (("config.base.forcing", raw["base"], 2),
                                ("config.perturbation.forcing",
                                 raw["perturbation"], 3)):
        if section is not None:
            _check_forcing(_build_forcing(section["forcing"], dim),
                           make_grid(raw["L"], raw["N"], dim), t_end, where)
    return ExperimentSpec(raw=raw)


def _is_number(value, types) -> bool:
    """isinstance(value, types), but a bool (a JSON true) is no number."""
    return isinstance(value, types) and not isinstance(value, bool)


def bundled_scenario(name: str) -> ExperimentSpec:
    """Shipped scenario configs: taylor-green-decay, stability-smoke,
    hypothesis-violation."""
    if name == "taylor-green-decay":
        cfg = {
            "scenario": name, "nu": 0.5, "dt": 5e-3, "T": 1.0, "windows": 3,
            "norm_stride": 10,
            "base": {
                "initial": {"kind": "taylor-green", "amplitude": 0.3},
                "forcing": {"kind": "expression", "expressions": [
                    "0.02*sin(x1)*cos(x2)*cos(t)",
                    "-0.02*cos(x1)*sin(x2)*cos(t)"]},
            },
        }
    elif name == "stability-smoke":
        cfg = {
            "scenario": name, "nu": 1.0, "dt": 2e-3, "T": 1.0, "windows": 3,
            "base": {"initial": {"kind": "taylor-green", "amplitude": 0.005}},
            "perturbation": {},
        }
    elif name == "hypothesis-violation":
        cfg = {
            "scenario": name, "nu": 1.0, "dt": 2e-3, "T": 1.0, "windows": 2,
            "base": {"initial": {"kind": "taylor-green", "amplitude": 0.005}},
            "perturbation": {"forcing": {"kind": "expression", "expressions": [
                "0.5*sin(x3)", "0.5*sin(x1)", "0.5*sin(x2)"]}},
        }
    else:
        raise ConfigError(f"unknown bundled scenario {name!r}")
    return parse_config(json.dumps(cfg))


# ---------------------------------------------------------------------------
# building blocks

def _build_forcing(cfg: dict, dim: int) -> ForcingSpec:
    kind = cfg.get("kind", "zero")
    if kind == "zero":
        return ForcingSpec()
    if kind == "expression":
        exprs = cfg.get("expressions", [])
        if len(exprs) != dim:
            raise ConfigError(f"expression forcing needs {dim} components")
        try:
            return ForcingSpec(kind="expression", expressions=tuple(exprs))
        except Exception as exc:
            raise ConfigError(f"forcing expression refused: {exc}")
    raise ConfigError(f"unknown forcing kind {kind!r}")


def _check_forcing(spec: ForcingSpec, grid: TorusGrid, t_end: float,
                   where: str):
    """Refuse a force that does not evaluate on grid or that has a
    component above N/3 there.

    The kernel applies the force on the 2/3-rule modes only
    (grid.dealias_mask), so such a component would be dropped while the
    config still names it.  A time-dependent force is checked at 9 times
    spanning [0, t_end]; coefficients outside the mask up to 1e-12 of the
    largest are transform roundoff.
    """
    if spec.kind == "zero":
        return
    for t in (0.0,) if spec.steady else np.linspace(0.0, t_end, 9):
        try:
            coeffs = np.abs(spec.evaluate(grid, t))
        except Exception as exc:
            raise ConfigError(f"{where}: forcing expression refused: {exc}")
        dropped = coeffs[:, ~grid.dealias_mask].max()
        if dropped > 1e-12 * coeffs.max():
            raise ConfigError(
                f"{where}: at t={t:g} the force has a component above "
                f"N/3 (N={grid.N}) of relative size "
                f"{dropped / coeffs.max():.2g}, which the 2/3 rule would "
                f"drop; use a larger N")


def _build_initial(cfg: dict, grid: TorusGrid, nu: float, seed: int,
                   gamma: float | None) -> Field:
    kind = cfg.get("kind")
    if kind == "taylor-green":
        return taylor_green_exact(grid, nu, 0.0, cfg.get("amplitude", 1.0))
    if kind == "random":
        target = None
        if "target_h1" in cfg:
            target = cfg["target_h1"]
        elif gamma is not None:
            target = math.sqrt(cfg.get("h1_sq_frac_of_gamma", 0.5) * gamma)
        return random_divfree_field(grid, seed + cfg.get("seed", 0),
                                    spectrum_decay=cfg.get("decay", 4.0),
                                    target_h1=target)
    if kind == "zero":
        return spectral_field(
            grid, np.zeros((grid.dim,) + grid.shape_spec, dtype=complex),
            divergence_free=True)
    raise ConfigError(f"unknown initial kind {kind!r}")


def _resolve_budget(raw: dict) -> tuple:
    """The constants of the 3D grid and the stability budget, the config's
    overrides applied; (calibrated constants, StabilityBudget)."""
    cal = est.calibrate_constants(make_grid(raw["L"], raw["N"], 3))
    b = raw["budget"]

    def pick(key, fallback):
        return b[key] if b.get(key) is not None else fallback

    nu, T = raw["nu"], raw["T"]
    c1 = pick("c1", cal.c1)
    c3 = pick("c3", cal.c3)
    c4 = pick("c4", cal.c4)
    c5 = pick("c5", cal.c5)
    try:
        c_star = pick("c_star", b.get("c_star_frac", 0.5) * nu * c4)
        gamma_star = pick("gamma_star",
                          est.admissible_gamma_star(nu, c4, c5, c_star))
        gamma = pick("gamma", b.get("gamma_frac", 0.5) * gamma_star)
        budget = StabilityBudget(nu=nu, T=T, gamma=gamma,
                                 gamma_star=gamma_star, c_star=c_star,
                                 alpha=b.get("alpha", 0.03), c1=c1, c3=c3,
                                 c4=c4, c5=c5)
    except (TypeError, ValueError) as exc:
        # an inadmissible budget, or a null or a string in one of its values
        raise ConfigError(f"budget refused: {exc}")
    return cal, budget


# ---------------------------------------------------------------------------
# artifacts

@dataclass
class RunArtifacts:
    """Paths and metadata of one experiment run."""

    out_dir: str
    paths: dict
    config_hash: str
    wall_seconds: float
    failed: bool
    reports: dict = dc_field(default_factory=dict)


def _window_csv(series_list, hyp_by_window, reports) -> str:
    lines = [",".join(WINDOW_CSV_COLUMNS)]
    worst_overall = min((r.worst_margin for r in reports.values()),
                       default=0.0)
    for s in series_list:
        hyp_ok = est.hypotheses_hold(hyp_by_window[s.window])
        row = (f"{s.window},{s.times[0]:.17e},{s.times[-1]:.17e},"
               f"{s.X_sq[0]:.17e},{s.X_sq[-1]:.17e},"
               f"{s.int_A_sq:.17e},{s.int_G_sq:.17e},"
               f"{'pass' if hyp_ok else 'fail'},{worst_overall:.17e}")
        lines.append(row)
    return "\n".join(lines) + "\n"


def analyze(base: Trajectory, pert: Trajectory | None,
            spec_raw: dict, budget: StabilityBudget | None) -> tuple:
    """All estimate checks on finished trajectories.

    Returns (reports dict, series list, hypotheses per window).
    """
    nu, T = spec_raw["nu"], spec_raw["T"]
    tol = est.margin_tolerance(spec_raw["tolerance"]["C"], spec_raw["dt"])
    twod = est.compute_A_constants(base, T, nu)
    reports = dict(est.verify_decay_2d(base, twod, tol))
    reports["3.8"] = est.w1sigma_monitor(base, spec_raw["sigma"])

    series_list, hyp_by_window = [], {}
    if pert is not None and budget is not None:
        bconst = est.compute_B_constants(pert, twod, budget.c1, budget.c3)
        reports.update(est.verify_l2_stability(pert, bconst, T, tol))
        for k in range(spec_raw["windows"]):
            s = est.stability_series(pert, base, budget, k)
            series_list.append(s)
            hyp = est.check_stability_hypotheses(s, budget, tol)
            hyp_by_window[k] = hyp
            for key, rep in hyp.items():
                prev = reports.get(key)
                if prev is None or rep.worst_margin < prev.worst_margin:
                    reports[key] = rep
        reports.update(est.verify_stability_conclusion(series_list, budget,
                                                       tol=tol))
    return reports, series_list, hyp_by_window


def _write_verdicts(out_dir, reports, series_list, hyp_by_window) -> dict:
    """Write inequalities.json and windows.csv of analyze's results into
    out_dir; returns their paths."""
    paths = {"inequalities": os.path.join(out_dir, "inequalities.json"),
             "windows": os.path.join(out_dir, "windows.csv")}
    with open(paths["inequalities"], "w") as fh:
        fh.write(est.reports_to_json(reports) + "\n")
    with open(paths["windows"], "w") as fh:
        fh.write(_window_csv(series_list, hyp_by_window, reports))
    return paths


@contextmanager
def _timed(phases: dict, name: str):
    """Add the wall seconds of the with-block to phases[name]."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        phases[name] += time.perf_counter() - t0


def run_experiment(spec: ExperimentSpec, out_dir: str) -> RunArtifacts:
    """Execute the configured runs and checks; deterministic given the seed.

    Removes an earlier run's verdict files from out_dir, resolves the
    budget, then steps the base, perturbation and direct runs in one
    run_perturbation call, each streaming its snapshots into the
    snapshots.partial directory of its trajectory directory, and writes
    their scalar series once all have finished.  On solver blow-up only the partial snapshot
    directories are left of the trajectories, and meta.json carries the
    failure marker.  meta.json also records the wall seconds of each of
    PHASES in this process (direct: the wait for the direct run's worker),
    the busy seconds of each forked worker, the solver steps per second of
    the runs and, per run, the evaluations of its force that the cache did
    not serve and the count and bytes of its snapshot files.
    """
    t_wall = time.perf_counter()
    phases = dict.fromkeys(PHASES, 0.0)
    workers = {}
    steps = 0
    force_evaluations = {}
    snapshots = {}
    raw = spec.raw
    os.makedirs(out_dir, exist_ok=True)
    for name in ("constants.json", "inequalities.json", "windows.csv"):
        # an earlier run's verdicts must not outlive a rerun that fails
        with suppress(FileNotFoundError):
            os.remove(os.path.join(out_dir, name))
    with _timed(phases, "writing"), \
            open(os.path.join(out_dir, "spec.json"), "w") as fh:
        fh.write(spec.to_json() + "\n")

    nu, dt, T = raw["nu"], raw["dt"], raw["T"]
    t_end = raw["windows"] * T
    g2 = make_grid(raw["L"], raw["N"], 2)
    paths = {"spec": os.path.join(out_dir, "spec.json")}
    runs = ("base", "perturbation", "direct")
    directories = tuple(os.path.join(out_dir, name) for name in runs)
    failed = False
    reports = {}
    try:
        base_cfg = SolverConfig(
            grid=g2, nu=nu, dt=dt, t_end=t_end, T=T,
            forcing=_build_forcing(raw["base"]["forcing"], 2),
            initial=_build_initial(raw["base"]["initial"], g2, nu,
                                   raw["seed"], None),
            snapshot_stride=raw["snapshot_stride"],
            norm_stride=raw["norm_stride"], sigma=raw["sigma"])
        pert = direct = budget = cal = None
        if raw["perturbation"] is None:
            base = run_2d_base(base_cfg, directories[0])
        else:
            g3 = make_grid(raw["L"], raw["N"], 3)
            cal, budget = _resolve_budget(raw)
            p = raw["perturbation"]
            pert_cfg = SolverConfig(
                grid=g3, nu=nu, dt=dt, t_end=t_end, T=T,
                forcing=_build_forcing(p["forcing"], 3),
                initial=_build_initial(p["initial"], g3, nu, raw["seed"],
                                       budget.gamma),
                snapshot_stride=p["snapshot_stride"], sigma=raw["sigma"])
            direct_cfg = _direct_config(raw, base_cfg, pert_cfg) \
                if raw["direct_3d"] else None
            base, pert, direct = run_perturbation(pert_cfg, base_cfg,
                                                  direct_cfg, directories)
            with _timed(phases, "writing"), \
                    open(os.path.join(out_dir, "constants.json"), "w") as fh:
                json.dump({"calibrated": asdict(cal),
                           "budget": asdict(budget)}, fh, indent=2,
                          sort_keys=True)
            paths["constants"] = os.path.join(out_dir, "constants.json")

        for name, directory, traj in zip(runs, directories,
                                         (base, pert, direct)):
            if traj is None:
                continue
            if name == "direct":
                phases[name] += traj.wait_seconds
                workers[name] = traj.step_seconds
            else:
                phases[name] += traj.step_seconds
            steps += len(traj.diag["t"]) - 1
            force_evaluations[name] = traj.force_evaluations
            paths[name] = directory
            with _timed(phases, "writing"):
                files = save_trajectory(traj, directory)["snapshots"]
            snapshots[name] = {"count": len(files),
                               "bytes": sum(map(os.path.getsize, files))}

        with _timed(phases, "analysis"):
            reports, series_list, hyp_by_window = analyze(base, pert, raw,
                                                          budget)

        with _timed(phases, "writing"):
            paths.update(_write_verdicts(out_dir, reports, series_list,
                                         hyp_by_window))
    except BlowUpError as exc:
        failed = True
        reports = {"blow-up": InequalityReport(
            "blow-up", [exc.time], [-float("inf")], 0.0,
            note=str(exc))}

    artifacts = RunArtifacts(
        out_dir=out_dir, paths=paths,
        config_hash=_spec_hash(spec),
        wall_seconds=time.perf_counter() - t_wall,
        failed=failed, reports=reports)
    text, code = emit_report(artifacts)
    with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
        fh.write(text)
    paths["summary"] = os.path.join(out_dir, "summary.txt")
    stepping = phases["base"] + phases["perturbation"] + phases["direct"]
    with open(os.path.join(out_dir, "meta.json"), "w") as fh:
        json.dump({"hash": artifacts.config_hash,
                   "wall_seconds": artifacts.wall_seconds,
                   "phases": phases, "workers": workers,
                   "steps_per_s": steps / stepping if stepping else 0.0,
                   "force_evaluations": force_evaluations,
                   "snapshots": snapshots,
                   "failed": failed, "exit_code": code}, fh, indent=2)
    return artifacts


def _spec_hash(spec: ExperimentSpec) -> str:
    import hashlib
    return hashlib.sha256(spec.to_json().encode()).hexdigest()[:16]


def _direct_config(raw, base_cfg: SolverConfig,
                   pert_cfg: SolverConfig) -> SolverConfig:
    """Config of the full 3D run of the recombined state v_s(0)+u(0)
    under f_s+g."""
    g3 = pert_cfg.grid
    v0 = extrude_field(base_cfg.initial, g3)
    total0 = physical_field(g3, v0.physical() + pert_cfg.initial.physical())
    forcing = combine_forcing(base_cfg.forcing, pert_cfg.forcing)
    return SolverConfig(grid=g3, nu=raw["nu"], dt=raw["dt"],
                        t_end=raw["windows"] * raw["T"], T=raw["T"],
                        forcing=forcing, initial=total0,
                        snapshot_stride=pert_cfg.snapshot_stride,
                        sigma=raw["sigma"])


def combine_forcing(f2d: ForcingSpec, g3d: ForcingSpec) -> ForcingSpec:
    """Sum of a 2D (x3-independent) force and a 3D force as expressions."""
    if f2d.kind == "zero" and g3d.kind == "zero":
        return ForcingSpec()
    f_expr = list(f2d.expressions) + ["0"] if f2d.kind == "expression" \
        else ["0", "0", "0"]
    g_expr = list(g3d.expressions) if g3d.kind == "expression" \
        else ["0", "0", "0"]
    combined = tuple(f"({a})+({b})" for a, b in zip(f_expr, g_expr))
    return ForcingSpec(kind="expression", expressions=combined)


def emit_report(artifacts: RunArtifacts) -> tuple:
    """Plain-text table per inequality plus the exit code.

    Exit 0: every report passed or is vacuous.  Exit 1: at least one
    non-vacuous failure (its id leads the first line).  Exit 2: artifacts
    missing.
    """
    if not artifacts.reports and not artifacts.failed:
        return "error: no inequality reports found\n", EXIT_ERROR
    failed_ids = [k for k, r in sorted(artifacts.reports.items())
                  if r.status == FAIL]
    lines = []
    if failed_ids:
        lines.append(f"FAIL: {', '.join(failed_ids)}")
    header = f"{'inequality':<12} {'status':<8} {'worst margin':>14} " \
             f"{'at t':>10}"
    lines += [header, "-" * len(header)]
    for key, r in sorted(artifacts.reports.items()):
        lines.append(f"{key:<12} {r.status:<8} {r.worst_margin:>14.3e} "
                     f"{r.worst_time:>10.3f}")
    code = EXIT_FAIL if failed_ids or artifacts.failed else EXIT_OK
    return "\n".join(lines) + "\n", code


def reverify(out_dir: str) -> RunArtifacts:
    """Re-run the estimate checks on stored trajectories (no simulation).

    Refuses (FileNotFoundError) before writing anything when an output the
    spec calls for is missing: the complete base run (its summary.json,
    which save_trajectory writes last) and meta.json always, the complete
    perturbation run and constants.json when a perturbation is configured.
    """
    spec_path = os.path.join(out_dir, "spec.json")
    if not os.path.exists(spec_path):
        raise FileNotFoundError(f"no experiment spec under {out_dir}")
    with open(spec_path) as fh:
        spec = parse_config(fh.read())
    raw = spec.raw
    needed = [os.path.join("base", "summary.json"), "meta.json"]
    if raw["perturbation"] is not None:
        needed += [os.path.join("perturbation", "summary.json"),
                   "constants.json"]
    missing = [name for name in needed
               if not os.path.exists(os.path.join(out_dir, name))]
    if missing:
        raise FileNotFoundError(
            f"{out_dir} lacks {', '.join(missing)}: the run is incomplete; "
            "run the experiment again")
    base = load_trajectory(os.path.join(out_dir, "base"))
    pert = budget = None
    if raw["perturbation"] is not None:
        pert = load_trajectory(os.path.join(out_dir, "perturbation"))
        with open(os.path.join(out_dir, "constants.json")) as fh:
            budget = StabilityBudget(**json.load(fh)["budget"])
    with open(os.path.join(out_dir, "meta.json")) as fh:
        meta = json.load(fh)
    reports, series_list, hyp_by_window = analyze(base, pert, raw, budget)
    paths = _write_verdicts(out_dir, reports, series_list, hyp_by_window)
    return RunArtifacts(out_dir, paths, meta["hash"], meta["wall_seconds"],
                        meta["failed"], reports)
