"""Reproducible experiment runner.

Parses JSON scenario configs, orchestrates base / perturbation / direct
runs, applies every estimate check, and writes deterministic artifacts,
each text file moved into place whole by solver._write_atomic:

  out/
    spec.json           resolved configuration (defaults echoed), the one
                        record of every run's grid, clock and force
    base/               save_trajectory layout for the 2D base run:
                        snapshots/ (which stream into
                        base/snapshots.partial/ while it runs; likewise
                        the other two) and diagnostics.csv, written last
    perturbation/       idem for the 3D perturbation run (if configured)
    direct/             idem for the optional full 3D run
    constants.json      calibrated constants and the stability budget
    inequalities.json   one entry per inequality id with margin and status
    windows.csv         one row per window (fixed column schema)
    summary.txt         human-readable table
    meta.json           wall-clock metadata (excluded from determinism)

run_experiment and reverify reach their verdicts by one path, _check_saved,
which reads spec.json, constants.json and the runs' diagnostics.csv only.
"""

import json
import math
import os
import time
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field as dc_field, asdict, replace

import numpy as np

from .grid import TorusGrid, make_grid
from .field import Field, extrude_field, random_divfree_field
from .solver import (BlowUpError, ForcingSpec, SolverConfig, Trajectory,
                     _write_atomic, load_trajectory, run_2d_base,
                     run_perturbation, save_trajectory, taylor_green_exact)
from .worker import Worker
from . import estimates as est
from .estimates import FAIL, InequalityReport, StabilityBudget

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_ERROR = 2

WINDOW_CSV_COLUMNS = ("window", "t_start", "t_end", "X_sq_start", "X_sq_end",
                      "int_A_sq", "int_G_sq", "hypotheses", "worst_margin")

#: the verdict files of _write_verdicts, by their key in RunArtifacts.paths
VERDICT_FILES = {"inequalities": "inequalities.json",
                 "windows": "windows.csv", "summary": "summary.txt"}

#: the phases of run_experiment timed in meta.json
PHASES = ("base", "perturbation", "analysis", "writing")

#: the trajectory directories of an output, in run_perturbation's order
RUNS = ("base", "perturbation", "direct")


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
    "snapshot_stride": 250,  # of the base, perturbation and direct runs
    "base": {"initial": {"kind": "taylor-green", "amplitude": 0.005},
             "forcing": {"kind": "zero"}},
    "perturbation": None,
    "direct_3d": False,
    "budget": {"gamma_frac": 0.5, "c_star_frac": 0.5, "alpha": 0.03,
               "gamma": None, "gamma_star": None, "c_star": None,
               "c3": None, "c4": None, "c5": None},
    "tolerance": {"C": 1.0},
}

_PERT_DEFAULTS = {"initial": {"kind": "random"}, "forcing": {"kind": "zero"}}

#: each kind of an initial or forcing section: its keys and their defaults
_KINDS = {
    "initial": {"taylor-green": {"amplitude": 1.0},
                "random": {"seed": 7, "decay": 4.0, "target_h1": None,
                           "h1_sq_frac_of_gamma": 0.5}},
    "forcing": {"zero": {}, "expression": {"expressions": []}},
}

#: the JSON values a leaf takes, by the type of its default, and their name
#: in a refusal; a bool is never a number
_LEAF_TYPES = {bool: (bool, "true or false"), int: (int, "an integer"),
               float: ((int, float), "a number"), str: (str, "a string"),
               list: (list, "a list"),
               type(None): ((int, float, type(None)), "a number or null")}

#: what a leaf's type cannot say: key -> (bound, whether the bound itself
#: is excluded); a null passes
_BOUNDS = {"nu": (0, True), "dt": (0, True), "T": (0, True), "L": (0, True),
           "windows": (1, False), "C": (0, False), "decay": (0, True),
           "target_h1": (0, False), "h1_sq_frac_of_gamma": (0, False)}


def _merged(defaults: dict, given, where: str) -> dict:
    """defaults with the keys of the JSON object given put in, each checked
    against its default.

    A key must be one of defaults'.  An object default is a section, merged
    in turn; a non-null perturbation is merged into _PERT_DEFAULTS.  An
    initial or forcing section, given or defaulted, must name a kind of
    _KINDS and only that kind's keys, and is merged into that kind's
    defaults like a section, so that it holds every key of its kind.  A
    leaf takes the JSON values of _LEAF_TYPES for its default's type and
    lies within its _BOUNDS.
    """
    if not isinstance(given, dict):
        raise ConfigError(f"{where} must be an object, got {given!r}")
    # every section a copy, so that no resolved spec shares a dict with
    # the defaults
    out = {key: _merged(val, {}, where) if isinstance(val, dict) else val
           for key, val in defaults.items()}
    kinds = {key: val for key, val in defaults.items() if key in _KINDS}
    for key, val in (kinds | given).items():
        if key not in defaults:
            raise ConfigError(f"unknown key {key!r} in {where}")
        path = f"{where}.{key}"
        if key in _KINDS:
            if not isinstance(val, dict):
                raise ConfigError(f"{path} must be an object, got {val!r}")
            kind = val.get("kind")
            if not isinstance(kind, str) or kind not in _KINDS[key]:
                raise ConfigError(f"{path}.kind must be one of "
                                  f"{', '.join(_KINDS[key])}, got {kind!r}")
            val = _merged({"kind": kind} | _KINDS[key][kind], val, path)
        elif key == "perturbation" and val is not None:
            val = _merged(_PERT_DEFAULTS, val, path)
        elif isinstance(defaults[key], dict):
            val = _merged(defaults[key], val, path)
        else:
            _check_leaf(key, defaults[key], val, path)
        out[key] = val
    return out


def _check_leaf(key: str, default, val, where: str):
    """Refuse a value of key that is not of the _LEAF_TYPES of its
    default's type or that lies outside its _BOUNDS."""
    types, what = _LEAF_TYPES[type(default)]
    if not isinstance(val, types) \
            or isinstance(val, bool) != isinstance(default, bool):
        raise ConfigError(f"{where} must be {what}, got {val!r}")
    if val is not None and key in _BOUNDS:
        bound, excluded = _BOUNDS[key]
        if not (val > bound if excluded else val >= bound):
            raise ConfigError(f"{where} must be "
                              f"{'above' if excluded else 'at least'} "
                              f"{bound}, got {val!r}")


def _refuse_constant(name: str):
    raise ConfigError(f"{name}: every number of a config must be finite")


def decode_config(text: str):
    """The JSON value of a config file's text; text that does not parse is
    refused with its line and column, and the non-finite literals NaN,
    Infinity and -Infinity, which Python's json reads, by name."""
    try:
        return json.loads(text, parse_constant=_refuse_constant)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}")


def parse_config(text: str, seed: int | None = None) -> dict:
    """The resolved config of a JSON scenario config: _DEFAULTS (and, with a
    perturbation, _PERT_DEFAULTS) with the config's keys put in by _merged,
    which checks each key, type, bound and kind; a given seed replaces the
    config's.

    Schema errors carry line-level positions (JSON decoder) or dotted key
    paths.  The checks that read two keys at once also refuse, before any
    run starts: direct_3d without a perturbation, a run that SolverConfig
    refuses (the base and perturbation runs are built, without their
    initial fields, by _run_config: a grid or dt off the viscous scale, a
    window T that is not a whole number of steps dt, a snapshot_stride
    below 1), a Taylor-Green initial field on a box other than L = 2*pi, a
    random one whose seed (the config's plus its own) is negative, a force
    the run would not apply in full (_check_forcing) and a budget that
    _resolve_budget refuses.
    """
    spec = _merged(_DEFAULTS, decode_config(text), "config")
    if seed is not None:
        spec["seed"] = seed
    if spec["direct_3d"] and spec["perturbation"] is None:
        raise ConfigError("config: direct_3d needs a perturbation")
    for run in ("base", "perturbation"):
        if spec[run] is None:
            continue
        where = f"config.{run}"
        cfg = _run_config(spec, run)
        initial = spec[run]["initial"]
        if initial["kind"] == "taylor-green" \
                and abs(spec["L"] - 2.0 * math.pi) > 1e-12:
            raise ConfigError(f"{where}.initial: a Taylor-Green field needs "
                              f"L = 2*pi, got L = {spec['L']!r}")
        if initial["kind"] == "random" and spec["seed"] + initial["seed"] < 0:
            raise ConfigError(f"{where}.initial: the seed {spec['seed']} + "
                              f"{initial['seed']} is negative")
        _check_forcing(cfg, f"{where}.forcing")
    _resolve_budget(spec)
    return spec


def bundled_scenario(name: str, seed: int | None = None) -> dict:
    """Shipped scenario configs: taylor-green-decay, stability-smoke,
    hypothesis-violation; a given seed replaces the scenario's."""
    if name == "taylor-green-decay":
        cfg = {
            "scenario": name, "nu": 0.5, "dt": 5e-3, "T": 1.0, "windows": 3,
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
    return parse_config(json.dumps(cfg), seed)


# ---------------------------------------------------------------------------
# building blocks

def _build_forcing(cfg: dict) -> ForcingSpec:
    """The force of a forcing section; _check_forcing checks its component
    count against the run's grid (ForcingSpec.physical)."""
    expressions = tuple(cfg.get("expressions", ()))
    if cfg["kind"] == "expression" and not expressions:
        raise ConfigError("expression forcing needs component expressions")
    try:
        return ForcingSpec(expressions=expressions)
    except Exception as exc:
        raise ConfigError(f"forcing expression refused: {exc}")


def _run_config(spec: dict, run: str) -> SolverConfig:
    """The SolverConfig of spec's "base" or "perturbation" run, without its
    initial field; a run that SolverConfig refuses raises ConfigError."""
    dim = 2 if run == "base" else 3
    forcing = _build_forcing(spec[run]["forcing"])
    try:
        return SolverConfig(
            grid=make_grid(spec["L"], spec["N"], dim), nu=spec["nu"],
            dt=spec["dt"], t_end=spec["windows"] * spec["T"], T=spec["T"],
            forcing=forcing, snapshot_stride=spec["snapshot_stride"])
    except ValueError as exc:
        raise ConfigError(f"config.{run}: {exc}")


def _check_forcing(cfg: SolverConfig, where: str):
    """Refuse a force of cfg that does not evaluate on its grid (with a
    wrong component count, say), is not finite or has a component above
    N/3 there: the run would blow up at once, or drop the component.

    The kernel applies the force on the 2/3-rule modes only
    (grid.dealias_mask), though the config names the component.  A
    time-dependent force is checked at 9 times spanning [0, t_end];
    coefficients outside the mask up to 1e-12 of the largest are transform
    roundoff.
    """
    spec, grid = cfg.forcing, cfg.grid
    if not spec.expressions:
        return
    for t in (0.0,) if spec.steady else np.linspace(0.0, cfg.t_end, 9):
        try:
            with np.errstate(all="ignore"):
                coeffs = np.abs(spec.evaluate(grid, t))
        except Exception as exc:
            raise ConfigError(f"{where}: forcing expression refused: {exc}")
        if not np.isfinite(coeffs).all():
            raise ConfigError(f"{where}: at t={t:g} the force is not "
                              "finite on the grid")
        dropped = coeffs[:, ~grid.dealias_mask].max()
        if dropped > 1e-12 * coeffs.max():
            raise ConfigError(
                f"{where}: at t={t:g} the force has a component above "
                f"N/3 (N={grid.N}) of relative size "
                f"{dropped / coeffs.max():.2g}, which the 2/3 rule would "
                f"drop; use a larger N")


def _build_initial(cfg: dict, grid: TorusGrid, nu: float, seed: int,
                   gamma: float | None) -> Field:
    """The initial field that cfg names.  A random one is drawn in a forked
    worker, joined before this returns: numpy.random, and the OpenSSL that
    it loads through secrets, would otherwise stay in the run's process
    (about 6 MB of its peak RSS) and in every worker forked after it."""
    if cfg["kind"] == "taylor-green":
        return taylor_green_exact(grid, nu, 0.0, cfg["amplitude"])
    target = cfg["target_h1"]
    if target is None and gamma is not None:
        target = math.sqrt(cfg["h1_sq_frac_of_gamma"] * gamma)
    with Worker("initial", random_divfree_field, grid, seed + cfg["seed"],
                cfg["decay"], target) as worker:
        return worker.join()


def _resolve_budget(spec: dict) -> tuple:
    """The constants of the 3D grid and the stability budget, the config's
    overrides applied (none of c1); (calibrated constants, StabilityBudget)."""
    cal = est.calibrate_constants(make_grid(spec["L"], spec["N"], 3))
    b = spec["budget"]

    def pick(key, fallback):
        # a null override takes the calibrated or derived value
        return b[key] if b[key] is not None else fallback

    nu, T = spec["nu"], spec["T"]
    c3 = pick("c3", cal.c3)
    c4 = pick("c4", cal.c4)
    c5 = pick("c5", cal.c5)
    try:
        c_star = pick("c_star", b["c_star_frac"] * nu * c4)
        gamma_star = pick("gamma_star",
                          est.admissible_gamma_star(nu, c4, c5, c_star))
        gamma = pick("gamma", b["gamma_frac"] * gamma_star)
        budget = StabilityBudget(nu=nu, T=T, gamma=gamma,
                                 gamma_star=gamma_star, c_star=c_star,
                                 alpha=b["alpha"], c1=cal.c1, c3=c3,
                                 c4=c4, c5=c5)
    except (ArithmeticError, ValueError) as exc:
        # an inadmissible budget
        raise ConfigError(f"budget refused: {exc}")
    return cal, budget


# ---------------------------------------------------------------------------
# artifacts

@dataclass
class RunArtifacts:
    """A run or verify of out_dir: its paths by key, its wall seconds and
    its reports by id; a blow-up is the one, failing, report "blow-up"."""

    out_dir: str
    paths: dict
    wall_seconds: float
    reports: dict = dc_field(default_factory=dict)


def _window_csv(evidence: est.Evidence, reports) -> str:
    """One row per window; its worst_margin is the smallest margin of every
    report's samples at times in the window, ends included, a hypothesis's
    from its report on that window (Evidence.hypotheses), and 0 when no
    report has samples there.  A report tight by construction
    (est.Inequality) is left out: its margin is the same in every
    window."""
    lines = [",".join(WINDOW_CSV_COLUMNS)]
    for k, (s, holds) in enumerate(zip(evidence.windows, evidence.holds)):
        worst = []
        for eq_id, r in reports.items():
            if est.INEQUALITIES[eq_id].tight_by_construction:
                continue
            if eq_id in evidence.hypotheses:
                margins = evidence.hypotheses[eq_id][k].margins
            else:
                margins = r.margins[(r.times >= s.times[0])
                                    & (r.times <= s.times[-1])]
            if margins.size:
                worst.append(float(np.min(margins)))
        row = (f"{s.window},{s.times[0]:.17e},{s.times[-1]:.17e},"
               f"{s.X_sq[0]:.17e},{s.X_sq[-1]:.17e},"
               f"{s.int_A_sq:.17e},{s.int_G_sq:.17e},"
               f"{'pass' if holds else 'fail'},{min(worst, default=0.0):.17e}")
        lines.append(row)
    return "\n".join(lines) + "\n"


def analyze(base: Trajectory, pert: Trajectory | None,
            spec: dict, budget: StabilityBudget | None) -> tuple:
    """The report of every id of est.INEQUALITIES whose run exists, on
    finished trajectories; (reports by id, the est.Evidence)."""
    evidence = est.Evidence(
        base, pert, budget, spec["nu"], spec["T"],
        est.margin_tolerance(spec["tolerance"]["C"], spec["dt"]))
    reports = {}
    for eq_id, eq in est.INEQUALITIES.items():
        if getattr(evidence, eq.run) is not None:
            # a hypothesis is checked per window: the window with the
            # smallest worst margin stands for all, the first on ties
            found = evidence.hypotheses.get(eq_id) \
                or [evidence.report(eq_id)]
            reports[eq_id] = min(found, key=lambda r: r.worst_margin)
    return reports, evidence


def _write_verdicts(artifacts: RunArtifacts, evidence) -> int:
    """Write analyze's inequalities.json and windows.csv (not after a
    blow-up: evidence None), then emit_report's summary.txt, each by
    _write_atomic, into artifacts' paths; emit_report's exit code."""
    texts = {}
    if evidence is not None:
        texts["inequalities"] = est.reports_to_json(artifacts.reports) + "\n"
        texts["windows"] = _window_csv(evidence, artifacts.reports)
    texts["summary"], code = emit_report(artifacts)
    for key, text in texts.items():
        path = os.path.join(artifacts.out_dir, VERDICT_FILES[key])
        _write_atomic(path, text)
        artifacts.paths[key] = path
    return code


@contextmanager
def _timed(phases: dict, name: str):
    """Add the wall seconds of the with-block to phases[name]."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        phases[name] += time.perf_counter() - t0


def run_experiment(spec: dict, out_dir: str) -> RunArtifacts:
    """Execute the configured runs and checks; deterministic given the seed.

    Removes every earlier record that verify would accept (constants.json,
    the verdict files, meta.json, each run's diagnostics.csv), writes
    spec.json, resolves the budget, then steps the base, perturbation and
    direct runs in one run_perturbation call, each streaming its snapshots
    into the snapshots.partial directory of its trajectory directory, saves
    them once all have finished and checks the saved output by reverify's
    _check_saved.  On solver blow-up only the partial snapshot directories
    are left of the trajectories, and the one report is "blow-up".
    meta.json, written last, records the wall seconds of each of PHASES in
    this process (base beside a perturbation: the wait for the forked
    child that makes and steps the base and direct runs), the busy seconds
    of each run that child steps, the solver steps per second of the runs
    and, per run, the evaluations of its force (one per step time) and the
    count and bytes of its snapshot files.
    """
    t_wall = time.perf_counter()
    phases = dict.fromkeys(PHASES, 0.0)
    workers = {}
    steps = 0
    force_evaluations = {}
    snapshots = {}
    os.makedirs(out_dir, exist_ok=True)
    for name in ("constants.json", *VERDICT_FILES.values(), "meta.json",
                 *(os.path.join(run, "diagnostics.csv") for run in RUNS)):
        # verify must not check an earlier run under the new spec
        with suppress(FileNotFoundError):
            os.remove(os.path.join(out_dir, name))
    with _timed(phases, "writing"):
        _write_atomic(os.path.join(out_dir, "spec.json"),
                      json.dumps(spec, indent=2, sort_keys=True) + "\n")

    paths = {"spec": os.path.join(out_dir, "spec.json")}
    directories = tuple(os.path.join(out_dir, name) for name in RUNS)
    try:
        base_cfg = _run_config(spec, "base")
        base_cfg.initial = _build_initial(spec["base"]["initial"],
                                          base_cfg.grid, spec["nu"],
                                          spec["seed"], None)
        pert = direct = None
        if spec["perturbation"] is None:
            base = run_2d_base(base_cfg, directories[0])
        else:
            cal, budget = _resolve_budget(spec)
            pert_cfg = _run_config(spec, "perturbation")
            pert_cfg.initial = _build_initial(
                spec["perturbation"]["initial"], pert_cfg.grid, spec["nu"],
                spec["seed"], budget.gamma)
            direct_cfg = _direct_config(base_cfg, pert_cfg) \
                if spec["direct_3d"] else None
            base, pert, direct = run_perturbation(pert_cfg, base_cfg,
                                                  direct_cfg, directories)
            with _timed(phases, "writing"):
                _write_atomic(os.path.join(out_dir, "constants.json"),
                              json.dumps({"calibrated": asdict(cal),
                                          "budget": asdict(budget)},
                                         indent=2, sort_keys=True))
            paths["constants"] = os.path.join(out_dir, "constants.json")
    except BlowUpError as exc:
        artifacts = RunArtifacts(out_dir, paths, 0.0, {
            "blow-up": InequalityReport("blow-up", [exc.time],
                                        [-float("inf")], 0.0,
                                        note=str(exc))})
        with _timed(phases, "writing"):
            code = _write_verdicts(artifacts, None)
    else:
        phases["base"] += base.wait_seconds
        for name, directory, traj in zip(RUNS, directories,
                                         (base, pert, direct)):
            if traj is None:
                continue
            if pert is not None and name != "perturbation":
                # run_perturbation steps the base and direct runs in its
                # forked child
                workers[name] = traj.step_seconds
            else:
                phases[name] += traj.step_seconds
            steps += len(traj.diag["t"]) - 1
            force_evaluations[name] = traj.force_evaluations
            paths[name] = directory
            with _timed(phases, "writing"):
                files = save_trajectory(traj, directory)
            snapshots[name] = {"count": len(files),
                               "bytes": sum(map(os.path.getsize, files))}
        with _timed(phases, "analysis"):
            artifacts, code = _check_saved(spec, out_dir, paths)

    artifacts.wall_seconds = time.perf_counter() - t_wall
    stepping = phases["base"] + phases["perturbation"]
    _write_atomic(os.path.join(out_dir, "meta.json"), json.dumps(
        {"wall_seconds": artifacts.wall_seconds,
         "phases": phases, "workers": workers,
         "steps_per_s": steps / stepping if stepping else 0.0,
         "force_evaluations": force_evaluations,
         "snapshots": snapshots,
         "failed": "blow-up" in artifacts.reports, "exit_code": code},
        indent=2))
    return artifacts


def _direct_config(base_cfg: SolverConfig,
                   pert_cfg: SolverConfig) -> SolverConfig:
    """Config of the full 3D run of the recombined state v_s(0)+u(0)
    under f_s+g, on the perturbation's grid and clock."""
    g3 = pert_cfg.grid
    total0 = Field(g3, extrude_field(base_cfg.initial, g3).spectral()
                   + pert_cfg.initial.spectral())
    return replace(pert_cfg, initial=total0, forcing=combine_forcing(
        base_cfg.forcing, pert_cfg.forcing))


def combine_forcing(f2d: ForcingSpec, g3d: ForcingSpec) -> ForcingSpec:
    """Sum of a 2D (x3-independent) force and a 3D force as expressions,
    "0" for a component that a force lacks; zero if both are zero."""
    if not (f2d.expressions or g3d.expressions):
        return ForcingSpec()
    f_expr = list(f2d.expressions or ["0", "0"]) + ["0"]
    g_expr = list(g3d.expressions or ["0", "0", "0"])
    return ForcingSpec(expressions=tuple(
        f"({a})+({b})" for a, b in zip(f_expr, g_expr)))


def emit_report(artifacts: RunArtifacts) -> tuple:
    """Plain-text table per inequality plus the exit code.

    Exit 0: every report passed or is vacuous.  Exit 1: at least one
    non-vacuous failure (its id leads the first line), a blow-up among
    them.  Exit 2: no reports.
    """
    if not artifacts.reports:
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
        # a report that measured nothing has no margin to print
        lines.append(f"{key:<12} {r.status:<8} {r.worst_margin:>14.3e} "
                     f"{r.worst_time:>10.3f}" if r.margins.size
                     else f"{key:<12} {r.status}")
    code = EXIT_FAIL if failed_ids else EXIT_OK
    return "\n".join(lines) + "\n", code


def _first_difference(got, want, key=""):
    """(dotted key, got's value, want's value) at the first sorted key where
    the JSON values got and want differ (None where one lacks it), or None."""
    if isinstance(got, dict) and isinstance(want, dict):
        return next(filter(None, (_first_difference(
            got.get(k), want.get(k), f"{key}.{k}".lstrip("."))
            for k in sorted(got.keys() | want.keys()))), None)
    return None if got == want else (key or "the value", got, want)


def _check_saved(spec: dict, out_dir: str, paths: dict) -> tuple:
    """The one verdict path: check spec's saved output in out_dir and
    write its verdict files; (RunArtifacts of paths, the exit code).

    Refuses (FileNotFoundError), before writing anything, a missing output
    the spec calls for: the base's diagnostics.csv always, the
    perturbation's and constants.json with a perturbation; a constants.json
    that does not parse or is other than what _resolve_budget rebuilds from
    the spec, with which the checks run; series that are not at the step
    times of the spec's runs (load_trajectory).  It reads no other file.
    """
    needed = [os.path.join("base", "diagnostics.csv")]
    if spec["perturbation"] is not None:
        needed += [os.path.join("perturbation", "diagnostics.csv"),
                   "constants.json"]
    missing = [name for name in needed
               if not os.path.exists(os.path.join(out_dir, name))]
    if missing:
        raise FileNotFoundError(
            f"{out_dir} lacks {', '.join(missing)}: the run is incomplete; "
            "run the experiment again")
    base = load_trajectory(os.path.join(out_dir, "base"),
                           _run_config(spec, "base"), "2d_base")
    pert = budget = None
    if spec["perturbation"] is not None:
        pert = load_trajectory(os.path.join(out_dir, "perturbation"),
                               _run_config(spec, "perturbation"),
                               "perturbation")
        cal, budget = _resolve_budget(spec)
        path = os.path.join(out_dir, "constants.json")
        with open(path) as fh:
            try:
                found = _first_difference(json.load(fh), {
                    "calibrated": asdict(cal), "budget": asdict(budget)})
            except json.JSONDecodeError as exc:
                raise FileNotFoundError(
                    f"{path} is not readable JSON ({exc}); run the "
                    "experiment again") from None
        if found:
            key, got, want = found
            raise FileNotFoundError(f"{path}: {key} is {got!r}, but the spec "
                                    f"gives {want!r}; run the experiment again")
    reports, evidence = analyze(base, pert, spec, budget)
    artifacts = RunArtifacts(out_dir, paths, 0.0, reports)
    return artifacts, _write_verdicts(artifacts, evidence)


def reverify(out_dir: str) -> RunArtifacts:
    """Re-run the estimate checks on a stored output (no simulation) by
    run_experiment's own path, the _check_saved of its spec.json.  A
    spec.json that parse_config refuses, such as one written by another
    version, is refused by its path, with the advice to run again."""
    t_wall = time.perf_counter()
    spec_path = os.path.join(out_dir, "spec.json")
    if not os.path.exists(spec_path):
        raise FileNotFoundError(f"no experiment spec under {out_dir}")
    with open(spec_path) as fh:
        try:
            spec = parse_config(fh.read())
        except ConfigError as exc:
            raise ConfigError(
                f"{spec_path} is refused ({exc}): the output was written by "
                "another version of torusflow, or edited since; run the "
                "experiment again") from None
    artifacts, _ = _check_saved(spec, out_dir, {"spec": spec_path})
    artifacts.wall_seconds = time.perf_counter() - t_wall
    return artifacts
