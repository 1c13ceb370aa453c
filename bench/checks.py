"""Output checks for one experiment directory, computed apart from torusflow.

Nothing here imports the package under test: snapshots are read with
``numpy.load``, transforms are ``numpy.fft`` calls written out here, and the
closed-form quantities (Taylor-Green energy, the stability budget, the
scalar window conditions) are re-derived from their formulas.  Each check
returns a list of human-readable problems; an empty list means it passed.
"""

import csv
import json
import math
import os

import numpy as np

#: every inequality id a run with a perturbation must report
EXPECTED_IDS = ("3.1", "3.2", "3.3", "3.4", "3.5", "3.8", "4.12a", "4.12b",
                "4.13", "4.18-env", "4.19", "4.1a", "4.1b", "4.25", "4.26a",
                "4.26b", "4.27")

RUN_ARTIFACTS = ("spec.json", "base", "perturbation", "constants.json",
                 "inequalities.json", "windows.csv", "summary.txt",
                 "meta.json")

# Parseval on the collocation grid is an identity; only summation order
# differs between the two sides.
PARSEVAL_RTOL = 1e-11
# The split run and the direct run differ by the splitting error of the
# Heun corrector (the base is corrected with its own predictor), which is
# far below this; a snapshot shifted by one grid cell or one stored time
# is off by order one.
SPLIT_RTOL = 1e-8
# Closed-form scalars recomputed from values stored with 17 digits.
SCALAR_RTOL = 1e-12
# verify must reproduce run's margins to roundoff.
MARGIN_RTOL = 1e-12
MARGIN_ATOL = 1e-15


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_csv(path):
    """Columns of a numeric CSV with a header row, as float arrays."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: np.array([float(r[i]) for r in body])
            for i, name in enumerate(header)}


def read_windows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def load_snapshot(path):
    """(meta dict, spectral array) from one stored .npz snapshot."""
    with np.load(path, allow_pickle=False) as npz:
        return json.loads(str(npz["meta"])), npz["data"]


def snapshot_paths(traj_dir):
    snapdir = os.path.join(traj_dir, "snapshots")
    return [os.path.join(snapdir, n) for n in sorted(os.listdir(snapdir))]


def to_physical(meta, spec):
    """Collocation values of rfftn-stored coefficients normalized so that
    the k=0 coefficient is the spatial mean."""
    dim, n = meta["dim"], meta["N"]
    axes = tuple(range(1, dim + 1))
    return np.fft.irfftn(spec * float(n) ** dim, s=(n,) * dim, axes=axes)


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# individual checks

def check_artifacts(out_dir, spec):
    names = list(RUN_ARTIFACTS) + (["direct"] if spec["direct_3d"] else [])
    return [f"missing artifact {n}" for n in names
            if not os.path.exists(os.path.join(out_dir, n))]


def check_statuses(ineq):
    problems = [f"inequality {i} missing" for i in EXPECTED_IDS
                if i not in ineq]
    problems += [f"inequality {k} has status fail"
                 for k, e in sorted(ineq.items()) if e["status"] == "fail"]
    return problems


def check_taylor_green_energy(out_dir, spec):
    """Unforced Taylor-Green base: E(t) = 2 pi^2 a^2 exp(-4 nu t).

    The nonlinear term of Taylor-Green is a pure gradient and is projected
    out, so the only error is Crank-Nicolson's: with z = nu*dt*|k|^2/2 and
    |k|^2 = 2 the energy after n steps is off by 4 n z^3 / 3 to leading
    order.  The check allows twice that.
    """
    base = spec["base"]
    if base["forcing"]["kind"] != "zero" \
            or base["initial"]["kind"] != "taylor-green":
        return []
    nu, dt = spec["nu"], spec["dt"]
    amp = base["initial"]["amplitude"]
    diag = read_csv(os.path.join(out_dir, "base", "diagnostics.csv"))
    t, energy = diag["t"], diag["l2_sq"]
    exact = 2.0 * math.pi**2 * amp**2 * np.exp(-4.0 * nu * t)
    z = nu * dt
    allowed = 2.0 * (4.0 / 3.0) * np.round(t / dt) * z**3 + 1e-12
    err = np.abs(energy - exact) / exact
    bad = np.nonzero(err > allowed)[0]
    if bad.size:
        i = bad[0]
        return [f"Taylor-Green energy off by {err[i]:.3e} relative at "
                f"t={t[i]:g} (allowed {allowed[i]:.3e})"]
    return []


def check_parseval(out_dir):
    """Mean-free L2^2 of every stored snapshot, summed on the collocation
    grid, against the l2_sq column of diagnostics.csv."""
    problems = []
    for name in ("base", "perturbation", "direct"):
        traj = os.path.join(out_dir, name)
        if not os.path.isdir(traj):
            continue
        diag = read_csv(os.path.join(traj, "diagnostics.csv"))
        step = diag["t"][1] - diag["t"][0]
        row_of = {round(t / step): i for i, t in enumerate(diag["t"])}
        for path in snapshot_paths(traj):
            meta, spec = load_snapshot(path)
            phys = to_physical(meta, spec)
            axes = tuple(range(1, meta["dim"] + 1))
            phys = phys - phys.mean(axis=axes, keepdims=True)
            energy = meta["L"] ** meta["dim"] * float(np.mean(
                np.sum(phys**2, axis=0)))
            row = row_of.get(round(meta["time_stamp"] / step))
            if row is None:
                problems.append(f"{name}: snapshot t={meta['time_stamp']} "
                                "has no diagnostics row")
                continue
            if _rel(energy, diag["l2_sq"][row]) > PARSEVAL_RTOL:
                problems.append(
                    f"{name}: Parseval sum {energy:.17e} != diagnostics "
                    f"{diag['l2_sq'][row]:.17e} at t={meta['time_stamp']:g}")
    return problems


def check_direct_split(out_dir, spec):
    """Extruded base + perturbation equals the direct run wherever the two
    store a snapshot at the same time."""
    if not spec["direct_3d"]:
        return []
    base = {}
    for path in snapshot_paths(os.path.join(out_dir, "base")):
        meta, data = load_snapshot(path)
        base[round(meta["time_stamp"] / spec["dt"])] = (meta, data)
    pert = {}
    for path in snapshot_paths(os.path.join(out_dir, "perturbation")):
        meta, data = load_snapshot(path)
        pert[round(meta["time_stamp"] / spec["dt"])] = (meta, data)
    problems, shared = [], 0
    for path in snapshot_paths(os.path.join(out_dir, "direct")):
        meta, data = load_snapshot(path)
        key = round(meta["time_stamp"] / spec["dt"])
        if key not in base or key not in pert:
            continue
        shared += 1
        direct = to_physical(meta, data)
        split = to_physical(*pert[key])
        split[:2] += to_physical(*base[key])[..., np.newaxis]
        err = np.abs(split - direct).max() / np.abs(direct).max()
        if err > SPLIT_RTOL:
            problems.append(f"split != direct by {err:.3e} relative at "
                            f"t={meta['time_stamp']:g}")
    if shared == 0:
        problems.append("direct run shares no snapshot time with the split")
    return problems


def check_budget_conditions(out_dir, spec, ineq):
    """c*, gamma*, gamma and the scalar conditions 4.19, 4.26a/b and 4.27,
    recomputed from constants.json and windows.csv."""
    problems = []
    consts = load_json(os.path.join(out_dir, "constants.json"))
    cal, budget = consts["calibrated"], consts["budget"]
    given = spec["budget"]
    nu, T, alpha = spec["nu"], spec["T"], given["alpha"]
    c4 = given["c4"] if given["c4"] is not None else cal["c4"]
    c5 = given["c5"] if given["c5"] is not None else cal["c5"]
    c_star = given["c_star"] if given["c_star"] is not None \
        else given["c_star_frac"] * nu * c4
    gamma_star = given["gamma_star"] if given["gamma_star"] is not None \
        else math.sqrt((nu * c4 - 0.5 * c_star) * nu**3 / c5)
    gamma = given["gamma"] if given["gamma"] is not None \
        else given["gamma_frac"] * gamma_star
    for key, want in (("c_star", c_star), ("gamma_star", gamma_star),
                      ("gamma", gamma)):
        if _rel(budget[key], want) > SCALAR_RTOL:
            problems.append(f"budget {key} {budget[key]!r} != {want!r}")

    rows = read_windows(os.path.join(out_dir, "windows.csv"))
    if not rows:
        return problems + ["windows.csv has no window rows"]
    int_a = [float(r["int_A_sq"]) for r in rows]
    int_g = [float(r["int_G_sq"]) for r in rows]
    m19 = min(nu * c4 - c5 / nu**3 * gamma_star**2 - 0.5 * c_star,
              nu * c4 - c_star)
    want = {
        "4.19": m19,
        "4.26a": min(0.25 * c_star * T - a for a in int_a),
        "4.26b": min(alpha * gamma - g for g in int_g),
        "4.27": min(1.0 - (alpha * math.exp(a)
                           + math.exp(-0.25 * c_star * T)) for a in int_a),
    }
    # 4.19 is zero by construction of gamma*, so compare on the scale of
    # its terms rather than relative to itself
    scale = {"4.19": nu * c4}
    for key, value in want.items():
        entry = ineq.get(key)
        if entry is None:
            continue
        got = entry["worst_margin"]
        if abs(got - value) > SCALAR_RTOL * max(abs(value),
                                                scale.get(key, 0.0)):
            problems.append(f"{key} margin {got!r} != recomputed {value!r}")
        status = "pass" if got >= -entry["tolerance"] else "vacuous"
        if entry["status"] != status:
            problems.append(f"{key} status {entry['status']} does not "
                            f"follow from margin {got!r}")
    return problems


def margin_mismatches(run_ineq, verify_ineq):
    """Ids whose verify margin differs from run's beyond roundoff."""
    return [k for k in sorted(run_ineq)
            if k in verify_ineq and not math.isclose(
                run_ineq[k]["worst_margin"], verify_ineq[k]["worst_margin"],
                rel_tol=MARGIN_RTOL, abs_tol=MARGIN_ATOL)]


def compare_verify(run_ineq, verify_ineq):
    """(problems other than margins, ids whose margins moved)."""
    problems = []
    if sorted(run_ineq) != sorted(verify_ineq):
        problems.append("verify reports other ids than run: "
                        f"{sorted(set(run_ineq) ^ set(verify_ineq))}")
    problems += [f"{k}: verify status {verify_ineq[k]['status']} != run "
                 f"status {run_ineq[k]['status']}"
                 for k in sorted(run_ineq) if k in verify_ineq
                 and run_ineq[k]["status"] != verify_ineq[k]["status"]]
    return problems, margin_mismatches(run_ineq, verify_ineq)


# ---------------------------------------------------------------------------
# operations

def check_run_output(out_dir):
    """Every check that applies to the directory `torusflow run` wrote."""
    if not os.path.exists(os.path.join(out_dir, "spec.json")):
        return ["missing artifact spec.json"]
    spec = load_json(os.path.join(out_dir, "spec.json"))
    problems = check_artifacts(out_dir, spec)
    if problems:
        return problems
    ineq = load_json(os.path.join(out_dir, "inequalities.json"))
    return (check_statuses(ineq)
            + check_taylor_green_energy(out_dir, spec)
            + check_parseval(out_dir)
            + check_direct_split(out_dir, spec)
            + check_budget_conditions(out_dir, spec, ineq))


def check_verify_output(out_dir, run_ineq):
    """Checks on the directory after `torusflow verify` rewrote its
    inequalities.json and windows.csv.

    Returns (problems, ids whose margins moved).  A margin that moved while
    every status and every other check agrees is the known re-verification
    defect; anything in `problems` is not.
    """
    missing = [f"verify left no {n}" for n in ("inequalities.json",
                                                "windows.csv")
               if not os.path.exists(os.path.join(out_dir, n))]
    if missing:
        return missing, []
    spec = load_json(os.path.join(out_dir, "spec.json"))
    ineq = load_json(os.path.join(out_dir, "inequalities.json"))
    problems, moved = compare_verify(run_ineq, ineq)
    problems += check_statuses(ineq)
    problems += check_budget_conditions(out_dir, spec, ineq)
    return problems, moved
