"""Self-test of the benchmark's output checks (not part of the test suite).

    python3 bench/selftest.py

Runs one small experiment (N=8, one window, unforced Taylor-Green base,
forced perturbation, direct 3D run) with the torusflow CLI, confirms that
bench/checks.py accepts its output, then perturbs a copy of the output once
per case and confirms that the check aimed at that case, run alone, rejects
it.  Exits 1 if any check accepts a perturbed input or rejects the clean
one.
"""

import json
import shutil
import sys
import time

import numpy as np

import checks
from run import RUNS, Child

CONFIG = {
    "scenario": "selftest", "N": 8, "nu": 1.0, "dt": 2e-3, "T": 1.0,
    "windows": 1, "norm_stride": 25,
    "base": {"initial": {"kind": "taylor-green", "amplitude": 0.005}},
    "perturbation": {"snapshot_stride": 100, "forcing": {
        "kind": "expression", "expressions": [
            "1e-6*sin(x3)*cos(t)", "1e-6*sin(x1)", "1e-6*sin(x2)"]}},
    "direct_3d": True,
}


def rewrite_csv_column(path, column, factor):
    with open(path) as fh:
        lines = fh.read().splitlines()
    idx = lines[0].split(",").index(column)
    out = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        cells[idx] = f"{float(cells[idx]) * factor:.17e}"
        out.append(",".join(cells))
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")


def edit_json(path, edit):
    data = checks.load_json(path)
    edit(data)
    with open(path, "w") as fh:
        json.dump(data, fh)


def edit_snapshot(path, edit):
    """Apply edit to the physical values of a stored snapshot."""
    meta, spec = checks.load_snapshot(path)
    phys = edit(checks.to_physical(meta, spec))
    axes = tuple(range(1, meta["dim"] + 1))
    spec = np.fft.rfftn(phys, axes=axes) / float(meta["N"]) ** meta["dim"]
    np.savez(path, meta=np.array(json.dumps(meta)), data=spec)


def last_snapshot(out, traj):
    return checks.snapshot_paths(out / traj)[-1]


def scale_margin(key, factor):
    def edit(d):
        d[key]["worst_margin"] *= factor
    return edit


def set_status(key, status):
    def edit(d):
        d[key]["status"] = status
    return edit


def spec_of(out):
    return checks.load_json(out / "spec.json")


def ineq_of(out):
    return checks.load_json(out / "inequalities.json")


def budget_check(out):
    return checks.check_budget_conditions(str(out), spec_of(out),
                                          ineq_of(out))


# (name, mutation of a copied run directory, the check that must object)
RUN_CASES = [
    ("missing windows.csv",
     lambda out: (out / "windows.csv").unlink(),
     lambda out: checks.check_artifacts(str(out), spec_of(out))),
    ("scaled Taylor-Green energy",
     lambda out: rewrite_csv_column(out / "base" / "diagnostics.csv",
                                    "l2_sq", 1.0 + 1e-4),
     lambda out: checks.check_taylor_green_energy(str(out), spec_of(out))),
    ("scaled perturbation snapshot",
     lambda out: edit_snapshot(last_snapshot(out, "perturbation"),
                               lambda u: u * (1.0 + 1e-6)),
     lambda out: checks.check_parseval(str(out))),
    ("direct snapshot shifted one cell",
     lambda out: edit_snapshot(last_snapshot(out, "direct"),
                               lambda u: np.roll(u, 1, axis=1)),
     lambda out: checks.check_direct_split(str(out), spec_of(out))),
    ("gamma* off by 1e-9",
     lambda out: edit_json(out / "constants.json", lambda d: d["budget"]
                           .__setitem__("gamma_star", d["budget"]
                                        ["gamma_star"] * (1 + 1e-9))),
     budget_check),
    ("int_A_sq in windows.csv off by 1e-9",
     lambda out: rewrite_csv_column(out / "windows.csv", "int_A_sq",
                                    1.0 + 1e-9),
     budget_check),
    ("4.27 margin off by 1e-9",
     lambda out: edit_json(out / "inequalities.json",
                           scale_margin("4.27", 1.0 + 1e-9)),
     budget_check),
    ("4.26b status flipped to vacuous",
     lambda out: edit_json(out / "inequalities.json",
                           set_status("4.26b", "vacuous")),
     budget_check),
    ("a status set to fail",
     lambda out: edit_json(out / "inequalities.json",
                           set_status("3.3", "fail")),
     lambda out: checks.check_statuses(ineq_of(out))),
    ("an inequality id dropped",
     lambda out: edit_json(out / "inequalities.json",
                           lambda d: d.pop("4.13")),
     lambda out: checks.check_statuses(ineq_of(out))),
]


def main():
    work = RUNS / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (work / "config.json").write_text(json.dumps(CONFIG))
    clean = work / "clean"
    child = Child(deadline=time.monotonic() + 600.0)
    base = [sys.executable, "-m", "torusflow"]
    _, code, _ = child.timed(base + ["run", "--config",
                                     str(work / "config.json"),
                                     "--out", str(clean)], work / "run.log")
    if code:
        sys.stderr.write(f"selftest run exited {code}; see {work}/run.log\n")
        return 1

    ok = True

    def report(name, accepted, should_accept):
        nonlocal ok
        good = accepted == should_accept
        ok &= good
        verdict = "accepted" if accepted else "rejected"
        print(f"{'ok  ' if good else 'FAIL'} {verdict:<9} {name}")

    problems = checks.check_run_output(str(clean))
    report("clean run output", not problems, True)
    for p in problems:
        print("     ", p)
    run_ineq = checks.load_json(clean / "inequalities.json")

    for i, (name, mutate, check) in enumerate(RUN_CASES):
        copy = work / f"case{i:02d}"
        shutil.copytree(clean, copy)
        report(f"{name} (unmodified)", not check(copy), True)
        mutate(copy)
        report(name, not check(copy), False)

    # verify against run: margins equal to roundoff, statuses equal
    problems, moved = checks.compare_verify(run_ineq, run_ineq)
    report("verify identical to run", not problems and not moved, True)
    shifted = json.loads(json.dumps(run_ineq))
    shifted["4.26a"]["worst_margin"] *= 1.0 + 1e-9
    report("verify margin off by 1e-9",
           not checks.margin_mismatches(run_ineq, shifted), False)
    flipped = json.loads(json.dumps(run_ineq))
    flipped["4.13"]["status"] = "vacuous"
    report("verify status flipped", not checks.compare_verify(
        run_ineq, flipped)[0], False)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
