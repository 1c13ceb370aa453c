"""Nonlinear stability of a 2D base flow under 3D perturbations.

The bundled stability-smoke scenario: a small Taylor-Green base flow is
perturbed by a small 3D divergence-free field.  The budget (gamma, gamma*,
c*, alpha, c1..c5) is derived from the grid's constants (c3 and c_interp
are closed-form bounds over its 2/3-rule modes), the smallness hypotheses
are checked per window, and the measured H1 norm of the perturbation is
compared against the integrated envelope of its differential inequality.
run_experiment does it all; this script prints its constants.json,
windows.csv and reports.
"""

import csv
import json
import os
import tempfile

from torusflow import experiments as exp

spec = exp.bundled_scenario("stability-smoke")
with tempfile.TemporaryDirectory() as out:
    artifacts = exp.run_experiment(spec, out)
    with open(os.path.join(out, "constants.json")) as fh:
        constants = json.load(fh)
    with open(os.path.join(out, "windows.csv")) as fh:
        windows = list(csv.DictReader(fh))

cal, budget = constants["calibrated"], constants["budget"]
print(f"calibrated: c3 = {cal['c3']:.4f}  c4 = {cal['c4']:.4f}  "
      f"c5 = {cal['c5']:.1f}")
print(f"gamma* = {budget['gamma_star']:.4e}   "
      f"gamma = {budget['gamma']:.4e}\n")

for w in windows:
    ok = "ok" if w["hypotheses"] == "pass" else "NOT MET"
    print(f"window {w['window']}:  X^2(kT) = {float(w['X_sq_start']):.3e}   "
          f"int A^2 = {float(w['int_A_sq']):.3e}   hypotheses {ok}")

print()
for key in ("4.13", "4.18-env", "4.25"):
    rep = artifacts.reports[key]
    print(f"({key})  {rep.status:7s}  worst margin {rep.worst_margin:+.3e}")
