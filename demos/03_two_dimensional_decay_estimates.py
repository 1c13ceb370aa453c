"""Windowed decay estimates for a forced 2D flow.

A time-periodic force drives a Taylor-Green-like flow; from the forcing and
the initial data alone one computes a priori constants A1..A5 bounding the
L2 norm, the gradient, and their dissipation integrals window by window.
Every bound is then checked against the simulated trajectory by the
pipeline's own analysis, experiments.analyze.
"""

import json
import tempfile

from torusflow import make_grid
from torusflow.solver import SolverConfig, ForcingSpec, run_2d_base, \
    taylor_green_exact
from torusflow import estimates as est
from torusflow import experiments as exp

forcing = ["0.02*sin(x1)*cos(x2)*cos(t)", "-0.02*cos(x1)*sin(x2)*cos(t)"]
spec = exp.parse_config(json.dumps({
    "nu": 0.5, "T": 1.0, "dt": 5e-3, "windows": 5,
    "base": {"initial": {"kind": "taylor-green", "amplitude": 0.3},
             "forcing": {"kind": "expression", "expressions": forcing}}}))
nu, T = spec["nu"], spec["T"]
grid = make_grid(spec["L"], spec["N"], 2)
cfg = SolverConfig(grid=grid, nu=nu, dt=spec["dt"], t_end=spec["windows"] * T,
                   T=T, snapshot_stride=20,
                   forcing=ForcingSpec(expressions=tuple(forcing)),
                   initial=taylor_green_exact(grid, nu, 0.0, amplitude=0.3))
with tempfile.TemporaryDirectory() as out:
    base = run_2d_base(cfg, out)
    first = base.snapshot_field(0)

reports, evidence = exp.analyze(base, None, spec, None)
budget = evidence.twod
print(f"A1^2 = {budget.A1_sq:.4e}   A2^2 = {budget.A2_sq:.4e}   "
      f"A3^2 = {budget.A3_sq:.4e}")
print(f"A4^2 = {budget.A4_sq:.4e}   A5^2 = {budget.A5_sq:.4e}   "
      f"windows = {spec['windows']}\n")

for key, rep in sorted(reports.items()):
    print(f"({key})  {rep.status:7s}  worst margin {rep.worst_margin:+.3e}"
          f"  at t = {rep.worst_time:.2f}")

res = est.vorticity_cancellation_residual(first)
print(f"\nvorticity cancellation residual (exact 0 in 2D): {res:.3e}")
