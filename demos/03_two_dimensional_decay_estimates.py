"""Windowed decay estimates for a forced 2D flow.

A time-periodic force drives a Taylor-Green-like flow; from the forcing and
the initial data alone one computes a priori constants A1..A5 bounding the
L2 norm, the gradient, and their dissipation integrals window by window.
Every bound is then checked against the simulated trajectory.
"""

import numpy as np

from torusflow import make_grid
from torusflow.solver import SolverConfig, ForcingSpec, run_2d_base, \
    taylor_green_exact
from torusflow import estimates as est

nu, T = 0.5, 1.0
grid = make_grid(2 * np.pi, 16, 2)
forcing = ForcingSpec(kind="expression", expressions=(
    "0.02*sin(x1)*cos(x2)*cos(t)", "-0.02*cos(x1)*sin(x2)*cos(t)"))

cfg = SolverConfig(grid=grid, nu=nu, dt=5e-3, t_end=5 * T, T=T,
                   forcing=forcing, snapshot_stride=20,
                   initial=taylor_green_exact(grid, nu, 0.0, amplitude=0.3))
base = run_2d_base(cfg)

budget = est.compute_A_constants(base, T, nu)
print(f"A1^2 = {budget.A1_sq:.4e}   A2^2 = {budget.A2_sq:.4e}   "
      f"A3^2 = {budget.A3_sq:.4e}")
print(f"A4^2 = {budget.A4_sq:.4e}   A5^2 = {budget.A5_sq:.4e}   "
      f"windows = {round(cfg.t_end / T)}\n")

reports = est.verify_decay_2d(base, budget, tol=1e-7)
reports["3.8"] = est.w1sigma_monitor(base, cfg.sigma, T)
for key, rep in sorted(reports.items()):
    print(f"({key})  {rep.status:7s}  worst margin {rep.worst_margin:+.3e}"
          f"  at t = {rep.worst_time:.2f}")

res = est.vorticity_cancellation_residual(base.snapshot_field(0))
print(f"\nvorticity cancellation residual (exact 0 in 2D): {res:.3e}")
