"""Validate the 2D solver against the exact Taylor-Green vortex.

The vortex (sin x1 cos x2, -cos x1 sin x2) e^{-2 nu t} solves the unforced
equations on the 2*pi box exactly, so the simulated field can be compared
pointwise at any time.  Halving dt should shrink the error about 4x
(second-order scheme).
"""

import tempfile

import numpy as np

from torusflow import make_grid
from torusflow.solver import SolverConfig, run_2d_base, taylor_green_exact

nu = 0.1
grid = make_grid(2 * np.pi, 32, 2)

for dt in (1e-3, 5e-4):
    cfg = SolverConfig(grid=grid, nu=nu, dt=dt, t_end=1.0, T=1.0,
                       initial=taylor_green_exact(grid, nu, 0.0),
                       snapshot_stride=round(0.5 / dt))
    with tempfile.TemporaryDirectory() as out:
        traj = run_2d_base(cfg, out)
        final = traj.snapshot_field(-1)
    exact = taylor_green_exact(grid, nu, 1.0)
    err = np.abs(final.physical() - exact.physical()).max()
    print(f"dt = {dt:g}:  max pointwise error at t=1  {err:.3e}")

print("\nenergy decay vs the e^{-4 nu t} envelope:")
E0 = traj.diag["l2_sq"][0]
for i in (0, len(traj.diag["t"]) // 2, -1):
    t = traj.diag["t"][i]
    print(f"  t = {t:4.2f}   E = {traj.diag['l2_sq'][i]:.6e}"
          f"   exact {E0 * np.exp(-4 * nu * t):.6e}")
