"""Nonlinear stability of a 2D base flow under 3D perturbations.

A small Taylor-Green base flow is perturbed by a small 3D divergence-free
field.  The budget (gamma, gamma*, c*, alpha, c1..c5) is derived from the
grid's constants (c3 and c_interp are closed-form bounds over its 2/3-rule
modes), the smallness hypotheses are checked per window, and the measured
H1 norm of the perturbation is compared against the integrated envelope of
its differential inequality.
"""

import numpy as np

from torusflow import make_grid, random_divfree_field
from torusflow.solver import SolverConfig, run_perturbation, \
    taylor_green_exact
from torusflow import estimates as est

nu, T, dt, windows = 1.0, 1.0, 2e-3, 3
g2 = make_grid(2 * np.pi, 16, 2)
g3 = make_grid(2 * np.pi, 16, 3)

cal = est.calibrate_constants(g3)
c_star = 0.5 * nu * cal.c4
gamma_star = est.admissible_gamma_star(nu, cal.c4, cal.c5, c_star)
budget = est.StabilityBudget(nu=nu, T=T, gamma=0.5 * gamma_star,
                             gamma_star=gamma_star, c_star=c_star,
                             alpha=0.03, c1=cal.c1, c3=cal.c3, c4=cal.c4,
                             c5=cal.c5)
print(f"calibrated: c3 = {cal.c3:.4f}  c4 = {cal.c4:.4f}  c5 = {cal.c5:.1f}")
print(f"gamma* = {gamma_star:.4e}   gamma = {budget.gamma:.4e}\n")

base_cfg = SolverConfig(
    grid=g2, nu=nu, dt=dt, t_end=windows * T, T=T,
    initial=taylor_green_exact(g2, nu, 0.0, amplitude=0.005),
    snapshot_stride=250)

u0 = random_divfree_field(g3, seed=7, spectrum_decay=4.0,
                          target_h1=np.sqrt(0.5 * budget.gamma))
# a forked worker steps the base run a few steps ahead of the perturbation
base, pert, _ = run_perturbation(SolverConfig(
    grid=g3, nu=nu, dt=dt, t_end=windows * T, T=T, initial=u0,
    snapshot_stride=250), base_cfg)

series = [est.stability_series(pert, base, budget, k)
          for k in range(windows)]
hyps = [est.check_stability_hypotheses(s, budget) for s in series]
for s, hyp in zip(series, hyps):
    ok = "ok" if est.hypotheses_hold(hyp) else "NOT MET"
    print(f"window {s.window}:  X^2(kT) = {s.X_sq[0]:.3e}   "
          f"int A^2 = {s.int_A_sq:.3e}   hypotheses {ok}")

print()
for key, rep in sorted(est.verify_stability_conclusion(series, hyps,
                                                       budget).items()):
    print(f"({key})  {rep.status:7s}  worst margin {rep.worst_margin:+.3e}")
