"""Acceptance gate: the eleven headline criteria at their stated tolerances.

Each test prints one pass/fail line (pytest -v adds its own); expected
values are either closed forms, independent quadrature oracles, or
dt-halving convergence measurements.
"""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from torusflow import make_grid
from torusflow.field import (Field, extrude_field, leray_data,
                             physical_field, random_divfree_field)
from torusflow.norms import l2_norm_sq
from torusflow.solver import (ForcingSpec, SolverConfig, run_2d_base,
                              run_full_3d, run_perturbation,
                              taylor_green_exact)
from torusflow import estimates as est
from torusflow import experiments as exp
from torusflow.cli import margin_convergence_constant

from oracles import mean, mean_columns, mean_ode_integrate, poincare_ratio


def _line(n, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {n:02d} [{status}] {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def calibrated():
    grid3 = make_grid(2 * np.pi, 16, 3)
    cal = est.calibrate_constants(grid3)
    c_star = 0.5 * cal.c4  # nu = 1 in the stability scenarios
    gamma_star = est.admissible_gamma_star(1.0, cal.c4, cal.c5, c_star)
    budget = est.StabilityBudget(nu=1.0, T=1.0, gamma=0.5 * gamma_star,
                                 gamma_star=gamma_star, c_star=c_star,
                                 alpha=0.03, c1=cal.c1, c3=cal.c3,
                                 c4=cal.c4, c5=cal.c5)
    return cal, budget


def test_criterion_01_taylor_green_validation(tmp_path):
    """N=32, nu=0.1, dt=1e-3, t=1: pointwise error <= 1e-6, halving >= 3.5x,
    under 30 s."""
    t0 = time.time()
    nu = 0.1
    grid = make_grid(2 * np.pi, 32, 2)
    errs = []
    for dt in (1e-3, 5e-4):
        cfg = SolverConfig(grid=grid, nu=nu, dt=dt, t_end=1.0, T=1.0,
                           initial=taylor_green_exact(grid, nu, 0.0),
                           snapshot_stride=round(1.0 / dt))
        traj = run_2d_base(cfg, tmp_path / f"dt-{dt:g}")
        exact = taylor_green_exact(grid, nu, 1.0)
        errs.append(np.abs(traj.snapshot_field(-1).physical()
                           - exact.physical()).max())
    elapsed = time.time() - t0
    ok = errs[0] <= 1e-6 and errs[0] / errs[1] >= 3.5 and elapsed < 30
    _line(1, ok, f"error {errs[0]:.3e} <= 1e-6, halving ratio "
                 f"{errs[0] / errs[1]:.2f} >= 3.5, {elapsed:.1f}s < 30s")


def test_criterion_02_energy_identity():
    """Unforced 3D run, N=16: relative residual of the energy budget
    <= 1e-6 per step for 1000 steps."""
    nu, dt = 0.05, 1e-3
    grid = make_grid(2 * np.pi, 16, 3)
    v0 = random_divfree_field(grid, seed=11, spectrum_decay=3.0,
                              target_h1=0.1)
    cfg = SolverConfig(grid=grid, nu=nu, dt=dt, t_end=1.0, T=1.0,
                       snapshot_stride=1000, initial=v0)
    traj = run_full_3d(cfg)
    E, D = traj.diag["l2_sq"], traj.diag["grad_l2_sq"]
    dEdt = np.diff(E) / dt
    dissipation = -2 * nu * 0.5 * (D[1:] + D[:-1])
    rel = np.abs(dEdt - dissipation) / np.abs(dissipation)
    assert len(rel) == 1000
    _line(2, rel.max() <= 1e-6,
          f"max relative residual {rel.max():.3e} <= 1e-6 over 1000 steps")


def test_criterion_03_poincare_sharpness():
    """1000 random mean-free fields: gradient/L2 ratio >= kappa^2 within
    1e-10 relative; the lowest mode attains it within 1e-12."""
    grid = make_grid(2 * np.pi, 16, 2)
    kappa_sq = grid.kappa**2
    worst = np.inf
    for seed in range(1000):
        f = random_divfree_field(grid, seed, spectrum_decay=1.0)
        worst = min(worst, poincare_ratio(f, "l2"))
    x1, _ = np.broadcast_arrays(*grid.coords)
    lowest = physical_field(grid, np.sin(x1))
    attained = poincare_ratio(lowest, "l2")
    ok = worst >= kappa_sq * (1 - 1e-10) \
        and abs(attained - kappa_sq) <= 1e-12
    _line(3, ok, f"min ratio {worst:.12f} >= {kappa_sq:.12f}, lowest mode "
                 f"attains within {abs(attained - kappa_sq):.1e}")


def test_criterion_04_vorticity_cancellation():
    """Normalized residual <= 1e-9 over 500 random 2D divergence-free
    fields at N=32."""
    grid = make_grid(2 * np.pi, 32, 2)
    worst = 0.0
    for seed in range(500):
        f = random_divfree_field(grid, seed,
                                 spectrum_decay=1.0 + (seed % 4) * 0.5)
        worst = max(worst, est.vorticity_cancellation_residual(f))
    _line(4, worst <= 1e-9,
          f"max residual {worst:.3e} <= 1e-9 over 500 fields")


def test_criterion_05_2d_decay_inequalities():
    """Forced 2D run over 10 windows: (3.1)-(3.5) hold with margin
    >= -tol(dt), tol from a dt-halving pre-run."""
    nu, T, dt = 0.5, 1.0, 2e-3
    grid = make_grid(2 * np.pi, 16, 2)
    forcing = ForcingSpec(expressions=(
        "0.02*sin(x1)*cos(x2)*cos(t)", "-0.02*cos(x1)*sin(x2)*cos(t)"))

    def margins(step):
        cfg = SolverConfig(grid=grid, nu=nu, dt=step, t_end=10 * T, T=T,
                           forcing=forcing, snapshot_stride=round(0.1 / step),
                           initial=taylor_green_exact(grid, nu, 0.0, 0.3))
        base = run_2d_base(cfg)
        evidence = est.Evidence(base, None, None, nu, T, np.inf)
        return {k: evidence.report(k)
                for k in ("3.1", "3.2", "3.3", "3.4", "3.5")}

    coarse = margins(dt)
    fine = margins(dt / 2)
    C = margin_convergence_constant(coarse, fine, dt)
    tol = est.margin_tolerance(C, dt)
    worst = min(r.worst_margin for r in coarse.values())
    ok = worst >= -tol and len(coarse) == 5
    _line(5, ok, f"10 windows, worst margin {worst:.3e} >= -tol "
                 f"(tol {tol:.3e}, C {C:.3e})")


def test_criterion_06_mean_evolution():
    """k=0 coefficient matches the trapezoid mean ODE within 1e-8 for
    constant and sinusoidal mean forcing."""
    grid = make_grid(2 * np.pi, 16, 3)
    worst = 0.0
    for exprs in (("0.3 + 0*x1", "0*x1", "0*x1"),
                  ("0.1*cos(t)", "0.05*sin(t)", "0*x1")):
        forcing = ForcingSpec(expressions=exprs)
        cfg = SolverConfig(grid=grid, nu=0.1, dt=2e-3, t_end=0.5, T=0.5,
                           forcing=forcing, snapshot_stride=250,
                           initial=random_divfree_field(grid, 0,
                                                        target_h1=0.05))
        traj = run_full_3d(cfg)
        f_means = [mean(Field(grid, forcing.evaluate(grid, t)))
                   for t in traj.diag["t"]]
        oracle = mean_ode_integrate(traj.diag["t"], f_means, np.zeros(3))
        worst = max(worst, np.abs(mean_columns(traj) - oracle).max())
    _line(6, worst <= 1e-8, f"max |k=0 coeff - mean ODE| {worst:.3e} <= 1e-8")


def test_criterion_07_split_consistency(tmp_path):
    """Direct 3D run vs recombined base+perturbation: L2 difference at t=1
    <= 1e-5 at N=16, dt=1e-3; shrinks at >= second order under halving.

    The base trajectory is integrated at dt/4 so it stands in for the exact
    2D solution; co-discretizing base and perturbation at the same dt makes
    the recombination exact to roundoff and shows no dt dependence.
    """
    nu = 0.2
    g2 = make_grid(2 * np.pi, 16, 2)
    g3 = make_grid(2 * np.pi, 16, 3)
    base_cfg = SolverConfig(
        grid=g2, nu=nu, dt=2.5e-4, t_end=1.0, T=1.0,
        initial=taylor_green_exact(g2, nu, 0.0, 0.2), snapshot_stride=4000)
    vs0 = Field(g2, leray_data(g2, base_cfg.initial.spectral()))
    u0 = random_divfree_field(g3, seed=3, spectrum_decay=3.0, target_h1=0.02)
    v0 = physical_field(g3, extrude_field(vs0, g3).physical() + u0.physical())
    errs = []
    for dt in (1e-3, 5e-4):
        steps = round(1.0 / dt)
        base, pert, direct = run_perturbation(
            SolverConfig(grid=g3, nu=nu, dt=dt, t_end=1.0, T=1.0, initial=u0,
                         snapshot_stride=steps),
            base_cfg,
            SolverConfig(grid=g3, nu=nu, dt=dt, t_end=1.0, T=1.0, initial=v0,
                         snapshot_stride=steps),
            tuple(tmp_path / f"dt-{dt:g}" / name
                  for name in ("base", "perturbation", "direct")))
        recombined = extrude_field(base.snapshot_field(-1), g3).physical() \
            + pert.snapshot_field(-1).physical()
        diff = physical_field(
            g3, direct.snapshot_field(-1).physical() - recombined)
        errs.append(math.sqrt(l2_norm_sq(diff)))
    ok = errs[0] <= 1e-5 and errs[0] / errs[1] >= 3.5
    _line(7, ok, f"L2 difference {errs[0]:.3e} <= 1e-5, halving ratio "
                 f"{errs[0] / errs[1]:.2f} >= 3.5")


def test_criterion_08_stability_conclusion(calibrated):
    """Calibrated budget, gamma = 0.5 gamma*, small perturbation and small g:
    hypotheses pass, X^2 <= gamma at every sample over 5 windows, X^2 below
    the envelope; under 5 minutes at N=16^3."""
    t0 = time.time()
    cal, budget = calibrated
    nu, T, dt, windows = 1.0, 1.0, 2e-3, 5
    g2 = make_grid(2 * np.pi, 16, 2)
    g3 = make_grid(2 * np.pi, 16, 3)
    base_cfg = SolverConfig(
        grid=g2, nu=nu, dt=dt, t_end=windows * T, T=T,
        initial=taylor_green_exact(g2, nu, 0.0, 0.005),
        snapshot_stride=250)
    u0 = random_divfree_field(g3, seed=7, spectrum_decay=4.0,
                              target_h1=np.sqrt(0.5 * budget.gamma))
    g_force = ForcingSpec(expressions=("1e-4*sin(x3)", "0*x1", "0*x1"))
    base, pert, _ = run_perturbation(SolverConfig(
        grid=g3, nu=nu, dt=dt, t_end=windows * T, T=T, initial=u0,
        forcing=g_force, snapshot_stride=250), base_cfg)

    evidence = est.Evidence(base, pert, budget, nu, T, est.FLOAT_FLOOR)
    hyp_ok = len(evidence.holds) == windows and all(evidence.holds)
    conclusion = {k: evidence.report(k) for k in ("4.13", "4.18-env", "4.25")}
    elapsed = time.time() - t0
    ok = hyp_ok \
        and all(r.status == est.PASS for r in conclusion.values()) \
        and elapsed < 300
    worst_gamma = conclusion["4.13"].worst_margin
    worst_env = conclusion["4.18-env"].worst_margin
    _line(8, ok, f"5 windows: hypotheses pass, X^2<=gamma margin "
                 f"{worst_gamma:.3e}, envelope margin {worst_env:.3e}, "
                 f"{elapsed:.0f}s < 300s")


def test_criterion_09_gronwall_reduced_case(calibrated):
    """v_s = 0, g = 0: measured X^2(t) <= X^2(0) e^{-c* t/2} (1+1e-3)."""
    cal, budget = calibrated
    nu, dt, t_end = 1.0, 2e-3, 2.0
    g2 = make_grid(2 * np.pi, 16, 2)
    g3 = make_grid(2 * np.pi, 16, 3)
    zero2 = Field(g2, np.zeros((2,) + g2.shape_spec, complex))
    base_cfg = SolverConfig(grid=g2, nu=nu, dt=dt, t_end=t_end, T=1.0,
                            initial=zero2, snapshot_stride=500)
    u0 = random_divfree_field(g3, seed=5, spectrum_decay=4.0,
                              target_h1=np.sqrt(0.5 * budget.gamma))
    _, pert, _ = run_perturbation(SolverConfig(grid=g3, nu=nu, dt=dt,
                                               t_end=t_end, T=1.0, initial=u0,
                                               snapshot_stride=500), base_cfg)
    t = pert.diag["t"]
    X_sq = pert.diag["l2_sq"] + pert.diag["grad_l2_sq"]
    bound = X_sq[0] * np.exp(-0.5 * budget.c_star * t) * (1 + 1e-3)
    ok = np.all(X_sq <= bound)
    margin = np.min(bound - X_sq)
    _line(9, ok, f"X^2 below the reduced envelope everywhere "
                 f"(min gap {margin:.3e})")


def test_criterion_10_scalar_condition_arithmetic():
    """(4.11), (4.19), (4.26), (4.27) evaluators match independently
    reimplemented formulas to 1e-12 on 50 random tuples; 4.26 and 4.27
    are evaluated by their series functions in estimates.INEQUALITIES."""
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(50):
        nu, T = rng.uniform(0.1, 2.0), rng.uniform(0.5, 3.0)
        c_s1, c1, c3 = rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9), \
            rng.uniform(0.01, 2.0)
        c4, c5 = rng.uniform(0.1, 0.5), rng.uniform(1.0, 300.0)
        F, g0 = rng.uniform(0, 1.0), rng.uniform(0, 1.0)
        gs, cs = rng.uniform(0, 0.1), rng.uniform(0.01, 0.04)
        iA, iG = rng.uniform(0, 1.0), rng.uniform(0, 1.0)
        alpha, gamma = rng.uniform(0, 1.0), rng.uniform(0, 0.1)

        # independent re-implementations, written out longhand
        e = math.exp(-nu * c_s1 * T)
        o_411 = nu * nu * c1 * c1 * T / (8 * c3) \
            - ((2 - e) / (c_s1 * nu * (1 - e)) * F + g0)
        o_419a = nu * c4 - (c5 * gs * gs) / nu**3 - cs / 2
        o_419b = nu * c4 - cs
        o_426a = cs * T / 4 - iA
        o_426b = alpha * gamma - iG
        o_427 = 1 - alpha * math.exp(iA) - math.exp(-cs * T / 4)

        # a window [0, T] whose A^2 and G^2 integrate to iA and iG
        t = np.array([0.0, T])
        window = est.StabilitySeries(window=0, times=t, X_sq=np.zeros(2),
                                     A_sq=np.full(2, iA / T),
                                     G_sq=np.full(2, iG / T))
        budget = SimpleNamespace(c_star=cs, T=T, alpha=alpha, gamma=gamma)

        def margin(eq_id):
            _, bound, value = est.INEQUALITIES[eq_id].series(window, budget)
            return bound - value

        m419 = np.subtract(*est.admissibility(nu, c4, c5, gs, cs))
        worst = max(
            worst,
            abs(est.margin_4_11(nu, T, c_s1, c1, c3, F, g0) - o_411),
            abs(m419[0] - o_419a),
            abs(m419[1] - o_419b),
            abs(margin("4.26a") - o_426a),
            abs(margin("4.26b") - o_426b),
            abs(margin("4.27") - o_427),
        )
    _line(10, worst <= 1e-12,
          f"max |evaluator - oracle| {worst:.3e} <= 1e-12 over 50 tuples")


def test_criterion_11_determinism(tmp_path):
    """Identical spec + seed: byte-identical diagnostic CSVs."""
    import json

    config = {
        "scenario": "determinism", "seed": 3, "nu": 1.0, "dt": 5e-3,
        "T": 0.5, "windows": 1, "N": 8,
        "base": {"initial": {"kind": "taylor-green", "amplitude": 0.01}},
        "snapshot_stride": 50,
        "perturbation": {"initial": {"kind": "random", "seed": 2}},
    }
    spec = exp.parse_config(json.dumps(config))
    exp.run_experiment(spec, str(tmp_path / "a"))
    exp.run_experiment(exp.parse_config(json.dumps(config)),
                       str(tmp_path / "b"))
    same = []
    for rel in ("base/diagnostics.csv", "perturbation/diagnostics.csv",
                "inequalities.json", "windows.csv"):
        same.append((tmp_path / "a" / rel).read_bytes()
                    == (tmp_path / "b" / rel).read_bytes())
    _line(11, all(same),
          "repeated runs byte-identical (diagnostics, reports, windows)")
