"""Budget constants, inequality checks, envelopes, calibration."""

import ast
import contextlib
import dataclasses
import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import (embedding_ratio_l6_h1, hessian_l2_norm_sq, lp_norm,
                     window_slices_by_time)
from torusflow import make_grid
from torusflow import experiments as exp
from torusflow.field import (Field, leray_data, mean_free, physical_padded,
                             random_divfree_field)
from torusflow.norms import (gradient_field, l2_norm_sq, sharp_poincare_h1,
                             sobolev_norm_sq)
from torusflow.solver import (ForcingSpec, SolverConfig, run_2d_base,
                              forcing_lp_sq_series, load_trajectory,
                              run_perturbation, taylor_green_exact,
                              _Workspace)
from torusflow import estimates as est

from test_solver import _force_to_cutoff

NU, T = 0.5, 1.0
ROOT = Path(__file__).resolve().parents[1]
DECAY_IDS = ("3.1", "3.2", "3.3", "3.4", "3.5")
CONCLUSION_IDS = ("4.13", "4.18-env", "4.25")


def _base_evidence(base, tol=est.FLOAT_FLOOR):
    """The Evidence of a base run alone, at window length T."""
    return est.Evidence(base, None, None, NU, T, 4.0, tol)


def _stability_evidence(base, pert, budget):
    return est.Evidence(base, pert, budget, budget.nu, budget.T, 4.0,
                        est.FLOAT_FLOOR)


@pytest.mark.parametrize("dt, windows, stride", [
    (2e-3, 3, 1), (5e-3, 3, 1), (2e-3, 3, 25),
    # a base run at dt/4, as criterion 07 steps it
    (2.5e-4, 1, 1),
    (1e-3, 20, 1)],
    ids=["steps-2e-3", "steps-5e-3", "norms-stride-25", "base-dt-over-4",
         "20-windows"])
def test_window_map_matches_selection_by_time(grid2, dt, windows, stride):
    # the integer window map picks, on a run's own step times or every
    # stride-th of them, the samples that the replaced float selection
    # picked
    cfg = SolverConfig(grid=grid2, nu=NU, dt=dt, t_end=windows * T, T=T)
    times = cfg.times[::stride]
    got = est._window_slices(times, T)
    want = window_slices_by_time(times, T)
    assert [k for k, _ in got] == [k for k, _ in want] == list(range(windows))
    for (_, a), (_, b) in zip(got, want):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("r", [1, 4])
def test_base_read_at_perturbation_step_times(stability_setup, r):
    # A^2 reads the base's per-step grad_l3_sq at the perturbation's step
    # times, with no interpolation: perturbation step i is base step r*i,
    # and r = 4 for a base stepped at dt/4, as criterion 07 steps it
    budget = dataclasses.replace(stability_setup[2], T=0.05)
    g2, g3 = make_grid(2 * np.pi, 8, 2), make_grid(2 * np.pi, 8, 3)
    dt, nu, windows = 2e-3, budget.nu, 2
    base, pert, _ = run_perturbation(
        SolverConfig(grid=g3, nu=nu, dt=dt, t_end=windows * budget.T,
                     T=budget.T, snapshot_stride=1000,
                     initial=random_divfree_field(g3, 7, target_h1=1e-3)),
        SolverConfig(grid=g2, nu=nu, dt=dt / r, t_end=windows * budget.T,
                     T=budget.T, snapshot_stride=1000,
                     initial=taylor_green_exact(g2, nu, 0.0, 0.005)))
    steps = len(pert.diag["t"]) - 1
    grad_l3_sq = base.diag["grad_l3_sq"]
    assert len(grad_l3_sq) == r * steps + 1
    for k in range(windows):
        s = est.stability_series(pert, base, budget, k)
        first = k * round(budget.T / dt)
        for i, a_sq in enumerate(s.A_sq, start=first):
            assert a_sq == (budget.c5 / nu) \
                * (g2.L ** (2 / 3) * grad_l3_sq[r * i]), (k, i)
    # a base whose steps are not a whole multiple of the perturbation's
    for rows in (r * steps, r * steps + 2):
        other = dataclasses.replace(base, diag={
            key: np.resize(base.diag[key], rows)
            for key in ("t", "grad_l3_sq")})
        with pytest.raises(ValueError, match="whole multiple"):
            est.stability_series(pert, other, budget, 0)


def test_window_map_has_no_partial_window():
    # the replaced selection took [1, 1.5] for a second window
    assert [k for k, _ in est._window_slices(0.01 * np.arange(151), T)] \
        == [0]
    assert [k for k, _ in window_slices_by_time(0.01 * np.arange(151), T)] \
        == [0, 1]


@pytest.fixture(scope="module")
def forced_base(grid2):
    forcing = ForcingSpec(expressions=(
        "0.02*sin(x1)*cos(x2)*cos(t)", "-0.02*cos(x1)*sin(x2)*cos(t)"))
    cfg = SolverConfig(grid=grid2, nu=NU, dt=5e-3, t_end=3 * T, T=T,
                       forcing=forcing, snapshot_stride=20,
                       initial=taylor_green_exact(grid2, NU, 0.0, 0.3))
    return run_2d_base(cfg)


@pytest.fixture(scope="module")
def stability_setup(grid2, grid3, tmp_path_factory):
    """Small Taylor-Green base + small random perturbation, 2 windows; the
    perturbation streams its snapshots to a directory."""
    nu, dt, windows = 1.0, 2e-3, 2
    cal = est.calibrate_constants(grid3)
    c_star = 0.5 * nu * cal.c4
    gamma_star = est.admissible_gamma_star(nu, cal.c4, cal.c5, c_star)
    budget = est.StabilityBudget(nu=nu, T=T, gamma=0.5 * gamma_star,
                                 gamma_star=gamma_star, c_star=c_star,
                                 alpha=0.03, c1=cal.c1, c3=cal.c3,
                                 c4=cal.c4, c5=cal.c5)
    base_cfg = SolverConfig(
        grid=grid2, nu=nu, dt=dt, t_end=windows * T, T=T,
        initial=taylor_green_exact(grid2, nu, 0.0, 0.005),
        snapshot_stride=250)
    u0 = random_divfree_field(grid3, seed=7, spectrum_decay=4.0,
                              target_h1=np.sqrt(0.5 * budget.gamma))
    out = tmp_path_factory.mktemp("stability")
    base, pert, _ = run_perturbation(SolverConfig(
        grid=grid3, nu=nu, dt=dt, t_end=windows * T, T=T, initial=u0,
        snapshot_stride=250), base_cfg,
        directories=(None, out / "perturbation", None))
    return base, pert, budget, cal


# ---------------------------------------------------------------------------
# A constants and 2D decay

def test_A_constants_zero_forcing(grid2):
    cfg = SolverConfig(grid=grid2, nu=NU, dt=5e-3, t_end=T, T=T,
                       initial=taylor_green_exact(grid2, NU, 0.0, 0.2),
                       snapshot_stride=20)
    base = run_2d_base(cfg)
    b = est.compute_A_constants(base, T, NU)
    assert b.A1_sq == 0.0
    assert b.A2_sq == pytest.approx(base.diag["l2_sq"][0])
    assert b.A4_sq == pytest.approx(base.diag["grad_l2_sq"][0])
    assert b.A3_sq == pytest.approx(b.A1_sq + b.A2_sq)
    assert b.A5_sq == pytest.approx(b.A1_sq + b.A4_sq)


def test_A1_constant_forcing_closed_form(grid2):
    # ||f_bar||^2 = F constant => A1^2 = F*T/(nu*c_s1)
    forcing = ForcingSpec(expressions=("0.1*sin(x1)", "0*x1"))
    cfg = SolverConfig(grid=grid2, nu=NU, dt=5e-3, t_end=T, T=T,
                       forcing=forcing, snapshot_stride=20,
                       initial=taylor_green_exact(grid2, NU, 0.0, 0.1))
    base = run_2d_base(cfg)
    F = base.diag["forcing_l2_sq"][0]
    b = est.compute_A_constants(base, T, NU)
    assert b.A1_sq == pytest.approx(F * T / (NU * b.c_s1), rel=1e-12)


def test_A_constants_hand_quadrature(forced_base):
    # independent trapezoid over the stored forcing series
    b = est.compute_A_constants(forced_base, T, NU)
    ft = forced_base.diag["t"]
    fl = forced_base.diag["forcing_l2_sq"]
    sup = 0.0
    for k in range(3):
        sel = (ft >= k * T - 1e-12) & (ft <= (k + 1) * T + 1e-12)
        sup = max(sup, np.trapezoid(fl[sel], ft[sel]))
    c_s1 = sharp_poincare_h1(forced_base.grid)
    decay = 1 - math.exp(-NU * c_s1 * T)
    assert b.A1_sq == pytest.approx(sup / (NU * c_s1), rel=1e-8)
    assert b.A2_sq == pytest.approx(
        b.A1_sq / decay + forced_base.diag["l2_sq"][0], rel=1e-8)


def test_decay_2d_passes(forced_base):
    ev = _base_evidence(forced_base, tol=1e-7)
    for eq_id in DECAY_IDS:
        assert ev.report(eq_id).status == est.PASS, eq_id


def test_w1sigma_bound_passes(forced_base):
    # one W^1_sigma maximum per window; sigma <= 3 is refused by
    # parse_config (test_experiments.py, "sigma-3")
    rep = _base_evidence(forced_base).report("3.8")
    assert rep.status == est.PASS
    assert len(rep.times) == 3


def test_decay_zero_solution(grid2):
    zero = Field(grid2, np.zeros((2,) + grid2.shape_spec, complex))
    base = run_2d_base(SolverConfig(grid=grid2, nu=NU, dt=5e-3, t_end=T,
                                    T=T, initial=zero, snapshot_stride=20))
    ev = _base_evidence(base)
    for rep in map(ev.report, DECAY_IDS):
        assert rep.passed
        assert abs(rep.worst_margin) < 1e-12


def test_unforced_differential_inequality(grid2):
    # discrete (3.3) with f=0: dE/dt + nu*c_s1*H1 <= 0 up to O(dt^2)
    base = run_2d_base(SolverConfig(
        grid=grid2, nu=NU, dt=5e-3, t_end=T, T=T,
        initial=taylor_green_exact(grid2, NU, 0.0, 0.4),
        snapshot_stride=20))
    ev = _base_evidence(base)
    b, rep = ev.twod, ev.report("3.3")
    assert rep.status == est.PASS
    # Taylor-Green closed form: |k|^2 = 2 so H1^2 = 3E and
    # margin = (4nu - 3*nu*c_s1) * E > 0
    E = base.diag["l2_sq"]
    expect0 = (4 * NU - 3 * NU * b.c_s1) * 0.5 * (E[0] + E[1])
    assert rep.margins[0] == pytest.approx(expect0, rel=1e-4)


def test_inequality_report_semantics():
    r = est.InequalityReport("x", [0.0, 1.0], [0.5, -1e-12], 1e-9)
    assert r.passed and r.status == est.PASS
    assert r.worst_time == 1.0
    r2 = est.InequalityReport("x", [0.0], [-1.0], 1e-9)
    assert not r2.passed and r2.status == est.FAIL
    doc = json.loads(est.reports_to_json({"x": r2}))
    assert doc["x"]["status"] == "fail"
    assert doc["x"]["worst_margin"] == -1.0


# ---------------------------------------------------------------------------
# vorticity cancellation

def test_cancellation_taylor_green(grid2):
    res = est.vorticity_cancellation_residual(
        taylor_green_exact(grid2, 1.0, 0.0))
    assert res <= 1e-10


def test_cancellation_random_ensemble_small(grid2):
    for seed in range(25):
        f = random_divfree_field(grid2, seed)
        assert est.vorticity_cancellation_residual(f) <= 1e-9


def test_cancellation_rejects_3d_and_nondivfree(grid2, grid3):
    with pytest.raises(ValueError):
        est.vorticity_cancellation_residual(random_divfree_field(grid3, 0))
    from torusflow.field import physical_field
    bad = physical_field(grid2,
                         np.random.default_rng(1).standard_normal((2, 16, 16)))
    with pytest.raises(ValueError):
        est.vorticity_cancellation_residual(bad)


# ---------------------------------------------------------------------------
# scalar condition evaluators (criterion-10 oracles live in
# test_acceptance; these check fixed examples)

def _window(int_A_sq, int_G_sq=0.0, T_=1.0, X0_sq=0.0):
    """A window [0, T_] whose A^2 and G^2 integrate to the given values."""
    t = np.array([0.0, T_])
    return est.StabilitySeries(window=0, times=t, X_sq=np.array([X0_sq, 0.0]),
                               G_sq=np.full(2, int_G_sq / T_),
                               A_sq=np.full(2, int_A_sq / T_))


def test_margin_4_27_fixed_example():
    # alpha=0.3 with c*T/4 = 1: 0.3*e + e^{-1} > 1 fails
    _, bound, value = est.INEQUALITIES["4.27"].series(
        _window(1.0), SimpleNamespace(alpha=0.3, c_star=4.0, T=1.0))
    m = bound - value
    assert m == pytest.approx(1 - (0.3 * math.e + math.exp(-1)), rel=1e-14)
    assert m < 0


def test_exp_bound_past_the_float_range():
    # an exponent past the float range gives +inf, not OverflowError, and a
    # zero factor gives 0 whatever the exponent (B1^2 = 0 gives B2^2 = 0)
    assert est.exp_bound(1e4) == math.inf
    assert est.exp_bound(1e4, 2.5) == math.inf
    assert est.exp_bound(1e4, 0.0) == 0.0
    assert est.exp_bound(-1e4) == 0.0
    assert est.exp_bound(1.5, 3.0) == 3.0 * math.exp(1.5)
    # 4.27's margin at int A^2 = 1e4 (test_experiments.py's strong base
    # shows it vacuous and written null)
    _, bound, value = est.INEQUALITIES["4.27"].series(
        _window(1e4), SimpleNamespace(alpha=0.03, c_star=0.1, T=1.0))
    assert bound - value == -math.inf


def test_budget_validation():
    with pytest.raises(ValueError):
        est.StabilityBudget(nu=1, T=1, gamma=1.0, gamma_star=0.5,
                            c_star=0.1, alpha=0.1, c1=.5, c3=.1, c4=1/3,
                            c5=150.0)
    with pytest.raises(ValueError):
        # c_star >= nu*c4
        est.StabilityBudget(nu=1, T=1, gamma=0.01, gamma_star=0.02,
                            c_star=0.5, alpha=0.1, c1=.5, c3=.1, c4=1/3,
                            c5=150.0)


def test_two_d_budget_invariants_raise():
    # enforced by exceptions, so `python -O` keeps them; A3_sq and A5_sq
    # are the sums of the others
    kw = dict(nu=1.0, T=1.0, c_s1=0.5, c_s2=0.25, A1_sq=1.0, A2_sq=2.0,
              A4_sq=4.0, f_window_sup=0.0, v0_grad_l2_sq=1.0)
    b = est.TwoDBudget(**kw)
    assert (b.A3_sq, b.A5_sq) == (3.0, 5.0)
    for name in ("A1_sq", "A2_sq", "A4_sq"):
        with pytest.raises(ValueError, match=f"{name} must be nonnegative"):
            est.TwoDBudget(**(kw | {name: -1e-300}))


def test_admissible_gamma_star_saturates():
    nu, c4, c5, c_star = 1.0, 1 / 3, 150.0, 1 / 6
    g = est.admissible_gamma_star(nu, c4, c5, c_star)
    m1, m2 = np.subtract(*est.admissibility(nu, c4, c5, g, c_star))
    assert abs(m1) < 1e-14 and m2 > 0


# ---------------------------------------------------------------------------
# B constants and L2 stability

def test_B_constants_zero_forcing(stability_setup):
    base, pert, budget, cal = stability_setup
    twod = est.compute_A_constants(base, T, budget.nu)
    b = est.compute_B_constants(pert, twod, budget.c1, budget.c3)
    assert b.B1_sq == 0.0
    assert b.B2_sq == 0.0
    assert b.B3_sq == pytest.approx(pert.diag["l2_sq"][0])
    assert b.assumption2_margin >= 0
    assert b.explicit_condition_margin > 0
    ev = _stability_evidence(base, pert, budget)
    assert ev.l2 == b
    assert all(ev.report(k).status == est.PASS for k in ("4.1a", "4.1b"))


def _literal_forces() -> set:
    """Every tuple or list of two or three string literals in the tests and
    the demos that ForcingSpec accepts as component expressions and that
    are finite on the N = 8 grid at t = 0: the forces they build (and a
    few that are only strings, which the check holds for just as well).
    A force that is not finite is one that experiments._check_forcing
    refuses, and has no norm to bound."""
    forces = set()
    for path in sorted([*ROOT.glob("tests/*.py"), *ROOT.glob("demos/*.py")]):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.List, ast.Tuple)) \
                    and len(node.elts) in (2, 3) \
                    and all(isinstance(e, ast.Constant)
                            and isinstance(e.value, str) for e in node.elts):
                expressions = tuple(e.value for e in node.elts)
                with contextlib.suppress(ValueError), \
                        np.errstate(all="ignore"):
                    values = ForcingSpec(expressions=expressions).physical(
                        make_grid(2 * np.pi, 8, len(expressions)), 0.0)
                    if np.isfinite(values).all():
                        forces.add(expressions)
    return forces


def _holder_configs() -> list:
    """(name, config) of every force in the repo, each over step times of
    its own: the bundled scenarios' and bench/workloads/forced-direct.json's
    on their runs' clocks, the tests' and demos' at N = 8 over t in [0, 2]."""
    specs = {name: exp.bundled_scenario(name) for name in (
        "taylor-green-decay", "stability-smoke", "hypothesis-violation")}
    specs["forced-direct"] = exp.parse_config(
        (ROOT / "bench" / "workloads" / "forced-direct.json").read_text())
    out = []
    for name, spec in specs.items():
        for run in ("base", "perturbation"):
            if spec[run] is not None:
                out.append((f"{name}/{run}", exp._run_config(spec, run)))
    forces = [ForcingSpec(expressions=e)
              for e in sorted(_literal_forces())]
    forces += [_force_to_cutoff(N, dim) for N in (8, 12, 16, 18)
               for dim in (2, 3)]
    for forcing in forces:
        grid = make_grid(2 * np.pi, 8, len(forcing.expressions))
        out.append((" | ".join(forcing.expressions), SolverConfig(
            grid=grid, nu=1.0, dt=0.25, t_end=2.0, T=2.0, forcing=forcing)))
    return out


def test_force_l6_5_norm_under_its_holder_bound():
    # B1 takes ||g||_{L^{6/5}}^2 <= |Omega|^{2/3} ||g||_{L^2}^2 (Hoelder on
    # the torus; L^2 forcing_l2_sq in 3D) in place of the padded quadrature
    # of |g|^{6/5}.  The quadrature stays at or below that bound at every
    # step time of every force in the repo, with no tolerance: the
    # quadrature/bound ratio is 0.961 at every step of forced-direct's and
    # hypothesis-violation's perturbation force, at most 0.961 on the
    # others, and 0 = 0 on a force without a mean-free part
    configs = _holder_configs()
    assert len(configs) > 40
    for name, cfg in configs:
        ws = _Workspace(cfg.grid)
        l2_sq = np.array([  # the run's record of forcing_l2_sq (_Member)
            ws.mean_free_norms_sq(ws.kept_force(cfg.forcing, t), 1)[0]
            for t in cfg.times])
        bound = cfg.grid.volume ** (2 / 3) * l2_sq
        quadrature = forcing_lp_sq_series(cfg, 1.2)
        assert np.isfinite(bound).all(), name
        assert (quadrature <= bound).all(), name
        if name.endswith("/perturbation") and cfg.forcing.expressions:
            np.testing.assert_allclose(quadrature / bound, 0.9608,
                                       rtol=1e-4, err_msg=name)


def test_l2_stability_vacuous_when_hypotheses_fail(stability_setup):
    base, pert, budget, cal = stability_setup
    ev = _stability_evidence(base, pert, budget)
    ev.l2 = dataclasses.replace(ev.l2, assumption2_margin=-1.0)
    for eq_id in ("4.1a", "4.1b"):
        rep = ev.report(eq_id)
        assert rep.status == est.VACUOUS
        assert rep.note == "assumption 2 of the L2 lemma fails on this data"


def test_claim_with_an_infinite_bound_is_vacuous(stability_setup):
    # it bounds nothing; its margin +inf is written null, as strict JSON
    base, pert, budget, cal = stability_setup
    ev = _stability_evidence(base, pert, budget)
    ev.l2 = dataclasses.replace(ev.l2, B3_sq=math.inf, B4_sq=math.inf)
    for eq_id in ("4.1a", "4.1b"):
        rep = ev.report(eq_id)
        assert (rep.status, rep.note) == (est.VACUOUS, "the bound is infinite")
        assert rep.worst_margin == math.inf
        doc = json.loads(est.reports_to_json({eq_id: rep}),
                         parse_constant=lambda token: 1 / 0)
        assert doc[eq_id]["worst_margin"] is None


# ---------------------------------------------------------------------------
# stability series, hypotheses, envelope, conclusion

def test_stability_series_invariants(stability_setup):
    base, pert, budget, cal = stability_setup
    s = est.stability_series(pert, base, budget, 0)
    # X <= Y pointwise for mean-free fields (discrete norms): the H1 norm
    # of the perturbation is below its H2 norm at every stored snapshot
    assert len(pert.snapshot_paths) == 5
    for j in range(len(pert.snapshot_paths)):
        u = mean_free(pert.snapshot_field(j))
        assert sobolev_norm_sq(u, 1) <= sobolev_norm_sq(u, 2) * (1 + 1e-12)
    # X^2(kT) matches the H1 norm of the stored initial snapshot
    u0 = pert.snapshot_field(0)
    assert s.X_sq[0] == pytest.approx(sobolev_norm_sq(u0, 1), rel=1e-12)


def test_hypotheses_and_conclusion_pass(stability_setup):
    base, pert, budget, cal = stability_setup
    ev = _stability_evidence(base, pert, budget)
    assert len(ev.windows) == 2 and all(ev.holds)
    assert all(e is not None for e in ev.envelopes)
    for eq_id in CONCLUSION_IDS:
        assert ev.report(eq_id).status == est.PASS


def test_hypotheses_vacuous_not_failed(stability_setup):
    base, pert, budget, cal = stability_setup
    tiny = dataclasses.replace(budget, gamma=1e-9)
    ev = _stability_evidence(base, pert, tiny)
    assert ev.hypotheses["4.12a"][0].status == est.VACUOUS  # X^2(0) >> gamma
    assert not any(ev.holds)
    for eq_id in CONCLUSION_IDS:
        rep = ev.report(eq_id)
        assert rep.status == est.VACUOUS
        assert rep.note.endswith(" (hypotheses failed on at least one window)")


def _envelope_oracle(series, budget, X0_sq):
    """The replaced gronwall_envelope loop: np.interp of A^2 and G^2 at
    every RK4 stage (no gamma* abort; the tests stay below it)."""
    nu, c4, c5 = budget.nu, budget.c4, budget.c5
    t = series.times

    def interp(y, tt):
        return np.interp(tt, t, y)

    def f(tt, W):
        return (-W * (nu * c4 - (c5 / nu**3) * W * W)
                + interp(series.A_sq, tt) * W + interp(series.G_sq, tt))

    W = np.empty_like(t)
    W[0] = X0_sq
    for i in range(len(t) - 1):
        h = t[i + 1] - t[i]
        k1 = f(t[i], W[i])
        k2 = f(t[i] + 0.5 * h, W[i] + 0.5 * h * k1)
        k3 = f(t[i] + 0.5 * h, W[i] + 0.5 * h * k2)
        k4 = f(t[i] + h, W[i] + h * k3)
        W[i + 1] = W[i] + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return W


@pytest.mark.parametrize("forced", [False, True],
                         ids=["unforced", "forced"])
def test_envelope_matches_interpolating_loop(stability_setup, forced):
    base, pert, budget, cal = stability_setup
    if forced:
        # time-dependent forces on both runs, at N=8, so that A^2 and G^2
        # vary between the steps
        g2, g3 = make_grid(2 * np.pi, 8, 2), make_grid(2 * np.pi, 8, 3)
        base_cfg = SolverConfig(
            grid=g2, nu=budget.nu, dt=2e-3, t_end=2 * T, T=T,
            forcing=ForcingSpec(expressions=(
                "1e-3*sin(x2)*cos(3*t)", "1e-3*sin(x1)")),
            initial=taylor_green_exact(g2, budget.nu, 0.0, 0.005),
            snapshot_stride=1000)
        u0 = random_divfree_field(g3, seed=7, spectrum_decay=4.0,
                                  target_h1=np.sqrt(0.5 * budget.gamma))
        base, pert, _ = run_perturbation(SolverConfig(
            grid=g3, nu=budget.nu, dt=2e-3, t_end=2 * T, T=T, initial=u0,
            forcing=ForcingSpec(expressions=(
                "1e-6*sin(x3)*cos(t)", "1e-6*sin(x1)", "1e-6*sin(x2)")),
            snapshot_stride=1000), base_cfg)
    for k in range(2):
        s = est.stability_series(pert, base, budget, k)
        assert np.ptp(s.A_sq) > 0 and (np.ptp(s.G_sq) > 0) == forced
        X0 = float(s.X_sq[0])
        assert np.array_equal(est.gronwall_envelope(s, budget, X0),
                              _envelope_oracle(s, budget, X0))


def test_envelope_reduced_linear_case(stability_setup):
    # A = G = 0: dW/dt <= -W(nu c4 - (c5/nu^3) W^2) <= -c*/2 W below gamma*,
    # and for tiny W the decay rate approaches nu*c4
    base, pert, budget, cal = stability_setup
    t = np.linspace(0, 1, 201)
    s = est.StabilitySeries(window=0, times=t, X_sq=np.zeros_like(t),
                            G_sq=np.zeros_like(t), A_sq=np.zeros_like(t))
    W0 = 1e-8
    env = est.gronwall_envelope(s, budget, W0)
    linear = W0 * np.exp(-budget.nu * budget.c4 * t)
    assert np.allclose(env, linear, rtol=1e-6)
    # the envelope never decays slower than e^{-c* t / 2}
    assert np.all(env <= W0 * np.exp(-0.5 * budget.c_star * t) * (1 + 1e-9))


def test_envelope_constant_G_closed_form(stability_setup):
    # linearized regime: dW/dt = -lam W + G0 has the affine closed form
    base, pert, budget, cal = stability_setup
    lam = budget.nu * budget.c4
    G0 = 1e-12
    t = np.linspace(0, 1, 401)
    s = est.StabilitySeries(window=0, times=t, X_sq=np.zeros_like(t),
                            G_sq=np.full_like(t, G0), A_sq=np.zeros_like(t))
    W0 = 1e-10
    env = est.gronwall_envelope(s, budget, W0)
    exact = G0 / lam + (W0 - G0 / lam) * np.exp(-lam * t)
    assert np.allclose(env, exact, rtol=1e-6)


def test_envelope_aborts_beyond_gamma_star(stability_setup):
    base, pert, budget, cal = stability_setup
    t = np.linspace(0, 1, 101)
    big = np.full_like(t, 10.0)
    s = est.StabilitySeries(window=0, times=t, X_sq=np.zeros_like(t),
                            G_sq=big, A_sq=np.zeros_like(t))
    with pytest.raises(ValueError):
        est.gronwall_envelope(s, budget, 0.5 * budget.gamma)
    with pytest.raises(ValueError):
        est.gronwall_envelope(s, budget, 2 * budget.gamma)


def test_endpoint_bound_substitution(stability_setup):
    # with int A^2 = c*T/4 and int G^2 = alpha*gamma the bound becomes
    # alpha*gamma*e^{c*T/4} + X0^2 e^{-c*T/4}
    base, pert, budget, cal = stability_setup
    cs, T_, a, g = budget.c_star, budget.T, budget.alpha, budget.gamma
    iA = 0.25 * cs * T_
    iG = a * g
    s = _window(iA, iG, T_, X0_sq=g)
    _, bound, _ = est.INEQUALITIES["4.25"].series(
        SimpleNamespace(windows=[s], budget=budget))
    bound = bound[0] / (1.0 + est.CONCLUSION_TOL_REL)
    expect = math.exp(iA) * iG + math.exp(-0.5 * cs * T_ + iA) * g
    assert bound == pytest.approx(expect, rel=1e-12)
    assert bound <= (a * g * math.exp(iA) + g * math.exp(-0.25 * cs * T_)) \
        * (1 + 1e-12)


# ---------------------------------------------------------------------------
# calibration

def test_calibrate_constants():
    for N, c3, c_interp in ((8, 0.15774, 0.70245), (16, 0.32751, 0.82045),
                            (32, 0.54601, 0.92195)):
        grid = make_grid(2 * np.pi, N, 3)
        cal = est.calibrate_constants(grid)
        assert cal.c1 == pytest.approx(0.5)
        assert cal.c2 == pytest.approx(2 / 3)
        assert cal.c3 == pytest.approx(c3, abs=5e-6)
        assert cal.c_interp == pytest.approx(c_interp, abs=5e-6)
        assert cal.c4 == pytest.approx(cal.c2 / 2)
        assert cal.c5 > 1
        # the sums over the stored half spectrum equal those over the full
        # lattice of kept modes
        m = np.fft.fftfreq(N, 1.0 / N)
        mm = np.stack(np.meshgrid(m, m, m, indexing="ij"))
        k_sq = grid.kappa**2 * np.sum(mm**2, axis=0)
        kept = np.all(np.abs(mm) <= N // 3, axis=0) & (k_sq > 0)
        S, S1 = np.sum(1 / (1 + k_sq[kept])), np.sum(1 / k_sq[kept])
        assert cal.c3 == pytest.approx(
            (S / grid.volume) ** (2 / 3) / (1 + grid.kappa**2) ** (1 / 3),
            rel=1e-14, abs=0)
        assert cal.c_interp == pytest.approx(
            (S1 / (grid.kappa * grid.volume)) ** (1 / 6), rel=1e-14, abs=0)


def test_calibrate_deterministic(grid3):
    a = est.calibrate_constants(grid3)
    b = est.calibrate_constants(grid3)
    assert a == b


def _ensemble_ratios(grid, ensemble_size, seed):
    """(L6/H1 ratio, interpolation ratio) of each member of the random
    ensemble that used to calibrate c3 and c_interp."""
    for s in seed + np.arange(ensemble_size):
        decay = 1.0 + 2.0 * ((s - seed) % 5) / 4.0
        u = random_divfree_field(grid, int(s), spectrum_decay=decay)
        g = gradient_field(u)
        den = math.sqrt(math.sqrt(hessian_l2_norm_sq(u))
                        * math.sqrt(l2_norm_sq(g)))
        yield embedding_ratio_l6_h1(u), lp_norm(g, 3) / den


@pytest.mark.parametrize("seed", [0, 13])
@pytest.mark.parametrize("ensemble_size", [100, 101])
def test_calibrate_matches_serial_loop(ensemble_size, seed):
    # every member of the former sampling ensemble stays below the bounds
    grid = make_grid(2 * np.pi, 8, 3)
    cal = est.calibrate_constants(grid)
    ratios = np.array(list(_ensemble_ratios(grid, ensemble_size, seed)))
    assert ratios.shape == (ensemble_size, 2)
    assert np.all(ratios > 0)
    assert np.all(ratios[:, 0] <= cal.c3)
    assert np.all(ratios[:, 1] <= cal.c_interp)


def _band(grid, coeffs, M):
    """The coefficients on grid's 2/3-rule modes of the rfft coefficients
    of an M-point grid."""
    c = grid.N // 3
    m = np.r_[0:c + 1, -c:0]
    out = np.zeros((coeffs.shape[0],) + grid.shape_spec, dtype=complex)
    last = np.arange(c + 1)
    every = (slice(None),)
    out[every + np.ix_(m % grid.N, m % grid.N, last)] = \
        coeffs[every + np.ix_(m % M, m % M, last)]
    return out


def test_c3_bound_dominates_gradient_ascent():
    # projected gradient ascent of ||u||_L6^2 / ||u||_H1^2 in the H1 metric
    # over divergence-free mean-free fields on the 2/3-rule modes, with full
    # steps: the L2 gradient 6|u|^4 u of the padded quadrature, restricted
    # to the kept modes, Leray-projected and divided by the H1 weights,
    # normalised to unit H1 norm.  It climbs well above the former sampled
    # maximum (0.0166 at N=8) and must stay below the bound.
    grid = make_grid(2 * np.pi, 8, 3)
    h1_weight = grid.hermitian_weight * grid.sobolev_weights[1]
    spec = random_divfree_field(grid, 0).spectral()
    ratios = [embedding_ratio_l6_h1(Field(grid, spec))]
    for _ in range(30):
        u = physical_padded(Field(grid, spec))
        grad = np.fft.rfftn(np.sum(u**2, axis=0) ** 2 * u, axes=(1, 2, 3),
                            norm="forward")
        step = _band(grid, grad, 2 * grid.N) / grid.sobolev_weights[1]
        step[:, 0, 0, 0] = 0.0
        spec = leray_data(grid, step)
        spec /= math.sqrt(np.sum(h1_weight * np.sum(np.abs(spec)**2,
                                                     axis=0)))
        ratios.append(embedding_ratio_l6_h1(Field(grid, spec)))
    assert np.all(np.diff(ratios) >= -1e-12 * ratios[-1])
    assert ratios[-1] > 0.05
    assert ratios[-1] <= est.calibrate_constants(grid).c3


# ---------------------------------------------------------------------------
# the declaration table against the five functions it replaced

_FORCE_3D = ["1e-6*sin(x3)*cos(t)", "1e-6*sin(x1)*cos(t)",
             "1e-6*sin(x2)*cos(t)"]

#: N = 8 configs (seed 1), each with the property it is there for
EQUIVALENCE_CASES = {
    # smoke's physics: every id passes
    "every-id-passes": ({}, lambda ev, reports: all(
        r.status == est.PASS for r in reports.values())),
    # forced-direct's physics: forced base and perturbation, direct run
    "forced-direct": ({"windows": 1, "direct_3d": True, "base": {
        "forcing": {"kind": "expression", "expressions": [
            "1e-4*sin(x1)*cos(x2)*cos(t)", "-1e-4*cos(x1)*sin(x2)*cos(t)"]}},
        "perturbation": {"forcing": {"kind": "expression",
                                     "expressions": _FORCE_3D}}},
        lambda ev, reports: all(ev.holds) and np.ptp(ev.windows[0].G_sq) > 0),
    # hypothesis-violation's physics: no window meets its hypotheses
    "hypothesis-unmet": ({"windows": 2, "perturbation": {"forcing": {
        "kind": "expression",
        "expressions": ["0.5*sin(x3)", "0.5*sin(x1)", "0.5*sin(x2)"]}}},
        lambda ev, reports: not any(ev.holds)),
    # gamma = gamma* and X^2(0) = gamma: the hypotheses hold, and the
    # envelope leaves gamma* at once
    "envelope-exceeds-gamma-star": ({"windows": 1,
                                     "budget": {"gamma_frac": 1.0},
                                     "perturbation": {"initial": {
                                         "kind": "random",
                                         "h1_sq_frac_of_gamma": 1.0}}},
                                    lambda ev, reports: ev.holds == [True]
                                    and ev.envelopes == [None]),
    # a stronger base: the L2 lemma's assumption 2 fails
    "l2-assumption-2-fails": ({"windows": 1, "base": {"initial": {
        "kind": "taylor-green", "amplitude": 0.05}}},
        lambda ev, reports: ev.l2.assumption2_margin < 0
        and reports["4.1a"].status == est.VACUOUS),
}


@pytest.mark.parametrize("case", list(EQUIVALENCE_CASES))
def test_table_path_equals_the_five_functions(tmp_path, case):
    # every id's report and the windows.csv text of the table path
    # (experiments.analyze over estimates.INEQUALITIES, as run writes
    # them) equal those of the five functions and the analyze they
    # replaced, kept in tests/oracles.py
    overrides, shows = EQUIVALENCE_CASES[case]
    spec = exp.parse_config(json.dumps(
        {"N": 8, "perturbation": {}} | overrides), 1)
    exp.run_experiment(spec, str(tmp_path))
    base, pert = (load_trajectory(tmp_path / run, exp._run_config(spec, run),
                                  label)
                  for run, label in (("base", "2d_base"),
                                     ("perturbation", "perturbation")))
    _, budget = exp._resolve_budget(spec)
    got, evidence = exp.analyze(base, pert, spec, budget)
    want, series_list, hyp_by_window = oracles.analyze(base, pert, spec,
                                                       budget)
    assert list(got) == list(est.INEQUALITIES) and set(want) == set(got)
    for eq_id, rep in want.items():
        assert got[eq_id].to_dict() == rep.to_dict(), eq_id
    assert (tmp_path / "inequalities.json").read_text() \
        == est.reports_to_json(want) + "\n"
    assert (tmp_path / "windows.csv").read_text() \
        == oracles._window_csv(series_list, hyp_by_window, want)
    assert shows(evidence, got)
