"""Time integration: scheme order, invariants, forcing, persistence."""

import dataclasses
import json
import os
import pickle
import re
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from torusflow import make_grid, solver, worker as worker_module
from torusflow.field import (Field, derivative_data, divergence_linf,
                             extrude_field, leray_data, load_field,
                             mean_free, physical_field, physical_data,
                             random_divfree_field, save_field,
                             spectral_data)
from torusflow.estimates import forcing_lp_sq_series
from torusflow.experiments import combine_forcing
from torusflow.norms import (compute_norm_report, grad_l2_norm_sq,
                             l2_norm_sq, sobolev_norm_sq)
from torusflow.solver import (BlowUpError, ForcingSpec, SolverConfig,
                              _EXPR_FUNCTIONS, load_trajectory,
                              run_2d_base, run_full_3d, run_perturbation,
                              save_trajectory, taylor_green_exact,
                              _Workspace)
from torusflow.worker import Worker

from oracles import (FullLatticeWorkspace, forcing_norm_sq_series, mean,
                     mean_columns, mean_ode_integrate, mean_sq,
                     workspace_bytes)


def nse_rhs(v, f, nu):
    """Full Navier-Stokes right-hand side P(-v.grad v + f) + nu*Lap v."""
    grid = v.grid
    if f is not None and f.grid != grid:
        raise ValueError("velocity and forcing grids differ")
    ws = _Workspace(grid)
    rhs = ws.project(ws.flux_rhs(ws.to_kept(v.spectral()), None,
                                 out=ws.n0))
    if f is not None:
        rhs += ws.project(ws.to_kept(f.spectral()))
    out = ws.to_full(rhs)
    out = out - nu * grid.k_sq * v.spectral()
    return Field(grid, out, v.time_stamp)


def _tg_cfg(grid, nu=0.1, dt=1e-3, t_end=0.1, amplitude=1.0, **kw):
    return SolverConfig(grid=grid, nu=nu, dt=dt, t_end=t_end, T=t_end,
                        initial=taylor_green_exact(grid, nu, 0.0, amplitude),
                        **kw)


def test_config_validation(grid2):
    v0 = taylor_green_exact(grid2, 0.1, 0.0)
    with pytest.raises(ValueError):
        SolverConfig(grid=grid2, nu=-1, dt=1e-3, t_end=1, T=1, initial=v0)
    with pytest.raises(ValueError):
        SolverConfig(grid=grid2, nu=0.1, dt=1e-3, t_end=0.5, T=1, initial=v0)
    # a run's clock is refused at construction: [1, 1.5] is no window, nor
    # is t_end = 1.0011 a whole number of windows, and T must be a whole
    # number of steps
    for dt, t_end, what in ((1e-3, 1.5, "windows"), (2e-3, 1.0011, "windows"),
                            (3e-3, 1, "step dt")):
        with pytest.raises(ValueError, match=what):
            SolverConfig(grid=grid2, nu=0.1, dt=dt, t_end=t_end, T=1,
                         initial=v0)
    for stride in (0, 1.5):
        with pytest.raises(ValueError, match="snapshot_stride"):
            SolverConfig(grid=grid2, nu=0.1, dt=1e-3, t_end=1, T=1,
                         initial=v0, snapshot_stride=stride)
    # every run records its series at every step, and snapshots may fall
    # anywhere
    assert "norm_stride" not in {f.name
                                 for f in dataclasses.fields(SolverConfig)}
    cfg = SolverConfig(grid=grid2, nu=0.1, dt=2e-3, t_end=3, T=1, initial=v0)
    assert cfg.n_steps == 1500
    np.testing.assert_array_equal(cfg.times, 2e-3 * np.arange(1501))


def test_forcing_expression_and_steady(grid2):
    f = ForcingSpec(expressions=("sin(x1)", "cos(x2)"))
    assert f.steady
    g = ForcingSpec(expressions=("sin(x1)*cos(t)", "0*x2"))
    assert not g.steady
    spec = f.evaluate(grid2, 0.0)
    assert spec.shape == (2,) + grid2.shape_spec
    # "t" must mean time, not match inside identifiers like "sqrt"
    h = ForcingSpec(expressions=("sqrt(2)*sin(x1)", "0*x1"))
    assert h.steady


def _evaluate_on_meshgrid(forcing, grid, t):
    """The replaced ForcingSpec.evaluate: expressions evaluated on the full
    meshgrid."""
    names = dict(_EXPR_FUNCTIONS, pi=np.pi, t=t)
    names.update({f"x{ax + 1}": c for ax, c in
                  enumerate(np.broadcast_arrays(*grid.coords))})
    return spectral_data(grid, np.array([
        np.broadcast_to(eval(code, {"__builtins__": {}}, names),
                        grid.shape_phys).astype(float)
        for code, _ in forcing._compiled]))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("name", sorted(_EXPR_FUNCTIONS))
def test_forcing_on_axes_matches_meshgrid(name, dim):
    xs = [f"x{ax + 1}" for ax in range(dim)]
    exprs = [f"{name}(0.1 + 0.2*({' + '.join(xs)}) + t)",
             f"{name}(0.1 + 0.3*x2 + t)*(1 + x1)", f"-{name}(0.5 + x3)"]
    for N, t in ((8, 0.0), (16, 0.37)):
        grid = make_grid(2 * np.pi, N, dim)
        forcing = ForcingSpec(expressions=exprs[:dim])
        np.testing.assert_array_equal(forcing.evaluate(grid, t),
                                      _evaluate_on_meshgrid(forcing, grid, t))


def test_forcing_validation(grid2, grid3):
    # physical, the one function that writes the components, refuses a
    # component count other than the grid's dimension; no expressions is
    # the zero force, on any grid
    for grid, exprs in ((grid2, ("0*x1",) * 3), (grid3, ("0*x1",) * 2)):
        with pytest.raises(ValueError, match=f"need {grid.dim} component "
                           f"expressions, got {len(exprs)}"):
            ForcingSpec(expressions=exprs).physical(grid, 0.0)
        zero = ForcingSpec().physical(grid, 0.3)
        assert zero.shape == (grid.dim,) + grid.shape_phys
        assert not zero.any()


def _convective_reference(grid, v_spec, f_spec, b_spec):
    """P(-dealias((w.grad)w - (b.grad)b) + f) with w = dealias(v) + b, in
    convective form: the reference for the divergence-form kernel."""
    def advect(a_spec, c_spec):
        a = physical_data(grid, a_spec)
        return sum(a[j] * physical_data(grid, derivative_data(grid, c_spec, j))
                   for j in range(grid.dim))

    w_spec = v_spec * grid.dealias_mask + b_spec
    conv = advect(w_spec, w_spec) - advect(b_spec, b_spec)
    return leray_data(grid, -spectral_data(grid, conv) * grid.dealias_mask
                      + f_spec)


@pytest.mark.parametrize("case", ["2d", "3d", "3d-background"])
def test_nonlinear_term_matches_convective_form(grid2, grid3, case):
    # random dealiased divergence-free fields with a nonzero mean; the
    # background is an x3-invariant 2D field with its own mean, passed to
    # the kernel as (2, N, N, 1) physical values
    grid = grid2 if case == "2d" else grid3
    ws = _Workspace(grid)
    zero = (slice(None),) + (0,) * grid.dim
    v = random_divfree_field(grid, seed=3, target_h1=1.0).spectral().copy()
    v[zero] = [0.3, -0.2, 0.1][:grid.dim]
    f = random_divfree_field(grid, seed=4, target_h1=1.0).spectral()
    b_spec = np.zeros_like(v)
    background = None
    if case == "3d-background":
        b2 = random_divfree_field(grid2, seed=5, target_h1=1.0)
        b2.data[(slice(None), 0, 0)] = [0.25, -0.15]
        b_spec = extrude_field(b2, grid3).spectral()
        background = physical_data(grid3, b_spec)[:2, ..., :1]
    # the step projects the sum of the kernel's flux and the force
    got = ws.flux_rhs(ws.to_kept(v), background, out=ws.n0)
    got = ws.to_full(ws.project(got + ws.to_kept(f)))
    ref = _convective_reference(grid, v, f, b_spec)
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("case", ["2d", "3d", "3d-background"])
def test_kernel_on_k_deriv_matches_kernel_on_k(grid2, grid3, case):
    # the kernel's derivatives on grid.k_deriv, zero on each axis' Nyquist
    # plane, against the replaced ones on grid.k, in the replaced
    # full-lattice kernel: that masks its result after the derivative, and
    # the kernel on the 2/3-rule modes holds no Nyquist mode, so both agree
    # bit for bit on a masked state
    grid = grid2 if case == "2d" else grid3
    v = random_divfree_field(grid, seed=6, target_h1=1.0).spectral()
    background = None
    ws = _Workspace(grid)
    if case == "3d-background":
        b2 = random_divfree_field(grid2, seed=8, target_h1=1.0)
        background = extrude_field(b2, grid3).physical()[..., :1]
    old = FullLatticeWorkspace(grid)
    old.ik = [1j * k for k in grid.k]
    ref = old.nonlinear(v, None, background, out=np.empty_like(v))
    # the products reach the Nyquist plane of the rfft axis
    assert np.abs(old.flux[..., grid.N // 2]).max() > 1e-6
    got = ws.to_full(ws.project(ws.flux_rhs(
        ws.to_kept(v),
        None if background is None else background[:2],
        out=ws.n0)))
    np.testing.assert_array_equal(got, ref)


def _snapshots(run) -> list:
    """The spectral states of the snapshot files a run streamed, in order."""
    return [load_field(p).spectral() for p in run.snapshot_paths]


def _signed_zeros(a) -> int:
    """The entries of a whose real or imaginary part is -0.0."""
    return int(np.count_nonzero((a.real == 0) & np.signbit(a.real))
               + np.count_nonzero((a.imag == 0) & np.signbit(a.imag)))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("N", [6, 8, 12, 16, 18])
def test_kept_mode_step_matches_full_lattice_oracle(N, dim, tmp_path):
    # the replaced path steps the full spectral lattice under the 2/3-rule
    # masks; stepped on K alone, under a time-dependent force and (3D) an
    # x3-invariant background that changes from step to step, the state is
    # the same on K bit for bit, and a run's stored state holds exactly
    # +0.0 outside K after its first step
    grid = make_grid(2 * np.pi, N, dim)
    nu, dt, steps = 0.5, 4e-3, 4
    forcing = ForcingSpec(expressions=(
        "0.1*sin(x2)*cos(3*t)", "0.05 + 0.1*sin(x1)*sin(2*t)",
        "0.1*sin(x1)*cos(t)")[:dim])
    initial = random_divfree_field(grid, seed=3, target_h1=0.5)
    ws, old = _Workspace(grid, nu, dt), FullLatticeWorkspace(grid, nu, dt)
    backgrounds = old_backgrounds = (None, None)
    if dim == 3:
        b2 = random_divfree_field(make_grid(2 * np.pi, N, 2), seed=5,
                                  target_h1=1.0)
        b2.data[(slice(None), 0, 0)] = [0.25, -0.15]
        b = extrude_field(b2, grid).physical()[..., :1]
        old_backgrounds = (b, 0.5 * b)
        backgrounds = (b[:2], 0.5 * b[:2])
    v0 = leray_data(grid, initial.spectral() * grid.dealias_mask)
    v, u = v0.copy(), ws.to_kept(v0)
    for i in range(steps):
        old.step(v, i * dt, (i + 1) * dt, forcing, old_backgrounds[i % 2])
        ws.step(u, i * dt, (i + 1) * dt, forcing, backgrounds[i % 2])
        assert np.array_equal(u, ws.to_kept(v))
        assert _signed_zeros(u) == _signed_zeros(ws.to_kept(v))
    full = ws.to_full(u)
    assert not full[:, ~grid.dealias_mask].any()
    assert _signed_zeros(full[:, ~grid.dealias_mask]) == 0

    cfg = SolverConfig(grid=grid, nu=nu, dt=dt, t_end=steps * dt,
                       T=steps * dt, forcing=forcing, initial=initial)
    run = run_2d_base(cfg, tmp_path) if dim == 2 \
        else run_full_3d(cfg, tmp_path)
    # a run without a background, stored at every step: byte for byte the
    # replaced path's states on K, +0.0 outside K from the first one on
    old = FullLatticeWorkspace(grid, nu, dt)
    v = v0.copy()
    snaps = _snapshots(run)
    assert len(snaps) == steps + 1
    assert snaps[0].tobytes() == ws.to_full(ws.to_kept(v)).tobytes()
    assert _signed_zeros(snaps[0][:, ~grid.dealias_mask]) == 0
    for i, snap in enumerate(snaps[1:]):
        old.step(v, i * dt, (i + 1) * dt, forcing)
        assert snap.tobytes() == v.tobytes()
        assert _signed_zeros(snap[:, ~grid.dealias_mask]) == 0


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("N", [8, 16])
def test_kept_mode_norms_match_full_lattice_norms(N, dim, tmp_path):
    # the replaced path: the three Parseval sums of norms on the mean-free
    # part of the state copied onto the full lattice; on K alone the sums
    # run in another order, so they agree to roundoff
    grid = make_grid(2 * np.pi, N, dim)
    ws = _Workspace(grid)
    rng = np.random.default_rng(N + dim)
    for _ in range(3):
        v = ws.to_kept(spectral_data(
            grid, rng.standard_normal((dim,) + grid.shape_phys)))
        v[(slice(None),) + (0,) * dim] = rng.uniform(0.5, 1.0, dim)
        bar = mean_free(Field(grid, ws.to_full(v)))
        np.testing.assert_allclose(
            ws.mean_free_norms_sq(v),
            (l2_norm_sq(bar), grad_l2_norm_sq(bar), sobolev_norm_sq(bar, 2)),
            rtol=1e-14, atol=0)
        # a force's record takes the L2 sum alone, and a 3D run's the L2
        # and H1 sums, with the same bits
        for count in (1, 2):
            assert ws.mean_free_norms_sq(v, count) \
                == ws.mean_free_norms_sq(v)[:count]
    # a 3D run records its mean as the k=0 coefficient of its state, bit
    # for bit, under a mean force; the 2D base records none.  Each run
    # holds exactly the columns of its label: no 3D run an H2 norm, and the
    # full 3D run no force norm, though its force is evaluated at every
    # step time all the same
    forcing = ForcingSpec(expressions=(
        "0.3*cos(2*t) + 0.1*sin(x2)", "0.2 + 0*x1", "0.1*sin(t)")[:dim])
    cfg = SolverConfig(grid=grid, nu=0.5, dt=4e-3, t_end=0.02, T=0.02,
                       forcing=forcing,
                       initial=random_divfree_field(grid, 1, target_h1=0.5))
    run = run_2d_base(cfg, tmp_path) if dim == 2 \
        else run_full_3d(cfg, tmp_path)
    k0 = np.real([s[(slice(None),) + (0,) * dim] for s in _snapshots(run)])
    assert len(k0) == cfg.n_steps + 1 and np.abs(k0[1:]).min() > 0
    assert list(run.diag) == solver.diag_columns(run.label)
    held = {"h2_sq", "forcing_l2_sq"} & set(run.diag)
    assert held == ({"h2_sq", "forcing_l2_sq"} if dim == 2 else set())
    assert not cfg.forcing.steady
    assert run.force_evaluations == cfg.n_steps + 1
    means = [c for c in run.diag if c.startswith("mean_")]
    assert means == ([] if dim == 2 else ["mean_1", "mean_2", "mean_3"])
    for c, m in zip(means, k0.T):
        assert run.diag[c].tobytes() == m.tobytes()


@pytest.mark.parametrize("t", [0.0, 0.3])
def test_taylor_green_exact_on_a_3d_grid(grid2, grid3, t):
    # the 2D vortex extruded along x3, its third component zero
    got = taylor_green_exact(grid3, 0.1, t, 0.7)
    assert got.grid == grid3
    want = extrude_field(taylor_green_exact(grid2, 0.1, t, 0.7), grid3)
    np.testing.assert_array_equal(got.physical(), want.physical())
    assert not got.physical()[2].any()
    assert divergence_linf(got) < 1e-14


def test_taylor_green_is_steady_state_of_rhs(grid2):
    # projected nonlinearity of the vortex is a pure gradient; the full rhs
    # reduces to the viscous decay of the initial mode
    v = taylor_green_exact(grid2, 0.1, 0.0)
    rhs = nse_rhs(v, None, 0.1)
    expect = -0.1 * grid2.k_sq * v.spectral()
    assert np.abs(rhs.spectral() - expect).max() < 1e-14


def test_advance_single_step_matches_exact(grid2):
    nu, dt = 0.1, 1e-3
    ws = _Workspace(grid2, nu, dt)
    v = ws.to_kept(taylor_green_exact(grid2, nu, 0.0).spectral())
    ws.step(v, 0.0, dt, ForcingSpec())
    exact = taylor_green_exact(grid2, nu, dt)
    assert np.abs(ws.physical(v) - exact.physical()).max() < 1e-10


def test_advance_detects_blowup(grid2):
    bad = Field(grid2, np.full((2,) + grid2.shape_spec, np.nan + 0j))
    cfg = SolverConfig(grid=grid2, nu=0.1, dt=1e-3, t_end=0.01, T=0.01,
                       initial=bad)
    with pytest.raises(BlowUpError) as info:
        run_2d_base(cfg)
    assert (info.value.time, info.value.quantity) == (0.0, "2d_base L2 norm")


def test_second_order_convergence(grid2, tmp_path):
    # forced run so the nonlinear coupling is genuinely exercised
    nu, t_end = 0.2, 0.25
    forcing = ForcingSpec(expressions=(
        "0.5*sin(x2)*cos(t)", "0.5*sin(x1)"))
    errs = []
    for dt in (2e-3, 1e-3):
        cfg = SolverConfig(grid=grid2, nu=nu, dt=dt, t_end=t_end, T=t_end,
                           forcing=forcing,
                           initial=taylor_green_exact(grid2, nu, 0.0, 0.5),
                           snapshot_stride=round(t_end / dt))
        traj = run_2d_base(cfg, tmp_path / f"dt-{dt:g}")
        errs.append(traj.snapshot_field(-1).spectral())
    # Richardson: error(dt) ~ 4*error(dt/2); compare both against dt/4
    cfg = SolverConfig(grid=grid2, nu=nu, dt=5e-4, t_end=t_end, T=t_end,
                       forcing=forcing,
                       initial=taylor_green_exact(grid2, nu, 0.0, 0.5),
                       snapshot_stride=round(t_end / 5e-4))
    ref = run_2d_base(cfg, tmp_path / "ref").snapshot_field(-1).spectral()
    e_coarse = np.abs(errs[0] - ref).max()
    e_fine = np.abs(errs[1] - ref).max()
    assert e_coarse / e_fine > 3.5


def _taylor_green_3d(grid, amplitude):
    """The 3D Taylor-Green vortex (sin x1 cos x2 cos x3,
    -cos x1 sin x2 cos x3, 0): its nonlinear term is not a gradient."""
    x1, x2, x3 = grid.coords
    phys = np.zeros((3,) + grid.shape_phys)
    phys[0] = amplitude * np.sin(x1) * np.cos(x2) * np.cos(x3)
    phys[1] = -amplitude * np.cos(x1) * np.sin(x2) * np.cos(x3)
    return physical_field(grid, phys)


@pytest.mark.parametrize("case", ["taylor-green", "forced"])
def test_ab2_step_matches_replaced_heun_to_second_order(case):
    # the replaced path: Crank-Nicolson / Heun, on the full lattice.  Both
    # schemes are second order, so their states at t_end differ by
    # C dt^2 + O(dt^3): halving dt divides the difference by about 4
    grid = make_grid(2 * np.pi, 8, 3)
    nu, t_end = 0.1, 0.2
    if case == "taylor-green":
        initial, forcing = _taylor_green_3d(grid, 1.0), ForcingSpec()
    else:
        initial = random_divfree_field(grid, seed=3, target_h1=1.0)
        forcing = ForcingSpec(expressions=(
            "0.5*sin(x3)*cos(3*t)", "0.5*sin(x1)*sin(2*t)",
            "0.3 + 0.5*sin(x2)*cos(t)"))
    v0 = leray_data(grid, initial.spectral() * grid.dealias_mask)
    diffs = []
    for dt in (1e-2, 5e-3):
        ws, heun = _Workspace(grid, nu, dt), FullLatticeWorkspace(grid, nu,
                                                                  dt)
        u, v = ws.to_kept(v0), v0.copy()
        for i in range(round(t_end / dt)):
            ws.step(u, i * dt, (i + 1) * dt, forcing)
            heun.heun_step(v, i * dt, forcing)
        diffs.append(np.abs(ws.to_full(u) - v).max())
    assert diffs[1] > 1e-6 * np.abs(v0).max()
    assert 3.8 < diffs[0] / diffs[1] < 4.2


def test_run_keeps_divergence_free(grid2, tmp_path):
    cfg = _tg_cfg(grid2, t_end=0.05, snapshot_stride=50)
    traj = run_2d_base(cfg, tmp_path)
    assert len(traj.snapshot_paths) == 2
    for i in range(len(traj.snapshot_paths)):
        assert divergence_linf(traj.snapshot_field(i)) < 1e-12


def test_mean_ode_trapezoid_exact_for_linear():
    times = np.linspace(0, 1, 11)
    forcing = np.stack([2 * times, np.ones_like(times)], axis=1)
    out = mean_ode_integrate(times, forcing, np.array([1.0, 0.0]))
    assert out[-1] == pytest.approx([2.0, 1.0])  # 1 + t^2, t


def test_base_run_mean_follows_forcing(grid2, tmp_path):
    # the base records no mean: the k=0 coefficient of each snapshot
    # carries it
    forcing = ForcingSpec(expressions=("0.3 + 0*x1", "0.1*cos(t)"))
    cfg = SolverConfig(grid=grid2, nu=0.1, dt=1e-3, t_end=0.5, T=0.5,
                       forcing=forcing, snapshot_stride=100,
                       initial=taylor_green_exact(grid2, 0.1, 0.0, 0.2))
    traj = run_2d_base(cfg, tmp_path)
    snaps = [load_field(p) for p in traj.snapshot_paths]
    assert [s.time_stamp for s in snaps] == list(cfg.times[::100])
    t = np.array([s.time_stamp for s in snaps])
    exact = np.stack([0.3 * t, 0.1 * np.sin(t)], axis=1)
    assert np.abs(np.array([mean(s) for s in snaps]) - exact).max() < 1e-7


def test_full_3d_mean_matches_ode(grid3):
    forcing = ForcingSpec(expressions=("0.2 + 0*x1", "0.05*cos(t)", "0*x1"))
    cfg = SolverConfig(grid=grid3, nu=0.1, dt=2e-3, t_end=0.2, T=0.2,
                       forcing=forcing, snapshot_stride=100,
                       initial=random_divfree_field(grid3, 0, target_h1=0.05))
    traj = run_full_3d(cfg)
    f_means = [mean(Field(grid3, forcing.evaluate(grid3, t)))
               for t in traj.diag["t"]]
    oracle = mean_ode_integrate(traj.diag["t"], f_means, np.zeros(3))
    assert np.abs(mean_columns(traj) - oracle).max() < 1e-10


def test_perturbation_mean_sq_is_the_column_sum(grid3):
    # the perturbation records (m1^2 + m2^2) + m3^2 of its k = 0
    # coefficient, bit for bit the sum of squares of the mean columns it
    # used to write; each component is one whose square numpy's scalar
    # x ** 2 (libm pow) rounds one unit in the last place off x * x
    means = np.array([[-0.015763150531707022, 0.019124447508016545,
                       0.0022942657019610485], [0.007114731156330433,
                                                0.0, 0.0]])
    assert all(np.float64(x) ** 2 != x * x for x in means[means != 0])
    cfg = SolverConfig(grid=grid3, nu=0.1, dt=1e-3, t_end=1e-3, T=1e-3,
                       initial=random_divfree_field(grid3, 0))
    member = solver._Member(cfg, "perturbation")
    assert list(member.diag) == solver.diag_columns("perturbation")
    for i, m in enumerate(means):
        member.state[(slice(None), 0, 0, 0)] = m
        member._record(i)
    assert member.diag["mean_sq"].tobytes() == mean_sq(means).tobytes()


@pytest.mark.parametrize("mean_force", [
    None, ("0.5*cos(3*t)", "0.3*sin(2*t) + 0*x1", "0*x1")],
    ids=["unforced", "mean-force"])
def test_perturbation_of_zero_base_is_full_dynamics(grid2, grid3, mean_force,
                                                    tmp_path):
    """With v_s = 0 the perturbation system is the plain 3D system, also
    while a time-dependent mean force drives the mean."""
    nu, dt, t_end = 0.2, 2e-3, 0.1
    forcing = ForcingSpec() if mean_force is None \
        else ForcingSpec(expressions=mean_force)
    zero2 = Field(grid2, np.zeros((2,) + grid2.shape_spec, complex))
    base_cfg = SolverConfig(grid=grid2, nu=nu, dt=dt, t_end=t_end,
                            T=t_end, initial=zero2, snapshot_stride=10)
    u0 = random_divfree_field(grid3, seed=2, target_h1=0.1)
    steps = round(t_end / dt)
    pcfg = SolverConfig(grid=grid3, nu=nu, dt=dt, t_end=t_end, T=t_end,
                        initial=u0, snapshot_stride=steps, forcing=forcing)
    _, pert, _ = run_perturbation(
        pcfg, base_cfg, directories=(tmp_path / "base", tmp_path / "pert",
                                     None))
    full = run_full_3d(SolverConfig(grid=grid3, nu=nu, dt=dt, t_end=t_end,
                                    T=t_end, initial=u0, forcing=forcing,
                                    snapshot_stride=steps), tmp_path / "full")
    diff = np.abs(pert.snapshot_field(-1).spectral()
                  - full.snapshot_field(-1).spectral()).max()
    assert diff < 1e-13


def _run_dirs(path) -> tuple:
    """One trajectory directory under path for each run of
    run_perturbation, in its order."""
    return tuple(path / name for name in ("base", "perturbation", "direct"))


def _stored_base_oracle(base_states, pert_cfg, r) -> list:
    """The replaced path: the full-lattice states of the perturbation of
    pert_cfg at every step, stepped with x3-invariant backgrounds read back
    from the stored states of the base run at every base step, r base steps
    a perturbation step."""
    g3 = pert_cfg.grid
    g2 = make_grid(g3.L, g3.N, 2)
    ws = _Workspace(g3, pert_cfg.nu, pert_cfg.dt)
    u = ws.to_kept(leray_data(g3, pert_cfg.initial.spectral()))
    states = [ws.to_full(u)]
    tgrid = pert_cfg.dt * np.arange(pert_cfg.n_steps + 1)
    for i in range(pert_cfg.n_steps):
        background = physical_data(g2, base_states[i * r])[..., np.newaxis]
        ws.step(u, tgrid[i], tgrid[i + 1], pert_cfg.forcing, background)
        states.append(ws.to_full(u))
    return states


def _lockstep_configs(r):
    """Base (dt/r), perturbation and direct configs at N=8, with
    time-dependent forces on every run."""
    g2, g3 = make_grid(2 * np.pi, 8, 2), make_grid(2 * np.pi, 8, 3)
    nu, dt, t_end = 0.5, 4e-3, 0.04
    f = ForcingSpec(expressions=(
        "0.1*sin(x2)*cos(3*t)", "0.05 + 0.1*sin(x1)*sin(2*t)"))
    g = ForcingSpec(expressions=(
        "0.1*sin(x3)*cos(t)", "0.1*sin(x1)", "0.1*sin(x2)*sin(t)"))
    base_cfg = SolverConfig(grid=g2, nu=nu, dt=dt / r, t_end=t_end, T=t_end,
                            forcing=f, snapshot_stride=1,
                            initial=taylor_green_exact(g2, nu, 0.0, 0.5))
    u0 = random_divfree_field(g3, seed=2, target_h1=0.3)
    pert_cfg = SolverConfig(grid=g3, nu=nu, dt=dt, t_end=t_end, T=t_end,
                            forcing=g, snapshot_stride=1, initial=u0)
    vs0 = Field(g2, leray_data(g2, base_cfg.initial.spectral()))
    v0 = physical_field(g3, extrude_field(vs0, g3).physical()
                        + u0.physical())
    direct_cfg = SolverConfig(grid=g3, nu=nu, dt=dt, t_end=t_end, T=t_end,
                              forcing=combine_forcing(f, g),
                              snapshot_stride=2, initial=v0)
    return base_cfg, pert_cfg, direct_cfg


@pytest.mark.parametrize("r", [1, 2])
def test_lockstep_matches_stored_base_oracle(r, tmp_path):
    # the replaced path: the base run stored at every base step, then the
    # perturbation stepped with x3-invariant backgrounds read back from its
    # snapshots on the perturbation's step times
    base_cfg, pert_cfg, _ = _lockstep_configs(r)
    stored = run_2d_base(base_cfg, tmp_path / "stored")
    oracle = _stored_base_oracle(_snapshots(stored), pert_cfg, r)

    base, pert, direct = run_perturbation(pert_cfg, base_cfg,
                                          directories=_run_dirs(tmp_path))
    assert direct is None
    np.testing.assert_array_equal(np.array(_snapshots(pert)),
                                  np.array(oracle))
    np.testing.assert_array_equal(np.array(_snapshots(base)),
                                  np.array(_snapshots(stored)))
    assert list(base.diag) == list(stored.diag)
    for key, series in stored.diag.items():
        np.testing.assert_array_equal(base.diag[key], series)


def test_backgrounds_stream_the_base_velocity_alone():
    # each item the base worker streams is the base's physical values at
    # the start of the step, constant along x3, and nothing else
    base_cfg, pert_cfg, _ = _lockstep_configs(2)
    base = solver._Member(base_cfg, "2d_base")
    ws, N = _Workspace(base_cfg.grid), base_cfg.grid.N
    items = solver._backgrounds(base, 2, pert_cfg.n_steps)
    for _ in range(pert_cfg.n_steps):
        want = ws.physical(base.state)
        item = next(items)
        assert item.shape == (2, N, N, 1) and item.dtype == np.float64
        assert item.tobytes() == want[..., np.newaxis].tobytes()
    with pytest.raises(StopIteration):
        next(items)


def _full_lattice_states(cfg) -> list:
    """The replaced path: the states of a run of cfg without a background
    at every step, stepped on the full lattice (FullLatticeWorkspace), the
    first taken onto K and back, as a run stores it."""
    grid = cfg.grid
    ws, old = _Workspace(grid), FullLatticeWorkspace(grid, cfg.nu, cfg.dt)
    v = leray_data(grid, cfg.initial.spectral() * grid.dealias_mask)
    states = [ws.to_full(ws.to_kept(v))]
    for i in range(cfg.n_steps):
        old.step(v, cfg.times[i], cfg.times[i + 1], cfg.forcing)
        states.append(v.copy())
    return states


def test_streamed_snapshots_equal_oracle_states(tmp_path):
    # each file a run streams holds the oracle's state at its step, and
    # that step's time: the full-lattice path for the base and the direct
    # run, the stored-base path for the perturbation.  A saved run's files
    # are those states written by save_field, file for file
    base_cfg, pert_cfg, direct_cfg = _lockstep_configs(2)
    base_states = _full_lattice_states(base_cfg)
    oracles = (base_states, _stored_base_oracle(base_states, pert_cfg, 2),
               _full_lattice_states(direct_cfg))
    dirs = _run_dirs(tmp_path / "streamed")
    runs = run_perturbation(pert_cfg, base_cfg, direct_cfg, dirs)
    for cfg, directory, run, states in zip((base_cfg, pert_cfg, direct_cfg),
                                           dirs, runs, oracles):
        partial = str(directory / "snapshots.partial")
        steps = range(0, cfg.n_steps + 1, cfg.snapshot_stride)
        assert [os.path.dirname(p) for p in run.snapshot_paths] \
            == [partial] * len(steps)
        # the pickle a worker sends back carries paths, not states
        assert len(pickle.dumps(run)) < sum(states[i].nbytes for i in steps)
        held_dir = tmp_path / "held" / directory.name
        held_dir.mkdir(parents=True)
        for j, i in enumerate(steps):
            got = run.snapshot_field(j)
            assert got.data.tobytes() == states[i].tobytes()
            assert (got.grid, got.time_stamp) == (cfg.grid, cfg.times[i])
            save_field(held_dir / f"snap_{j:06d}.npz",
                       Field(cfg.grid, states[i], cfg.times[i]))
        out = save_trajectory(run, directory)
        assert not os.path.exists(partial)
        assert run.snapshot_paths == out
        assert sorted(os.listdir(directory)) \
            == ["diagnostics.csv", "snapshots"]
        held_files = sorted(os.listdir(held_dir))
        assert sorted(os.listdir(directory / "snapshots")) == held_files
        for fname in held_files:
            assert (directory / "snapshots" / fname).read_bytes() \
                == (held_dir / fname).read_bytes()


def _two_projection_states(cfg, base_states=None, r=1) -> list:
    """The replaced step, which projected the flux and each force
    evaluation apart (FullLatticeWorkspace.two_projection_step): the
    full-lattice states of a run of cfg at every step.  Given the states
    of a base run at every base step, r base steps a perturbation step,
    each step takes the physical values of the base state at its start as
    its background."""
    grid = cfg.grid
    g2 = make_grid(grid.L, grid.N, 2)
    old = FullLatticeWorkspace(grid, cfg.nu, cfg.dt)
    v = leray_data(grid, cfg.initial.spectral() * grid.dealias_mask)
    states, background = [v.copy()], None
    for i in range(cfg.n_steps):
        if base_states is not None:
            background = np.zeros((3, grid.N, grid.N, 1))
            background[:2, ..., 0] = physical_data(g2, base_states[i * r])
        old.two_projection_step(v, cfg.times[i], cfg.times[i + 1],
                                cfg.forcing, background)
        states.append(v.copy())
    return states


def test_one_projection_step_matches_two_projection_step(tmp_path):
    # the step projects its sum of flux and force once, where the replaced
    # step projected the flux and each force evaluation apart.  P is linear
    # and commutes with the Crank-Nicolson factors, so over one window with
    # time-dependent forces the two agree to roundoff on the base run, on
    # the perturbation run around it and on the full 3D run
    base_cfg, pert_cfg, direct_cfg = _lockstep_configs(2)
    base_states = _two_projection_states(base_cfg)
    oracles = (base_states, _two_projection_states(pert_cfg, base_states, 2),
               _two_projection_states(direct_cfg))
    runs = run_perturbation(pert_cfg, base_cfg, direct_cfg,
                            _run_dirs(tmp_path))
    for cfg, run, states in zip((base_cfg, pert_cfg, direct_cfg), runs,
                                oracles):
        assert cfg.t_end == cfg.T and cfg.forcing.expressions
        steps = range(0, cfg.n_steps + 1, cfg.snapshot_stride)
        assert len(run.snapshot_paths) == len(steps) > 5
        for j, i in enumerate(steps):
            got, want = run.snapshot_field(j).data, states[i]
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("dim", [2, 3])
def test_step_projects_once(dim, monkeypatch):
    # one Leray projection a step, of the step's sum of flux and force,
    # and one of the initial state: n + 1 over the n steps of a run with a
    # time-dependent force, where projecting the flux and each force
    # evaluation apart made 2n + 2
    base_cfg, _, direct_cfg = _lockstep_configs(1)
    calls, project = Counter(), _Workspace.project

    def counted(self, v):
        calls["project"] += 1
        return project(self, v)

    monkeypatch.setattr(_Workspace, "project", counted)
    cfg = base_cfg if dim == 2 else direct_cfg
    assert not cfg.forcing.steady
    (run_2d_base if dim == 2 else run_full_3d)(cfg)
    assert calls["project"] == cfg.n_steps + 1


def test_load_trajectory_returns_the_runs_diag(tmp_path):
    # a forced N = 8 run with its direct run: each saved run reads back as
    # the series it recorded, the columns of diagnostics.csv in their order,
    # bit for bit
    base_cfg, pert_cfg, direct_cfg = _lockstep_configs(2)
    dirs = _run_dirs(tmp_path)
    runs = run_perturbation(pert_cfg, base_cfg, direct_cfg, dirs)
    for cfg, directory, run in zip((base_cfg, pert_cfg, direct_cfg), dirs,
                                   runs):
        columns = solver.diag_columns(run.label)
        assert list(run.diag) == columns
        save_trajectory(run, directory)
        back = load_trajectory(directory, cfg, run.label)
        assert list(back.diag) == columns
        for key, series in run.diag.items():
            assert back.diag[key].tobytes() == series.tobytes(), key


def test_streamed_run_memory_does_not_grow_with_snapshots(tmp_path):
    # a streamed run holds no state per snapshot: its traced peak is the
    # same, within one state, for a snapshot at every step and at the two
    # ends
    grid = make_grid(2 * np.pi, 8, 3)
    steps, dt = 20, 2e-3
    initial = random_divfree_field(grid, 1, target_h1=0.5)
    state = initial.spectral().nbytes

    def peak(stride, directory):
        cfg = SolverConfig(grid=grid, nu=0.5, dt=dt, t_end=steps * dt,
                           T=steps * dt, initial=initial,
                           snapshot_stride=stride)
        run_full_3d(cfg, directory)  # warms every cache first
        tracemalloc.start()
        try:
            traj = run_full_3d(cfg, directory)
            _, top = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(traj.snapshot_paths) == steps // stride + 1
        return top

    streamed = [peak(stride, tmp_path / "run") for stride in (1, steps)]
    assert abs(streamed[0] - streamed[1]) < state


def test_lockstep_direct_matches_run_full_3d(monkeypatch, tmp_path):
    # only the 2D base computes the L3 and W^1_sigma norms, at every step:
    # a 3D run that computed them fails, in the base's child too, which
    # steps the direct run.  Each call appends its grid's dim to a file,
    # from whichever process makes it
    base_cfg, pert_cfg, direct_cfg = _lockstep_configs(2)
    calls = tmp_path / "dims"
    calls.touch()
    base_norms = _Workspace.base_norms

    def norms_2d(ws, v):
        with open(calls, "a") as fh:
            fh.write(str(ws.grid.dim))
        assert ws.grid.dim == 2, "a 3D run computed the base's norms"
        return base_norms(ws, v)

    monkeypatch.setattr(_Workspace, "base_norms", norms_2d)
    base, pert, direct = run_perturbation(pert_cfg, base_cfg, direct_cfg,
                                          _run_dirs(tmp_path))
    alone = run_full_3d(direct_cfg, tmp_path / "alone")
    dims = [int(d) for d in calls.read_text()]
    assert dims == [2] * len(base.diag["t"]) == [2] * (base_cfg.n_steps + 1)
    for traj in (pert, direct, alone):
        assert not {"grad_l3_sq", "w1_sigma"} & set(traj.diag)
    assert len(direct.snapshot_paths) == len(alone.snapshot_paths) == 6
    np.testing.assert_array_equal(np.array(_snapshots(direct)),
                                  np.array(_snapshots(alone)))
    # the direct run records the one series the output checks read of it;
    # run_full_3d keeps those of criteria 02 and 06 and demo 02
    assert list(direct.diag) == ["t", "l2_sq"]
    assert list(alone.diag) == ["t", "l2_sq", "grad_l2_sq", "mean_1",
                                "mean_2", "mean_3"]
    for key in direct.diag:
        assert direct.diag[key].tobytes() == alone.diag[key].tobytes()


@pytest.mark.parametrize("pert_h1, direct_h1, label, t", [
    (0.3, 1e4, "direct", 0.04), (1e4, 1e5, "direct", 0.032),
    (1e5, 1e4, "perturbation", 0.032), (1e4, 1e4, "perturbation", 0.04)],
    ids=["direct-only", "direct-earlier", "perturbation-earlier", "tie"])
def test_blowup_reported_as_one_loop_would(pert_h1, direct_h1, label, t):
    # the expected run and time are those of the loop that stepped the
    # direct run after the perturbation at each step, in one process
    g2, g3 = make_grid(2 * np.pi, 8, 2), make_grid(2 * np.pi, 8, 3)
    nu, dt, t_end = 0.5, 4e-3, 0.08
    base_cfg = SolverConfig(grid=g2, nu=nu, dt=dt, t_end=t_end, T=t_end,
                            initial=taylor_green_exact(g2, nu, 0.0, 0.5))
    pert_cfg = SolverConfig(
        grid=g3, nu=nu, dt=dt, t_end=t_end, T=t_end,
        initial=random_divfree_field(g3, seed=2, target_h1=pert_h1))
    v0 = extrude_field(base_cfg.initial, g3).physical() \
        + random_divfree_field(g3, seed=2, target_h1=direct_h1).physical()
    direct_cfg = SolverConfig(grid=g3, nu=nu, dt=dt, t_end=t_end, T=t_end,
                              initial=physical_field(g3, v0))
    with np.errstate(all="ignore"):
        with pytest.raises(BlowUpError) as info:
            run_perturbation(pert_cfg, base_cfg, direct_cfg)
        with pytest.raises(BlowUpError) as alone:
            if label == "direct":
                solver._run_alone(direct_cfg, "direct")
            else:
                run_perturbation(pert_cfg, base_cfg)
    got, want = info.value, alone.value
    assert got.quantity == f"{label} L2 norm"
    assert got.time == t
    assert (got.time, got.quantity, str(got)) \
        == (want.time, want.quantity, str(want))


def _own_blowup_steps(base_cfg, pert_cfg) -> dict:
    """{label: the step at whose end that run first blows up}, for the base
    and the perturbation stepped in one loop that goes on past the first
    blow-up: per step the base writes its state's physical values, then
    steps, and the perturbation steps with those values."""
    base = solver._Member(base_cfg, "2d_base")
    pert = solver._Member(pert_cfg, "perturbation")
    steps = {}
    for i in range(pert.n):
        b = base.ws.physical(base.state)[..., np.newaxis]
        for run, background in ((base, None), (pert, b)):
            if run.label not in steps:
                try:
                    run.advance(i, background)
                except BlowUpError:
                    steps[run.label] = i + 1
    return steps


@pytest.mark.parametrize("amplitude, pert_h1, base_step, pert_step", [
    (1e50, 1e5, 2, 3), (1e20, 1e4, 5, 5), (1e12, 1e4, 6, 5)],
    ids=["base-earlier", "tie", "perturbation-earlier"])
def test_base_blowup_reported_as_one_loop_would(
        monkeypatch, amplitude, pert_h1, base_step, pert_step):
    # a Taylor-Green base of huge amplitude blows up in its worker, ahead
    # of the perturbation; the run reports the blow-up that the loop
    # stepping the base first at each step reports, in one process
    g2, g3 = make_grid(2 * np.pi, 8, 2), make_grid(2 * np.pi, 8, 3)
    nu, dt, t_end = 0.5, 4e-3, 0.08
    base_cfg = SolverConfig(
        grid=g2, nu=nu, dt=dt, t_end=t_end, T=t_end,
        initial=taylor_green_exact(g2, nu, 0.0, amplitude))
    pert_cfg = SolverConfig(
        grid=g3, nu=nu, dt=dt, t_end=t_end, T=t_end,
        initial=random_divfree_field(g3, seed=2, target_h1=pert_h1))
    with np.errstate(all="ignore"):
        assert _own_blowup_steps(base_cfg, pert_cfg) \
            == {"2d_base": base_step, "perturbation": pert_step}
        with pytest.raises(BlowUpError) as info:
            run_perturbation(pert_cfg, base_cfg)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        monkeypatch.delattr(os, "fork")
        with pytest.raises(BlowUpError) as alone:
            run_perturbation(pert_cfg, base_cfg)
    got, want = info.value, alone.value
    label = "2d_base" if base_step <= pert_step else "perturbation"
    assert got.quantity == f"{label} L2 norm"
    assert got.time == pert_cfg.times[min(base_step, pert_step)]
    assert (got.time, got.quantity, str(got)) \
        == (want.time, want.quantity, str(want))


def test_base_blowup_with_every_worker_alive(monkeypatch):
    # the direct run, held back half a second a step, steps in the base's
    # child: the base still blows up there at step 2, the run reports the
    # one-loop blow-up and leaves no child
    g2, g3 = make_grid(2 * np.pi, 8, 2), make_grid(2 * np.pi, 8, 3)
    nu, dt, t_end = 0.5, 4e-3, 0.08
    base_cfg = SolverConfig(
        grid=g2, nu=nu, dt=dt, t_end=t_end, T=t_end,
        initial=taylor_green_exact(g2, nu, 0.0, 1e50))
    pert_cfg = SolverConfig(
        grid=g3, nu=nu, dt=dt, t_end=t_end, T=t_end,
        forcing=ForcingSpec(expressions=(
            "0.1*sin(x3)*cos(t)", "0.1*sin(x1)", "0.1*sin(x2)")),
        initial=random_divfree_field(g3, seed=2, target_h1=1e5))
    direct_cfg = dataclasses.replace(
        pert_cfg, forcing=ForcingSpec(),
        initial=random_divfree_field(g3, seed=3, target_h1=0.3))
    advance = solver._Member.advance

    def late_direct(member, i, background=None):
        if member.label == "direct":
            time.sleep(0.5)
        return advance(member, i, background)

    def blow_up():
        with pytest.raises(BlowUpError) as info:
            run_perturbation(pert_cfg, base_cfg, direct_cfg)
        return info.value

    with np.errstate(all="ignore"):
        monkeypatch.setattr(solver._Member, "advance", late_direct)
        t0 = time.perf_counter()
        got = blow_up()
        assert time.perf_counter() - t0 < 20
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        # the one-process loop, with the real method
        monkeypatch.setattr(solver._Member, "advance", advance)
        monkeypatch.delattr(os, "fork")
        want = blow_up()
    assert got.quantity == "2d_base L2 norm"
    assert got.time == pert_cfg.times[2]
    assert (got.time, got.quantity, str(got)) \
        == (want.time, want.quantity, str(want))


def test_interrupt_kills_and_reaps_the_base_worker(monkeypatch):
    # an interrupt while the perturbation steps, the base worker ahead of
    # it in the pipe, leaves no child process
    base_cfg, pert_cfg, _ = _lockstep_configs(2)
    advance, started = solver._Member.advance, []

    def interrupted(member, i, background=None):
        if member.label == "perturbation" and i == 3:
            raise KeyboardInterrupt
        return advance(member, i, background)

    def worker(name, *args):
        started.append(name)
        return Worker(name, *args)

    monkeypatch.setattr(solver._Member, "advance", interrupted)
    monkeypatch.setattr(worker_module, "Worker", worker)
    with pytest.raises(KeyboardInterrupt):
        run_perturbation(pert_cfg, base_cfg)
    assert started == ["base"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("slots", ["one", "more-than-steps"])
def test_ring_size_leaves_the_runs_unchanged(sized_pipes, slots, tmp_path):
    # flow control at its extremes: the base worker's pipe holds one page,
    # the fewest items a pipe can, or every step's item, so that it waits
    # for the perturbation every few steps, or never
    base_cfg, pert_cfg, direct_cfg = _lockstep_configs(2)
    want = run_perturbation(pert_cfg, base_cfg, direct_cfg,
                            _run_dirs(tmp_path / "want"))
    item = 2 * 8 * base_cfg.grid.N ** 2
    size, made = sized_pipes(1 if slots == "one" else pert_cfg.n_steps * item)
    got = run_perturbation(pert_cfg, base_cfg, direct_cfg,
                           _run_dirs(tmp_path / "got"))
    assert made and made == [size] * len(made)
    for mine, theirs in zip(got, want):
        mine_files, their_files = mine.snapshot_paths, theirs.snapshot_paths
        assert [os.path.basename(p) for p in mine_files] \
            == [os.path.basename(p) for p in their_files]
        for a, b in zip(mine_files, their_files):
            assert Path(a).read_bytes() == Path(b).read_bytes()
        assert list(mine.diag) == list(theirs.diag)
        for key, series in theirs.diag.items():
            assert mine.diag[key].tobytes() == series.tobytes(), key


def _healthy_direct_beside_blowup(t_end):
    """(base, perturbation, direct) configs at N=8 and dt=4e-3 up to
    t_end: a forced perturbation that blows up at t=0.04, its step 10,
    beside a direct run that does not blow up, both taking a snapshot at
    every step."""
    g2, g3 = make_grid(2 * np.pi, 8, 2), make_grid(2 * np.pi, 8, 3)
    nu, dt = 0.5, 4e-3
    base_cfg = SolverConfig(grid=g2, nu=nu, dt=dt, t_end=t_end, T=t_end,
                            initial=taylor_green_exact(g2, nu, 0.0, 0.5))
    pert_cfg = SolverConfig(
        grid=g3, nu=nu, dt=dt, t_end=t_end, T=t_end,
        forcing=ForcingSpec(expressions=(
            "0.1*sin(x3)*cos(t)", "0.1*sin(x1)", "0.1*sin(x2)")),
        initial=random_divfree_field(g3, seed=2, target_h1=1e4))
    direct_cfg = dataclasses.replace(
        pert_cfg, forcing=ForcingSpec(), initial=physical_field(
            g3, extrude_field(base_cfg.initial, g3).physical()
            + random_divfree_field(g3, seed=2, target_h1=0.3).physical()))
    return base_cfg, pert_cfg, direct_cfg


def test_blowup_kills_a_live_base_worker(monkeypatch, sized_pipes):
    # the perturbation blows up at step 10 of 20 while the child that steps
    # the base and direct runs is alive, blocked ahead of it on a one-page
    # pipe: the run reports the perturbation's blow-up, as one loop would,
    # and kills and reaps the child.  The direct run's last step, held
    # back 30 s, is never reached: the child is not joined
    base_cfg, pert_cfg, direct_cfg = _healthy_direct_beside_blowup(0.08)
    advance = solver._Member.advance

    def slow_end(member, i, background=None):
        if member.label == "direct" and i == member.n - 1:
            time.sleep(30)
        return advance(member, i, background)

    def blow_up():
        with pytest.raises(BlowUpError) as info:
            run_perturbation(pert_cfg, base_cfg, direct_cfg)
        return info.value

    # the base's arrays at N=8 take 1 KiB each: a few fill the pipe
    size, made = sized_pipes(1)
    with np.errstate(all="ignore"):
        monkeypatch.setattr(solver._Member, "advance", slow_end)
        t0 = time.perf_counter()
        got = blow_up()
        assert time.perf_counter() - t0 < 20
        assert made and made == [size] * len(made)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        # the one-process loop, with the real method
        monkeypatch.setattr(solver._Member, "advance", advance)
        monkeypatch.delattr(os, "fork")
        want = blow_up()
    assert got.quantity == "perturbation L2 norm"
    assert got.time == pert_cfg.times[10]
    assert (got.time, got.quantity, str(got)) \
        == (want.time, want.quantity, str(want))


def test_blowup_does_not_wait_for_the_direct_run(tmp_path):
    # the perturbation blows up at step 10 of 300 beside a direct run that
    # would not: leaving run_perturbation kills the child that steps the
    # direct run, which can have run ahead of the perturbation only as far
    # as the pipe holds (64 KiB by default, 64 of the base's 1 KiB arrays),
    # so its snapshots.partial holds far fewer than its 301 snapshots
    base_cfg, pert_cfg, direct_cfg = _healthy_direct_beside_blowup(1.2)
    assert pert_cfg.n_steps == 300
    dirs = _run_dirs(tmp_path)
    with np.errstate(all="ignore"), pytest.raises(BlowUpError) as info:
        run_perturbation(pert_cfg, base_cfg, direct_cfg, dirs)
    assert info.value.quantity == "perturbation L2 norm"
    assert info.value.time == pert_cfg.times[10]
    direct = os.listdir(dirs[2] / "snapshots.partial")
    assert 1 <= len(direct) < pert_cfg.n_steps // 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("forked", [True, False],
                         ids=["forked", "in-process"])
def test_shared_force_counted_per_run(monkeypatch, forked):
    # the perturbation and the direct run share one time-dependent force:
    # each run's workspace counts its own evaluations, one per step time,
    # whether the direct run steps in the forked child or in this process
    base_cfg, pert_cfg, direct_cfg = _lockstep_configs(1)
    direct_cfg = dataclasses.replace(direct_cfg, forcing=pert_cfg.forcing)
    assert pert_cfg.n_steps == 10 and not pert_cfg.forcing.steady
    if not forked:
        monkeypatch.delattr(os, "fork")
    _, pert, direct = run_perturbation(pert_cfg, base_cfg, direct_cfg)
    assert pert.force_evaluations == direct.force_evaluations \
        == pert_cfg.n_steps + 1


@pytest.mark.parametrize("forked", [True, False],
                         ids=["forked", "in-process"])
def test_bad_direct_config_fails_before_the_perturbation_steps(
        monkeypatch, tmp_path, forked):
    # the direct run is made where the base's first array is, so a config
    # that _Member refuses raises before the perturbation takes a step,
    # not once it has taken them all
    base_cfg, pert_cfg, direct_cfg = _lockstep_configs(2)
    direct_cfg = dataclasses.replace(direct_cfg, initial=None)
    if not forked:
        monkeypatch.delattr(os, "fork")
    dirs = _run_dirs(tmp_path)
    with pytest.raises(ValueError, match="missing initial field"):
        run_perturbation(pert_cfg, base_cfg, direct_cfg, dirs)
    assert os.listdir(dirs[1] / "snapshots.partial") == ["snap_000000.npz"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("forked", [True, False],
                         ids=["forked", "in-process"])
def test_full_lattice_copy_only_at_snapshots(monkeypatch, tmp_path, forked):
    # a run copies its K-state onto the full lattice (_Workspace.to_full)
    # once per stored snapshot and at no other step, its force norms
    # included.  Each call appends its workspace's key to one file: the
    # process and id of the workspace at its first call, which the base
    # run's child inherits from the initial snapshot taken here, and the
    # workspace is held, so that no later one reuses its id
    base_cfg, pert_cfg, direct_cfg = _lockstep_configs(2)
    base_cfg = dataclasses.replace(base_cfg, snapshot_stride=3)
    pert_cfg = dataclasses.replace(pert_cfg, snapshot_stride=4)
    calls, to_full, held = tmp_path / "calls", _Workspace.to_full, []

    def spy(self, v):
        if not hasattr(self, "spy_key"):
            self.spy_key = f"{os.getpid()}:{id(self)}:{self.grid.dim}"
            held.append(self)
        with open(calls, "a") as fh:
            fh.write(self.spy_key + "\n")
        return to_full(self, v)

    monkeypatch.setattr(_Workspace, "to_full", spy)
    if not forked:
        monkeypatch.delattr(os, "fork")
    runs = run_perturbation(pert_cfg, base_cfg, direct_cfg,
                            _run_dirs(tmp_path))
    dims = sorted((int(key.rsplit(":", 1)[1]), n)
                  for key, n in Counter(calls.read_text().split()).items())
    want = sorted((run.grid.dim, len(run.snapshot_paths)) for run in runs)
    assert dims == want
    assert len({n for _, n in want}) == 3  # each count names one run
    assert [len(run.snapshot_paths) for run in runs] == [
        len(range(0, cfg.n_steps, cfg.snapshot_stride)) + 1
        for cfg in (base_cfg, pert_cfg, direct_cfg)]


@pytest.mark.parametrize("base_dt, base_t_end", [
    (0.04 / 15, 0.04), (2e-3, 0.036), (2e-3, 0.048), (8e-3, 0.04)],
    ids=["dt-not-divisor", "ends-early", "ends-late", "coarser-dt"])
def test_run_perturbation_refuses_mismatched_base(base_dt, base_t_end):
    # the stored-base sampler covered such times silently with a spline
    base_cfg, pert_cfg, _ = _lockstep_configs(1)
    base_cfg = SolverConfig(grid=base_cfg.grid, nu=base_cfg.nu, dt=base_dt,
                            t_end=base_t_end, T=base_t_end,
                            initial=base_cfg.initial)
    with pytest.raises(ValueError):
        run_perturbation(pert_cfg, base_cfg)


@pytest.mark.parametrize("base_force", [
    ("0.1*sin(x2)*cos(3*t)", "0.05 + 0.1*sin(x1)"),
    ("0.1*sin(x2)", "0.05 + 0.1*sin(x1)")], ids=["unsteady", "steady"])
def test_recorded_forcing_norms_match_separate_passes(base_force):
    # one pass of its own over the step times: the replaced full-lattice
    # path (tests/oracles.py), the reference for forcing_l2_sq, which the
    # run sums over K in another order, so they agree to roundoff.  At
    # dt = 2e-3 some t_i + dt differ from t_{i+1} = dt*(i+1), so a step
    # that evaluated its force at t_i + dt would record another norm than
    # the pass, which evaluates at t_{i+1}
    g2, g3 = make_grid(2 * np.pi, 8, 2), make_grid(2 * np.pi, 8, 3)
    nu, dt, t_end = 0.5, 2e-3, 0.2
    tgrid = dt * np.arange(round(t_end / dt) + 1)
    assert np.count_nonzero(tgrid[:-1] + dt != tgrid[1:]) > 0
    base_cfg = SolverConfig(
        grid=g2, nu=nu, dt=dt, t_end=t_end, T=t_end, snapshot_stride=100,
        forcing=ForcingSpec(expressions=base_force),
        initial=taylor_green_exact(g2, nu, 0.0, 0.5))
    pert_cfg = SolverConfig(
        grid=g3, nu=nu, dt=dt, t_end=t_end, T=t_end, snapshot_stride=100,
        forcing=ForcingSpec(expressions=(
            "0.1*sin(x3)*cos(40*t)", "0.1*sin(x1)*exp(5*t)",
            "0.3 + 0.1*sin(x2)*sin(20*t)")),
        initial=random_divfree_field(g3, seed=2, target_h1=0.3))
    base, pert, _ = run_perturbation(pert_cfg, base_cfg)
    for run, cfg in ((base, base_cfg), (pert, pert_cfg)):
        np.testing.assert_allclose(run.diag["forcing_l2_sq"],
                                   forcing_norm_sq_series(cfg, None),
                                   rtol=1e-15, atol=0)


def _force_to_cutoff(N, dim):
    """A time-dependent force with a mean and modes up to |m| = N // 3,
    the largest the 2/3 rule keeps, along every axis."""
    c = N // 3
    return ForcingSpec(expressions=(
        f"0.3 + 0.1*sin({c}*x2 + t)*cos(x1) - 0.2*cos({c}*x1)*exp(t)",
        f"0.05*sin(x1 - 2*t)*cos({c}*x{dim}) + 0.7*sin({c}*x1)",
        f"-0.4*cos(x2)*sin({c}*x3 + 3*t) + 0.1")[:dim])


@pytest.mark.parametrize("N", [8, 12, 16, 18])
@pytest.mark.parametrize("dim", [2, 3])
def test_kept_force_matches_full_transform(dim, N):
    # the force's values through the pruned rfftn equal the full rfftn on
    # K bit for bit, and so does its projection on K; the force of a step
    # time is kept, at the cost of one evaluation
    grid = make_grid(2 * np.pi, N, dim)
    forcing = _force_to_cutoff(N, dim)
    ws = _Workspace(grid)
    values = np.empty((dim,) + grid.shape_phys)
    for t in (0.0, 0.37):
        assert forcing.physical(grid, t, out=values) is values
        full = forcing.evaluate(grid, t)
        before = ws.force_evaluations
        kept = ws.kept_force(forcing, t)
        assert kept.tobytes() == ws.to_kept(full).tobytes()
        assert ws.project(kept.copy()).tobytes() \
            == ws.to_kept(leray_data(grid, full)).tobytes()
        assert ws.kept_force(forcing, t) is kept
        assert kept.tobytes() == ws.to_kept(full).tobytes()
        assert ws.force_evaluations == before + 1


@pytest.mark.parametrize("dim, N, expressions, t_end", [
    (3, 16, ("1e-6*sin(x3)*cos(t)", "1e-6*sin(x1)*cos(t)",
             "1e-6*sin(x2)*cos(t)"), 0.2),
    *[(3, N, None, 0.05) for N in (8, 12, 16, 18)],
    (2, 16, None, 0.05),
    (3, 16, ("0.2 + sin(5*x2)", "cos(x3)", "sin(5*x1)*cos(x2)"), 0.05)],
    ids=["forced-direct", "N8", "N12", "N16", "N18", "2d", "steady"])
def test_forcing_series_match_replaced_path(monkeypatch, dim, N,
                                            expressions, t_end):
    # the series equal, bit for bit, lp_norm of the replaced mean-free
    # force on the full lattice (tests/oracles.py), one evaluation of the
    # force (ForcingSpec.evaluate, which calls physical) per step time; the
    # first case is the perturbation force of
    # bench/workloads/forced-direct.json
    calls = []
    physical = ForcingSpec.physical

    def counted(forcing, grid, t, out=None):
        calls.append(t)
        return physical(forcing, grid, t, out)

    monkeypatch.setattr(ForcingSpec, "physical", counted)
    grid = make_grid(2 * np.pi, N, dim)
    forcing = _force_to_cutoff(N, dim) if expressions is None \
        else ForcingSpec(expressions=expressions)
    cfg = SolverConfig(grid=grid, nu=1.0, dt=2e-3 if N == 16 else 1e-2,
                       t_end=t_end, T=t_end, forcing=forcing)
    for p in (1.2, 3):
        calls.clear()
        series = forcing_lp_sq_series(cfg, p)
        assert len(calls) == (1 if forcing.steady else cfg.n_steps + 1)
        assert series.tobytes() == forcing_norm_sq_series(cfg, p).tobytes()
    assert (series > 0).all()


@pytest.mark.parametrize("N", [8, 16, 32])
def test_base_norms_match_norm_report(N):
    # the 2D base's grad_l3_sq and w1_sigma, read from its K-state through
    # the pruned stages at 2N, equal bit for bit compute_norm_report of its
    # mean-free part on the full lattice (the replaced path), on random
    # K-states and divergence-free fields with a mean and on Taylor-Green,
    # one after another, so that a stale buffer would show; the state is
    # left as it was
    grid = make_grid(2 * np.pi, N, 2)
    ws = _Workspace(grid)
    rng = np.random.default_rng(N)
    states = [rng.standard_normal(ws.shape) + 1j * rng.standard_normal(
        ws.shape) for _ in range(5)]
    states += [ws.to_kept(random_divfree_field(grid, seed).spectral())
               for seed in range(5)]
    for v in states:
        v[:, 0, 0] = rng.standard_normal(2)
    states.append(ws.to_kept(taylor_green_exact(grid, 0.5, 0.0, 0.3)
                             .spectral()))
    for v in states:
        before = v.copy()
        report = compute_norm_report(mean_free(Field(grid, ws.to_full(v))))
        want = np.array([report["grad_l3_sq"], report["w1_sigma"]])
        assert np.array(ws.base_norms(v)).tobytes() == want.tobytes()
        assert v.tobytes() == before.tobytes()


@pytest.mark.parametrize("dim", [2, 3])
def test_every_fft_stage_reads_a_unit_stride_axis(monkeypatch, dim):
    # each buffer of the pruned transforms is laid out so that the axis an
    # FFT stage transforms runs innermost in memory, which lets numpy run
    # the stage as a few long loops: every array that a transform of one
    # step (the kernel's physical and spectral, the force's spectral at
    # both step times) and, in 2D, of the 2N stages (base_norms) reads has
    # unit stride along its axis
    N = 16
    grid = make_grid(2 * np.pi, N, dim)
    ws = _Workspace(grid, 0.5, 4e-3)
    v = ws.to_kept(random_divfree_field(grid, seed=3,
                                        target_h1=0.5).spectral())
    forcing = ForcingSpec(expressions=(
        "0.1*sin(x2)*cos(3*t)", "0.1*sin(x1)*sin(2*t)", "0*x1")[:dim])
    calls = []
    for name in ("fft", "ifft", "rfft", "irfft"):
        def traced(a, *args, axis, _name=name, _fn=getattr(np.fft, name),
                   **kwargs):
            calls.append((_name, a.shape[axis],
                          a.strides[axis] == a.itemsize))
            return _fn(a, *args, axis=axis, **kwargs)
        monkeypatch.setattr(np.fft, name, traced)
    ws.step(v, 0.0, 4e-3, forcing)
    if dim == 2:
        ws.base_norms(v)
    # d stages each: physical, spectral, the force at two times, and in 2D
    # the 2N stages
    assert len(calls) == (5 if dim == 2 else 4) * dim
    assert {name for name, _, _ in calls} == {"fft", "ifft", "rfft", "irfft"}
    assert (("ifft", 2 * N, True) in calls) == (dim == 2)
    assert all(unit for _, _, unit in calls), calls


def _zero_padded(v, c, M):
    """The K-array v on the spectral lattice of M points an axis: along each
    full axis its rows 0..c at 0..c and -c..-1 at M-c..M-1, zero elsewhere,
    and along the last its rows 0..c."""
    d = v.ndim - 1
    out = np.zeros(v.shape[:1] + (M,) * (d - 1) + (M // 2 + 1,),
                   dtype=complex)
    rows = [np.r_[0:c + 1, M - c:M]] * (d - 1) + [np.arange(c + 1)]
    out[(slice(None),) + np.ix_(*rows)] = v
    return out


@pytest.mark.parametrize("N", [24, 32])
@pytest.mark.parametrize("dim", [2, 3])
def test_pruned_transforms_match_numpy_at_larger_n(dim, N):
    # the pruned stages equal numpy's irfftn and rfftn bit for bit beyond
    # the sizes the step and norm tests reach: physical against irfftn of
    # the full lattice, spectral against rfftn on K at the force's and the
    # products' leading counts, and in 2D the 2N stages against irfftn of
    # the zero-padded lattice at the component count of base_norms
    grid = make_grid(2 * np.pi, N, dim)
    ws = _Workspace(grid)
    axes, M = tuple(range(1, dim + 1)), 2 * N
    rng = np.random.default_rng(N + dim)

    def kept(n):
        shape = (n,) + ws.shape[1:]
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    v = kept(dim)
    assert ws.physical(v).tobytes() == np.fft.irfftn(
        ws.to_full(v), s=grid.shape_phys, axes=axes,
        norm="forward").tobytes()
    phys = rng.standard_normal((len(ws.pairs),) + grid.shape_phys)
    for lead in (3, len(ws.pairs)):
        out = np.empty((lead,) + ws.shape[1:], dtype=complex)
        assert ws.spectral(phys[:lead], out).tobytes() == ws.to_kept(
            np.fft.rfftn(phys[:lead], axes=axes, norm="forward")).tobytes()
    if dim == 2:
        u = kept(dim + dim * dim)
        got = ws._inverse(u, ws._inverse_buffers(M, len(u)), M, None)
        assert got.tobytes() == np.fft.irfftn(
            _zero_padded(u, N // 3, M), s=(M,) * dim, axes=axes,
            norm="forward").tobytes()


def test_force_above_two_thirds_is_not_applied(tmp_path):
    # at N=8 the 2/3 rule keeps |m| <= 2: sin(3 x2) lies above it, so the
    # run applies and records only 0.1 sin(x2), whose squared L2 norm on
    # [0, 2 pi]^2 is 0.01 * (2 pi)^2 / 2
    grid = make_grid(2 * np.pi, 8, 2)
    cfg = SolverConfig(
        grid=grid, nu=0.5, dt=2e-3, t_end=0.02, T=0.02,
        forcing=ForcingSpec(expressions=(
            "0.1*sin(x2) + sin(3*x2)", "0*x1")),
        initial=taylor_green_exact(grid, 0.5, 0.0, 0.5))
    high = (0, 0, 3)  # component 1, mode (m1, m2) = (0, 3)
    assert not grid.dealias_mask[high[1:]]
    assert abs(cfg.forcing.evaluate(grid, 0.0)[high]) > 0.4
    traj = run_2d_base(cfg, tmp_path)
    assert len(traj.snapshot_paths) == 11
    for snap in _snapshots(traj):
        assert snap[high] == 0.0
        assert not snap[:, ~grid.dealias_mask].any()
    np.testing.assert_allclose(traj.diag["forcing_l2_sq"],
                               0.02 * np.pi ** 2, rtol=1e-13)


def test_workspace_step_allocates_under_five_states(grid2, grid3):
    # the perturbation kernel at 16^3 with a background and a steady force;
    # after a warm-up step, 5 steps may hold less than 5 spectral states of
    # temporaries at once
    nu, dt = 1.0, 2e-3
    ws = _Workspace(grid3, nu, dt)
    v = ws.to_kept(random_divfree_field(grid3, seed=3,
                                        target_h1=0.1).spectral())
    vs = random_divfree_field(grid2, seed=5, target_h1=1.0).physical()
    background = vs[..., np.newaxis]
    forcing = ForcingSpec(expressions=("1e-3*sin(x3)", "0*x1", "0*x1"))
    ws.step(v, 0.0, dt, forcing, background)
    tracemalloc.start()
    try:
        for i in range(1, 6):
            ws.step(v, i * dt, (i + 1) * dt, forcing, background)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(v).all()
    assert peak < 5 * v.nbytes


def test_workspace_transforms_share_two_arenas(grid2, grid3):
    # the transforms' stages at N points, w and flux view two arenas: the
    # 3D workspace holds at most 1.1 MB at N=16 and 65 MB at N=64
    # (1,568,488 and 92,277,096 B when each stage had buffers of its own),
    # and the 2D one, its base norms' padded buffers included, no more than
    # the 198,296 B it held then
    assert workspace_bytes(_Workspace(make_grid(2 * np.pi, 64, 3))) <= 65e6
    for grid, most in ((grid3, 1.1e6), (grid2, 198_296)):
        ws = _Workspace(grid, 0.5, 4e-3)
        v = ws.to_kept(random_divfree_field(grid, seed=3,
                                            target_h1=0.5).spectral())
        ws.step(v, 0.0, 4e-3, ForcingSpec(expressions=(
            "0.1*sin(x2)*cos(t)", "0.1*sin(x1)", "0*x1")[:grid.dim]))
        if grid.dim == 2:
            ws.base_norms(v)
        assert workspace_bytes(ws) <= most, (grid.dim, workspace_bytes(ws))


@pytest.mark.parametrize("dim", [2, 3])
def test_results_outlive_the_shared_transform_arenas(dim):
    # an array in the transforms' arenas is valid only until the next
    # transform; every array a call returns or the workspace keeps (the
    # state, the last flux n0, the kept force, physical's new array,
    # spectral's and flux_rhs's out) stays unchanged by the calls after it,
    # but for the ones that rewrite it, and equals bit for bit the result
    # of a fresh workspace that makes the call alone
    N, nu, dt = 16, 0.5, 4e-3
    grid = make_grid(2 * np.pi, N, dim)
    forcing = ForcingSpec(expressions=(
        "0.1*sin(x2)*cos(3*t)", "0.05 + 0.1*sin(x1)*sin(2*t)",
        "0.1*sin(x1)*cos(t)")[:dim])
    b = None if dim == 2 else random_divfree_field(
        make_grid(2 * np.pi, N, 2), seed=5,
        target_h1=1.0).physical()[..., np.newaxis]
    ws, alone = _Workspace(grid, nu, dt), _Workspace(grid, nu, dt)
    u = ws.to_kept(random_divfree_field(grid, seed=3,
                                        target_h1=0.5).spectral())
    u_alone, held = u.copy(), {}

    def fresh():
        return _Workspace(grid, nu, dt)

    def kept():
        return np.empty(ws.shape, dtype=complex)

    def hold(name, got, want):
        assert got.tobytes() == want.tobytes(), name
        held[name] = (got, got.copy())
        for key, (a, before) in held.items():
            assert a.tobytes() == before.tobytes(), f"{name} changed {key}"

    def step(t):
        for name in ("state", "n0", "kept_f"):
            held.pop(name, None)
        ws.step(u, t, t + dt, forcing, b)
        alone.step(u_alone, t, t + dt, forcing, b)
        hold("state", u, u_alone)
        hold("n0", ws.n0, alone.n0)
        hold("kept_f", ws.kept_f, alone.kept_f)

    step(0.0)
    phys = ws.physical(u)
    hold("physical", phys, fresh().physical(u))
    hold("spectral", ws.spectral(phys, kept()),
         fresh().spectral(phys, kept()))
    hold("flux_rhs", ws.flux_rhs(u, b, kept()),
         fresh().flux_rhs(u, b, kept()))
    if dim == 2:
        assert ws.base_norms(u) == fresh().base_norms(u)
    del held["kept_f"]
    hold("kept_f", ws.kept_force(forcing, 2.5 * dt),
         fresh().kept_force(forcing, 2.5 * dt))
    step(dt)
    step(2 * dt)


def test_advance_reproduces_run_bit_for_bit(tmp_path):
    grid = make_grid(2 * np.pi, 8, 3)
    nu, dt, steps = 0.5, 2e-3, 10
    forcing = ForcingSpec(expressions=(
        "0.05 + 0.1*sin(x2)", "0.1*sin(x3)", "0.1*sin(x1)"))
    cfg = SolverConfig(grid=grid, nu=nu, dt=dt, t_end=steps * dt,
                       T=steps * dt, forcing=forcing, snapshot_stride=steps,
                       initial=random_divfree_field(grid, 1, target_h1=0.5))
    first, last = _snapshots(run_full_3d(cfg, tmp_path))
    ws = _Workspace(grid, nu, dt)
    state = ws.to_kept(first)
    for i in range(steps):
        ws.step(state, i * dt, (i + 1) * dt, forcing)
    np.testing.assert_array_equal(ws.to_full(state), last)


def test_save_load_trajectory_round_trip(tmp_path, grid2):
    forcing = ForcingSpec(expressions=("0.1*sin(x1)*cos(t)",
                                       "0.2*cos(3*t) + 0.1*sin(x2)"))
    cfg = SolverConfig(grid=grid2, nu=0.1, dt=1e-3, t_end=0.05, T=0.05,
                       forcing=forcing, snapshot_stride=10,
                       initial=taylor_green_exact(grid2, 0.1, 0.0, 0.3))
    traj = run_2d_base(cfg, tmp_path / "run")
    assert np.ptp(traj.diag["forcing_l2_sq"]) > 0.0
    out = save_trajectory(traj, tmp_path / "run")
    assert (tmp_path / "run" / "diagnostics.csv").exists()
    assert len(out) == 6

    back = load_trajectory(tmp_path / "run", cfg, "2d_base")
    assert (back.grid, back.label) == (grid2, "2d_base")
    # every series the base records reads back bit for bit
    assert list(back.diag) == list(traj.diag)
    assert {"grad_l3_sq", "w1_sigma"} <= set(back.diag)
    for key, series in back.diag.items():
        assert np.array_equal(series, traj.diag[key]), key
    last = load_field(out[-1])
    assert last.time_stamp == cfg.times[-1]
    again = run_2d_base(cfg, tmp_path / "again")
    assert np.abs(last.spectral()
                  - again.snapshot_field(-1).spectral()).max() < 1e-15
    # series at other step times than the given run's are refused
    with pytest.raises(FileNotFoundError, match="run the experiment again"):
        load_trajectory(tmp_path / "run", dataclasses.replace(cfg, dt=5e-4),
                        "2d_base")


def test_save_trajectory_publishes_only_streamed_snapshots(tmp_path,
                                                          grid2):
    # a run given no directory has no snapshots.partial to publish, and a
    # saved one has published it: each is refused, and nothing is written
    cfg = SolverConfig(grid=grid2, nu=0.1, dt=1e-3, t_end=2e-3, T=2e-3,
                       initial=taylor_green_exact(grid2, 0.1, 0.0, 0.3))
    held = run_2d_base(cfg)
    assert held.snapshot_paths == []
    with pytest.raises(ValueError, match="streamed no snapshots"):
        save_trajectory(held, tmp_path / "held")
    assert not (tmp_path / "held").exists()
    saved = run_2d_base(cfg, tmp_path / "run")
    save_trajectory(saved, tmp_path / "run")
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    with pytest.raises(ValueError, match="streamed no snapshots"):
        save_trajectory(saved, tmp_path / "run")
    assert {p: p.read_bytes() for p in tmp_path.rglob("*")
            if p.is_file()} == before


def test_readme_layout_lists_the_files_save_trajectory_writes(tmp_path,
                                                              grid2):
    # README's trajectory layout block names every file of a trajectory
    # directory and no other, a snapshot's number written NNNNNN
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("Trajectory directory layout")[1].split("```")[1]
    listed = {line.split()[0] for line in block.splitlines()
              if line and not line[0].isspace()}
    cfg = SolverConfig(grid=grid2, nu=0.1, dt=1e-3, t_end=2e-3, T=2e-3,
                       initial=taylor_green_exact(grid2, 0.1, 0.0, 0.3))
    save_trajectory(run_2d_base(cfg, tmp_path), tmp_path)
    written = {re.sub(r"\d{6}", "NNNNNN",
                      path.relative_to(tmp_path).as_posix())
               for path in tmp_path.rglob("*") if path.is_file()}
    assert listed == written
