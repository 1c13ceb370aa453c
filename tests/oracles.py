"""Reference computations the tests compare the solver against."""

import functools
import math

import numpy as np

from torusflow.field import (Field, leray_data, physical_data,
                             physical_padded, spectral_data)
from torusflow.norms import grad_l2_norm_sq, l2_norm_sq, sobolev_norm_sq
from torusflow import estimates as est
from torusflow.estimates import (CONCLUSION_TOL_REL, FLOAT_FLOOR, VACUOUS,
                                 BConstants, InequalityReport,
                                 StabilityBudget, StabilitySeries,
                                 TwoDBudget, _cumtrapz, _window_slices,
                                 gronwall_envelope)
from torusflow.experiments import WINDOW_CSV_COLUMNS
from torusflow.solver import Trajectory


def mean(field: Field) -> np.ndarray:
    """The former field.mean: the spatial mean vector (the k=0 spectral
    coefficient)."""
    zero = (slice(None),) + (0,) * field.grid.dim
    return np.real(field.spectral()[zero]).copy()


def mean_columns(run) -> np.ndarray:
    """The mean vector a 3D run recorded at every step, one row a step,
    from its mean_i columns."""
    return np.column_stack([run.diag[f"mean_{i + 1}"]
                            for i in range(run.grid.dim)])


def lp_norm(field: Field, p: float, pad_factor: int = 2) -> float:
    """The former norms.lp_norm: the L_p norm of the pointwise Euclidean
    magnitude |u(x)|, by Parseval for p = 2, else by the collocation rule
    on the pad_factor*N grid (field.physical_padded), its maximum there for
    p = inf."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if p == 2:
        return float(np.sqrt(l2_norm_sq(field)))
    mag = np.sqrt(np.sum(physical_padded(field, pad_factor) ** 2, axis=0))
    if np.isinf(p):
        return float(mag.max())
    cell = (field.grid.L / (pad_factor * field.grid.N)) ** field.grid.dim
    return float((cell * np.sum(mag**p)) ** (1.0 / p))


def poincare_ratio(field: Field, relative_to: str = "h1") -> float:
    """The former norms.poincare_ratio, a sharpness probe for the torus
    Poincare inequality on mean-free fields.

    relative_to="h1": ||grad u||^2 / ||u||_H1^2   (>= kappa^2/(1+kappa^2))
    relative_to="l2": ||grad u||^2 / ||u||_L2^2   (>= kappa^2)
    """
    l2 = l2_norm_sq(field)
    if l2 == 0.0:
        raise ValueError("poincare_ratio of a zero field")
    m = mean(field)
    if np.max(np.abs(m)) > 1e-10 * np.sqrt(l2 / field.grid.volume):
        raise ValueError("poincare_ratio needs a mean-free field")
    grad = grad_l2_norm_sq(field)
    if relative_to == "h1":
        return grad / (l2 + grad)
    if relative_to == "l2":
        return grad / l2
    raise ValueError(f"unknown relative_to {relative_to!r}")


def mean_ode_integrate(times: np.ndarray, mean_forcing: np.ndarray,
                       initial: np.ndarray) -> np.ndarray:
    """Integrate d(mean)/dt = mean forcing by exact trapezoid quadrature.

    Returns the mean vector at every entry of `times`.
    """
    times = np.asarray(times, dtype=float)
    mean_forcing = np.asarray(mean_forcing, dtype=float)
    if mean_forcing.shape[0] != times.shape[0]:
        raise ValueError("forcing-mean series does not cover the time grid")
    out = np.empty_like(mean_forcing)
    out[0] = initial
    steps = 0.5 * (mean_forcing[1:] + mean_forcing[:-1]) \
        * np.diff(times).reshape(-1, 1)
    out[1:] = initial + np.cumsum(steps, axis=0)
    return out


def window_slices_by_time(times: np.ndarray, T: float) -> list:
    """The replaced window map of the estimates: (k, indices of the samples
    with kT - 1e-9 <= t <= (k+1)T + 1e-9) for k below round(t_end/T), for
    each window holding two samples or more."""
    k_max = int(round(times[-1] / T + 1e-9))
    out = []
    for k in range(k_max):
        lo, hi = k * T, (k + 1) * T
        sel = np.nonzero((times >= lo - 1e-9) & (times <= hi + 1e-9))[0]
        if sel.size >= 2:
            out.append((k, sel))
    return out


def mean_free_force(cfg, t: float) -> Field:
    """The replaced solver._mean_free_force: the force of cfg at t on the
    full lattice (ForcingSpec.evaluate), times the 2/3-rule mask, with its
    k=0 coefficient zeroed."""
    grid = cfg.grid
    bar = cfg.forcing.evaluate(grid, t) * grid.dealias_mask
    bar[(slice(None),) + (0,) * grid.dim] = 0.0
    return Field(grid, bar)


def forcing_norm_sq_series(cfg, p: float) -> np.ndarray:
    """The replaced solver.forcing_lp_sq_series: lp_norm(., p) ** 2 of
    mean_free_force at every step time of cfg (field.physical_padded, for
    p != 2), and for p = None the replaced record of a run's
    forcing_l2_sq, l2_norm_sq; a steady force's once, zeros for a zero
    force."""
    out = np.zeros(cfg.n_steps + 1)
    if not cfg.forcing.expressions:
        return out
    for i, t in enumerate(cfg.times):
        f = mean_free_force(cfg, t)
        out[i] = l2_norm_sq(f) if p is None else lp_norm(f, p) ** 2
        if cfg.forcing.steady:
            out[:] = out[0]
            break
    return out


def hessian_l2_norm_sq(field: Field) -> float:
    """Squared L2 norm of all second derivatives (ordered pairs) by
    Parseval: the modewise weight is |k|^4, built from the discrete
    derivative's wavenumbers, so it equals the L2 norm of the gradient of
    gradient_field."""
    grid = field.grid
    k_sq = sum(ka**2 for ka in grid.k_deriv)
    mag = np.sum(np.abs(field.spectral()) ** 2, axis=0)
    return float(grid.volume * np.sum(grid.hermitian_weight * k_sq ** 2 * mag))


def embedding_ratio_l6_h1(field: Field) -> float:
    """||u||_L6^2 / ||u||_H1^2 for mean-free fields; probes the L6 embedding."""
    h1 = sobolev_norm_sq(field, 1)
    if h1 == 0.0:
        raise ValueError("embedding ratio of a zero field")
    return lp_norm(field, 6) ** 2 / h1


def physical_padded_per_component(field: Field, factor: int = 2,
                                  out=None) -> np.ndarray:
    """The replaced field.physical_padded: each component zero-padded and
    inverse-transformed on its own, one axis at a time, through the scratch
    arrays of _pad_stages that every call on a grid and factor shares, into
    out if given, else into a fresh array."""
    grid = field.grid
    M, h = factor * grid.N, grid.N // 2
    spec = field.spectral()
    if out is None:
        out = np.empty((field.ncomp,) + (M,) * grid.dim)
    stages, last = _pad_stages(grid, factor)
    for c in range(field.ncomp):
        vals = spec[c:c + 1]
        for ax, (padded, result) in enumerate(stages, start=1):
            src = np.moveaxis(vals, ax, 0)
            dst = np.moveaxis(padded, ax, 0)
            dst[:h] = src[:h]
            dst[M - h + 1:] = src[h + 1:]
            dst[h] = dst[M - h] = 0.5 * src[h]
            vals = np.fft.ifft(padded, axis=ax, norm="forward", out=result)
        last[..., :h] = vals[..., :h]
        last[..., h] = 0.5 * vals[..., h].real
        np.fft.irfft(last, n=M, axis=-1, norm="forward", out=out[c:c + 1])
    return out


@functools.lru_cache(maxsize=8)
def _pad_stages(grid, factor: int) -> tuple:
    """The shared scratch of physical_padded_per_component for one
    component: per full axis the zero-padded input and its inverse
    transform, then the zero-padded input of the rfft axis, zeroed once."""
    M = factor * grid.N
    shape = [1, *grid.shape_spec]
    stages = []
    for ax in range(1, grid.dim):
        shape[ax] = M
        stages.append((np.zeros(shape, dtype=complex),
                       np.empty(shape, dtype=complex)))
    shape[-1] = M // 2 + 1
    return stages, np.zeros(shape, dtype=complex)


def streamed_padded_magnitude(field: Field, pad_factor: int = 2) -> np.ndarray:
    """The replaced norms._padded_magnitude: |u| on the padded grid with
    each component padded on its own (physical_padded_per_component), the
    second and later ones into one scratch array, and its square added into
    one accumulator in component order."""
    acc = scratch = None
    for c in range(field.ncomp):
        part = Field(field.grid, field.data[c:c + 1])
        if acc is None:
            acc = physical_padded_per_component(part, pad_factor)[0]
            np.square(acc, out=acc)
        else:
            scratch = physical_padded_per_component(part, pad_factor,
                                                    out=scratch)
            acc += np.square(scratch[0], out=scratch[0])
    return np.sqrt(acc, out=acc)


class FullLatticeWorkspace:
    """The replaced solver._Workspace: the same kernel and IMEX steps on
    the full spectral lattice, with the 2/3-rule mask applied to the state
    before its transform and to the result.  The background is the
    physical values b alone; their products are formed on every call.

    step is solver._Workspace.step, in its order of operations
    (Crank-Nicolson, Adams-Bashforth 2 on the flux and trapezoid on the
    force at the step times t and t_next, their sum projected once);
    two_projection_step is the step that it replaced, which projects the
    flux and each force evaluation apart; heun_step is the Crank-Nicolson
    / Heun step that one replaced, which evaluates the kernel, the force
    included, at t and at the predictor at t + dt.  One instance steps one
    state with one of them."""

    def __init__(self, grid, nu=0.0, dt=0.0):
        state = (grid.dim,) + grid.shape_spec
        self.grid = grid
        self.dt = dt
        self.pairs = [(i, j) for i in range(grid.dim)
                      for j in range(i, grid.dim)]
        self.ik = [1j * k for k in grid.k_deriv]
        self.v_dealiased = np.empty(state, dtype=complex)
        self.w = np.empty((grid.dim,) + grid.shape_phys)
        self.prod = np.empty((len(self.pairs),) + grid.shape_phys)
        self.flux = np.empty((len(self.pairs),) + grid.shape_spec,
                             dtype=complex)
        self.term = np.empty(grid.shape_spec, dtype=complex)
        self.n0 = np.empty(state, dtype=complex)
        self.n1 = np.empty(state, dtype=complex)
        self.started = False
        self.v_star = np.empty(state, dtype=complex)
        z = 0.5 * dt * nu * grid.k_sq
        self.A = 1.0 - z
        self.B = 1.0 + z

    def flux_rhs(self, v_spec, f_spec, background, out):
        grid, w, prod, flux = self.grid, self.w, self.prod, self.flux
        np.multiply(v_spec, grid.dealias_mask, out=self.v_dealiased)
        physical_data(grid, self.v_dealiased, out=w)
        b = background
        if b is not None:
            w += b
        for p, (i, j) in enumerate(self.pairs):
            np.multiply(w[i], w[j], out=prod[p])
            if b is not None:
                prod[p] -= b[i] * b[j]
        spectral_data(grid, prod, out=flux)
        out[...] = 0.0
        for (i, j), fij in zip(self.pairs, flux):
            out[i] -= np.multiply(self.ik[j], fij, out=self.term)
            if i != j:
                out[j] -= np.multiply(self.ik[i], fij, out=self.term)
        if f_spec is not None:
            out += f_spec
        out *= grid.dealias_mask
        return out

    def nonlinear(self, v_spec, f_spec, background, out):
        self.flux_rhs(v_spec, f_spec, background, out)
        return leray_data(self.grid, out, out=out)

    def force(self, forcing, t):
        grid = self.grid
        return forcing.evaluate(grid, t) * grid.dealias_mask

    def step(self, v, t, t_next, forcing, background=None):
        dt, rhs = self.dt, self.v_star
        flux, previous = self.n1, self.n0
        self.flux_rhs(v, None, background, out=flux)
        if not self.started:
            previous[...] = flux
            self.started = True
        rhs[...] = self.force(forcing, t)
        rhs += self.force(forcing, t_next)
        rhs *= 0.5 * dt
        rhs += flux * (1.5 * dt)
        rhs -= np.multiply(previous, 0.5 * dt, out=previous)
        np.multiply(self.A, v, out=v)
        v += leray_data(self.grid, rhs, out=rhs)
        v /= self.B
        self.n0, self.n1 = flux, previous
        return v

    def two_projection_step(self, v, t, t_next, forcing, background=None):
        dt, force_sum = self.dt, self.v_star
        flux, previous = self.n1, self.n0
        self.nonlinear(v, None, background, out=flux)
        if not self.started:
            previous[...] = flux
            self.started = True
        np.add(leray_data(self.grid, self.force(forcing, t)),
               leray_data(self.grid, self.force(forcing, t_next)),
               out=force_sum)
        force_sum *= 0.5 * dt
        np.multiply(self.A, v, out=v)
        v += force_sum
        v += np.multiply(flux, 1.5 * dt, out=force_sum)
        v -= np.multiply(previous, 0.5 * dt, out=previous)
        v /= self.B
        self.n0, self.n1 = flux, previous
        return v

    def heun_step(self, v, t, forcing, backgrounds=(None, None)):
        grid, dt = self.grid, self.dt
        n0, n1, v_star = self.n0, self.n1, self.v_star
        self.nonlinear(v, forcing.evaluate(grid, t), backgrounds[0], out=n0)
        np.multiply(self.A, v, out=v)
        np.multiply(n0, dt, out=v_star)
        v_star += v
        v_star /= self.B
        self.nonlinear(v_star, forcing.evaluate(grid, t + dt), backgrounds[1],
                       out=n1)
        n1 += n0
        n1 *= 0.5 * dt
        v += n1
        v /= self.B
        return v


# ---------------------------------------------------------------------------
# the checks as five functions of estimates, before the declaration table
# (estimates.INEQUALITIES) replaced them: the reference that
# test_estimates.py's equivalence test compares every id's report and
# windows.csv against.  The helpers they share with the table path are
# imported; those it dropped (margin_4_19, margin_4_26, margin_4_27,
# hypotheses_hold, window_endpoint_bound) are kept here as they were,
# exponentials included, with the former analyze and _window_csv.

def verify_decay_2d(base: Trajectory, budget: TwoDBudget,
                    tol: float = FLOAT_FLOOR) -> dict:
    """Check the 2D decay inequalities along the run.

    Returns InequalityReports keyed "3.1" .. "3.5":
      3.1  window-start L2 bound          3.4  window-start gradient bound
      3.2  windowed L2 + H1 dissipation   3.5  windowed gradient + H2 diss.
      3.3  per-step differential L2 inequality
    """
    nu, T = budget.nu, budget.T
    t = base.diag["t"]
    E = base.diag["l2_sq"]
    H1 = base.diag["l2_sq"] + base.diag["grad_l2_sq"]
    H2 = base.diag["h2_sq"]
    G = base.diag["grad_l2_sq"]
    F = base.diag["forcing_l2_sq"]
    windows = _window_slices(t, T)
    reports = {}

    # (3.1) / (3.4): bounds at window boundaries (both ends of each window)
    kt = np.array(sorted({sel[0] for _, sel in windows} |
                         {sel[-1] for _, sel in windows}))
    reports["3.1"] = InequalityReport("3.1", t[kt], budget.A2_sq - E[kt], tol)
    reports["3.4"] = InequalityReport("3.4", t[kt], budget.A4_sq - G[kt], tol)

    # (3.2) / (3.5): windowed integral bounds at every sample
    m32, m35, tt = [], [], []
    for _, sel in windows:
        ts = t[sel]
        int_h1 = _cumtrapz(H1[sel], ts)
        int_h2 = _cumtrapz(H2[sel], ts)
        m32.append(budget.A3_sq - (E[sel] + nu * budget.c_s1 * int_h1))
        m35.append(budget.A5_sq - (G[sel] + nu * budget.c_s2 * int_h2))
        tt.append(ts)
    reports["3.2"] = InequalityReport("3.2", np.concatenate(tt),
                                      np.concatenate(m32), tol)
    reports["3.5"] = InequalityReport(
        "3.5", np.concatenate(tt), np.concatenate(m35), tol,
        note="H2 dissipation uses the sharp discrete constant c_s2")

    # (3.3): discrete differential inequality per step (trapezoid in time)
    dE = np.diff(E) / np.diff(t)
    mid = lambda y: 0.5 * (y[1:] + y[:-1])
    lhs = dE + nu * budget.c_s1 * mid(H1)
    rhs = mid(F) / (nu * budget.c_s1)
    reports["3.3"] = InequalityReport("3.3", mid(t), rhs - lhs, tol)
    return reports


def w1sigma_monitor(base: Trajectory, sigma: float, T: float,
                    tol: float = 1e-6) -> InequalityReport:
    """Empirical uniform-in-time bound on the W^1_sigma norm (per window
    of length T).

    Passes when every window maximum, over the base run's per-step
    w1_sigma, stays below the first window's maximum times (1 + tol); the
    report carries the per-window maxima as its series.  sigma is the
    exponent the run recorded w1_sigma at (its SolverConfig's sigma); one
    of 3 or less raises ValueError.
    """
    if sigma <= 3:
        raise ValueError(f"sigma must exceed 3, got {sigma}")
    times, series = base.diag["t"], base.diag["w1_sigma"]
    windows = _window_slices(times, T)
    w_times = np.array([times[sel[-1]] for _, sel in windows])
    maxima = np.array([series[sel].max() for _, sel in windows])
    bound = maxima[0] * (1.0 + tol) + FLOAT_FLOOR
    return InequalityReport("3.8", w_times, bound - maxima, FLOAT_FLOOR,
                            note=f"sigma={sigma}; per-window maxima of the "
                                 "W^1_sigma norm vs first-window maximum")


def margin_4_19(nu, c4, c5, gamma_star, c_star) -> tuple:
    return (nu * c4 - c5 / nu**3 * gamma_star**2 - 0.5 * c_star,
            nu * c4 - c_star)


def margin_4_26(int_A_sq, int_G_sq, c_star, T, alpha, gamma) -> tuple:
    return (0.25 * c_star * T - int_A_sq, alpha * gamma - int_G_sq)


def margin_4_27(alpha, int_A_sq, c_star, T) -> float:
    return 1.0 - (alpha * math.exp(int_A_sq) + math.exp(-0.25 * c_star * T))


def verify_l2_stability(pert: Trajectory, b: BConstants, T: float,
                        tol: float = FLOAT_FLOOR) -> dict:
    """Check the windowed L2 bounds; vacuous when the hypotheses failed."""
    t = pert.diag["t"]
    E = pert.diag["l2_sq"]
    windows = _window_slices(t, T)
    kt = np.array(sorted({sel[0] for _, sel in windows} |
                         {sel[-1] for _, sel in windows}))
    r1 = InequalityReport("4.1a", t[kt], b.B3_sq - E[kt], tol)
    r2 = InequalityReport("4.1b", t, b.B4_sq - E, tol)
    if not b.assumption2_margin >= -FLOAT_FLOOR:  # the former property
        for r in (r1, r2):
            r.status = VACUOUS
            r.note = "assumption 2 of the L2 lemma fails on this data"
    return {"4.1a": r1, "4.1b": r2}


def check_stability_hypotheses(series: StabilitySeries,
                               budget: StabilityBudget,
                               tol: float = FLOAT_FLOOR) -> dict:
    """Per-window smallness hypotheses plus the budget admissibility."""
    g, cs, T, a = budget.gamma, budget.c_star, budget.T, budget.alpha
    t0 = series.times[0]
    m19 = margin_4_19(budget.nu, budget.c4, budget.c5, budget.gamma_star, cs)
    m26 = margin_4_26(series.int_A_sq, series.int_G_sq, cs, T, a, g)
    reports = {
        "4.12a": InequalityReport("4.12a", [t0], [g - series.X_sq[0]], tol,
                                  note="window-start H1 smallness"),
        "4.12b": InequalityReport("4.12b", series.times,
                                  0.25 * cs * g - series.G_sq, tol),
        "4.19": InequalityReport("4.19", [t0, t0], list(m19), tol,
                                 note="gamma* admissibility"),
        "4.26a": InequalityReport("4.26a", [t0], [m26[0]], tol),
        "4.26b": InequalityReport("4.26b", [t0], [m26[1]], tol),
        "4.27": InequalityReport(
            "4.27", [t0], [margin_4_27(a, series.int_A_sq, cs, T)], tol,
            note="sum form (used by the window recursion)"),
    }
    # hypotheses are premises, not claims: unmet ones are vacuous, not failed
    for r in reports.values():
        if not r.passed:
            r.status = VACUOUS
            r.note = (r.note + "; " if r.note else "") \
                + "hypothesis not satisfied by the data"
    return reports


def hypotheses_hold(reports: dict) -> bool:
    return all(r.passed for r in reports.values())


def window_endpoint_bound(series: StabilitySeries, budget: StabilityBudget,
                          X0_sq: float) -> float:
    """Integrated window bound: exp(int A^2) int G^2
    + exp(-c*T/2 + int A^2) X^2(kT)."""
    ia, ig = series.int_A_sq, series.int_G_sq
    return math.exp(ia) * ig \
        + math.exp(-0.5 * budget.c_star * budget.T + ia) * X0_sq


def verify_stability_conclusion(series_list, hypotheses,
                                budget: StabilityBudget,
                                tol: float = FLOAT_FLOOR) -> dict:
    """Check the stability conclusion over the inspected windows.

    Asserts X^2 <= gamma at every sample, X^2 below the integrated envelope,
    and the window-endpoint recursion.  hypotheses holds each window's
    check_stability_hypotheses, parallel to series_list.  All reports turn
    vacuous if any window's hypotheses fail.
    """
    vacuous = False
    m_gamma, t_gamma = [], []
    m_env, t_env = [], []
    m_rec, t_rec = [], []
    for series, hyp in zip(series_list, hypotheses, strict=True):
        window_ok = hypotheses_hold(hyp)
        if not window_ok:
            vacuous = True
        t_gamma.append(series.times)
        m_gamma.append(budget.gamma - series.X_sq)
        X0 = float(series.X_sq[0])
        if window_ok:
            try:
                env = gronwall_envelope(series, budget, X0)
            except ValueError:
                vacuous = True
            else:
                t_env.append(series.times)
                m_env.append(env * (1.0 + CONCLUSION_TOL_REL) - series.X_sq)
        t_rec.append([series.times[-1]])
        m_rec.append([window_endpoint_bound(series, budget, X0)
                      * (1.0 + CONCLUSION_TOL_REL)
                      - float(series.X_sq[-1])])
    if not m_env:
        t_env = [np.array([series_list[0].times[0]])]
        m_env = [np.array([0.0])]
        vacuous = True
    reports = {
        "4.13": InequalityReport("4.13", np.concatenate(t_gamma),
                                 np.concatenate(m_gamma), tol,
                                 note="X^2 <= gamma at every sample"),
        "4.18-env": InequalityReport("4.18-env", np.concatenate(t_env),
                                     np.concatenate(m_env), tol,
                                     note="envelope domination"),
        "4.25": InequalityReport("4.25", np.concatenate(t_rec),
                                 np.concatenate(m_rec), tol,
                                 note="window-endpoint recursion"),
    }
    if vacuous:
        for r in reports.values():
            r.status = VACUOUS
            r.note += " (hypotheses failed on at least one window)"
    return reports


def _window_csv(series_list, hyp_by_window, reports) -> str:
    lines = [",".join(WINDOW_CSV_COLUMNS)]
    worst_overall = min((r.worst_margin for r in reports.values()),
                       default=0.0)
    for s in series_list:
        hyp_ok = hypotheses_hold(hyp_by_window[s.window])
        row = (f"{s.window},{s.times[0]:.17e},{s.times[-1]:.17e},"
               f"{s.X_sq[0]:.17e},{s.X_sq[-1]:.17e},"
               f"{s.int_A_sq:.17e},{s.int_G_sq:.17e},"
               f"{'pass' if hyp_ok else 'fail'},{worst_overall:.17e}")
        lines.append(row)
    return "\n".join(lines) + "\n"


def analyze(base: Trajectory, pert: Trajectory | None,
            spec: dict, budget: StabilityBudget | None) -> tuple:
    """All estimate checks on finished trajectories.

    Returns (reports dict, series list, hypotheses per window).
    """
    nu, T = spec["nu"], spec["T"]
    tol = est.margin_tolerance(spec["tolerance"]["C"], spec["dt"])
    twod = est.compute_A_constants(base, T, nu)
    reports = dict(verify_decay_2d(base, twod, tol))
    reports["3.8"] = w1sigma_monitor(base, spec["sigma"], T)

    series_list, hyp_by_window = [], {}
    if pert is not None and budget is not None:
        bconst = est.compute_B_constants(pert, twod, budget.c1, budget.c3)
        reports.update(verify_l2_stability(pert, bconst, T, tol))
        for k in range(spec["windows"]):
            s = est.stability_series(pert, base, budget, k)
            series_list.append(s)
            hyp = check_stability_hypotheses(s, budget, tol)
            hyp_by_window[k] = hyp
            for key, rep in hyp.items():
                prev = reports.get(key)
                if prev is None or rep.worst_margin < prev.worst_margin:
                    reports[key] = rep
        reports.update(verify_stability_conclusion(
            series_list, list(hyp_by_window.values()), budget, tol=tol))
    return reports, series_list, hyp_by_window
