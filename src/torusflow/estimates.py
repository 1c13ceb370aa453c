"""Executable energy-estimate and stability checks along trajectories.

Every check reports a margin series (bound minus measured quantity) and a
pass/fail/vacuous status; conditional statements whose hypotheses fail on
the data are reported vacuous, never failed.
"""

import json
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .field import (Field, divergence_linf, laplacian_data, mean as field_mean,
                    mean_free, physical_padded, spectral_derivative,
                    spectral_field)
from .grid import TorusGrid
from .norms import (sobolev_norm_sq, sharp_poincare_h1, sharp_poincare_h2,
                    sharp_dissipation_h2)
# the benchmark's trace (bench/trace_cli.py) wraps forcing_lp_sq_series
# under this module's name: run_perturbation calls it for the
# perturbation's forcing_l6_5_sq, in-process for a steady force and in its
# forcing worker (_timed_forcing_l6_5_sq) otherwise
from .solver import Trajectory, forcing_lp_sq_series  # noqa: F401

PASS = "pass"
FAIL = "fail"
VACUOUS = "vacuous"

FLOAT_FLOOR = 1e-9

# relative slack of the stability conclusion's bounds (4.18-env, 4.25): X^2
# comes from the run's second-order scheme, while the envelope is an RK4
# solve over A^2, G^2 interpolated linearly between steps and the endpoint
# bound takes trapezoid integrals of them, so a bound and the X^2 it
# dominates differ by discretisation error of order dt^2, not roundoff
CONCLUSION_TOL_REL = 1e-3


@dataclass
class InequalityReport:
    """Result of one inequality check along a time series."""

    inequality_id: str
    times: np.ndarray
    margins: np.ndarray
    tolerance: float
    status: str = ""
    note: str = ""

    def __post_init__(self):
        self.times = np.atleast_1d(np.asarray(self.times, dtype=float))
        self.margins = np.atleast_1d(np.asarray(self.margins, dtype=float))
        if not self.status:
            self.status = PASS if self.passed else FAIL

    @property
    def worst_margin(self) -> float:
        return float(np.min(self.margins)) if self.margins.size else 0.0

    @property
    def worst_time(self) -> float:
        if not self.margins.size:
            return float("nan")
        return float(self.times[int(np.argmin(self.margins))])

    @property
    def passed(self) -> bool:
        return self.worst_margin >= -self.tolerance

    def to_dict(self) -> dict:
        return {
            "inequality": self.inequality_id,
            "status": self.status,
            "worst_margin": self.worst_margin,
            "worst_time": self.worst_time,
            "tolerance": self.tolerance,
            "samples": int(self.margins.size),
            "note": self.note,
        }


def reports_to_json(reports: dict) -> str:
    """Serialize a {eq_id: InequalityReport} mapping, keyed by equation id."""
    return json.dumps({k: r.to_dict() for k, r in sorted(reports.items())},
                      indent=2, sort_keys=True)


def margin_tolerance(C: float, dt: float) -> float:
    """Scheme-order tolerance: C*dt^2 plus a floating-point floor."""
    return C * dt * dt + FLOAT_FLOOR


def _cumtrapz(y, x):
    out = np.zeros_like(np.asarray(y, dtype=float))
    out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))
    return out


def _window_slices(times, T):
    """(k, index array of [kT, (k+1)T]) per complete window of a series
    sampled every times[1] from 0, as every run's per-step series is.  A
    window is per = T/times[1] intervals, a whole number that SolverConfig
    checks; a trailing partial window is not one."""
    per = round(T / times[1])
    return [(k, np.arange(k * per, (k + 1) * per + 1))
            for k in range((len(times) - 1) // per)]


# ---------------------------------------------------------------------------
# two-dimensional budget (Lemmas 3.1 and 3.2)

@dataclass
class TwoDBudget:
    """Window constants of the 2D decay estimates.

    c_s1 is the sharp discrete H1 Poincare constant; c_s2 the sharp constant
    with c_s2*||u||_H2^2 <= ||Lap u||_L2^2 used for the H2 dissipation bound.
    """

    nu: float
    T: float
    c_s1: float
    c_s2: float
    A1_sq: float
    A2_sq: float
    A3_sq: float
    A4_sq: float
    A5_sq: float
    k_max: int
    f_window_sup: float  # sup_k of the per-window integral of ||f_bar||_L2^2
    v0_l2_sq: float
    v0_grad_l2_sq: float

    def __post_init__(self):
        for name in ("A1_sq", "A2_sq", "A3_sq", "A4_sq", "A5_sq"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if abs(self.A3_sq - (self.A1_sq + self.A2_sq)) > \
                1e-9 * max(1.0, self.A3_sq):
            raise ValueError("A3_sq must equal A1_sq + A2_sq")
        if abs(self.A5_sq - (self.A1_sq + self.A4_sq)) > \
                1e-9 * max(1.0, self.A5_sq):
            raise ValueError("A5_sq must equal A1_sq + A4_sq")


def compute_A_constants(base: Trajectory, T: float, nu: float) -> TwoDBudget:
    """Evaluate the window constants from the base run and its forcing.

    The sup over all windows is taken as the max over the k_max windows the
    run actually covers.
    """
    t, f_l2_sq = base.diag["t"], base.diag["forcing_l2_sq"]
    windows = _window_slices(t, T)
    if not windows:
        raise ValueError("trajectory covers no complete window")
    c_s1 = sharp_poincare_h1(base.grid)
    c_s2 = sharp_poincare_h2(base.grid)
    per_window = [np.trapezoid(f_l2_sq[sel], t[sel]) for _, sel in windows]
    f_sup = float(max(per_window))

    v0_l2 = float(base.diag["l2_sq"][0])
    v0_grad = float(base.diag["grad_l2_sq"][0])

    decay = 1.0 - math.exp(-nu * c_s1 * T)
    A1_sq = f_sup / (nu * c_s1)
    A2_sq = A1_sq / decay + v0_l2
    A4_sq = c_s1 * A1_sq / decay + v0_grad
    return TwoDBudget(
        nu=nu, T=T, c_s1=c_s1, c_s2=c_s2,
        A1_sq=A1_sq, A2_sq=A2_sq, A3_sq=A1_sq + A2_sq,
        A4_sq=A4_sq, A5_sq=A1_sq + A4_sq,
        k_max=len(windows), f_window_sup=f_sup,
        v0_l2_sq=v0_l2, v0_grad_l2_sq=v0_grad)


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


def vorticity_cancellation_residual(vs: Field) -> float:
    """|integral of v_s . grad(vbar_s) . Lap(vbar_s)| over the box,
    normalized by ||v_s||_H1 * ||vbar_s||_H2^2.

    Exactly zero in the continuum for 2D divergence-free fields; evaluated
    with alias-free padded quadrature, so the numerical residual sits at
    roundoff.
    """
    grid = vs.grid
    if grid.dim != 2:
        raise ValueError("the cancellation identity is specific to 2D fields")
    if divergence_linf(vs) > 1e-8:
        raise ValueError("input must be divergence free")
    bar = mean_free(vs)
    m = field_mean(vs)
    factor = 3  # integrand is cubic in the field: 3K bandwidth needs 3N/2+
    vel = physical_padded(vs, factor)
    lap = physical_padded(
        spectral_field(grid, laplacian_data(grid, bar.spectral())), factor)
    grad = [physical_padded(spectral_derivative(bar, j), factor)
            for j in range(2)]
    integrand = np.zeros_like(vel[0])
    for c in range(2):
        for j in range(2):
            integrand += vel[j] * grad[j][c] * lap[c]
    M = factor * grid.N
    integral = (grid.L / M) ** 2 * float(np.sum(integrand))
    h1 = math.sqrt(sobolev_norm_sq(vs, 1))
    h2 = sobolev_norm_sq(bar, 2)
    scale = h1 * h2
    if scale == 0.0:
        return 0.0
    return abs(integral) / scale


def w1sigma_monitor(base: Trajectory, sigma: float | None = None,
                    tol: float = 1e-6) -> InequalityReport:
    """Empirical uniform-in-time bound on the W^1_sigma norm (per window).

    Passes when every window maximum, over the base run's per-step
    w1_sigma, stays below the first window's maximum times (1 + tol); the
    report carries the per-window maxima as its series.  sigma defaults to
    the base run's config["sigma"]; another one raises ValueError.
    """
    recorded = float(base.config["sigma"])
    if sigma is None:
        sigma = recorded
    if sigma <= 3:
        raise ValueError(f"sigma must exceed 3, got {sigma}")
    if abs(recorded - sigma) > 1e-12:
        raise ValueError("trajectory norm series used a different sigma")
    times, series = base.diag["t"], base.diag["w1_sigma"]
    T = base.config["T"]
    windows = _window_slices(times, T)
    w_times = np.array([times[sel[-1]] for _, sel in windows])
    maxima = np.array([series[sel].max() for _, sel in windows])
    bound = maxima[0] * (1.0 + tol) + FLOAT_FLOOR
    return InequalityReport("3.8", w_times, bound - maxima, FLOAT_FLOOR,
                            note=f"sigma={sigma}; per-window maxima of the "
                                 "W^1_sigma norm vs first-window maximum")


# ---------------------------------------------------------------------------
# calibrated constants and the stability budget (Section 4)

@dataclass
class CalibratedConstants:
    """Discrete constants feeding the stability budget.

    c1: sharp H1 Poincare constant (gradient vs H1 norm).
    c2: sharp mean-free dissipation constant,
        c2*||u||_H2^2 <= ||grad u||^2 + ||grad^2 u||^2.
    c3: L6 embedding constant, ||u||_L6^2 <= c3*||u||_H1^2.
    c_interp: interpolation constant,
        ||grad u||_L3 <= c_interp*||grad^2 u||_L2^(1/2) ||grad u||_L2^(1/2).
    c4, c5: coefficients of the H1 differential inequality, derived from the
        Young-inequality bookkeeping below.

    c3 and c_interp hold for every mean-free field on the 2/3-rule modes,
    which is where every run's states lie.
    """

    # always 0, as the constants are closed-form; the benchmark's trace
    # (bench/trace_cli.py) reads it as its count of calibration members
    ensemble_size: ClassVar[int] = 0

    c1: float
    c2: float
    c3: float
    c_interp: float
    c4: float
    c5: float


def derive_c4_c5(grid: TorusGrid, c2: float, c3: float,
                 c_interp: float, safety: float = 4.0) -> tuple:
    """Trace the Young-inequality absorption with calibrated constants.

    Half the dissipation (nu*c2*Y^2) absorbs the epsilon-halves of the four
    right-hand-side terms (each granted nu*c2/8), leaving nu*c4 = nu*c2/2.
    The surviving coefficients are
      cubic gradient term:  54 * c_interp^12 / c2^3      (times X^6/nu^3)
      base-flow couplings:  18 * c3 / c2                 (times A-terms/nu)
      mean/forcing terms:   4 * max(c3, |Omega|^(1/3)) / c2
    and c5 is their maximum times a safety factor.
    """
    vol_third = grid.volume ** (1.0 / 3.0)
    c4 = 0.5 * c2
    c5 = safety * max(54.0 * c_interp**12 / c2**3,
                      18.0 * c3 / c2,
                      4.0 * max(c3, vol_third) / c2,
                      2.0 / c2)
    return c4, c5


def calibrate_constants(grid: TorusGrid) -> CalibratedConstants:
    """c1, c2, the bounds c3 and c_interp over the mean-free fields on the
    2/3-rule modes K of grid, and c4, c5 derived from them.

    With S and S1 the sums of 1/(1+|k|^2) and 1/|k|^2 over k in K, k != 0,
    |u(x)| <= sum_k |u_k| and Cauchy-Schwarz give ||u||_inf^2 <=
    (S/|Omega|) ||u||_H1^2 and ||grad u||_inf^2 <= (S1/|Omega|)
    ||grad^2 u||^2; then ||u||_L6^6 <= ||u||_inf^4 ||u||^2,
    ||grad u||_L3^3 <= ||grad u||_inf ||grad u||^2 and Poincare give c3 and
    c_interp.  They bound the padded-quadrature norms too, which are exact
    for |u|^2 on K and never exceed the node maximum.
    """
    kept = grid.dealias_mask & (grid.k_sq > 0)
    k_sq, weight = grid.k_sq[kept], grid.hermitian_weight[kept]
    S, S1 = np.sum(weight / (1.0 + k_sq)), np.sum(weight / k_sq)
    c2 = sharp_dissipation_h2(grid)
    c3 = float((S / grid.volume) ** (2 / 3) / (1 + grid.kappa**2) ** (1 / 3))
    ci = float((S1 / (grid.kappa * grid.volume)) ** (1 / 6))
    c4, c5 = derive_c4_c5(grid, c2, c3, ci)
    return CalibratedConstants(c1=sharp_poincare_h1(grid), c2=c2, c3=c3,
                               c_interp=ci, c4=c4, c5=c5)


@dataclass
class StabilityBudget:
    """Constants of the stability theorem and its smallness conditions."""

    nu: float
    T: float
    gamma: float
    gamma_star: float
    c_star: float
    alpha: float
    c1: float
    c3: float
    c4: float
    c5: float

    def __post_init__(self):
        m1, m2 = margin_4_19(self.nu, self.c4, self.c5, self.gamma_star,
                             self.c_star)
        if m1 < -FLOAT_FLOOR or m2 <= 0:
            raise ValueError(
                "budget violates the gamma* admissibility condition: "
                f"nu*c4 - (c5/nu^3)*gamma*^2 - c*/2 = {m1:.3e}, "
                f"nu*c4 - c* = {m2:.3e}")
        if self.gamma > self.gamma_star + FLOAT_FLOOR:
            raise ValueError("gamma must not exceed gamma_star")


def admissible_gamma_star(nu, c4, c5, c_star) -> float:
    """Largest gamma* satisfying nu*c4 - (c5/nu^3)*gamma*^2 >= c*/2."""
    if not c_star < nu * c4:
        raise ValueError("need c_star < nu*c4")
    return math.sqrt((nu * c4 - 0.5 * c_star) * nu**3 / c5)


# scalar condition evaluators (margins are rhs - lhs; >= 0 passes)

def margin_4_11(nu, T, c_s1, c1, c3, f_window_sup, grad0_sq) -> float:
    decay = 1.0 - math.exp(-nu * c_s1 * T)
    lhs = (2.0 - math.exp(-nu * c_s1 * T)) / (c_s1 * nu * decay) \
        * f_window_sup + grad0_sq
    rhs = nu**2 * c1**2 / (8.0 * c3) * T
    return rhs - lhs


def margin_4_19(nu, c4, c5, gamma_star, c_star) -> tuple:
    return (nu * c4 - c5 / nu**3 * gamma_star**2 - 0.5 * c_star,
            nu * c4 - c_star)


def margin_4_26(int_A_sq, int_G_sq, c_star, T, alpha, gamma) -> tuple:
    return (0.25 * c_star * T - int_A_sq, alpha * gamma - int_G_sq)


def margin_4_27(alpha, int_A_sq, c_star, T) -> float:
    return 1.0 - (alpha * math.exp(int_A_sq) + math.exp(-0.25 * c_star * T))


# ---------------------------------------------------------------------------
# L2 stability (Lemma 4.1)

@dataclass
class BConstants:
    B1_sq: float
    B2_sq: float          # exponent with A5^2, as in the lemma statement
    B3_sq: float
    B4_sq: float
    assumption2_margin: float
    explicit_condition_margin: float  # Remark 4.2 form

    @property
    def hypotheses_hold(self) -> bool:
        return self.assumption2_margin >= -FLOAT_FLOOR


def compute_B_constants(pert: Trajectory, twod: TwoDBudget,
                        c1: float, c3: float) -> BConstants:
    """Evaluate B1..B4 and the smallness conditions of the L2 estimate.

    2D base norms entering 3D bounds are extruded (squared L2-type norms
    gain a factor L from the invariant third direction).
    """
    nu, T = twod.nu, twod.T
    L = pert.grid.L
    t = pert.diag["t"]
    mean_sq = np.sum(pert.diag["mean"]**2, axis=1)
    g65_sq = pert.diag["forcing_l6_5_sq"]

    integrand = (nu * c1 / (2.0 * c3)) * mean_sq \
        + (2.0 * c3 / (nu * c1)) * g65_sq
    windows = _window_slices(t, T)
    B1_sq = max(np.trapezoid(integrand[sel], t[sel]) for _, sel in windows)

    A3_3d = L * twod.A3_sq
    A5_3d = L * twod.A5_sq
    assumption2 = -(-0.5 * nu * c1 * T + 4.0 * c3 / (nu * c1) * A3_3d)
    B2_sq = math.exp(4.0 * c3 / (nu * c1) * A5_3d) * B1_sq
    u0_l2_sq = float(pert.diag["l2_sq"][0])
    B3_sq = B2_sq / (1.0 - math.exp(-0.5 * nu * c1 * T)) + u0_l2_sq
    explicit = margin_4_11(nu, T, twod.c_s1, c1, c3,
                           L * twod.f_window_sup, L * twod.v0_grad_l2_sq)
    return BConstants(B1_sq=B1_sq, B2_sq=B2_sq, B3_sq=B3_sq,
                      B4_sq=B2_sq + B3_sq,
                      assumption2_margin=assumption2,
                      explicit_condition_margin=explicit)


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
    if not b.hypotheses_hold:
        for r in (r1, r2):
            r.status = VACUOUS
            r.note = "assumption 2 of the L2 lemma fails on this data"
    return {"4.1a": r1, "4.1b": r2}


# ---------------------------------------------------------------------------
# H1 stability (Lemma 4.3 / the main stability theorem)

@dataclass
class StabilitySeries:
    """Windowed scalar series entering the H1 stability argument."""

    window: int
    times: np.ndarray
    X_sq: np.ndarray
    Y_sq: np.ndarray
    Z_sq: np.ndarray
    G_sq: np.ndarray
    A_sq: np.ndarray

    @property
    def int_A_sq(self) -> float:
        return float(np.trapezoid(self.A_sq, self.times))

    @property
    def int_G_sq(self) -> float:
        return float(np.trapezoid(self.G_sq, self.times))


def stability_series(pert: Trajectory, base: Trajectory,
                     budget: StabilityBudget, window: int) -> StabilitySeries:
    """Assemble X^2, Y^2, Z^2, A^2, G^2 on one window's step grid, reading
    the base's grad_l3_sq at perturbation step i from base step r*i, r the
    whole number of base steps per perturbation step (ValueError if none)."""
    nu, T = budget.nu, budget.T
    sel = dict(_window_slices(pert.diag["t"], T)).get(window)
    if sel is None:
        raise ValueError(f"window {window} not covered by the run")
    r, rest = divmod(len(base.diag["t"]) - 1, len(pert.diag["t"]) - 1)
    if r < 1 or rest:
        raise ValueError("the base run's steps are not a whole multiple of "
                         "the perturbation's")
    t = pert.diag["t"][sel]
    X_sq = pert.diag["l2_sq"][sel] + pert.diag["grad_l2_sq"][sel]
    Y_sq = pert.diag["h2_sq"][sel]

    grad_l3_sq = base.grid.L ** (2.0 / 3.0) \
        * base.diag["grad_l3_sq"][r * sel]  # extruded to the 3D box
    A_sq = (budget.c5 / nu) * grad_l3_sq

    mean_sq = np.sum(pert.diag["mean"][sel] ** 2, axis=1)
    g_l2_sq = pert.diag["forcing_l2_sq"][sel]
    G_sq = (budget.c5 / nu) * (grad_l3_sq * mean_sq + g_l2_sq)

    Z_sq = X_sq * np.exp(-_cumtrapz(A_sq, t))
    return StabilitySeries(window=window, times=t, X_sq=X_sq, Y_sq=Y_sq,
                           Z_sq=Z_sq, G_sq=G_sq, A_sq=A_sq)


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


def gronwall_envelope(series: StabilitySeries, budget: StabilityBudget,
                      X0_sq: float) -> np.ndarray:
    """Upper envelope: the H1 differential inequality integrated as an ODE.

    dW/dt = -W*(nu*c4 - (c5/nu^3)*W^2) + A^2(t)*W + G^2(t), W(kT) = X0_sq,
    on the series' own time grid (RK4 with linear interpolation of A^2, G^2).
    A^2 and G^2 are interpolated once, before the loop, at every stage time
    t_i, t_i + h/2 and t_i + h.  Aborts once the envelope exceeds gamma*,
    where the inequality's coefficient bound no longer applies.
    """
    if X0_sq > budget.gamma + FLOAT_FLOOR:
        raise ValueError("initial H1 norm exceeds gamma")
    nu, c4, c5 = budget.nu, budget.c4, budget.c5
    t = series.times
    h = t[1:] - t[:-1]
    (a0, g0), (a1, g1), (a2, g2) = [
        (np.interp(tt, t, series.A_sq), np.interp(tt, t, series.G_sq))
        for tt in (t[:-1], t[:-1] + 0.5 * h, t[:-1] + h)]

    def f(a, g, W):
        return -W * (nu * c4 - (c5 / nu**3) * W * W) + a * W + g

    W = np.empty_like(t)
    W[0] = X0_sq
    for i, hi in enumerate(h):
        k1 = f(a0[i], g0[i], W[i])
        k2 = f(a1[i], g1[i], W[i] + 0.5 * hi * k1)
        k3 = f(a1[i], g1[i], W[i] + 0.5 * hi * k2)
        k4 = f(a2[i], g2[i], W[i] + hi * k3)
        W[i + 1] = W[i] + hi / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        if W[i + 1] > budget.gamma_star:
            raise ValueError(
                f"envelope exceeded gamma* at t={t[i + 1]:g}; the stability "
                "hypotheses no longer apply")
    return W


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
