"""Executable energy-estimate and stability checks along trajectories.

INEQUALITIES declares each inequality id once: its kind (claim or
hypothesis), the run it reads, its series function, returning (times,
bound, value), the hypotheses it rests on and its note.  Evidence.report
alone turns series into InequalityReports (margin = bound - value) and
reports a statement whose premise fails on the data as vacuous, never
failed.  Every exponential of a bound goes through exp_bound.
"""

import json
import math
from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np

from .field import (Field, divergence_linf, laplacian_data, mean_free,
                    physical_padded, spectral_derivative)
from .grid import TorusGrid
from .norms import (DEFAULT_SIGMA, _padded_magnitude, _quadrature_norm,
                    sobolev_norm_sq, sharp_poincare_h1, sharp_poincare_h2,
                    sharp_dissipation_h2)
from .solver import SolverConfig, Trajectory

PASS = "pass"
FAIL = "fail"
VACUOUS = "vacuous"

CLAIM = "claim"
HYPOTHESIS = "hypothesis"

#: the premise of the L2 lemma's claims: checked once on the run, in no id
ASSUMPTION_2 = "assumption 2 of the L2 lemma"

FLOAT_FLOOR = 1e-9

# relative slack of the stability conclusion's bounds (4.18-env, 4.25): X^2
# comes from the run's second-order scheme, while the envelope is an RK4
# solve over A^2, G^2 interpolated linearly between steps and the endpoint
# bound takes trapezoid integrals of them, so a bound and the X^2 it
# dominates differ by discretisation error of order dt^2, not roundoff
CONCLUSION_TOL_REL = 1e-3

# safety margin on c5 (derive_c4_c5): the absorption constants are traced
# with the calibrated c3 and c_interp, and the margin applies to c5 only;
# c3 enters B1-B4, the 4.1 hypotheses and 4.11 as it is
C5_SAFETY = 4.0


@dataclass
class InequalityReport:
    """Result of one inequality check along a time series, with the bounds
    of its margins (a scalar where constant)."""

    inequality_id: str
    times: np.ndarray
    margins: np.ndarray
    tolerance: float
    status: str = ""
    note: str = ""
    bounds: np.ndarray | float | None = None

    def __post_init__(self):
        self.times = np.atleast_1d(np.asarray(self.times, dtype=float))
        self.margins = np.atleast_1d(np.asarray(self.margins, dtype=float))
        if not self.status:
            self.status = PASS if self.passed else FAIL

    @property
    def worst_margin(self) -> float:
        """The smallest margin; nan when nothing was measured."""
        return float(np.min(self.margins)) if self.margins.size \
            else float("nan")

    @property
    def worst_time(self) -> float:
        if not self.margins.size:
            return float("nan")
        return float(self.times[int(np.argmin(self.margins))])

    @property
    def passed(self) -> bool:
        return self.worst_margin >= -self.tolerance

    def to_dict(self) -> dict:
        """The report's JSON values: a worst margin or time that is not
        finite (an infinite bound's margin, or none measured) is None."""
        finite = lambda x: x if math.isfinite(x) else None
        return {
            "inequality": self.inequality_id,
            "status": self.status,
            "worst_margin": finite(self.worst_margin),
            "worst_time": finite(self.worst_time),
            "tolerance": self.tolerance,
            "samples": int(self.margins.size),
            "note": self.note,
        }


def reports_to_json(reports: dict) -> str:
    """Serialize a {eq_id: InequalityReport} mapping, keyed by equation id,
    as strict JSON (InequalityReport.to_dict)."""
    doc = {k: r.to_dict() for k, r in sorted(reports.items())}
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)


def margin_tolerance(C: float, dt: float) -> float:
    """Scheme-order tolerance: C*dt^2 plus a floating-point floor."""
    return C * dt * dt + FLOAT_FLOOR


def exp_bound(exponent: float, factor: float = 1.0) -> float:
    """factor * e^exponent, factor >= 0: +inf past the float range, and 0
    for factor 0 whatever the exponent."""
    try:
        return factor * math.exp(exponent) if factor else 0.0
    except OverflowError:
        return math.inf


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
    A3_sq = A1_sq + A2_sq and A5_sq = A1_sq + A4_sq are derived, so they
    cannot disagree with the others.
    """

    nu: float
    T: float
    c_s1: float
    c_s2: float
    A1_sq: float
    A2_sq: float
    A4_sq: float
    f_window_sup: float  # sup_k of the per-window integral of ||f_bar||_L2^2
    v0_grad_l2_sq: float

    def __post_init__(self):
        for name in ("A1_sq", "A2_sq", "A4_sq"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")

    @property
    def A3_sq(self) -> float:
        return self.A1_sq + self.A2_sq

    @property
    def A5_sq(self) -> float:
        return self.A1_sq + self.A4_sq


def compute_A_constants(base: Trajectory, T: float, nu: float) -> TwoDBudget:
    """Evaluate the window constants from the base run and its forcing.

    The sup over all windows is taken as the max over the windows the run
    actually covers.
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

    decay = 1.0 - exp_bound(-nu * c_s1 * T)
    A1_sq = f_sup / (nu * c_s1)
    A2_sq = A1_sq / decay + v0_l2
    A4_sq = c_s1 * A1_sq / decay + v0_grad
    return TwoDBudget(nu=nu, T=T, c_s1=c_s1, c_s2=c_s2, A1_sq=A1_sq,
                      A2_sq=A2_sq, A4_sq=A4_sq, f_window_sup=f_sup,
                      v0_grad_l2_sq=v0_grad)


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
    factor = 3  # integrand is cubic in the field: 3K bandwidth needs 3N/2+
    vel = physical_padded(vs, factor)
    lap = physical_padded(
        Field(grid, laplacian_data(grid, bar.spectral())), factor)
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
                 c_interp: float) -> tuple:
    """Trace the Young-inequality absorption with calibrated constants.

    Half the dissipation (nu*c2*Y^2) absorbs the epsilon-halves of the four
    right-hand-side terms (each granted nu*c2/8), leaving nu*c4 = nu*c2/2.
    The surviving coefficients are
      cubic gradient term:  54 * c_interp^12 / c2^3      (times X^6/nu^3)
      base-flow couplings:  18 * c3 / c2                 (times A-terms/nu)
      mean/forcing terms:   4 * max(c3, |Omega|^(1/3)) / c2
    and c5 is their maximum times the safety margin C5_SAFETY, on c5 only.
    """
    vol_third = grid.volume ** (1.0 / 3.0)
    c4 = 0.5 * c2
    c5 = C5_SAFETY * max(54.0 * c_interp**12 / c2**3,
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
        m1, m2 = np.subtract(*admissibility(self.nu, self.c4, self.c5,
                                            self.gamma_star, self.c_star))
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


def margin_4_11(nu, T, c_s1, c1, c3, f_window_sup, grad0_sq) -> float:
    decay = 1.0 - exp_bound(-nu * c_s1 * T)
    lhs = (2.0 - exp_bound(-nu * c_s1 * T)) / (c_s1 * nu * decay) \
        * f_window_sup + grad0_sq
    rhs = nu**2 * c1**2 / (8.0 * c3) * T
    return rhs - lhs


def admissibility(nu, c4, c5, gamma_star, c_star) -> tuple:
    """(bound, value) of the gamma* admissibility conditions (4.19):
    nu*c4 - (c5/nu^3)*gamma*^2 >= c*/2 and nu*c4 >= c*."""
    return (np.array([nu * c4 - c5 / nu**3 * gamma_star**2, nu * c4]),
            np.array([0.5 * c_star, c_star]))


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


def compute_B_constants(pert: Trajectory, twod: TwoDBudget,
                        c1: float, c3: float) -> BConstants:
    """Evaluate B1..B4 and the smallness conditions of the L2 estimate.

    2D base norms entering 3D bounds are extruded (squared L2-type norms
    gain a factor L from the invariant third direction).  B1 integrates
    the perturbation's |mean|^2, its recorded mean_sq, and
    ||g||_{L^{6/5}}^2 of its mean-free force g, the latter through
    Hoelder's inequality on the torus Omega, |Omega| = L^3:

      ||g||_{L^{6/5}}^2 <= |Omega|^{2/3} ||g||_{L^2}^2 = L^2 forcing_l2_sq,

    forcing_l2_sq is a Parseval sum, exact for the force on the kept modes,
    so at each step time B1's force term bounds ||g||_{L^{6/5}}^2 instead
    of approximating it by quadrature.
    """
    nu, T = twod.nu, twod.T
    L = pert.grid.L
    t = pert.diag["t"]
    mean_sq = pert.diag["mean_sq"]
    g65_sq = L**2 * pert.diag["forcing_l2_sq"]

    integrand = (nu * c1 / (2.0 * c3)) * mean_sq \
        + (2.0 * c3 / (nu * c1)) * g65_sq
    windows = _window_slices(t, T)
    B1_sq = max(np.trapezoid(integrand[sel], t[sel]) for _, sel in windows)

    A3_3d = L * twod.A3_sq
    A5_3d = L * twod.A5_sq
    assumption2 = -(-0.5 * nu * c1 * T + 4.0 * c3 / (nu * c1) * A3_3d)
    B2_sq = exp_bound(4.0 * c3 / (nu * c1) * A5_3d, B1_sq)
    u0_l2_sq = float(pert.diag["l2_sq"][0])
    B3_sq = B2_sq / (1.0 - exp_bound(-0.5 * nu * c1 * T)) + u0_l2_sq
    explicit = margin_4_11(nu, T, twod.c_s1, c1, c3,
                           L * twod.f_window_sup, L * twod.v0_grad_l2_sq)
    return BConstants(B1_sq=B1_sq, B2_sq=B2_sq, B3_sq=B3_sq,
                      B4_sq=B2_sq + B3_sq,
                      assumption2_margin=assumption2,
                      explicit_condition_margin=explicit)


def forcing_lp_sq_series(cfg: SolverConfig, p: float) -> np.ndarray:
    """||g||_{L^p}^2 of the mean-free force g of cfg at every step time, p
    finite: the force on the full lattice (ForcingSpec.evaluate) under the
    2/3-rule mask, its k=0 coefficient zeroed, by the collocation rule on
    the 2N grid (norms._quadrature_norm of norms._padded_magnitude).  One
    evaluation per step time, one for a steady force, none for a zero
    force, whose series is zero.  No run calls it, since B1 takes the
    Hoelder bound of the L^{6/5} norm (compute_B_constants);
    bench/trace_cli.py wraps it by name, until ROADMAP item 9 moves it to
    the tests."""
    grid, out = cfg.grid, np.zeros(cfg.n_steps + 1)
    if not cfg.forcing.expressions:
        return out
    for i, t in enumerate(cfg.times):
        g = cfg.forcing.evaluate(grid, t) * grid.dealias_mask
        g[(slice(None),) + (0,) * grid.dim] = 0.0
        out[i] = _quadrature_norm(grid, _padded_magnitude(Field(grid, g)),
                                  p) ** 2
        if cfg.forcing.steady:
            out[:] = out[0]
            break
    return out


# ---------------------------------------------------------------------------
# H1 stability (Lemma 4.3 / the main stability theorem)

@dataclass
class StabilitySeries:
    """Windowed scalar series entering the H1 stability argument."""

    window: int
    times: np.ndarray
    X_sq: np.ndarray
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
    """Assemble X^2, A^2, G^2 on one window's step grid, reading
    the base's grad_l3_sq at perturbation step i from base step r*i, r the
    whole number of base steps per perturbation step (ValueError if none).
    G^2 reads the perturbation's mean only as its recorded |mean|^2,
    mean_sq, beside its forcing_l2_sq."""
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

    grad_l3_sq = base.grid.L ** (2.0 / 3.0) \
        * base.diag["grad_l3_sq"][r * sel]  # extruded to the 3D box
    A_sq = (budget.c5 / nu) * grad_l3_sq

    mean_sq = pert.diag["mean_sq"][sel]
    g_l2_sq = pert.diag["forcing_l2_sq"][sel]
    G_sq = (budget.c5 / nu) * (grad_l3_sq * mean_sq + g_l2_sq)
    return StabilitySeries(window=window, times=t, X_sq=X_sq, G_sq=G_sq,
                           A_sq=A_sq)


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


# ---------------------------------------------------------------------------
# the inequality ids: what they are checked on, and the table of them

class Evidence:
    """What the series functions read: the base and its 2D constants twod;
    with a perturbation and its budget the L2 lemma's constants l2, the
    StabilitySeries of each complete window (windows), each hypothesis's
    reports, one per window, whether all hold on a window (holds) and its
    Gronwall envelope, None unless they hold and it stays below gamma*."""

    def __init__(self, base, pert, budget, nu, T, tol):
        self.base, self.T, self.tol = base, T, tol
        self.twod = compute_A_constants(base, T, nu)
        self.perturbation = self.budget = self.l2 = None
        self.windows = []
        if pert is not None and budget is not None:
            self.perturbation, self.budget = pert, budget
            self.l2 = compute_B_constants(pert, self.twod, budget.c1,
                                          budget.c3)
            self.windows = [stability_series(pert, base, budget, k)
                            for k, _ in _window_slices(pert.diag["t"], T)]
        self.hypotheses = {h: [self.report(h, s) for s in self.windows]
                           for h, eq in INEQUALITIES.items()
                           if eq.kind == HYPOTHESIS}
        self.holds = [all(r.status != VACUOUS for r in rs)
                      for rs in zip(*self.hypotheses.values())]
        self.envelopes = [self._envelope(s) if ok else None
                          for s, ok in zip(self.windows, self.holds)]

    def report(self, eq_id: str, s: StabilitySeries | None = None):
        """The InequalityReport of eq_id's series (on window s, for a
        hypothesis); vacuous for a hypothesis the data do not meet, a claim
        whose premise fails (for the window hypotheses: a window without an
        envelope) and a claim whose bound is infinite: it bounds nothing."""
        eq = INEQUALITIES[eq_id]
        times, bound, value = eq.series(self) if s is None \
            else eq.series(s, self.budget)
        r = InequalityReport(
            eq_id, times, bound - value,
            self.tol if eq.tolerance is None else eq.tolerance,
            note=eq.note, bounds=bound)
        if eq.kind == HYPOTHESIS:
            if r.passed:
                return r
            reason = "; hypothesis not satisfied by the data"
        elif ASSUMPTION_2 in eq.hypotheses \
                and not self.l2.assumption2_margin >= -FLOAT_FLOOR:
            reason = "; assumption 2 of the L2 lemma fails on this data"
        elif set(eq.hypotheses) & set(WINDOW_HYPOTHESES) \
                and any(e is None for e in self.envelopes):
            reason = " (hypotheses failed on " + (
                "at least one window)" if r.margins.size
                else "every window: no margin)")
        elif np.isposinf(r.bounds).any():
            reason = "; the bound is infinite"
        else:
            return r
        r.status = VACUOUS
        r.note = (r.note + reason).removeprefix("; ")
        return r

    def _envelope(self, s: StabilitySeries):
        try:
            return gronwall_envelope(s, self.budget, float(s.X_sq[0]))
        except ValueError:
            return None


def _at_window_ends(run: Trajectory, column: str, bound, T: float):
    t = run.diag["t"]
    ends = np.array([0] + [sel[-1] for _, sel in _window_slices(t, T)])
    return t[ends], bound, run.diag[column][ends]


def _dissipated(ev, column, c_s, integrand, bound):
    # column + nu*c_s*(integral of integrand from its window's start)
    t = ev.base.diag["t"]
    sels = [sel for _, sel in _window_slices(t, ev.T)]
    ints = np.concatenate([_cumtrapz(integrand[sel], t[sel]) for sel in sels])
    idx = np.concatenate(sels)
    return t[idx], bound, ev.base.diag[column][idx] + ev.twod.nu * c_s * ints


def _series_3_3(ev):
    # the differential L2 inequality per step, by the trapezoid rule
    d, c = ev.base.diag, ev.twod.nu * ev.twod.c_s1
    t, E = d["t"], d["l2_sq"]
    mid = lambda y: 0.5 * (y[1:] + y[:-1])
    return mid(t), mid(d["forcing_l2_sq"]) / c, \
        np.diff(E) / np.diff(t) + c * mid(E + d["grad_l2_sq"])


def _series_3_8(ev):
    # window maxima against the first's: a relative slack, no scheme error
    t, w1 = ev.base.diag["t"], ev.base.diag["w1_sigma"]
    windows = _window_slices(t, ev.T)
    maxima = np.array([w1[sel].max() for _, sel in windows])
    return np.array([t[sel[-1]] for _, sel in windows]), \
        maxima[0] * (1.0 + 1e-6) + FLOAT_FLOOR, maxima


def _series_4_18_env(ev):
    held = [(s, e) for s, e in zip(ev.windows, ev.envelopes)
            if e is not None]
    if not held:
        # no window has an envelope: nothing is measured, so no margin
        return np.empty(0), np.empty(0), np.empty(0)
    return np.concatenate([s.times for s, _ in held]), \
        np.concatenate([e * (1.0 + CONCLUSION_TOL_REL) for _, e in held]), \
        np.concatenate([s.X_sq for s, _ in held])


def _series_4_25(ev):
    # X^2 at each window's end below the integrated window bound
    # exp(int A^2) int G^2 + exp(-c*T/2 + int A^2) X^2(kT)
    b = ev.budget
    bound = [exp_bound(s.int_A_sq, s.int_G_sq) + exp_bound(
        -0.5 * b.c_star * b.T + s.int_A_sq, float(s.X_sq[0]))
        for s in ev.windows]
    return [s.times[-1] for s in ev.windows], \
        np.array(bound) * (1.0 + CONCLUSION_TOL_REL), \
        np.array([float(s.X_sq[-1]) for s in ev.windows])


@dataclass(frozen=True)
class Inequality:
    """One inequality id.  run names the Evidence attribute of the run it
    reads; a hypothesis is checked on every window, by series(window's
    StabilitySeries, budget); tolerance None is the Evidence's."""

    kind: str
    run: str
    series: Callable
    hypotheses: tuple = ()
    note: str = ""
    tolerance: float | None = None


WINDOW_HYPOTHESES = ("4.12a", "4.12b", "4.19", "4.26a", "4.26b", "4.27")

#: every inequality id, in the order analyze checks them
INEQUALITIES = {
    "3.1": Inequality(CLAIM, "base", lambda ev: _at_window_ends(
        ev.base, "l2_sq", ev.twod.A2_sq, ev.T)),
    "3.2": Inequality(CLAIM, "base", lambda ev: _dissipated(
        ev, "l2_sq", ev.twod.c_s1,
        ev.base.diag["l2_sq"] + ev.base.diag["grad_l2_sq"], ev.twod.A3_sq)),
    "3.3": Inequality(CLAIM, "base", _series_3_3),
    "3.4": Inequality(CLAIM, "base", lambda ev: _at_window_ends(
        ev.base, "grad_l2_sq", ev.twod.A4_sq, ev.T)),
    "3.5": Inequality(CLAIM, "base", lambda ev: _dissipated(
        ev, "grad_l2_sq", ev.twod.c_s2, ev.base.diag["h2_sq"], ev.twod.A5_sq),
        note="H2 dissipation uses the sharp discrete constant c_s2"),
    "3.8": Inequality(CLAIM, "base", _series_3_8, tolerance=FLOAT_FLOOR,
                      note=f"sigma={DEFAULT_SIGMA}; per-window maxima of "
                           "the W^1_sigma norm vs first-window maximum"),
    "4.1a": Inequality(CLAIM, "perturbation", lambda ev: _at_window_ends(
        ev.perturbation, "l2_sq", ev.l2.B3_sq, ev.T), (ASSUMPTION_2,)),
    "4.1b": Inequality(CLAIM, "perturbation", lambda ev: (
        ev.perturbation.diag["t"], ev.l2.B4_sq,
        ev.perturbation.diag["l2_sq"]), (ASSUMPTION_2,)),
    "4.12a": Inequality(HYPOTHESIS, "perturbation", lambda s, b: (
        s.times[:1], b.gamma, s.X_sq[0]), note="window-start H1 smallness"),
    "4.12b": Inequality(HYPOTHESIS, "perturbation", lambda s, b: (
        s.times, 0.25 * b.c_star * b.gamma, s.G_sq)),
    "4.19": Inequality(HYPOTHESIS, "perturbation", lambda s, b: (
        s.times[[0, 0]], *admissibility(b.nu, b.c4, b.c5, b.gamma_star,
                                        b.c_star)),
        note="gamma* admissibility"),
    "4.26a": Inequality(HYPOTHESIS, "perturbation", lambda s, b: (
        s.times[:1], 0.25 * b.c_star * b.T, s.int_A_sq)),
    "4.26b": Inequality(HYPOTHESIS, "perturbation", lambda s, b: (
        s.times[:1], b.alpha * b.gamma, s.int_G_sq)),
    "4.27": Inequality(HYPOTHESIS, "perturbation", lambda s, b: (
        s.times[:1], 1.0,
        exp_bound(s.int_A_sq, b.alpha) + exp_bound(-0.25 * b.c_star * b.T)),
        note="sum form (used by the window recursion)"),
    "4.13": Inequality(CLAIM, "perturbation", lambda ev: (
        np.concatenate([s.times for s in ev.windows]), ev.budget.gamma,
        np.concatenate([s.X_sq for s in ev.windows])),
        WINDOW_HYPOTHESES, "X^2 <= gamma at every sample"),
    "4.18-env": Inequality(CLAIM, "perturbation", _series_4_18_env,
                           WINDOW_HYPOTHESES, "envelope domination"),
    "4.25": Inequality(CLAIM, "perturbation", _series_4_25, WINDOW_HYPOTHESES,
                       "window-endpoint recursion"),
}
