"""Time integration of the periodic Navier-Stokes systems.

Three evolutions share one IMEX scheme (Crank-Nicolson on the viscous term,
Heun on the projected, dealiased nonlinearity; second order overall):

  * the full 3D equations,
  * the 2D base flow (mean-free part; the spatial mean follows its own ODE),
  * the 3D perturbation around an interpolated 2D base trajectory.

The pressure never enters the evolution (Leray projection) but can be
reconstructed modewise on demand.
"""

import hashlib
import json
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .grid import TorusGrid
from .field import (Field, SPECTRAL, dealias, divergence_data, leray_data,
                    derivative_data, mean, physical_data, save_field,
                    spectral_data, spectral_field)
from .norms import (NORM_REPORT_COLUMNS, NormReport, TrajectoryNorms,
                    compute_norm_report, l2_norm_sq, grad_l2_norm_sq,
                    sobolev_norm_sq, DEFAULT_SIGMA)


class BlowUpError(RuntimeError):
    """Raised when a run produces non-finite norms."""

    def __init__(self, time, quantity, value):
        self.time = time
        self.quantity = quantity
        self.value = value
        super().__init__(f"blow-up detected at t={time:g}: {quantity}={value}")


@dataclass
class MeanVector:
    """Spatial mean of a velocity field at one instant."""

    value: np.ndarray
    time_stamp: float


# ---------------------------------------------------------------------------
# forcing

_EXPR_NAMES = {name: getattr(np, name) for name in
               ("sin", "cos", "tan", "exp", "sqrt", "abs", "tanh", "cosh",
                "sinh", "log")}
_EXPR_NAMES["pi"] = np.pi


@dataclass
class ForcingSpec:
    """External force as zero, analytic expressions, or stored snapshots.

    expressions: one string per component in x1, x2 (, x3) and t, evaluated
    with numpy semantics, e.g. "0.1*sin(x1)*cos(t)".
    """

    kind: str = "zero"
    expressions: tuple = ()
    snapshots: list = dc_field(default_factory=list)

    def __post_init__(self):
        if self.kind not in ("zero", "expression", "snapshots"):
            raise ValueError(f"unknown forcing kind {self.kind!r}")
        if self.kind == "expression" and not self.expressions:
            raise ValueError("expression forcing needs component expressions")
        if self.kind == "snapshots" and not self.snapshots:
            raise ValueError("snapshot forcing needs stored fields")
        self._cache = {}
        self._spline = None

    @property
    def steady(self) -> bool:
        if self.kind == "zero":
            return True
        if self.kind == "expression":
            return not any(_uses_time(e) for e in self.expressions)
        return len(self.snapshots) == 1

    def evaluate(self, grid: TorusGrid, t: float) -> np.ndarray:
        """Spectral coefficients of the force at time t."""
        key = (grid.L, grid.N, grid.dim, 0.0 if self.steady else float(t))
        if key in self._cache:
            return self._cache[key]
        if self.kind == "zero":
            out = np.zeros((grid.dim,) + grid.shape_spec, dtype=complex)
        elif self.kind == "expression":
            if len(self.expressions) != grid.dim:
                raise ValueError(
                    f"need {grid.dim} component expressions, got "
                    f"{len(self.expressions)}")
            coords = grid.meshgrid()
            names = dict(_EXPR_NAMES)
            for ax, c in enumerate(coords):
                names[f"x{ax + 1}"] = c
            names["t"] = t
            phys = np.array([
                np.broadcast_to(eval(expr, {"__builtins__": {}}, names),
                                grid.shape_phys).astype(float)
                for expr in self.expressions])
            out = spectral_data(grid, phys)
        else:
            out = self._interp_snapshots(grid, t)
        if len(self._cache) > 8:
            self._cache.clear()
        self._cache[key] = out
        return out

    def _interp_snapshots(self, grid, t):
        snaps = self.snapshots
        if len(snaps) == 1:
            return snaps[0].spectral()
        if self._spline is None:
            from scipy.interpolate import CubicSpline
            times = np.array([f.time_stamp for f in snaps])
            stack = np.array([f.spectral() for f in snaps])
            self._spline = (times, CubicSpline(times, stack, axis=0))
        times, spline = self._spline
        if t < times[0] - 1e-9 or t > times[-1] + 1e-9:
            raise ValueError(f"forcing snapshots do not cover t={t}")
        return spline(float(np.clip(t, times[0], times[-1])))


def _uses_time(expr: str) -> bool:
    import re
    return re.search(r"\bt\b", expr) is not None


# ---------------------------------------------------------------------------
# configuration and trajectories

@dataclass
class SolverConfig:
    grid: TorusGrid
    nu: float
    dt: float
    t_end: float
    T: float
    forcing: ForcingSpec = dc_field(default_factory=ForcingSpec)
    initial: Field | None = None
    snapshot_stride: int = 1
    norm_stride: int | None = None
    sigma: float = DEFAULT_SIGMA

    def __post_init__(self):
        if self.nu <= 0:
            raise ValueError("viscosity must be positive")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if not (self.t_end >= self.T > 0):
            raise ValueError("need t_end >= T > 0")
        kmax_sq = self.grid.dim * (np.pi * self.grid.N / self.grid.L) ** 2
        if self.dt * self.nu * kmax_sq > 100.0:
            raise ValueError("dt does not resolve the viscous scale "
                             f"(dt*nu*kmax^2 = {self.dt * self.nu * kmax_sq:.3g})")
        if self.norm_stride is None:
            self.norm_stride = self.snapshot_stride
        snap_dt = self.dt * self.snapshot_stride
        if abs(self.T / snap_dt - round(self.T / snap_dt)) > 1e-8:
            raise ValueError("window length T must be a multiple of the "
                             "snapshot interval")

    @property
    def n_steps(self) -> int:
        n = round(self.t_end / self.dt)
        if abs(n * self.dt - self.t_end) > 1e-9 * max(1.0, self.t_end):
            raise ValueError("t_end must be a multiple of dt")
        return n

    def describe(self) -> dict:
        return {
            "L": self.grid.L, "N": self.grid.N, "dim": self.grid.dim,
            "nu": self.nu, "dt": self.dt, "t_end": self.t_end, "T": self.T,
            "forcing_kind": self.forcing.kind,
            "forcing_expressions": list(self.forcing.expressions),
            "snapshot_stride": self.snapshot_stride,
            "norm_stride": self.norm_stride, "sigma": self.sigma,
        }


def config_hash(cfg: SolverConfig, extra: dict | None = None) -> str:
    payload = cfg.describe()
    if extra:
        payload.update(extra)
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Trajectory:
    """Stored run: spectral snapshots (mean included at k=0), per-step scalar
    diagnostics and a norm series of the mean-free part."""

    grid: TorusGrid
    times: np.ndarray
    snapshots: list
    means: np.ndarray
    norms: TrajectoryNorms
    diag: dict
    config: dict
    config_hash: str
    extras: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        self._spline = None

    def snapshot_field(self, i: int) -> Field:
        return spectral_field(self.grid, self.snapshots[i],
                              divergence_free=True, time_stamp=self.times[i])

    def sample(self, t: float) -> np.ndarray:
        """Spectral state at arbitrary t (exact at snapshots, cubic between)."""
        times = self.times
        if t < times[0] - 1e-9 or t > times[-1] + 1e-9:
            raise ValueError(f"t={t} outside trajectory span "
                             f"[{times[0]}, {times[-1]}]")
        j = int(np.searchsorted(times, t))
        for i in (j - 1, j, j + 1):
            if 0 <= i < len(times) and abs(times[i] - t) < 1e-10:
                return self.snapshots[i]
        if self._spline is None:
            from scipy.interpolate import CubicSpline
            self._spline = CubicSpline(times, np.array(self.snapshots), axis=0)
        return self._spline(float(np.clip(t, times[0], times[-1])))


# ---------------------------------------------------------------------------
# spatial terms

def _advection_spec(grid: TorusGrid, vel_phys: np.ndarray,
                    spec: np.ndarray) -> np.ndarray:
    """Spectral coefficients of (vel . grad) of the field given by `spec`.

    vel_phys may have fewer components than grid.dim (trailing advecting
    components treated as zero).
    """
    adv = np.zeros((spec.shape[0],) + grid.shape_phys)
    for j in range(vel_phys.shape[0]):
        dj = physical_data(grid, derivative_data(grid, spec, j, 1))
        adv += vel_phys[j] * dj
    return spectral_data(grid, adv)


def nonlinear_term(grid: TorusGrid, v_spec: np.ndarray, f_spec, nu_unused=None,
                   mean_vel=None) -> np.ndarray:
    """P(-dealias((v+m).grad v) + f) for the full velocity v (mean at k=0)."""
    v_d = v_spec * grid.dealias_mask
    vel = physical_data(grid, v_d)
    if mean_vel is not None:
        vel = vel + np.asarray(mean_vel).reshape((-1,) + (1,) * grid.dim)
    conv = _advection_spec(grid, vel, v_d)
    conv *= grid.dealias_mask
    out = -conv
    if f_spec is not None:
        out = out + f_spec
    return leray_data(grid, out)


def nse_rhs(v: Field, f: Field | None, nu: float) -> Field:
    """Full Navier-Stokes right-hand side P(-v.grad v + f) + nu*Lap v."""
    grid = v.grid
    if f is not None and f.grid != grid:
        raise ValueError("velocity and forcing grids differ")
    f_spec = None if f is None else f.spectral()
    out = nonlinear_term(grid, v.spectral(), f_spec)
    out = out - nu * grid.k_sq * v.spectral()
    return Field(grid, out, SPECTRAL, True, v.time_stamp)


def _imex_step(grid, v_spec, t, dt, nu, nonlin):
    """One CN(viscous) + Heun(nonlinear) step; nonlin(spec, t) -> spec."""
    z = 0.5 * dt * nu * grid.k_sq
    A = (1.0 - z)
    B = (1.0 + z)
    n0 = nonlin(v_spec, t)
    v_star = (A * v_spec + dt * n0) / B
    n1 = nonlin(v_star, t + dt)
    return (A * v_spec + 0.5 * dt * (n0 + n1)) / B


def advance(state: Field, forcing: ForcingSpec | None, nu: float,
            dt: float) -> Field:
    """One IMEX step of the full equations from state.time_stamp."""
    grid = state.grid
    t = state.time_stamp
    forcing = forcing or ForcingSpec()

    def nonlin(spec, tt):
        return nonlinear_term(grid, spec, forcing.evaluate(grid, tt))

    out = _imex_step(grid, state.spectral(), t, dt, nu, nonlin)
    if not np.all(np.isfinite(out)):
        raise BlowUpError(t + dt, "spectral coefficients", "non-finite")
    return Field(grid, out, SPECTRAL, True, t + dt)


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


# ---------------------------------------------------------------------------
# run drivers

def _zero_k0(grid, spec):
    spec[(slice(None),) + (0,) * grid.dim] = 0.0
    return spec


def _run_loop(cfg: SolverConfig, nonlin, v0_spec, mean_series,
              label) -> Trajectory:
    """Shared time loop.

    nonlin(spec, t) evolves the mean-free part; mean_series (n_steps+1, d)
    holds the externally integrated mean, stored into k=0 of each snapshot.
    """
    grid = cfg.grid
    n = cfg.n_steps
    tgrid = cfg.dt * np.arange(n + 1)

    spec = _zero_k0(grid, v0_spec.copy())
    diag = {"t": tgrid,
            "l2_sq": np.empty(n + 1),
            "grad_l2_sq": np.empty(n + 1),
            "h2_sq": np.empty(n + 1),
            "mean": mean_series.copy()}
    snapshots, snap_times, snap_means, reports = [], [], [], []

    def record(i):
        t = tgrid[i]
        fld = spectral_field(grid, spec, divergence_free=True, time_stamp=t)
        diag["l2_sq"][i] = l2_norm_sq(fld)
        diag["grad_l2_sq"][i] = grad_l2_norm_sq(fld)
        diag["h2_sq"][i] = sobolev_norm_sq(fld, 2)
        if not np.isfinite(diag["l2_sq"][i]):
            raise BlowUpError(t, f"{label} L2 norm", diag["l2_sq"][i])
        if i % cfg.snapshot_stride == 0 or i == n:
            full = spec.copy()
            full[(slice(None),) + (0,) * grid.dim] = mean_series[i]
            snapshots.append(full)
            snap_times.append(t)
            snap_means.append(mean_series[i])
        if i % cfg.norm_stride == 0 or i == n:
            reports.append(compute_norm_report(fld, cfg.sigma))

    record(0)
    for i in range(n):
        spec = _imex_step(grid, spec, tgrid[i], cfg.dt, cfg.nu, nonlin)
        spec = _zero_k0(grid, spec)
        record(i + 1)

    return Trajectory(
        grid=grid,
        times=np.array(snap_times),
        snapshots=snapshots,
        means=np.array(snap_means),
        norms=TrajectoryNorms(reports, (0.0, cfg.t_end)),
        diag=diag,
        config=cfg.describe() | {"label": label},
        config_hash=config_hash(cfg, {"label": label}),
        extras={},
    )


def _forcing_series(cfg: SolverConfig):
    """Forcing means and mean-free L2 norms on the step grid."""
    grid = cfg.grid
    n = cfg.n_steps
    tgrid = cfg.dt * np.arange(n + 1)
    means = np.empty((n + 1, grid.dim))
    l2_sq = np.empty(n + 1)
    zero = (slice(None),) + (0,) * grid.dim
    for i, t in enumerate(tgrid):
        f_spec = cfg.forcing.evaluate(grid, t)
        means[i] = np.real(f_spec[zero])
        bar = f_spec.copy()
        bar[zero] = 0.0
        l2_sq[i] = l2_norm_sq(spectral_field(grid, bar))
        if cfg.forcing.steady:
            means[:] = means[0]
            l2_sq[:] = l2_sq[0]
            break
    return tgrid, means, l2_sq


def run_2d_base(cfg: SolverConfig) -> Trajectory:
    """Evolve the mean-free 2D base flow; the mean follows its forcing ODE."""
    grid = cfg.grid
    if grid.dim != 2:
        raise ValueError("run_2d_base needs a 2D grid")
    if cfg.initial is None:
        raise ValueError("missing initial field")
    if cfg.initial.grid != grid:
        raise ValueError("initial field grid mismatch")

    tgrid, f_means, f_l2_sq = _forcing_series(cfg)
    m0 = mean(cfg.initial)
    mean_series = mean_ode_integrate(tgrid, f_means, m0)
    mean_lookup = {round(t / cfg.dt): i for i, t in enumerate(tgrid)}
    zero = (slice(None),) + (0,) * grid.dim

    def nonlin(spec, t):
        f_spec = cfg.forcing.evaluate(grid, t).copy()
        f_spec[zero] = 0.0
        i = mean_lookup.get(round(t / cfg.dt))
        m = mean_series[i] if i is not None \
            else _interp_mean(tgrid, mean_series, t)
        return _zero_k0(grid, nonlinear_term(grid, spec, f_spec, mean_vel=m))

    v0 = leray_data(grid, cfg.initial.spectral())
    traj = _run_loop(cfg, nonlin, v0, mean_series, "2d_base")
    traj.extras["forcing_l2_sq"] = f_l2_sq
    traj.extras["forcing_mean"] = f_means
    traj.extras["forcing_times"] = tgrid
    return traj


def _interp_mean(tgrid, mean_series, t):
    out = np.empty(mean_series.shape[1])
    for c in range(mean_series.shape[1]):
        out[c] = np.interp(t, tgrid, mean_series[:, c])
    return out


class BaseFlowSampler:
    """Physical-space samples of a stored 2D base trajectory, cached per t."""

    def __init__(self, base: Trajectory):
        if base.grid.dim != 2:
            raise ValueError("base trajectory must be two-dimensional")
        self.base = base
        self.grid2 = base.grid
        self._cache = {}

    def at(self, t: float):
        """Returns (vs_phys (2,N,N) incl. mean, grad_vsbar_phys (2,2,N,N))."""
        key = round(t * 1e12)
        if key in self._cache:
            return self._cache[key]
        g2 = self.grid2
        spec = self.base.sample(t)
        zero = (slice(None),) + (0,) * 2
        m = np.real(spec[zero])
        bar = spec.copy()
        bar[zero] = 0.0
        vs_phys = physical_data(g2, bar) + m.reshape(2, 1, 1)
        grad = np.empty((2, 2) + g2.shape_phys)
        for c in range(2):
            for ax in range(2):
                grad[c, ax] = physical_data(
                    g2, derivative_data(g2, bar[c:c + 1], ax, 1))[0]
        if len(self._cache) > 4:
            self._cache.clear()
        self._cache[key] = (vs_phys, grad)
        return (vs_phys, grad)


def run_perturbation(cfg: SolverConfig, base: Trajectory) -> Trajectory:
    """Evolve the mean-free 3D perturbation around the 2D base trajectory."""
    grid = cfg.grid
    if grid.dim != 3:
        raise ValueError("run_perturbation needs a 3D grid")
    if cfg.initial is None:
        raise ValueError("missing initial field")
    if base.times[-1] < cfg.t_end - 1e-9:
        raise ValueError("base trajectory does not cover the run interval")
    if base.grid.N != grid.N or base.grid.L != grid.L:
        raise ValueError("base and perturbation grids are incompatible")

    sampler = BaseFlowSampler(base)
    tgrid, g_means, g_l2_sq = _forcing_series(cfg)
    m0 = mean(cfg.initial)
    mean_series = mean_ode_integrate(tgrid, g_means, m0)
    zero = (slice(None),) + (0,) * 3

    def nonlin(spec, t):
        g_spec = cfg.forcing.evaluate(grid, t).copy()
        g_spec[zero] = 0.0
        i = round(t / cfg.dt)
        m_u = mean_series[i] if abs(tgrid[min(i, len(tgrid) - 1)] - t) < 1e-10 \
            else _interp_mean(tgrid, mean_series, t)
        vs_phys, grad_vs = sampler.at(t)

        u_d = spec * grid.dealias_mask
        ubar_phys = physical_data(grid, u_d)
        u_phys = ubar_phys + m_u.reshape(3, 1, 1, 1)

        adv = np.zeros((3,) + grid.shape_phys)
        # (u + v_s) . grad ubar ; v_s has no third component
        for j in range(3):
            dj = physical_data(grid, derivative_data(grid, u_d, j, 1))
            vel_j = u_phys[j]
            if j < 2:
                vel_j = vel_j + vs_phys[j][..., np.newaxis]
            adv += vel_j * dj
        # u . grad vsbar ; vsbar is x3-invariant with two components
        for c in range(2):
            for j in range(2):
                adv[c] += u_phys[j] * grad_vs[c, j][..., np.newaxis]

        conv = spectral_data(grid, adv) * grid.dealias_mask
        return _zero_k0(grid, leray_data(grid, -conv + g_spec))

    u0 = leray_data(grid, cfg.initial.spectral())
    traj = _run_loop(cfg, nonlin, u0, mean_series, "perturbation")
    traj.extras["forcing_l2_sq"] = g_l2_sq
    traj.extras["forcing_mean"] = g_means
    traj.extras["forcing_times"] = tgrid
    traj.extras["base_hash"] = base.config_hash
    return traj


def run_full_3d(cfg: SolverConfig) -> Trajectory:
    """Evolve the full 3D equations (mean carried by the k=0 mode)."""
    grid = cfg.grid
    if grid.dim != 3:
        raise ValueError("run_full_3d needs a 3D grid")
    if cfg.initial is None:
        raise ValueError("missing initial field")

    tgrid, f_means, f_l2_sq = _forcing_series(cfg)
    zero = (slice(None),) + (0,) * 3

    # mean evolves inside the scheme: keep k=0 in the state
    def nonlin(spec, t):
        return nonlinear_term(grid, spec, cfg.forcing.evaluate(grid, t))

    v0 = leray_data(grid, cfg.initial.spectral())
    n = cfg.n_steps
    spec = v0.copy()
    diag = {"t": tgrid, "l2_sq": np.empty(n + 1),
            "grad_l2_sq": np.empty(n + 1), "h2_sq": np.empty(n + 1),
            "mean": np.empty((n + 1, 3))}
    snapshots, snap_times, reports = [], [], []

    def record(i):
        t = tgrid[i]
        diag["mean"][i] = np.real(spec[zero])
        bar = spec.copy()
        bar[zero] = 0.0
        fld = spectral_field(grid, bar, divergence_free=True, time_stamp=t)
        diag["l2_sq"][i] = l2_norm_sq(fld)
        diag["grad_l2_sq"][i] = grad_l2_norm_sq(fld)
        diag["h2_sq"][i] = sobolev_norm_sq(fld, 2)
        if not np.isfinite(diag["l2_sq"][i]):
            raise BlowUpError(t, "full 3D L2 norm", diag["l2_sq"][i])
        if i % cfg.snapshot_stride == 0 or i == n:
            snapshots.append(spec.copy())
            snap_times.append(t)
        if i % cfg.norm_stride == 0 or i == n:
            reports.append(compute_norm_report(fld, cfg.sigma))

    record(0)
    for i in range(n):
        spec = _imex_step(grid, spec, tgrid[i], cfg.dt, cfg.nu, nonlin)
        record(i + 1)

    traj = Trajectory(
        grid=grid, times=np.array(snap_times), snapshots=snapshots,
        means=diag["mean"][[round(t / cfg.dt) for t in snap_times]],
        norms=TrajectoryNorms(reports, (0.0, cfg.t_end)),
        diag=diag, config=cfg.describe() | {"label": "full_3d"},
        config_hash=config_hash(cfg, {"label": "full_3d"}),
        extras={"forcing_l2_sq": f_l2_sq, "forcing_mean": f_means,
                "forcing_times": tgrid})
    return traj


# ---------------------------------------------------------------------------
# analytic references and pressure

def taylor_green_exact(grid: TorusGrid, nu: float, t: float,
                       amplitude: float = 1.0) -> Field:
    """(sin x1 cos x2, -cos x1 sin x2[, 0]) * exp(-2 nu t); needs L=2*pi."""
    if abs(grid.L - 2.0 * np.pi) > 1e-12:
        raise ValueError("Taylor-Green reference requires L = 2*pi")
    x1, x2 = np.broadcast_arrays(grid.coords[0], grid.coords[1])
    decay = amplitude * math.exp(-2.0 * nu * t)
    u1 = decay * np.sin(x1) * np.cos(x2)
    u2 = -decay * np.cos(x1) * np.sin(x2)
    if grid.dim == 2:
        phys = np.array([u1, u2])
    else:
        shape = grid.shape_phys
        phys = np.zeros((3,) + shape)
        phys[0] = u1[..., np.newaxis]
        phys[1] = u2[..., np.newaxis]
    return Field(grid, phys, "physical", True, t)


def recover_pressure(v: Field, f: Field | None, nu: float) -> Field:
    """Mean-free pressure from -Lap p = div(v.grad v - f), solved modewise."""
    grid = v.grid
    v_spec = v.spectral() * grid.dealias_mask
    vel = physical_data(grid, v_spec)
    w = _advection_spec(grid, vel, v_spec) * grid.dealias_mask
    if f is not None:
        w = w - f.spectral()
    k_sq = grid.k_sq.copy()
    k_sq[(0,) * grid.dim] = 1.0
    div_w = divergence_data(grid, w)
    p = (div_w / k_sq)[np.newaxis]
    # div_w = i k . w ; p_hat = i k.w / |k|^2 needs the i already in div_w
    p[(slice(None),) + (0,) * grid.dim] = 0.0
    return Field(grid, p, SPECTRAL, False, v.time_stamp)


# ---------------------------------------------------------------------------
# trajectory persistence

def save_trajectory(traj: Trajectory, directory) -> dict:
    """Write config copy, per-step CSV, norm series, snapshots and summary.

    Layout: config.json, diagnostics.csv (every step), norms.csv (one
    NormReport row per report, at norm_stride), summary.json,
    snapshots/snap_NNNNNN.npz (at snapshot_stride).
    """
    import os

    os.makedirs(directory, exist_ok=True)
    snapdir = os.path.join(directory, "snapshots")
    os.makedirs(snapdir, exist_ok=True)

    with open(os.path.join(directory, "config.json"), "w") as fh:
        json.dump({"config": traj.config, "hash": traj.config_hash}, fh,
                  indent=2, sort_keys=True)

    dim = traj.grid.dim
    cols = ["t", "l2_sq", "grad_l2_sq", "h2_sq"] \
        + [f"mean_{i + 1}" for i in range(dim)]
    lines = [",".join(cols)]
    for i, t in enumerate(traj.diag["t"]):
        row = [t, traj.diag["l2_sq"][i], traj.diag["grad_l2_sq"][i],
               traj.diag["h2_sq"][i], *traj.diag["mean"][i]]
        lines.append(",".join(f"{x:.17e}" for x in row))
    with open(os.path.join(directory, "diagnostics.csv"), "w") as fh:
        fh.write("\n".join(lines) + "\n")

    lines = [NormReport.csv_header()] \
        + [r.to_csv_row() for r in traj.norms.reports]
    with open(os.path.join(directory, "norms.csv"), "w") as fh:
        fh.write("\n".join(lines) + "\n")

    paths = []
    for i in range(len(traj.times)):
        path = os.path.join(snapdir, f"snap_{i:06d}.npz")
        save_field(path, traj.snapshot_field(i))
        paths.append(path)

    summary = {
        "hash": traj.config_hash,
        "label": traj.config.get("label"),
        "final_time": float(traj.times[-1]),
        "final_l2_sq": float(traj.diag["l2_sq"][-1]),
        "final_grad_l2_sq": float(traj.diag["grad_l2_sq"][-1]),
        "final_mean": [float(x) for x in traj.diag["mean"][-1]],
        "snapshots": len(traj.snapshots),
        "aborted": False,
    }
    with open(os.path.join(directory, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    return {"directory": str(directory), "snapshots": paths,
            "summary": summary}


def load_trajectory(directory) -> Trajectory:
    """Rebuild a Trajectory from a save_trajectory directory.

    The norm series is read from norms.csv exactly as the run wrote it (a
    directory without it is refused); forcing series are re-evaluated from
    the saved configuration (snapshot-kind forcing is not reloadable).
    """
    import os
    from .field import load_field

    with open(os.path.join(directory, "config.json")) as fh:
        saved = json.load(fh)
    config = saved["config"]
    if config["forcing_kind"] == "snapshots":
        raise ValueError("snapshot-kind forcing cannot be reloaded")
    grid = TorusGrid(L=config["L"], N=config["N"], dim=config["dim"])

    norms_path = os.path.join(directory, "norms.csv")
    if not os.path.exists(norms_path):
        raise FileNotFoundError(
            f"{norms_path} is missing: this trajectory was saved without "
            "its norm series; run the experiment again")
    rows = np.loadtxt(norms_path, delimiter=",", skiprows=1, ndmin=2)
    reports = [NormReport(**{c: float(x) for c, x in
                             zip(NORM_REPORT_COLUMNS, row)}) for row in rows]

    rows = np.loadtxt(os.path.join(directory, "diagnostics.csv"),
                      delimiter=",", skiprows=1, ndmin=2)
    diag = {"t": rows[:, 0], "l2_sq": rows[:, 1], "grad_l2_sq": rows[:, 2],
            "h2_sq": rows[:, 3], "mean": rows[:, 4:4 + grid.dim]}

    snapdir = os.path.join(directory, "snapshots")
    snapshots, times, means = [], [], []
    zero = (slice(None),) + (0,) * grid.dim
    for name in sorted(os.listdir(snapdir)):
        fld = load_field(os.path.join(snapdir, name))
        spec = fld.spectral()
        snapshots.append(spec)
        times.append(fld.time_stamp)
        means.append(np.real(spec[zero]))

    forcing = ForcingSpec(kind=config["forcing_kind"],
                          expressions=tuple(config["forcing_expressions"]))
    cfg = SolverConfig(grid=grid, nu=config["nu"], dt=config["dt"],
                       t_end=config["t_end"], T=config["T"], forcing=forcing,
                       snapshot_stride=config["snapshot_stride"],
                       norm_stride=config["norm_stride"],
                       sigma=config["sigma"])
    tgrid, f_means, f_l2_sq = _forcing_series(cfg)
    return Trajectory(
        grid=grid, times=np.array(times), snapshots=snapshots,
        means=np.array(means),
        norms=TrajectoryNorms(reports, (times[0], times[-1])),
        diag=diag, config=config, config_hash=saved["hash"],
        extras={"forcing_l2_sq": f_l2_sq, "forcing_mean": f_means,
                "forcing_times": tgrid})
