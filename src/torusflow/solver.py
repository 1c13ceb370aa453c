"""Time integration of the periodic Navier-Stokes systems.

Three evolutions share one IMEX scheme (Crank-Nicolson on the viscous term,
Adams-Bashforth 2 on the dealiased flux and the trapezoid rule on the
force, their sum Leray-projected once; second order overall, one
evaluation of the nonlinear kernel and one projection per step), one time
loop and one nonlinear kernel in divergence form:

  * the full 3D equations,
  * the 2D base flow,
  * the 3D perturbation u around a 2D base flow v_s: the full equations
    minus the base equations, with the flux w(x)w - v_s(x)v_s of
    w = u + v_s.  A forked child makes and steps the base run and writes
    the perturbation the physical values of each base state through a
    pipe (_backgrounds, worker.Stream), so v_s is read from the base state
    at the start of each step, never from a stored trajectory.  The step is
    linear in the flux history, so the extruded base plus the perturbation
    equals the full 3D run to roundoff.  A full 3D run beside them, the
    direct run, shares no state with them, steps in the same child after
    the base and records its L2 norm alone.

Every run stores and steps its state on the 2/3-rule modes K alone
(_Workspace): the kernel's transforms are numpy's irfftn and rfftn pruned
to K, in numpy's own axis order, each stage reading its axis at unit
stride, and every other operation is per mode, so each state equals, bit
for bit, the one the full spectral lattice gives under the 2/3-rule masks
(pocketfft computes a line alike at any stride; the layout only lets numpy
run a stage as a few long loops, so scipy.fft is not needed).  The records
read the K-state itself, the base run's L^3 and W^{1,sigma} norms through
the pruned irfftn stages at 2N points an axis; only a snapshot copies it
onto the full lattice, +0.0 outside K.  Every force a run uses is computed
on K as well: its physical values through the pruned rfftn, equal bit for
bit to the full transform's values on K, and its L2 norm by the |.|^2 sum
over K that the state's norms take.

Every state carries its spatial mean in the k=0 coefficient.  The flux
divergence vanishes there and the Leray projection passes k=0 through, so
the scheme advances the mean by the trapezoid rule on the mean force.

The Adams-Bashforth 2 splitting of Crank-Nicolson is the classic one of
Kim & Moin, J. Comput. Phys. 59 (1985) and of Canuto, Hussaini, Quarteroni
& Zang, Spectral Methods in Fluid Dynamics (1988).

The pressure never enters the evolution: the Leray projection removes it.
The kernel's derivatives and the projection share one wavenumber lattice,
grid.k_deriv.
"""

import ast
import itertools
import math
import os
import shutil
import time
from contextlib import suppress
from dataclasses import dataclass, field as dc_field
from typing import Callable, ClassVar

import numpy as np

from .grid import TorusGrid
from .field import (Field, extrude_field, load_field, physical_field,
                    save_field, spectral_data)
from .norms import w1_sigma_norms
from .worker import Stream


class BlowUpError(RuntimeError):
    """Raised when a run produces non-finite norms."""

    def __init__(self, time, quantity, value):
        self.time = time
        self.quantity = quantity
        self.value = value
        super().__init__(f"blow-up detected at t={time:g}: {quantity}={value}")

    def __reduce__(self):
        # rebuilt from its fields, so that it survives a worker's pickle
        return type(self), (self.time, self.quantity, self.value)


# ---------------------------------------------------------------------------
# forcing

_EXPR_FUNCTIONS = {name: getattr(np, name) for name in
                   ("sin", "cos", "tan", "exp", "sqrt", "abs", "tanh", "cosh",
                    "sinh", "log")}
_EXPR_NAMES = set(_EXPR_FUNCTIONS) | {"x1", "x2", "x3", "t", "pi"}
_EXPR_NODES = (ast.Expression, ast.Load, ast.BinOp, ast.Add, ast.Sub,
               ast.Mult, ast.Div, ast.Pow, ast.UnaryOp, ast.USub)


def _allowed(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant):
        return type(node.value) in (int, float)
    if isinstance(node, ast.Name):
        return node.id in _EXPR_NAMES
    if isinstance(node, ast.Call):
        return (not node.keywords and isinstance(node.func, ast.Name)
                and node.func.id in _EXPR_FUNCTIONS)
    return isinstance(node, _EXPR_NODES)


def _compile_expression(expr: str):
    """(code, names) of one forcing expression, checked against its grammar.

    Allowed: numbers, the names x1, x2, x3, t and pi, + - * / **, unary
    minus, and calls of the functions in _EXPR_FUNCTIONS.  Anything else
    (attributes, subscripts, other names, keyword arguments) raises
    ValueError, so evaluating the code can run nothing but numpy arithmetic.
    Numbers become floats, so a power such as 9**9**9 overflows at once
    instead of building an unbounded integer.
    """
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"forcing expression {expr!r}: {exc.msg}") from None
    for node in ast.walk(tree):
        if not _allowed(node):
            what = ast.unparse(node) or type(node).__name__
            raise ValueError(f"forcing expression {expr!r}: {what!r} is "
                             "not allowed")
        if isinstance(node, ast.Constant):
            node.value = float(node.value)
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return compile(tree, "<forcing>", "eval"), names


@dataclass
class ForcingSpec:
    """External force: analytic expressions, none for the zero force.

    expressions: one string per component in x1, x2 (, x3) and t, evaluated
    with numpy semantics, e.g. "0.1*sin(x1)*cos(t)"; _compile_expression
    lists the grammar.  steady (no expression names t) is decided once, at
    construction; a run's workspace counts its evaluations (kept_force).
    """

    expressions: tuple = ()

    def __post_init__(self):
        self._compiled = [_compile_expression(e) for e in self.expressions]
        self.steady = not any("t" in names for _, names in self._compiled)

    def physical(self, grid: TorusGrid, t: float, out=None) -> np.ndarray:
        """Physical values of the force at time t into out, shape
        (dim,) + grid.shape_phys (a new array if None).

        Each expression is evaluated on the broadcastable coordinate axes
        grid.coords and its value broadcast into its component of out.
        """
        if out is None:
            out = np.empty((grid.dim,) + grid.shape_phys)
        if not self._compiled:
            out.fill(0.0)
            return out
        if len(self.expressions) != grid.dim:
            raise ValueError(f"need {grid.dim} component expressions, got "
                             f"{len(self.expressions)}")
        names = dict(_EXPR_FUNCTIONS, pi=np.pi, t=t)
        for ax, c in enumerate(grid.coords):
            names[f"x{ax + 1}"] = c
        for c, (code, _) in enumerate(self._compiled):
            out[c] = eval(code, {"__builtins__": {}}, names)
        return out

    def evaluate(self, grid: TorusGrid, t: float) -> np.ndarray:
        """Spectral coefficients of the force at time t on the full
        lattice, as a new array: rfftn of physical.  The runs take only the
        2/3-rule modes K (_Workspace.kept_force); this serves the config
        check, which looks outside K."""
        return spectral_data(grid, self.physical(grid, t))


# ---------------------------------------------------------------------------
# configuration and trajectories

@dataclass
class SolverConfig:
    """One run's grid, viscosity, time grid, force and initial field.

    The run's clock is stated here once and checked at construction, by
    ValueError: t_end is a whole number of windows T, and T a whole number
    of steps dt, so that every window [kT, (k+1)T] starts and ends on a
    step.  n_steps and the step times times = dt*arange(n_steps + 1),
    read-only, are fixed then.  dt must resolve the viscous scale of the grid:
    dt*nu*kmax^2 <= 100.

    A run records diag_columns at every step and, given a trajectory
    directory, takes a snapshot every snapshot_stride steps, the last step
    included.  The 2D base run records its W^{1,sigma} norm at
    sigma = norms.DEFAULT_SIGMA.
    """

    grid: TorusGrid
    nu: float
    dt: float
    t_end: float
    T: float
    forcing: ForcingSpec = dc_field(default_factory=ForcingSpec)
    initial: Field | None = None
    snapshot_stride: int = 1
    n_steps: int = dc_field(init=False)
    times: np.ndarray = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.nu <= 0:
            raise ValueError("viscosity must be positive")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if not (self.t_end >= self.T > 0):
            raise ValueError("need t_end >= T > 0")
        kmax_sq = self.grid.dim * (np.pi * self.grid.N / self.grid.L) ** 2
        scale = self.dt * self.nu * kmax_sq
        if scale > 100.0:
            raise ValueError("dt does not resolve the viscous scale "
                             f"(dt*nu*kmax^2 = {scale:.3g})")
        stride = self.snapshot_stride
        if not (isinstance(stride, (int, np.integer)) and stride >= 1):
            raise ValueError("snapshot_stride must be a positive integer, "
                             f"got {stride!r}")
        windows, per = self.t_end / self.T, self.T / self.dt
        if abs(per - round(per)) > 1e-8:
            raise ValueError(f"window length T={self.T:g} must be a multiple "
                             f"of the step dt={self.dt:g}")
        if abs(windows - round(windows)) > 1e-8:
            raise ValueError(f"t_end={self.t_end:g} must be a whole number "
                             f"of windows T={self.T:g}")
        self.n_steps = round(windows) * round(per)
        self.times = self.dt * np.arange(self.n_steps + 1)
        self.times.flags.writeable = False  # every run of cfg shares it


@dataclass(frozen=True)
class Probe:
    """One pass of a run's per-step record (_Member._record) and the
    diagnostics.csv columns it fills.

    columns maps each column, in file order, to the labels of the runs that
    record it; within a probe the label sets nest, so a run records a
    prefix of the columns.  values(member, state, t, count) returns the
    first count values (or more) at step time t, from the member's K-state
    or force.  signed: a value may be negative (load_trajectory refuses a
    negative value in any other column).  steady: under a steady force the
    value holds at every step, so it is taken once, at step 0.
    """

    columns: dict
    values: Callable
    signed: bool = False
    steady: bool = False


def _state_norms(member, v, t, count):
    # one |v|^2 sum over K; a run whose L2 norm is not finite stops here,
    # before its force and base norms
    norms = member.ws.mean_free_norms_sq(v, count)
    if not np.isfinite(norms[0]):
        raise BlowUpError(t, f"{member.label} L2 norm", norms[0])
    return norms


def _mean(member, v, t, count):
    # the real part of the k = 0 coefficient
    return v[(slice(None),) + (0,) * member.cfg.grid.dim].real


def _mean_sq(member, v, t, count):
    # m * m, not a scalar's ** 2: libm's pow can round x ** 2 off x * x by
    # one unit in the last place
    m = _mean(member, v, t, count)
    sq = m * m
    return ((sq[0] + sq[1]) + sq[2],)


def _force_norm(member, v, t, count):
    # the force at t that the step ending there has already evaluated
    ws = member.ws
    return ws.mean_free_norms_sq(ws.kept_force(member.cfg.forcing, t), count)


def _base_norms(member, v, t, count):
    return member.ws.base_norms(v)


#: the per-step columns after t, which every run records first: each
#: column's runs, sign and readers are README's table of columns
PROBES = (
    Probe({"l2_sq": ("2d_base", "perturbation", "full_3d", "direct"),
           "grad_l2_sq": ("2d_base", "perturbation", "full_3d"),
           "h2_sq": ("2d_base",)}, _state_norms),
    Probe(dict.fromkeys(("mean_1", "mean_2", "mean_3"), ("full_3d",)),
          _mean, signed=True),
    Probe({"mean_sq": ("perturbation",)}, _mean_sq),
    Probe({"forcing_l2_sq": ("2d_base", "perturbation")}, _force_norm,
          steady=True),
    Probe(dict.fromkeys(("grad_l3_sq", "w1_sigma"), ("2d_base",)),
          _base_norms),
)


def _probes(label: str) -> list:
    """(probe, the columns of it that the run labelled label records), in
    PROBES' order, for each probe with any.  Every run records l2_sq, so a
    label with none is no run's: ValueError."""
    found = [(p, cols) for p in PROBES if (cols := [
        c for c, labels in p.columns.items() if label in labels])]
    if not found:
        raise ValueError(f"no run is labelled {label!r}")
    return found


def diag_columns(label: str) -> list:
    """The diagnostics.csv columns of the run labelled label: t, then its
    columns of PROBES."""
    return ["t", *(c for _, cols in _probes(label) for c in cols)]


@dataclass
class Trajectory:
    """A run, as its trajectory directory holds it: diag, the per-step
    series of diag_columns of its label (PROBES), in that order and no
    other, and snapshot_paths, the field.save_field files of the spectral
    snapshots (mean included at k=0) that the run streamed to that
    directory.  A run given no directory, and a trajectory loaded from
    disk, has none.

    step_seconds is the wall time the run spent stepping and recording,
    force_evaluations those of its force that its workspace counted
    (_Workspace.kept_force, whether or not it holds a force norm), and
    wait_seconds, of a base run beside a perturbation, the wall time the
    perturbation's process waited for the child that makes and steps the
    base and direct runs, the making of the base run included
    (run_perturbation)."""

    grid: TorusGrid
    diag: dict
    label: str
    step_seconds: float = 0.0
    force_evaluations: int = 0
    wait_seconds: float = 0.0
    snapshot_paths: list = dc_field(default_factory=list)
    # no snapshot is held in memory; kept only for bench/trace_cli.py's
    # solver.base_snapshot_mb, until ROADMAP item 9 rewrites the trace
    snapshots: ClassVar[tuple] = ()

    def snapshot_field(self, i: int) -> Field:
        return load_field(self.snapshot_paths[i])


# ---------------------------------------------------------------------------
# spatial terms

def _laid_out(shape, order, fill=np.empty, arena=None):
    """A complex array of shape shape whose axes lie in memory in the order
    order, the last innermost: fill's array of the permuted shape, or given
    arena, a flat complex array, a view of its first entries, viewed in
    shape's axis order."""
    permuted = [shape[ax] for ax in order]
    a = fill(permuted, dtype=complex) if arena is None \
        else arena[:math.prod(permuted)].reshape(permuted)
    # not np.argsort, whose first call maps ~0.4 MB of numpy's sort code
    return a.transpose([order.index(ax) for ax in range(len(order))])


class _Workspace:
    """The arrays of one run's nonlinear kernel and IMEX steps
    (Crank-Nicolson / Adams-Bashforth 2 / trapezoid, see step), on the
    2/3-rule modes K alone.

    With c = N // 3, K holds the modes with every |m| <= c.  Its states
    have shape (dim, 2c+1, ..., 2c+1, c+1): along each full axis the
    entries run m = 0..c, then -c..-1, and along the last m = 0..c.  K
    holds no Nyquist mode, so grid.k_deriv equals grid.k on it.

    physical and spectral are numpy's irfftn and rfftn pruned to K, stage
    by stage in numpy's own axis order: before each inverse stage the kept
    rows are copied into a zero-padded buffer, and after each forward
    stage only the kept rows are kept.  Each stage's buffers lie in memory
    with its axis innermost (_laid_out), so numpy runs the stage as a few
    long loops, not one per run of c+1 lines; those row copies do the
    transposes, and pocketfft computes a line alike at any stride.  Every
    transformed line gets the arithmetic it gets in the full transform, and
    a line left out is zero and would transform to zeros; every other
    operation is per mode, so a state stepped here equals, bit for bit on
    K, the one the full lattice gives with its 2/3-rule masks; to_full puts
    it there.  spectral takes the products of the kernel or the force's
    values (kept_force); base_norms runs physical's stages at 2N points an
    axis, one call per stage over every component, for the 2D base's L^3
    and W^{1,sigma} norms.

    Every array is allocated once (the padded stages' at their first use);
    the kernel and the step write into them with out=, so a run allocates
    no state-sized array per step.  The stages at N points keep only their
    zero-padded inputs apart; the rest share two flat complex arenas, each
    array dead by the next stage: a holds the rfft's result, the kept rows
    after each fft stage but the last, each inverse stage's result and
    flux, the products' coefficients on K; b holds each fft stage's result
    and w, the kernel's physical values, and the force's at an evaluation.
    So an array in an arena is valid only until the next transform
    (physical, spectral, and so flux_rhs and kept_force); what a caller
    keeps is in memory of its own: physical's new array, spectral's out,
    kept_f, n0, n1 and rhs.  n0 holds the flux of the last step, before
    any projection, and the next one is written into n1; rhs holds the
    step's sum of flux and force, which the step projects.  The workspace
    steps one state: its first step takes the flux before it to be its
    own.  Without nu and dt the Crank-Nicolson factors are 1 and the
    workspace serves the kernel alone.
    """

    def __init__(self, grid: TorusGrid, nu: float = 0.0, dt: float = 0.0):
        N, c, d = grid.N, grid.N // 3, grid.dim
        self.grid, self.dt = grid, dt
        self.shape = (d,) + (2 * c + 1,) * (d - 1) + (c + 1,)
        self.pairs = list(itertools.combinations_with_replacement(range(d), 2))
        # K's entries on the full lattice, in K's layout; the last axis is
        # sliced, which copies a few times faster than an index array
        self.ix = (*np.ix_(*[np.r_[0:c + 1, N - c:N]] * (d - 1)),
                   slice(0, c + 1))

        self.ik = [self.to_kept(1j * k) for k in grid.k_deriv]
        self.k = np.array([self.to_kept(k) for k in grid.k_deriv])
        self.k_sq_divisor = self.to_kept(grid.k_sq_deriv_divisor)
        z = 0.5 * dt * nu * self.to_kept(grid.k_sq)
        self.A = 1.0 - z
        self.B = 1.0 + z
        self.prod = np.empty((len(self.pairs),) + grid.shape_phys)
        self.terms = np.empty(self.shape, dtype=complex)
        self.kdotv = np.empty(self.shape[1:], dtype=complex)
        self.n0 = np.empty(self.shape, dtype=complex)
        self.n1 = np.empty(self.shape, dtype=complex)
        self.started = False  # whether n0 holds the last step's flux
        self.padded = None  # _padded_squares' buffers, from its first call
        self.rhs = np.empty(self.shape, dtype=complex)
        self.norm_weights = [self.to_kept(grid.parseval_weights[w])
                             for w in ("l2", "grad", "h2")]
        # the force on K, of the forcing and time of _force
        self.kept_f = np.empty(self.shape, dtype=complex)
        self._force = (None, None)  # (forcing, time)
        self.force_evaluations = 0  # kept_force's

        # the transforms' scratch: arena a, the size of the rfft's result,
        # and b, of the first fft stage's; w (in b) and flux (in a) are
        # the kernel's
        shape = [len(self.pairs), *grid.shape_spec]
        a = np.empty(math.prod(shape), dtype=complex)
        b = np.empty(math.prod(shape[:-1]) * (c + 1), dtype=complex)
        self.w = b.view(float)[:d * N ** d].reshape((d,) + grid.shape_phys)
        self.flux = a[:len(self.pairs) * math.prod(self.shape[1:])].reshape(
            (len(self.pairs),) + self.shape[1:])
        # physical: irfftn's stages, each result in a
        self.inverse = self._inverse_buffers(N, d, a)
        # spectral: the rfft of the products (in a), then per full axis,
        # from the last to the first, its kept rows, its result (in b) and
        # (but for the first axis, which writes into the caller's array)
        # the kept rows of that (in a); the stage of axis ax reads and
        # writes its axes laid out [0, d, ..., ax+1, 1, ..., ax-1, ax]
        def order(ax):
            return [0, *range(d, ax, -1), *range(1, ax), ax]
        self.forward_first = _laid_out(shape, order(d - 1), arena=a)
        shape[-1], self.forward_stages = c + 1, []
        for ax in range(d - 1, 0, -1):
            result = _laid_out(shape, order(ax), arena=b)
            shape[ax] = 2 * c + 1
            self.forward_stages.append(
                (ax, self._rows(ax, N), result,
                 _laid_out(shape, order(ax - 1), arena=a) if ax > 1
                 else None))

    def _rows(self, ax, n):
        """The kept rows of axis ax at n points, the modes 0..c, then
        -c..-1: (index of 0..c, of -c..-1 at n points, of -c..-1 on K)."""
        c, pre = self.grid.N // 3, (slice(None),) * ax
        return (pre + (slice(0, c + 1),), pre + (slice(n - c, n),),
                pre + (slice(c + 1, 2 * c + 1),))

    def _inverse_buffers(self, n, ncomp, arena=None):
        """The buffers of irfftn's stages from K to n points an axis, for
        ncomp components: per full axis its kept rows, its zero-padded
        input and its result (given arena, each a view of its first
        entries), then the zero-padded input of the last axis."""
        shape, stages, d = [ncomp, *self.shape[1:]], [], self.grid.dim
        for ax in range(1, d):
            shape[ax] = n
            order = [0, *range(1, ax), *range(ax + 1, d + 1), ax]
            stages.append((ax, self._rows(ax, n),
                           _laid_out(shape, order, np.zeros),
                           _laid_out(shape, order, arena=arena)))
        shape[-1] = n // 2 + 1
        return stages, np.zeros(shape, dtype=complex)

    def to_kept(self, a):
        """The entries on K of a, an array over the spectral lattice or
        broadcastable to it, as a new array in K's layout."""
        lead = a.shape[:a.ndim - self.grid.dim]
        return np.ascontiguousarray(  # the gather is not laid out in C order
            np.broadcast_to(a, lead + self.grid.shape_spec)[(..., *self.ix)])

    def to_full(self, v):
        """The K-state v on the full spectral lattice, as a new array that
        holds +0.0 outside K."""
        out = np.zeros((len(v),) + self.grid.shape_spec, dtype=complex)
        out[(slice(None), *self.ix)] = v
        return out

    def mean_free_norms_sq(self, v, count=3):
        """The first count of (l2_norm_sq, grad_l2_norm_sq,
        sobolev_norm_sq(., 2)) of the mean-free part of to_full(v), up to
        the order of summation: one |v|^2 sum over K, its k=0 entry zeroed,
        under grid.parseval_weights gathered onto K."""
        mag = np.sum(np.abs(v) ** 2, axis=0)
        mag[(0,) * self.grid.dim] = 0.0
        return tuple(float(self.grid.volume * np.sum(w * mag))
                     for w in self.norm_weights[:count])

    def _inverse(self, v, buffers, n, out):
        """irfftn's stages of the K-state v to n points an axis, pruned to
        K, through buffers (_inverse_buffers(n)), into out (a new array if
        None)."""
        stages, last = buffers
        for ax, (lo, hi, hi_kept), padded, result in stages:
            padded[lo] = v[lo]
            padded[hi] = v[hi_kept]
            v = np.fft.ifft(padded, axis=ax, norm="forward", out=result)
        last[..., :self.shape[-1]] = v
        return np.fft.irfft(last, n=n, axis=-1, norm="forward", out=out)

    def physical(self, v, out=None):
        """Physical values of the K-state v into out (a new array if
        None): irfftn's stages, pruned to K."""
        return self._inverse(v, self.inverse, self.grid.N, out)

    def _padded_squares(self, v):
        """The squares of the values on the 2N grid of the mean-free part u
        of the K-state v and of its first derivatives ik_j u_c after it, in
        field.gradient_data's order, into a buffer of the workspace that
        the next call overwrites.

        One K-array holds every component (its buffers are allocated at the
        first call), and physical's stages at M = 2N take them all, one call
        per stage.  Each component's values equal, bit for bit, those of
        field.physical_padded, which transforms every line of the full
        lattice: the lines skipped here are zero, and a zero line transforms
        to zeros.
        """
        n, d, M = len(v), self.grid.dim, 2 * self.grid.N
        ncomp = n + n * d
        if self.padded is None:
            self.padded = (np.empty((ncomp,) + self.shape[1:], dtype=complex),
                           self._inverse_buffers(M, ncomp),
                           np.empty((ncomp,) + (M,) * d))
        parts, buffers, out = self.padded
        parts[:n] = v
        parts[(slice(0, n),) + (0,) * d] = 0.0
        for c, ax in itertools.product(range(n), range(d)):
            np.multiply(parts[c], self.ik[ax], out=parts[n + c * d + ax])
        vals = self._inverse(parts, buffers, M, out)
        return np.square(vals, out=vals)

    @staticmethod
    def _magnitude(squares):
        """The square root of the squares added in component order, into
        the first: norms._padded_magnitude, bit for bit."""
        mag = squares[0]
        for square in squares[1:]:
            mag += square
        return np.sqrt(mag, out=mag)

    def base_norms(self, v):
        """(grad_l3_sq, w1_sigma) of the mean-free part u of the 2D K-state
        v: ||grad u||_{L3}^2 and ||u||_{L^sigma} + ||grad u||_{L^sigma} by
        the collocation rule on the 2N grid, from one _padded_squares of u
        and grad u (norms.w1_sigma_norms); equal bit for bit to
        norms.compute_norm_report of field.mean_free of v on the full
        lattice."""
        squares = self._padded_squares(v)
        return w1_sigma_norms(self.grid, self._magnitude(squares[:len(v)]),
                              self._magnitude(squares[len(v):]))

    def spectral(self, phys, out):
        """The K entries of the spectral coefficients of the physical
        values phys, any leading count up to len(pairs), into out: rfftn's
        stages, pruned to K."""
        lead = len(phys)
        v = np.fft.rfft(phys, axis=-1, norm="forward",
                        out=self.forward_first[:lead])[..., :self.shape[-1]]
        for ax, (lo, hi, hi_kept), result, kept in self.forward_stages:
            result = np.fft.fft(v, axis=ax, norm="forward",
                                out=result[:lead])
            v = out if kept is None else kept[:lead]
            v[lo] = result[lo]
            v[hi_kept] = result[hi]
        return out

    def kept_force(self, forcing: ForcingSpec, t: float):
        """The force of forcing at t on K: its physical values
        (forcing.physical, into w) through spectral, equal on K to
        forcing.evaluate bit for bit.

        The force of one step time is kept until another is asked for: a
        step asks for t_i, then t_{i+1}, which the step's record and the
        next step ask for again, so each step time costs one evaluation,
        and a steady force one per run; force_evaluations counts them.  The
        array is the workspace's: do not write to it.

        The storage is the 2/3-rule mask: the applied force is the force on
        K and zero elsewhere, so a state stays exactly on K.  A force
        component above N/3 is not applied (experiments.parse_config refuses
        a config that names one); resolve it with a larger N.
        """
        when = 0.0 if forcing.steady else float(t)
        kept, kept_when = self._force
        if kept is not forcing or kept_when != when:
            self.spectral(forcing.physical(self.grid, t, out=self.w),
                          out=self.kept_f)
            self._force = (forcing, when)
            self.force_evaluations += 1
        return self.kept_f

    def flux_rhs(self, v, b, out):
        """-div(w(x)w - b(x)b) on K into out, before the Leray projection.

        w is the physical value of the K-state v plus the background b, the
        physical values of w's first len(b) components, broadcastable to
        them ((2, N, N, 1) for a 2D base flow), the others zero; without b
        (None) this is the flux of the full equations.  The divergence is
        zero at k=0.
        """
        w, prod, flux = self.w, self.prod, self.flux
        self.physical(v, out=w)
        if b is not None:
            w[:len(b)] += b
        for p, (i, j) in enumerate(self.pairs):
            np.multiply(w[i], w[j], out=prod[p])
            if b is not None and j < len(b):
                prod[p] -= b[i] * b[j]
        self.spectral(prod, out=flux)
        out[...] = 0.0
        term = self.terms[0]
        for (i, j), fij in zip(self.pairs, flux):
            out[i] -= np.multiply(self.ik[j], fij, out=term)
            if i != j:
                out[j] -= np.multiply(self.ik[i], fij, out=term)
        return out

    def project(self, v):
        """The Leray projection of the K-state v, in place: field.leray_data's
        operations, in its order, on K."""
        kdotv, terms = self.kdotv, self.terms
        kdotv.fill(0.0)
        for ax, k in enumerate(self.k):
            kdotv += np.multiply(k, v[ax], out=terms[0])
        np.multiply(self.k, kdotv, out=terms)
        terms /= self.k_sq_divisor
        return np.subtract(v, terms, out=v)

    def step(self, v, t, t_next, forcing: ForcingSpec, background=None):
        """One step of the K-state v from t to the run's next step time
        t_next, in place: Crank-Nicolson on the viscous term,
        Adams-Bashforth 2 on the flux N and the trapezoid rule on the force
        f, their sum R projected once,

          R = dt (3/2 N(t) - 1/2 N(t - dt)) + dt/2 (f(t) + f(t_next)),
          v <- (A v + P R) / B,

        with A, B = 1 -+ dt nu |k|^2 / 2; P commutes with A and B, so this
        is the scheme with the flux and the force projected apart.  N(t)
        is flux_rhs of v with its background at t (None for none), the
        step's one evaluation of the kernel; N(t - dt) is the one of the
        step before, and the first step takes N(t) for it.  f is
        kept_force.
        """
        dt, rhs = self.dt, self.rhs
        flux, previous = self.n1, self.n0
        self.flux_rhs(v, background, out=flux)
        if not self.started:
            previous[...] = flux
            self.started = True
        # kept_force's array holds one step time: f(t) is copied out first
        rhs[...] = self.kept_force(forcing, t)
        rhs += self.kept_force(forcing, t_next)
        rhs *= 0.5 * dt
        rhs += np.multiply(flux, 1.5 * dt, out=self.terms)
        rhs -= np.multiply(previous, 0.5 * dt, out=previous)
        np.multiply(self.A, v, out=v)
        v += self.project(rhs)
        v /= self.B
        self.n0, self.n1 = flux, previous
        return v


# ---------------------------------------------------------------------------
# run drivers

class _Member:
    """One run of _lockstep or _backgrounds: its state, its workspace, the
    series it records (diag_columns at every step, snapshots at
    snapshot_stride) and the wall seconds spent on them; its workspace
    counts the evaluations of its force.

    The run holds its state on the 2/3-rule modes K alone (state, in the
    layout of _Workspace): the initial field is taken onto K, which masks
    it, and Leray-projected there.  Its label's probes (PROBES) are
    resolved once, and the record of step i runs each of them on that
    state at tgrid[i]; only a snapshot copies it onto the full lattice
    (_Workspace.to_full).  Step i goes from tgrid[i] to tgrid[i + 1], so a
    force norm reads the force that the step ending at tgrid[i] has
    already evaluated (_Workspace.kept_force).

    Given a trajectory directory, the run streams each snapshot, as it
    takes it, to a file of its snapshots.partial directory
    (_partial_snapshot_dir) and keeps only the path; without one it takes
    no snapshots.
    """

    def __init__(self, cfg: SolverConfig, label: str, directory=None):
        t0 = time.perf_counter()
        grid = cfg.grid
        if cfg.initial is None:
            raise ValueError("missing initial field")
        if cfg.initial.grid != grid:
            raise ValueError("initial field grid mismatch")
        self.cfg, self.label, self.n = cfg, label, cfg.n_steps
        self.tgrid = cfg.times
        self.ws = ws = _Workspace(grid, cfg.nu, cfg.dt)
        self.state = ws.project(ws.to_kept(cfg.initial.spectral()))
        # (values, columns, whether taken once at step 0) of each probe
        self.probes = [(p.values, cols, p.steady and cfg.forcing.steady)
                       for p, cols in _probes(label)]
        self.diag = {"t": self.tgrid} | {
            c: np.empty(self.n + 1) for _, cols, _ in self.probes
            for c in cols}
        self.snapdir = None if directory is None \
            else _partial_snapshot_dir(directory)
        self.snapshot_paths = []
        self._record(0)
        self.seconds = time.perf_counter() - t0

    def _record(self, i):
        cfg, diag = self.cfg, self.diag
        t, v = self.tgrid[i], self.state
        for values, columns, once in self.probes:
            if once and i:
                continue
            at = slice(None) if once else i
            for c, x in zip(columns, values(self, v, t, len(columns))):
                diag[c][at] = x
        if self.snapdir is None or (i % cfg.snapshot_stride and i != self.n):
            return
        path = os.path.join(self.snapdir,
                            f"snap_{len(self.snapshot_paths):06d}.npz")
        save_field(path, Field(cfg.grid, self.ws.to_full(v), t))
        self.snapshot_paths.append(path)

    def advance(self, i, background=None):
        """Step from step i to step i + 1, with the background of
        _Workspace.flux_rhs at step i, and record it."""
        t0 = time.perf_counter()
        self.ws.step(self.state, self.tgrid[i], self.tgrid[i + 1],
                     self.cfg.forcing, background)
        self._record(i + 1)
        self.seconds += time.perf_counter() - t0

    def trajectory(self) -> Trajectory:
        return Trajectory(
            grid=self.cfg.grid,
            diag=self.diag,
            label=self.label,
            step_seconds=self.seconds,
            force_evaluations=self.ws.force_evaluations,
            snapshot_paths=self.snapshot_paths,
        )


def _lockstep(lead: _Member, backgrounds=None):
    """The time loop of every run: lead takes its n steps, step i with the
    i-th array of backgrounds (_backgrounds) as the background of
    _Workspace.flux_rhs, if given, else none.

    The steps are counted before an array is asked for, so none is asked
    for after the last step.
    """
    items = itertools.repeat(None) if backgrounds is None else backgrounds
    for i, b in zip(range(lead.n), items):
        lead.advance(i, b)


def _backgrounds(base_cfg: SolverConfig, base_dir, r: int, n: int,
                 direct_cfg=None, direct_dir=None):
    """The backgrounds of n steps of a 3D run around the 2D run of base_cfg
    (worker.Stream), each yielded in one array of shape (2, N, N, 1) that
    the next overwrites: the physical values of the base state, mean
    included, constant along x3.

    The base run is made here, streaming its snapshots into base_dir
    (_Member), and its state at t = 0 is yielded once on its own, so that
    the 3D run is made after it; then the direct run of direct_cfg, if
    given, is made, streaming into direct_dir.  For step i the array takes
    base's state at the start of the step, base takes its r substeps, and
    only then is the array yielded; after it, the direct run takes its
    step i.  So the runs are made, and at each step they step, in the order
    base, 3D run, direct run, as one process doing it in turn would: a base
    that is refused or blows up yields nothing more, and the direct run's
    exception at its making or at step i is raised where the next array is
    asked for.  Every run is made where the generator runs, the process
    that steps it.  Only the base velocity is handed on, never the base
    trajectory.  Returns the trajectories (base, direct or None).
    """
    base = _Member(base_cfg, "2d_base", base_dir)
    item = base.ws.physical(base.state)[..., np.newaxis]
    yield item  # the base is made: the 3D run may be made now
    direct = None if direct_cfg is None \
        else _Member(direct_cfg, "direct", direct_dir)
    for i in range(n):
        if i:  # the state at t = 0 is in item already
            base.ws.physical(base.state, out=item[..., 0])
        for j in range(i * r, (i + 1) * r):
            base.advance(j)
        yield item
        if direct is not None:
            direct.advance(i)
    return base.trajectory(), \
        None if direct is None else direct.trajectory()


def _run_alone(cfg: SolverConfig, label: str, directory=None) -> Trajectory:
    run = _Member(cfg, label, directory)
    _lockstep(run)
    return run.trajectory()


def run_2d_base(cfg: SolverConfig, directory=None) -> Trajectory:
    """Evolve the 2D base flow; given a trajectory directory, stream its
    snapshots there (_Member)."""
    if cfg.grid.dim != 2:
        raise ValueError("run_2d_base needs a 2D grid")
    return _run_alone(cfg, "2d_base", directory)


def run_perturbation(cfg: SolverConfig, base_cfg: SolverConfig,
                     direct_cfg: SolverConfig | None = None,
                     directories=None) -> tuple:
    """Evolve the 3D perturbation of cfg around the 2D base flow of
    base_cfg, which one forked child makes, steps beside it and streams to
    it (_backgrounds, worker.Stream), and, if direct_cfg is given, the full
    3D run of direct_cfg, labelled direct (diag_columns), which the same
    child makes and steps after the base.  This process makes and steps
    the perturbation alone.

    The base dt must divide dt, and all runs end at cfg.t_end; the direct
    run shares the perturbation's grid and dt.  Returns the trajectories
    (base, perturbation, direct or None); the base one records in
    wait_seconds how long this call waited for the child, from the making
    of the base run to the final join.  The runs are made, and at each step
    they step, in the order base, perturbation, direct run, and the first
    BlowUpError (or any other exception, a config that _Member refuses
    included) is the one a loop making and stepping them in turn would
    raise: the perturbation is made only once the child has sent the
    base's state at t = 0.  Leaving the call by an exception kills and
    reaps the child at once, so a blow-up ends the base and direct runs
    where they are.

    Given directories, one trajectory directory per run in the order
    returned, each run streams its snapshots into its own (_Member) from
    the process that steps it: the base and direct runs from the child.
    """
    grid, g2 = cfg.grid, base_cfg.grid
    if grid.dim != 3:
        raise ValueError("run_perturbation needs a 3D grid")
    if g2.dim != 2 or g2.N != grid.N or g2.L != grid.L:
        raise ValueError("base and perturbation grids are incompatible")
    r = round(cfg.dt / base_cfg.dt)
    if r < 1 or abs(r * base_cfg.dt - cfg.dt) > 1e-9 * cfg.dt:
        raise ValueError(f"base dt {base_cfg.dt:g} does not divide the "
                         f"perturbation dt {cfg.dt:g}")
    if base_cfg.n_steps != r * cfg.n_steps:
        raise ValueError(f"base run ends at {base_cfg.t_end:g}, the "
                         f"perturbation run at {cfg.t_end:g}")
    if direct_cfg is not None and (direct_cfg.grid != grid
                                   or direct_cfg.dt != cfg.dt
                                   or direct_cfg.n_steps != cfg.n_steps):
        raise ValueError("the direct run must share the perturbation's "
                         "grid, dt and t_end")
    base_dir, pert_dir, direct_dir = directories or (None, None, None)
    with Stream("base", (2,) + g2.shape_phys + (1,), _backgrounds, base_cfg,
                base_dir, r, cfg.n_steps, direct_cfg, direct_dir) \
            as backgrounds:
        next(backgrounds)  # the base run is made and finite at t = 0
        pert = _Member(cfg, "perturbation", pert_dir)
        _lockstep(pert, backgrounds)
        base, direct = backgrounds.join()
    base.wait_seconds = backgrounds.wait_seconds
    return base, pert.trajectory(), direct


def run_full_3d(cfg: SolverConfig, directory=None) -> Trajectory:
    """Evolve the full 3D equations; given a trajectory directory, stream
    its snapshots there (_Member)."""
    if cfg.grid.dim != 3:
        raise ValueError("run_full_3d needs a 3D grid")
    return _run_alone(cfg, "full_3d", directory)


# ---------------------------------------------------------------------------
# analytic reference

def taylor_green_exact(grid: TorusGrid, nu: float, t: float,
                       amplitude: float = 1.0) -> Field:
    """(sin x1 cos x2, -cos x1 sin x2[, 0]) * exp(-2 nu t); needs L=2*pi.
    On a 3D grid it is the 2D vortex lifted by extrude_field."""
    if abs(grid.L - 2.0 * np.pi) > 1e-12:
        raise ValueError("Taylor-Green reference requires L = 2*pi")
    if grid.dim == 3:
        return extrude_field(taylor_green_exact(
            TorusGrid(grid.L, grid.N, 2), nu, t, amplitude), grid)
    x1, x2 = grid.coords
    decay = amplitude * math.exp(-2.0 * nu * t)
    phys = np.zeros((2,) + grid.shape_phys)
    phys[0] = decay * np.sin(x1) * np.cos(x2)
    phys[1] = -decay * np.cos(x1) * np.sin(x2)
    return physical_field(grid, phys, t)


# ---------------------------------------------------------------------------
# trajectory persistence

def _partial_snapshot_dir(directory) -> str:
    """<directory>/snapshots.partial, made empty for the snapshots of a run
    about to be written."""
    os.makedirs(directory, exist_ok=True)
    partial = os.path.join(directory, "snapshots.partial")
    shutil.rmtree(partial, ignore_errors=True)
    os.makedirs(partial)
    return partial


def save_trajectory(traj: Trajectory, directory) -> list:
    """Publish the snapshots a run streamed into its directory and write
    its per-step CSV; the paths of its snapshot files.

    Layout: snapshots/snap_NNNNNN.npz (at snapshot_stride) and
    diagnostics.csv (diag_columns, every step, a table of _write_table,
    which load_trajectory reads back bit for bit).  The run's configuration
    is not written here: the caller keeps it (experiments' spec.json) and
    hands it to load_trajectory.

    <directory>/snapshots.partial moves to snapshots/, replacing an
    earlier one, and traj.snapshot_paths follow it.  diagnostics.csv comes
    last, moved into place whole (_write_atomic), so a directory with one
    is complete.  A trajectory whose run streamed no snapshots there (a run
    given no directory, or one already saved) is refused with ValueError
    before anything is written.
    """
    partial = os.path.abspath(os.path.join(directory, "snapshots.partial"))
    files = traj.snapshot_paths
    if not files or os.path.abspath(os.path.dirname(files[0])) != partial:
        raise ValueError(f"the {traj.label} run streamed no snapshots into "
                         f"{partial}: give the run that directory")
    snapdir = os.path.join(directory, "snapshots")
    shutil.rmtree(snapdir, ignore_errors=True)
    os.replace(partial, snapdir)
    traj.snapshot_paths = [os.path.join(snapdir, os.path.basename(p))
                           for p in files]
    _write_table(os.path.join(directory, "diagnostics.csv"), traj.diag,
                 diag_columns(traj.label))
    return traj.snapshot_paths


def load_trajectory(directory, cfg: SolverConfig, label: str) -> Trajectory:
    """Rebuild the scalar series of a save_trajectory directory of the run
    of cfg labelled label.

    The per-step series are read from diagnostics.csv exactly as the run
    wrote them, one array per column; _read_table refuses the file when
    it is missing, its header or rows are not the columns of label on
    cfg's grid or a value is not finite, and series at times other than
    cfg's step times (cfg.times) are refused too: rows out of order,
    missing or extra, and a negative value in a column of a probe that is
    not signed (PROBES).  Nothing is re-evaluated, and neither snapshot
    files nor any other file of the directory are read, so the trajectory
    has no snapshot_paths; field.load_field reads a snapshot.
    """
    path = os.path.join(directory, "diagnostics.csv")
    diag = _read_table(path, diag_columns(label))
    if not np.array_equal(diag["t"], cfg.times):
        raise FileNotFoundError(f"{path}: the series are not at the run's "
                                f"{cfg.n_steps} steps of dt={cfg.dt:g}; "
                                "run the experiment again")
    for c in [c for p, cols in _probes(label) if not p.signed for c in cols]:
        if (diag[c] < 0).any():
            raise FileNotFoundError(f"{path}: column {c} holds a negative "
                                    "value; run the experiment again")
    return Trajectory(grid=cfg.grid, diag=diag, label=label)


def _write_atomic(path, text: str):
    """Write text to path through a temporary file moved into place with
    os.replace, so that a command killed while writing leaves the earlier
    file or none, never a part of one: the writer of every text file.  An
    exception, KeyboardInterrupt included, removes the temporary file."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _write_table(path, table: dict, columns):
    """The arrays table[c], for c in columns, as the columns of a CSV file
    under a header of those names, written by _write_atomic.  Each value is
    written as repr(float(x)), the shortest text that reads back to the
    same double."""
    rows = np.column_stack([table[c] for c in columns])
    lines = [",".join(columns)] \
        + [",".join(repr(float(x)) for x in row) for row in rows]
    _write_atomic(path, "\n".join(lines) + "\n")


def _read_table(path, columns) -> dict:
    """{c: array} for c in columns, from a file of _write_table.

    A missing file, a header other than columns, a row of another length
    and a value that is not finite are refused with FileNotFoundError, so
    that verify exits with code 2 and asks for a new run instead of
    checking series that are not the run's.
    """
    columns = list(columns)
    if not os.path.exists(path):
        raise FileNotFoundError(f"{path} is missing; run the experiment "
                                "again")
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header != columns:
            raise FileNotFoundError(f"{path} has the columns {header}, not "
                                    f"{columns}; run the experiment again")
        try:
            rows = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError:
            rows = np.empty((0, 0))
    if rows.shape[1] != len(columns):
        raise FileNotFoundError(f"{path} has rows that do not match its "
                                "header; run the experiment again")
    if not np.all(np.isfinite(rows)):
        raise FileNotFoundError(f"{path} holds a value that is not finite; "
                                "run the experiment again")
    return dict(zip(columns, rows.T))
