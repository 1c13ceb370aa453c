"""Periodic vector/scalar fields, held as their spectral coefficients.

Spectral data uses real-to-complex (rfftn) Hermitian storage and is
normalized so that the k=0 coefficient equals the spatial mean.  A field
carries one leading component axis: velocity fields have grid.dim
components, scalars one.  physical_field builds a field from collocation
values and Field.physical transforms back.  Every first derivative, here
and in the solver's nonlinear kernel, multiplies by i k on one lattice,
grid.k_deriv, which is zero on each axis' Nyquist plane.
"""

import json

import numpy as np

from .grid import TorusGrid

SNAPSHOT_FORMAT_VERSION = 2


class Field:
    """A field on a TorusGrid, held as its spectral coefficients.

    Attributes:
        grid: the underlying TorusGrid
        data: complex ndarray of shape (ncomp,) + grid.shape_spec
        time_stamp: simulation time in seconds
    """

    __slots__ = ("grid", "data", "time_stamp")

    def __init__(self, grid: TorusGrid, data: np.ndarray,
                 time_stamp: float = 0.0):
        data = np.asarray(data)
        if data.shape[1:] != grid.shape_spec:
            raise ValueError(f"data shape {data.shape} does not match the "
                             f"spectral shape (ncomp,)+{grid.shape_spec}")
        self.grid = grid
        self.data = data
        self.time_stamp = float(time_stamp)

    @property
    def ncomp(self) -> int:
        return self.data.shape[0]

    def spectral(self) -> np.ndarray:
        """Spectral coefficients, the field's own data."""
        return self.data

    def physical(self) -> np.ndarray:
        """Physical collocation values, as a fresh array."""
        return physical_data(self.grid, self.data)

    def __repr__(self):
        return (f"Field(grid=N{self.grid.N}^{self.grid.dim}, ncomp={self.ncomp}, "
                f"t={self.time_stamp:g})")


def spectral_data(grid: TorusGrid, phys: np.ndarray, out=None) -> np.ndarray:
    """Spectral coefficients of physical values, into out if given."""
    axes = tuple(range(1, grid.dim + 1))
    return np.fft.rfftn(phys, axes=axes, norm="forward", out=out)


def physical_data(grid: TorusGrid, spec: np.ndarray, out=None) -> np.ndarray:
    """Physical values of spectral coefficients, into out if given."""
    axes = tuple(range(1, grid.dim + 1))
    return np.fft.irfftn(spec, s=grid.shape_phys, axes=axes, norm="forward",
                         out=out)


def physical_field(grid: TorusGrid, phys: np.ndarray,
                   time_stamp: float = 0.0) -> Field:
    """The field of collocation values phys: shape (ncomp,) +
    grid.shape_phys, or grid.shape_phys for a scalar."""
    phys = np.asarray(phys)
    if phys.ndim == grid.dim:
        phys = phys[np.newaxis]
    if phys.shape[1:] != grid.shape_phys:
        raise ValueError(f"data shape {phys.shape} does not match the "
                         f"physical shape (ncomp,)+{grid.shape_phys}")
    return Field(grid, spectral_data(grid, phys), time_stamp)


def derivative_data(grid: TorusGrid, spec: np.ndarray, axis: int) -> np.ndarray:
    """Modewise i k of spec along axis, on grid.k_deriv: zero on the axis'
    Nyquist plane, whose derivative is not representable on the collocation
    grid, so fields stay real."""
    if not 0 <= axis < grid.dim:
        raise ValueError(f"axis {axis} invalid for dim {grid.dim}")
    return spec * (1j * grid.k_deriv[axis])


def spectral_derivative(field: Field, direction: int) -> Field:
    """Differentiate along `direction` by modewise i k."""
    out = derivative_data(field.grid, field.spectral(), direction)
    return Field(field.grid, out, field.time_stamp)


def gradient_data(grid: TorusGrid, spec: np.ndarray) -> np.ndarray:
    """Stack of first derivatives of each component along every axis.

    Shape (ncomp * dim,) + spectral shape, ordered component-major.
    """
    return np.concatenate([derivative_data(grid, spec[c:c + 1], ax)
                           for c in range(spec.shape[0])
                           for ax in range(grid.dim)], axis=0)


def laplacian_data(grid: TorusGrid, spec: np.ndarray) -> np.ndarray:
    return -grid.k_sq * spec


def divergence_data(grid: TorusGrid, spec: np.ndarray) -> np.ndarray:
    if spec.shape[0] != grid.dim:
        raise ValueError("divergence needs one component per grid axis")
    out = np.zeros(grid.shape_spec, dtype=complex)
    for ax in range(grid.dim):
        out += derivative_data(grid, spec[ax:ax + 1], ax)[0]
    return out


def divergence_linf(field: Field) -> float:
    """Max modewise |i k . v_hat|, normalized by the largest coefficient."""
    spec = field.spectral()
    div = divergence_data(field.grid, spec)
    scale = np.abs(spec).max() * np.sqrt(field.grid.k_sq.max())
    if scale == 0.0:
        return 0.0
    return float(np.abs(div).max() / scale)


def leray_data(grid: TorusGrid, spec: np.ndarray, out=None) -> np.ndarray:
    """Leray projection of spectral data, into out (which may be spec)."""
    # on grid.k_deriv, the lattice of derivative_data, so the projection
    # annihilates exactly the divergence the derivative measures; k=0 and
    # pure-Nyquist modes pass through untouched
    k_sq = grid.k_sq_deriv_divisor
    kdotv = np.zeros(grid.shape_spec, dtype=complex)
    term = np.empty(grid.shape_spec, dtype=complex)
    for ax in range(grid.dim):
        kdotv += np.multiply(grid.k_deriv[ax], spec[ax], out=term)
    if out is None:
        out = np.empty_like(spec)
    for ax in range(grid.dim):
        np.multiply(grid.k_deriv[ax], kdotv, out=term)
        term /= k_sq
        np.subtract(spec[ax], term, out=out[ax])
    return out


def mean_free(field: Field) -> Field:
    """Subtract the spatial mean (zero the k=0 coefficient)."""
    out = field.spectral().copy()
    zero = (slice(None),) + (0,) * field.grid.dim
    out[zero] = 0.0
    return Field(field.grid, out, field.time_stamp)


def random_divfree_field(grid: TorusGrid, seed: int, spectrum_decay: float = 2.0,
                         target_h1: float | None = None) -> Field:
    """Reproducible random mean-free divergence-free field.

    Coefficients are Gaussian with amplitude |k|^(-spectrum_decay), dealiased,
    Leray-projected.  With target_h1 set, the field is rescaled to that H^1
    norm.
    """
    if spectrum_decay <= 0:
        raise ValueError("spectrum_decay must be positive")
    rng = np.random.default_rng(seed)
    phys = rng.standard_normal((grid.dim,) + grid.shape_phys)
    spec = spectral_data(grid, phys)
    amp = np.where(grid.k_sq > 0, grid.k_sq, 1.0) ** (-spectrum_decay / 2.0)
    spec *= amp * grid.dealias_mask
    zero = (slice(None),) + (0,) * grid.dim
    spec[zero] = 0.0
    out = Field(grid, leray_data(grid, spec))
    if target_h1 is not None:
        from .norms import sobolev_norm_sq
        h1 = np.sqrt(sobolev_norm_sq(out, 1))
        if h1 == 0.0:
            raise ValueError("cannot normalize a zero field")
        out.data *= target_h1 / h1
    return out


def extrude_field(field2d: Field, grid3: TorusGrid) -> Field:
    """Lift a 2D velocity field to the 3D box, invariant along x3 with a
    zero third component: the 2D physical values, extruded along x3, are
    transformed on the 3D grid (physical_field)."""
    g2 = field2d.grid
    if g2.dim != 2 or grid3.dim != 3:
        raise ValueError("extrude_field lifts 2D fields onto a 3D grid")
    if g2.N != grid3.N or g2.L != grid3.L:
        raise ValueError("grids are incompatible")
    phys = np.zeros((3,) + grid3.shape_phys)
    phys[:2] = field2d.physical()[..., np.newaxis]
    return physical_field(grid3, phys, field2d.time_stamp)


def physical_padded(field: Field, factor: int = 2) -> np.ndarray:
    """Collocation values on a refined (factor*N, factor >= 2) grid via
    Fourier upsampling, as a fresh array.

    Exact trigonometric interpolation for band-limited (e.g. dealiased)
    fields; used for aliasing-reduced quadrature of |u|^p integrals.

    Every component's spectral coefficients are zero-padded and
    inverse-transformed at once, one axis at a time (full axes first, the
    rfft axis last), so no line of padding zeros is ever transformed.  Each
    Nyquist plane is split in half across +-N/2, which makes the result
    agree to roundoff with resampling the physical values axis by axis,
    band-limited or not.
    """
    grid = field.grid
    if factor < 2:
        raise ValueError(f"pad factor must be >= 2, got {factor}")
    M, h = factor * grid.N, grid.N // 2
    vals = field.spectral()
    for ax in range(1, grid.dim):
        shape = list(vals.shape)
        shape[ax] = M
        padded = np.zeros(shape, dtype=complex)
        src = np.moveaxis(vals, ax, 0)
        dst = np.moveaxis(padded, ax, 0)
        dst[:h] = src[:h]
        dst[M - h + 1:] = src[h + 1:]
        dst[h] = dst[M - h] = 0.5 * src[h]
        # coefficients are normalized to the mean: no 1/M on the inverse
        vals = np.fft.ifft(padded, axis=ax, norm="forward")
    padded = np.zeros(vals.shape[:-1] + (M // 2 + 1,), dtype=complex)
    padded[..., :h] = vals[..., :h]
    # irfft at size N reads only the real part of the Nyquist column
    padded[..., h] = 0.5 * vals[..., h].real
    return np.fft.irfft(padded, n=M, axis=-1, norm="forward")


def save_field(path, field: Field) -> None:
    """Write a field snapshot.

    Layout (stable, version 2): a deflated .npz archive
    (np.savez_compressed) with
      meta: JSON string {"version", "L", "N", "dim", "ncomp", "time_stamp"}
      data: the spectral coefficients, shape (ncomp,)+grid.shape_spec
    Deflate changes the container only: np.load, and so load_field, reads
    the members of a deflated and of an uncompressed archive alike.
    """
    meta = {
        "version": SNAPSHOT_FORMAT_VERSION,
        "L": field.grid.L,
        "N": field.grid.N,
        "dim": field.grid.dim,
        "ncomp": field.ncomp,
        "time_stamp": field.time_stamp,
    }
    np.savez_compressed(path, meta=np.array(json.dumps(meta)),
                        data=field.data)


def load_field(path) -> Field:
    """Read a field snapshot written by save_field; ValueError for an
    archive of any other format version."""
    with np.load(path, allow_pickle=False) as npz:
        meta = json.loads(str(npz["meta"]))
        data = npz["data"]
    if meta.get("version") != SNAPSHOT_FORMAT_VERSION:
        raise ValueError(f"unsupported snapshot version {meta.get('version')}")
    grid = TorusGrid(L=meta["L"], N=meta["N"], dim=meta["dim"])
    return Field(grid, data, meta["time_stamp"])
