"""Norms and function-space diagnostics for periodic fields.

L2-based quantities are computed spectrally (Parseval with exact mode
weights); other Lebesgue exponents use collocation quadrature on a 2N-padded
grid to reduce aliasing in integrals of |u|^p.
"""

import numpy as np

from .field import (Field, gradient_data, gradient_parts, physical_padded,
                    spectral_field)
from .grid import TorusGrid

DEFAULT_SIGMA = 4.0


def _parseval_sum(grid: TorusGrid, spec: np.ndarray, weight="l2") -> float:
    """volume * sum over the full lattice of the modewise weight named
    weight (TorusGrid.parseval_weights) times |spec|^2."""
    mag = np.sum(np.abs(spec) ** 2, axis=0)
    return float(grid.volume * np.sum(grid.parseval_weights[weight] * mag))


def l2_norm_sq(field: Field) -> float:
    return _parseval_sum(field.grid, field.spectral())


def grad_l2_norm_sq(field: Field) -> float:
    return _parseval_sum(field.grid, field.spectral(), "grad")


def sobolev_norm_sq(field: Field, s: int) -> float:
    """Squared H^s norm: sum_{|alpha| <= s} ||D^alpha u||_L2^2.

    Derivative tuples are counted with order, so the modewise weight is
    1 + |k|^2 + ... + |k|^(2s).
    """
    if s not in (0, 1, 2):
        raise ValueError(f"s must be 0, 1 or 2, got {s}")
    return _parseval_sum(field.grid, field.spectral(), ("l2", "h1", "h2")[s])


def lp_norm(field: Field, p: float, pad_factor: int = 2) -> float:
    """L_p norm of the pointwise Euclidean magnitude |u(x)|."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if p == 2:
        return float(np.sqrt(l2_norm_sq(field)))
    return _quadrature_norm(field.grid,
                            _padded_magnitude(_components(field), pad_factor),
                            p, pad_factor)


def _components(field: Field):
    """The single-component Fields of field, in its representation."""
    return (Field(field.grid, field.data[c:c + 1], field.representation)
            for c in range(field.ncomp))


def _gradient_components(field: Field):
    """The first derivatives of field as single-component spectral Fields,
    one at a time, in gradient_data's order."""
    return (spectral_field(field.grid, d)
            for d in gradient_parts(field.grid, field.spectral()))


def _padded_magnitude(parts, pad_factor: int = 2) -> np.ndarray:
    """Pointwise Euclidean magnitude |u(x)| on the padded grid, from the
    single-component Fields of u.

    Each part is padded on its own, the second and later ones into one
    scratch array, and its square added into one accumulator in order,
    which equals sqrt(sum(physical_padded(u)**2, axis=0)) bit for bit
    without holding every padded component at once.
    """
    acc = scratch = None
    for part in parts:
        if acc is None:
            acc = physical_padded(part, pad_factor)[0]
            np.square(acc, out=acc)
        else:
            scratch = physical_padded(part, pad_factor, out=scratch)
            acc += np.square(scratch[0], out=scratch[0])
    return np.sqrt(acc, out=acc)


def _quadrature_norm(grid: TorusGrid, mag: np.ndarray, p: float,
                     pad_factor: int = 2) -> float:
    """L_p norm of a padded-grid magnitude by the collocation rule."""
    if np.isinf(p):
        return float(mag.max())
    cell = (grid.L / (pad_factor * grid.N)) ** grid.dim
    return float((cell * np.sum(mag**p)) ** (1.0 / p))


def gradient_field(field: Field) -> Field:
    """All first derivatives stacked as one (ncomp*dim)-component field."""
    return spectral_field(field.grid, gradient_data(field.grid, field.spectral()),
                          time_stamp=field.time_stamp)


def compute_norm_report(field: Field, sigma: float = DEFAULT_SIGMA) -> dict:
    """{"time_stamp", "grad_l3_sq", "w1_sigma"}: the time_stamp of field,
    ||grad field||_{L3}^2 and the W^1_sigma norm ||field||_{L^sigma} +
    ||grad field||_{L^sigma}, for sigma > 3.  The field and its gradient
    are padded once each, one component at a time, and every norm is read
    from those two magnitudes.  The reference of the 2D base run's
    per-step norms (solver._Workspace.base_norms), which equal it bit for
    bit on the run's mean-free state."""
    if sigma <= 3:
        raise ValueError(f"sigma must exceed 3, got {sigma}")
    grid = field.grid
    mag = _padded_magnitude(_components(field))
    grad_mag = _padded_magnitude(_gradient_components(field))
    return {
        "time_stamp": field.time_stamp,
        "grad_l3_sq": _quadrature_norm(grid, grad_mag, 3) ** 2,
        "w1_sigma": _quadrature_norm(grid, mag, sigma)
        + _quadrature_norm(grid, grad_mag, sigma),
    }


def poincare_ratio(field: Field, relative_to: str = "h1") -> float:
    """Sharpness probe for the torus Poincare inequality on mean-free fields.

    relative_to="h1": ||grad u||^2 / ||u||_H1^2   (>= kappa^2/(1+kappa^2))
    relative_to="l2": ||grad u||^2 / ||u||_L2^2   (>= kappa^2)
    """
    from .field import mean

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


def sharp_poincare_h1(grid: TorusGrid) -> float:
    """Sharp discrete constant c with c*||u||_H1^2 <= ||grad u||_L2^2."""
    k2 = grid.kappa**2
    return k2 / (1.0 + k2)


def sharp_poincare_h2(grid: TorusGrid) -> float:
    """Sharp discrete constant c with c*||u||_H2^2 <= ||Delta u||_L2^2."""
    k2 = grid.kappa**2
    return k2**2 / (1.0 + k2 + k2**2)


def sharp_dissipation_h2(grid: TorusGrid) -> float:
    """Sharp c with c*||u||_H2^2 <= ||grad u||^2 + ||grad^2 u||^2 (mean-free)."""
    k2 = grid.kappa**2
    return (k2 + k2**2) / (1.0 + k2 + k2**2)
