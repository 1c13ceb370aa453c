"""Norms and function-space diagnostics for periodic fields.

L2-based quantities are computed spectrally (Parseval with exact mode
weights); the L^3 and L^sigma norms of the base run's checks use
collocation quadrature on a 2N-padded grid to reduce aliasing in integrals
of |u|^p.
"""

import numpy as np

from .field import Field, gradient_data, physical_padded
from .grid import TorusGrid

DEFAULT_SIGMA = 4.0  # the base run's W^{1,sigma} norm; 3.8 needs sigma > 3


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


def _padded_magnitude(field: Field) -> np.ndarray:
    """Pointwise Euclidean magnitude |u(x)| on the 2N grid."""
    return np.sqrt(np.sum(physical_padded(field) ** 2, axis=0))


def _quadrature_norm(grid: TorusGrid, mag: np.ndarray, p: float) -> float:
    """L_p norm, p finite, of a 2N-grid magnitude by the collocation
    rule."""
    cell = (grid.L / (2 * grid.N)) ** grid.dim
    return float((cell * np.sum(mag**p)) ** (1.0 / p))


def gradient_field(field: Field) -> Field:
    """All first derivatives stacked as one (ncomp*dim)-component field."""
    return Field(field.grid, gradient_data(field.grid, field.spectral()),
                 field.time_stamp)


def w1_sigma_norms(grid: TorusGrid, mag: np.ndarray,
                   grad_mag: np.ndarray) -> tuple:
    """(||grad u||_{L3}^2, ||u||_{L^sigma} + ||grad u||_{L^sigma}) at sigma
    = DEFAULT_SIGMA by the collocation rule on the 2N grid, from the padded
    magnitudes of u and of its gradient."""
    return (_quadrature_norm(grid, grad_mag, 3) ** 2,
            _quadrature_norm(grid, mag, DEFAULT_SIGMA)
            + _quadrature_norm(grid, grad_mag, DEFAULT_SIGMA))


def compute_norm_report(field: Field) -> dict:
    """{"time_stamp", "grad_l3_sq", "w1_sigma"}: the time_stamp of field,
    ||grad field||_{L3}^2 and the W^1_sigma norm ||field||_{L^sigma} +
    ||grad field||_{L^sigma} (w1_sigma_norms of the padded magnitudes of
    field and of gradient_field(field)).  The reference of the 2D base
    run's per-step norms (solver._Workspace.base_norms), which equal it bit
    for bit on the run's mean-free state."""
    grad_l3_sq, w1_sigma = w1_sigma_norms(
        field.grid, _padded_magnitude(field),
        _padded_magnitude(gradient_field(field)))
    return {"time_stamp": field.time_stamp, "grad_l3_sq": grad_l3_sq,
            "w1_sigma": w1_sigma}


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
