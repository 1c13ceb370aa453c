"""Reference computations the tests compare the solver against."""

import numpy as np

from torusflow.field import Field
from torusflow.norms import _parseval_sum, lp_norm, sobolev_norm_sq


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


def hessian_l2_norm_sq(field: Field) -> float:
    """Squared L2 norm of all second derivatives (ordered pairs) by
    Parseval: the modewise weight is |k|^4, built from the discrete
    derivative's wavenumbers, so it equals the L2 norm of the gradient of
    gradient_field."""
    k_sq = sum(ka**2 for ka in field.grid.k_deriv)
    return _parseval_sum(field.grid, field.spectral(), k_sq ** 2)


def embedding_ratio_l6_h1(field: Field) -> float:
    """||u||_L6^2 / ||u||_H1^2 for mean-free fields; probes the L6 embedding."""
    h1 = sobolev_norm_sq(field, 1)
    if h1 == 0.0:
        raise ValueError("embedding ratio of a zero field")
    return lp_norm(field, 6) ** 2 / h1
