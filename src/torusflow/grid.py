"""Discretization of the periodic box [0, L]^d.

Fields live on a uniform collocation grid with N points per direction and
are represented spectrally through real-to-complex FFTs (Hermitian storage:
the last axis holds N//2 + 1 modes).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class TorusGrid:
    """Uniform grid on the torus [0, L]^dim with FFT wavenumber lattice."""

    L: float
    N: int
    dim: int

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        if not (np.isfinite(self.L) and self.L > 0):
            raise ValueError(f"box length must be positive and finite, "
                             f"got {self.L}")
        if self.N < 4 or self.N % 2 != 0:
            raise ValueError(f"N must be even and >= 4, got {self.N}")

    def __reduce__(self):
        # pickled by its parameters: the cached arrays are rebuilt on demand
        return type(self), (self.L, self.N, self.dim)

    @property
    def dx(self) -> float:
        return self.L / self.N

    @property
    def kappa(self) -> float:
        """Smallest nonzero wavenumber magnitude, 2*pi/L."""
        return 2.0 * np.pi / self.L

    @property
    def volume(self) -> float:
        return self.L**self.dim

    @property
    def shape_phys(self) -> tuple:
        return (self.N,) * self.dim

    @property
    def shape_spec(self) -> tuple:
        return (self.N,) * (self.dim - 1) + (self.N // 2 + 1,)

    @cached_property
    def modes(self) -> tuple:
        """Integer mode numbers m per axis, broadcastable over spectral shape."""
        full = np.fft.fftfreq(self.N, d=1.0 / self.N).astype(np.int64)
        half = np.arange(self.N // 2 + 1, dtype=np.int64)
        axes = []
        for ax in range(self.dim):
            m = half if ax == self.dim - 1 else full
            shape = [1] * self.dim
            shape[ax] = m.size
            axes.append(m.reshape(shape))
        return tuple(axes)

    @cached_property
    def k(self) -> tuple:
        """Wavenumber arrays (2*pi/L * m) per axis, broadcastable."""
        return tuple(self.kappa * m.astype(np.float64) for m in self.modes)

    @cached_property
    def k_sq(self) -> np.ndarray:
        """|k|^2 on the spectral lattice."""
        out = np.zeros(self.shape_spec)
        for ka in self.k:
            out = out + ka**2
        return out

    @cached_property
    def sobolev_weights(self) -> tuple:
        """Modewise H^s weights 1 + |k|^2 + ... + |k|^(2s), for s = 0, 1, 2."""
        return tuple(sum(self.k_sq**j for j in range(s + 1))
                     for s in range(3))

    @cached_property
    def k_deriv(self) -> tuple:
        """Wavenumbers of the discrete first derivative: as `k` but zero on
        each axis' Nyquist plane, where an odd derivative of a real field is
        not representable.  The one lattice of every first derivative: the
        nonlinear kernel, field.derivative_data and the Leray projection."""
        out = []
        for ax, m in enumerate(self.modes):
            nyq = self.N // 2 if ax == self.dim - 1 else -(self.N // 2)
            out.append(np.where(m == nyq, 0.0, self.kappa * m))
        return tuple(out)

    @cached_property
    def k_sq_deriv_divisor(self) -> np.ndarray:
        """|k|^2 built from k_deriv, with its zeros (k=0, pure-Nyquist
        modes) replaced by 1: the divisor of the Leray projection."""
        k_sq = sum(ka**2 for ka in self.k_deriv)
        return np.where(k_sq > 0, k_sq, 1.0)

    @cached_property
    def hermitian_weight(self) -> np.ndarray:
        """Multiplicity of each stored mode in the full spectrum.

        rfft storage drops the conjugate half along the last axis; interior
        modes there stand for a conjugate pair and count twice in Parseval
        sums.
        """
        w = np.full(self.N // 2 + 1, 2.0)
        w[0] = 1.0
        w[-1] = 1.0     # the Nyquist mode: N is even
        shape = [1] * self.dim
        shape[-1] = w.size
        return np.broadcast_to(w.reshape(shape), self.shape_spec)

    @cached_property
    def parseval_weights(self) -> dict:
        """hermitian_weight times the modewise weight of each Parseval sum
        of norms, formed once: "l2" (1), "grad" (|k|^2), "h1" and "h2"
        (sobolev_weights; s = 0 is "l2")."""
        hw = self.hermitian_weight
        return {"l2": hw * 1.0, "grad": hw * self.k_sq,
                "h1": hw * self.sobolev_weights[1],
                "h2": hw * self.sobolev_weights[2]}

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """2/3-rule mask: True where every |m| <= N/3."""
        cutoff = self.N // 3
        mask = np.ones(self.shape_spec, dtype=bool)
        for m in self.modes:
            mask &= np.abs(m) <= cutoff
        return mask

    @cached_property
    def coords(self) -> tuple:
        """Physical coordinate arrays per axis, broadcastable."""
        x = np.arange(self.N) * self.dx
        axes = []
        for ax in range(self.dim):
            shape = [1] * self.dim
            shape[ax] = self.N
            axes.append(x.reshape(shape))
        return tuple(axes)


def make_grid(L: float, N: int, dim: int) -> TorusGrid:
    """Build a TorusGrid; rejects odd or tiny N and an L that is not
    positive and finite."""
    return TorusGrid(L=float(L), N=int(N), dim=int(dim))
