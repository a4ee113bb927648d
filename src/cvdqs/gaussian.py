"""Covariance-matrix engine for the loss-only (Gaussian) sensing scenarios.

States are (mean, cov) pairs over interleaved quadratures
``(x_1, p_1, x_2, p_2, ...)`` with the symmetric vacuum normalisation
``Var(x) = Var(p) = 1/4``.  This keeps the covariance algebra standard;
the only wrinkle against the Fock kernel is its ``p = -i (a - a^dag)``
normalisation, whose variances are exactly ``FOCK_P_VARIANCE_SCALE`` times
the symmetric ones.  ``x`` variances agree between the engines as-is.

Besides serving the closed-form scenarios, this module is the independent
oracle the Fock pipeline is validated against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

VACUUM_VARIANCE = 0.25

#: Var(p) in the Fock kernel's convention = this factor times Var(p) here.
FOCK_P_VARIANCE_SCALE = 4.0

SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class GaussianState:
    """Zero- or finite-mean Gaussian state: mean vector and covariance matrix."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.ndim != 1 or mean.size % 2 != 0 or mean.size == 0:
            raise ValueError("mean must be a vector of even length 2M")
        if cov.shape != (mean.size, mean.size):
            raise ValueError("covariance shape does not match mean length")
        asym = np.max(np.abs(cov - cov.T))
        if asym > SYMMETRY_TOL:
            raise ValueError(f"covariance not symmetric: max asymmetry {asym:.3e}")
        mean.flags.writeable = False
        cov.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def mode_count(self) -> int:
        return self.mean.size // 2


def sv_gaussian(mean_photons: float) -> GaussianState:
    """Single-mode squeezed vacuum, squeezed along x, sinh^2(r) = mean_photons."""
    if not 0 <= mean_photons < np.inf:
        raise ValueError(f"mean photon number must be finite and non-negative, got {mean_photons}")
    r = np.arcsinh(np.sqrt(mean_photons))
    cov = np.diag([np.exp(-2 * r), np.exp(2 * r)]) / 4.0
    return GaussianState(np.zeros(2), cov)


def loss_gaussian(state: GaussianState, eta: float) -> GaussianState:
    """Uniform pure loss on every mode: cov -> eta cov + (1-eta)/4, mean -> sqrt(eta) mean."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"transmissivity must lie in [0, 1], got {eta}")
    dim = state.mean.size
    cov = eta * state.cov + (1.0 - eta) * VACUUM_VARIANCE * np.eye(dim)
    return GaussianState(np.sqrt(eta) * state.mean, cov)


def balanced_orthogonal(mode_count: int) -> np.ndarray:
    """Orthogonal mode matrix whose first column is uniformly 1/sqrt(M).

    Householder reflection mapping e_1 to the uniform unit vector; any
    orthogonal completion of that first column produces the same physical
    state when the remaining input modes are vacuum.
    """
    if mode_count < 1:
        raise ValueError(f"mode count must be at least 1, got {mode_count}")
    if mode_count == 1:
        return np.eye(1)
    uniform = np.full(mode_count, 1.0 / np.sqrt(mode_count))
    w = np.zeros(mode_count)
    w[0] = 1.0
    w -= uniform
    return np.eye(mode_count) - 2.0 * np.outer(w, w) / (w @ w)


def splitter_symplectic(mode_count: int) -> np.ndarray:
    """Symplectic matrix of the balanced splitter (acts alike on x and p blocks)."""
    rot = balanced_orthogonal(mode_count)
    s = np.zeros((2 * mode_count, 2 * mode_count))
    s[0::2, 0::2] = rot
    s[1::2, 1::2] = rot
    return s


def splitter_gaussian(state: GaussianState, mode_count: int) -> GaussianState:
    """Spread a single-mode state evenly over ``mode_count`` modes (rest vacuum)."""
    if state.mode_count != 1:
        raise ValueError("splitter input must be a single-mode state")
    dim = 2 * mode_count
    mean = np.zeros(dim)
    mean[:2] = state.mean
    cov = VACUUM_VARIANCE * np.eye(dim)
    cov[:2, :2] = state.cov
    s = splitter_symplectic(mode_count)
    return GaussianState(s @ mean, s @ cov @ s.T)


def quadrature_sum_variance(state: GaussianState, quad: str = "x") -> float:
    """Var(sum_m q_m) for q in {x, p}, in the symmetric 1/4 convention."""
    if quad not in ("x", "p"):
        raise ValueError("quad must be 'x' or 'p'")
    offset = 0 if quad == "x" else 1
    sel = np.zeros(state.mean.size)
    sel[offset::2] = 1.0
    return float(sel @ state.cov @ sel)


def avg_x_std(state: GaussianState) -> float:
    """Standard deviation of the averaged-x estimator (1/M) sum_m x_m.

    For an unbiased homodyne estimate of a common displacement this equals
    the rms estimation error.
    """
    m = state.mode_count
    return float(np.sqrt(quadrature_sum_variance(state, "x"))) / m
