"""Covariance-matrix engine for the loss-only (Gaussian) sensing scenarios.

States are zero-mean: each is a covariance matrix over interleaved
quadratures ``(x_1, p_1, x_2, p_2, ...)`` with the symmetric vacuum
normalisation ``Var(x) = Var(p) = 1/4``.  This keeps the covariance algebra
standard; the Fock kernel's ``p = -i (a - a^dag)`` has variances 4 times
these, while ``x`` variances agree between the engines as-is.  Only the x
block is read out here: the averaged-x error of ``avg_x_std``.

The balanced split of one mode over ``M`` modes, the others vacuum, is the
closed form ``cov_out = 1/4 I + tile((cov_in - 1/4 I_2) / M, (M, M))``: any
passive splitter whose first column is uniformly ``1/sqrt(M)`` gives it.

Besides serving the closed-form scenarios, this module is the independent
oracle the Fock pipeline is validated against; the Fock engine
(:mod:`cvdqs.sensing`) does not import it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import _photon_number, _transmissivity, _whole_number

VACUUM_VARIANCE = 0.25

SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class GaussianState:
    """Zero-mean Gaussian state, given by its covariance matrix."""

    cov: np.ndarray

    def __post_init__(self):
        cov = np.asarray(self.cov, dtype=float)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or cov.shape[0] % 2 or not cov.size:
            raise ValueError(f"covariance must be a square matrix of even size 2M, got shape {cov.shape}")
        asym = np.max(np.abs(cov - cov.T))
        if asym > SYMMETRY_TOL:
            raise ValueError(f"covariance not symmetric: max asymmetry {asym:.3e}")
        cov.flags.writeable = False
        object.__setattr__(self, "cov", cov)

    @property
    def mode_count(self) -> int:
        return self.cov.shape[0] // 2


def sv_gaussian(mean_photons: float) -> GaussianState:
    """Single-mode squeezed vacuum, squeezed along x, sinh^2(r) = mean_photons."""
    r = np.arcsinh(np.sqrt(_photon_number(mean_photons)))
    return GaussianState(np.diag([np.exp(-2 * r), np.exp(2 * r)]) / 4.0)


def loss_gaussian(state: GaussianState, eta: float) -> GaussianState:
    """Uniform pure loss on every mode: cov -> eta cov + (1-eta)/4."""
    eta = _transmissivity(eta, allow_zero=True)
    dim = state.cov.shape[0]
    return GaussianState(eta * state.cov + (1.0 - eta) * VACUUM_VARIANCE * np.eye(dim))


def splitter_gaussian(state: GaussianState, mode_count: int) -> GaussianState:
    """Spread a single-mode state evenly over ``mode_count`` modes (rest vacuum)."""
    mode_count = _whole_number(mode_count, "mode count")
    if state.mode_count != 1:
        raise ValueError("splitter input must be a single-mode state")
    excess = (state.cov - VACUUM_VARIANCE * np.eye(2)) / mode_count
    vacuum = VACUUM_VARIANCE * np.eye(2 * mode_count)
    return GaussianState(vacuum + np.tile(excess, (mode_count, mode_count)))


def avg_x_std(state: GaussianState) -> float:
    """Standard deviation of the averaged-x estimator (1/M) sum_m x_m.

    For an unbiased homodyne estimate of a common displacement this equals
    the rms estimation error.
    """
    sel = np.zeros(state.cov.shape[0])
    sel[::2] = 1.0  # the x block: Var(sum_m x_m) = sel cov sel
    return float(np.sqrt(sel @ state.cov @ sel)) / state.mode_count
