"""Truncated Fock-space kernel: states, operators, and channels for a few modes.

Every mode shares one photon cap ``n_max``; the single-mode basis is
``{|0>, ..., |n_max>}``.  States are pure: complex tensors with one axis per
mode.  Loss is handed out as its Kraus set (``loss_kraus_operators``), so a
lossy state is a list of pure branches rather than a density operator.

Quadrature convention
---------------------
``x = (a + a^dag) / 2`` with vacuum variance 1/4, and ``p = -i (a - a^dag)``
with vacuum variance 1, so that ``[x, p] = i``.  The mixed normalisation is
deliberate: it keeps the homodyne shot-noise floor of the averaged-x
estimator at ``1 / (2 sqrt(M))`` while ``exp(-i alpha p)`` displaces ``<x>``
by exactly ``alpha``, which is what the sensitivity and Fisher-information
formulas in :mod:`cvdqs.sensing` assume.

All values are immutable after construction (backing arrays are frozen) and
every operation is a pure function returning a new value, so independent
scenario evaluations may safely run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

class TruncationError(RuntimeError):
    """Probability weight lost to the photon cutoff exceeds the declared tolerance."""


def _whole_number(value, quantity: str) -> int:
    """``value`` as an int, after checking that it is a whole number >= 1; errors name ``quantity``."""
    if value is None or not value >= 1 or not float(value).is_integer():
        raise ValueError(f"{quantity} must be a whole number >= 1, got {value}")
    return int(value)


def _photon_number(value, quantity: str = "mean photon number") -> float:
    """``value`` as a float, after checking that it is finite and >= 0; errors name ``quantity``."""
    if not 0 <= value < math.inf:
        raise ValueError(f"{quantity} must be finite and non-negative, got {value}")
    return float(value)


def _transmissivity(value, quantity: str = "transmissivity", allow_zero: bool = False) -> float:
    """``value`` as a float, after checking that it lies in (0, 1] ([0, 1] for a bare loss channel)."""
    if not (0 <= value if allow_zero else 0 < value) or not value <= 1:
        raise ValueError(f"{quantity} must lie in {'[0, 1]' if allow_zero else '(0, 1]'}, got {value}")
    return float(value)


def _gain(value, quantity: str = "amplitude gain") -> float:
    """``value`` as a float, after checking that it is finite and >= 1; errors name ``quantity``."""
    if not 1 <= value < math.inf:
        raise ValueError(f"{quantity} must be finite and >= 1, got {value}")
    return float(value)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class FockVector:
    """Pure multimode state; ``amplitudes`` has one axis of length ``n_max + 1`` per mode.

    The tensor is stored as handed in (possibly sub-normalised by truncation);
    ``norm_deficit`` reports exactly ``1 - sum |amplitude|^2``.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim < 1 or amps.shape[0] < 2 or len(set(amps.shape)) > 1:
            raise ValueError(f"amplitude axes must share one length >= 2, got shape {amps.shape}")
        object.__setattr__(self, "amplitudes", _frozen(amps))

    @property
    def n_max(self) -> int:
        return self.amplitudes.shape[0] - 1

    @property
    def mode_count(self) -> int:
        return self.amplitudes.ndim

    @property
    def norm_deficit(self) -> float:
        return 1.0 - float(np.vdot(self.amplitudes, self.amplitudes).real)


@dataclass(frozen=True)
class ModeOperator:
    """Single-mode operator on the truncated basis ``{|0>, ..., |n_max>}``."""

    entries: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.entries, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or len(mat) < 2:
            raise ValueError(f"operator must be square with side >= 2, got shape {mat.shape}")
        object.__setattr__(self, "entries", _frozen(mat))


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def annihilation_matrix(n_max: int) -> np.ndarray:
    n_max = _whole_number(n_max, "photon cap")
    return np.diag(np.sqrt(np.arange(1.0, n_max + 1)), k=1).astype(complex)


def quadratures(n_max: int) -> tuple[ModeOperator, ModeOperator]:
    """Return (x, p) with vacuum variances 1/4 and 1 (see module docstring)."""
    a = annihilation_matrix(n_max)
    x = (a + a.conj().T) / 2.0
    p = -1j * (a - a.conj().T)
    return ModeOperator(x), ModeOperator(p)


def basis_vector(occupation: Sequence[int], n_max: int) -> FockVector:
    n_max = _whole_number(n_max, "photon cap")
    occ = tuple(int(n) for n in occupation)
    if not occ:
        raise ValueError("need at least one mode")
    if any(n < 0 or n > n_max for n in occ):
        raise ValueError(f"occupation {occ} outside 0..{n_max}")
    amps = np.zeros((n_max + 1,) * len(occ), dtype=complex)
    amps[occ] = 1.0
    return FockVector(amps)


def sv_fock(mean_photons: float, n_max: int) -> FockVector:
    """Squeezed vacuum with the given mean photon number, squeezed along x.

    Amplitudes follow ``c_{2k} = (-tanh r)^k sqrt((2k)!) / (2^k k! sqrt(cosh r))``
    with ``sinh^2 r = mean_photons``; odd components vanish.  The factorials
    enter as ``C(2k, k) / 4^k``, one correctly rounded int division, so no
    factorial leaves the float range.  The vector is returned as truncated,
    so its ``norm_deficit`` is the weight beyond the cap.
    """
    mean_photons = _photon_number(mean_photons)
    n_max = _whole_number(n_max, "photon cap")
    amps = np.zeros(n_max + 1, dtype=complex)
    if mean_photons == 0:
        amps[0] = 1.0
        return FockVector(amps)
    r = math.asinh(math.sqrt(mean_photons))
    tanh_r = math.tanh(r)
    root_cosh = math.sqrt(math.cosh(r))
    for k in range(n_max // 2 + 1):
        amps[2 * k] = (-tanh_r) ** k * math.sqrt(math.comb(2 * k, k) / 4**k) / root_cosh
    return FockVector(amps)


# ---------------------------------------------------------------------------
# linear-algebra plumbing
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _two_mode_bs_unitary(theta: float, n_max: int) -> np.ndarray:
    """exp(theta (a^dag b - a b^dag)) on two truncated modes, kron(a-basis, b-basis).

    Formed from the eigendecomposition of the Hermitian ``i theta (a^dag b - a b^dag)``:
    exact (to rounding) and exactly unitary, unlike a truncated series.
    """
    a1 = annihilation_matrix(n_max)
    ident = np.eye(n_max + 1, dtype=complex)
    big_a = np.kron(a1, ident)
    big_b = np.kron(ident, a1)
    evals, evecs = np.linalg.eigh(1j * (theta * (big_a.conj().T @ big_b - big_a @ big_b.conj().T)))
    return _frozen((evecs * np.exp(-1j * evals)) @ evecs.conj().T)


def _apply_pair(unitary: np.ndarray, arr: np.ndarray, axis_a: int, axis_b: int, d1: int) -> np.ndarray:
    nd = arr.ndim
    moved = np.moveaxis(arr, (axis_a, axis_b), (nd - 2, nd - 1))
    shape = moved.shape
    flat = moved.reshape(-1, d1 * d1) @ unitary.T
    return np.moveaxis(flat.reshape(shape), (nd - 2, nd - 1), (axis_a, axis_b))


def apply_mode_operator(op: ModeOperator, mode: int, psi: FockVector) -> FockVector:
    """Apply a (not necessarily unitary) single-mode operator to one mode."""
    if len(op.entries) != psi.n_max + 1:
        raise ValueError("operator and state cutoffs differ")
    if not 0 <= mode < psi.mode_count:
        raise ValueError(f"mode {mode} out of range for {psi.mode_count} mode(s)")
    mat, amps = op.entries, psi.amplitudes
    dim = len(mat)
    after = amps.size // dim ** (mode + 1)  # entries per slot of the axis that follow it
    if after == 1:
        out = amps.reshape(-1, dim) @ mat.T
    elif after == dim:
        # a batch of dim x dim products loses to one product on a moved copy
        moved = np.moveaxis(amps, mode, 0)
        out = np.moveaxis((mat @ moved.reshape(dim, -1)).reshape(moved.shape), 0, mode)
    else:
        out = mat @ amps.reshape(-1, dim, after)
    return FockVector(out.reshape(amps.shape))


# ---------------------------------------------------------------------------
# channels and network elements
# ---------------------------------------------------------------------------

def beamsplitter(theta: float, mode_a: int, mode_b: int, state: FockVector) -> FockVector:
    """Two-mode mixer exp(theta (a^dag b - a b^dag)) on the chosen mode pair.

    The generator preserves total photon number, so amplitude never leaks
    between photon-number sectors even on the truncated basis.  On a single
    photon in ``mode_a`` the action is
    ``|1,0> -> cos(theta)|1,0> - sin(theta)|0,1>``.
    """
    mode_count = state.mode_count
    if mode_a == mode_b or not (0 <= mode_a < mode_count and 0 <= mode_b < mode_count):
        raise ValueError(f"invalid mode pair ({mode_a}, {mode_b}) for {mode_count} mode(s)")
    unitary = _two_mode_bs_unitary(float(theta), state.n_max)
    return FockVector(_apply_pair(unitary, state.amplitudes, mode_a, mode_b, state.n_max + 1))


def balanced_splitter(mode_count: int, state: FockVector) -> FockVector:
    """Spread mode 0 of ``state`` evenly over all ``mode_count`` modes.

    A single photon entering mode 0 exits each mode with probability exactly
    ``1 / mode_count``; that interface contract (not the particular chain
    decomposition) is what callers may rely on.
    """
    mode_count = _whole_number(mode_count, "mode count")
    if state.mode_count != mode_count:
        raise ValueError(
            f"state has {state.mode_count} mode(s), expected {mode_count}"
        )
    out = state
    for k in range(1, mode_count):
        # chain step k mixes modes (0, k); the sign makes mode 0 contribute
        # +1/sqrt(M) to every output, so the symmetric combination of the
        # outputs carries the input statistics
        out = beamsplitter(-math.asin(1.0 / math.sqrt(mode_count - k + 1)), 0, k, out)
    return out


@lru_cache(maxsize=32)
def _loss_kraus_set(eta: float, n_max: int) -> tuple[np.ndarray, ...]:
    d1 = n_max + 1
    ops = []
    for k in range(d1):
        mat = np.zeros((d1, d1), dtype=complex)
        for n in range(k, d1):
            mat[n - k, n] = math.sqrt(
                math.comb(n, k) * (1.0 - eta) ** k * eta ** (n - k)
            )
        ops.append(_frozen(mat))
    return tuple(ops)


def loss_kraus_operators(eta: float, n_max: int) -> tuple[np.ndarray, ...]:
    """Kraus set of the transmissivity-``eta`` pure-loss channel (k photons lost).

    The set resolves the identity exactly on the truncated basis, so the
    channel is trace preserving within truncation.
    """
    return _loss_kraus_set(_transmissivity(eta, allow_zero=True), _whole_number(n_max, "photon cap"))


# ---------------------------------------------------------------------------
# state manipulation
# ---------------------------------------------------------------------------

def normalize(state: FockVector) -> tuple[FockVector, float]:
    """Rescale to unit norm; returns (state, pre-normalisation squared norm)."""
    weight = float(np.vdot(state.amplitudes, state.amplitudes).real)
    if weight <= 0.0:
        raise ValueError("cannot normalise a zero vector")
    return FockVector(state.amplitudes / math.sqrt(weight)), weight
