"""Truncated Fock-space kernel: states, operators, and channels for a few modes.

Every mode shares one photon cap ``n_max``; the single-mode basis is
``{|0>, ..., |n_max>}``.  Pure states are complex tensors with one axis per
mode, density operators are dense ``(d, d)`` matrices over the row-major
multimode basis with ``d = (n_max + 1) ** mode_count``.

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
from typing import Sequence, Union

import numpy as np

HERMITICITY_TOL = 1e-12


class TruncationError(RuntimeError):
    """Probability weight lost to the photon cutoff exceeds the declared tolerance."""


@dataclass(frozen=True)
class Cutoff:
    """Per-mode photon cap; identical across the modes of one simulation."""

    n_max: int

    def __post_init__(self):
        if int(self.n_max) < 1:
            raise ValueError(f"photon cap must be at least 1, got {self.n_max}")
        object.__setattr__(self, "n_max", int(self.n_max))

    @property
    def dim(self) -> int:
        return self.n_max + 1


CutoffLike = Union[int, Cutoff]


def as_cutoff(cutoff: CutoffLike) -> Cutoff:
    return cutoff if isinstance(cutoff, Cutoff) else Cutoff(cutoff)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class FockVector:
    """Pure multimode state; ``amplitudes`` has one axis of length dim per mode.

    The tensor is stored as handed in (possibly sub-normalised by truncation);
    ``norm_deficit`` reports exactly ``1 - sum |amplitude|^2``.
    """

    cutoff: Cutoff
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim < 1 or any(s != self.cutoff.dim for s in amps.shape):
            raise ValueError(
                f"amplitude tensor must have one axis of length {self.cutoff.dim} per mode"
            )
        object.__setattr__(self, "amplitudes", _frozen(amps))

    @property
    def mode_count(self) -> int:
        return self.amplitudes.ndim

    @property
    def norm_deficit(self) -> float:
        return 1.0 - float(np.vdot(self.amplitudes, self.amplitudes).real)


@dataclass(frozen=True)
class FockDensity:
    """Dense density operator over the row-major multimode basis."""

    cutoff: Cutoff
    mode_count: int
    entries: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.entries, dtype=complex)
        d = self.cutoff.dim ** self.mode_count
        if rho.shape != (d, d):
            raise ValueError(f"density must be {d}x{d} for {self.mode_count} mode(s)")
        asym = np.max(np.abs(rho - rho.conj().T))
        if asym > HERMITICITY_TOL:
            raise ValueError(f"density not Hermitian: max asymmetry {asym:.3e}")
        object.__setattr__(self, "entries", _frozen(rho))

    @property
    def trace(self) -> float:
        return float(np.trace(self.entries).real)

    def as_tensor(self) -> np.ndarray:
        """View with ket axes 0..M-1 and bra axes M..2M-1."""
        d1 = self.cutoff.dim
        return self.entries.reshape((d1,) * (2 * self.mode_count))


@dataclass(frozen=True)
class ModeOperator:
    """Single-mode operator on the truncated basis."""

    cutoff: Cutoff
    entries: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.entries, dtype=complex)
        d = self.cutoff.dim
        if mat.shape != (d, d):
            raise ValueError(f"operator must be {d}x{d}")
        object.__setattr__(self, "entries", _frozen(mat))


State = Union[FockVector, FockDensity]


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def annihilation_matrix(cutoff: CutoffLike) -> np.ndarray:
    n_max = as_cutoff(cutoff).n_max
    return np.diag(np.sqrt(np.arange(1.0, n_max + 1)), k=1).astype(complex)


def number_operator(cutoff: CutoffLike) -> ModeOperator:
    c = as_cutoff(cutoff)
    return ModeOperator(c, np.diag(np.arange(c.dim, dtype=float)).astype(complex))


def quadratures(cutoff: CutoffLike) -> tuple[ModeOperator, ModeOperator]:
    """Return (x, p) with vacuum variances 1/4 and 1 (see module docstring)."""
    c = as_cutoff(cutoff)
    a = annihilation_matrix(c)
    x = (a + a.conj().T) / 2.0
    p = -1j * (a - a.conj().T)
    return ModeOperator(c, x), ModeOperator(c, p)


def displacement_matrix(alpha: complex, cutoff: CutoffLike) -> np.ndarray:
    """exp(alpha a^dag - alpha* a) restricted to the truncated basis."""
    a = annihilation_matrix(cutoff)
    return _unitary_from_generator(alpha * a.conj().T - np.conj(alpha) * a)


def basis_vector(occupation: Sequence[int], cutoff: CutoffLike) -> FockVector:
    c = as_cutoff(cutoff)
    occ = tuple(int(n) for n in occupation)
    if not occ:
        raise ValueError("need at least one mode")
    if any(n < 0 or n > c.n_max for n in occ):
        raise ValueError(f"occupation {occ} outside 0..{c.n_max}")
    amps = np.zeros((c.dim,) * len(occ), dtype=complex)
    amps[occ] = 1.0
    return FockVector(c, amps)


def vacuum_vector(mode_count: int, cutoff: CutoffLike) -> FockVector:
    return basis_vector((0,) * mode_count, cutoff)


def sv_fock(mean_photons: float, cutoff: CutoffLike) -> FockVector:
    """Squeezed vacuum with the given mean photon number, squeezed along x.

    Amplitudes follow ``c_{2k} = (-tanh r)^k sqrt((2k)!) / (2^k k! sqrt(cosh r))``
    with ``sinh^2 r = mean_photons``; odd components vanish.  The vector is
    returned as truncated, so its ``norm_deficit`` is the weight beyond the cap.
    """
    if mean_photons < 0:
        raise ValueError(f"mean photon number must be non-negative, got {mean_photons}")
    c = as_cutoff(cutoff)
    amps = np.zeros(c.dim, dtype=complex)
    if mean_photons == 0:
        amps[0] = 1.0
        return FockVector(c, amps)
    r = math.asinh(math.sqrt(mean_photons))
    tanh_r = math.tanh(r)
    root_cosh = math.sqrt(math.cosh(r))
    for k in range(c.n_max // 2 + 1):
        amps[2 * k] = (
            (-tanh_r) ** k
            * math.sqrt(math.factorial(2 * k))
            / (2**k * math.factorial(k) * root_cosh)
        )
    return FockVector(c, amps)


def density_from_vector(psi: FockVector) -> FockDensity:
    flat = psi.amplitudes.reshape(-1)
    return FockDensity(psi.cutoff, psi.mode_count, np.outer(flat, flat.conj()))


# ---------------------------------------------------------------------------
# linear-algebra plumbing
# ---------------------------------------------------------------------------

def _unitary_from_generator(generator: np.ndarray) -> np.ndarray:
    """Exponential of an anti-Hermitian generator via eigendecomposition.

    Exact (to rounding) and exactly unitary, unlike a truncated series.
    """
    herm = 1j * generator
    asym = np.max(np.abs(herm - herm.conj().T))
    if asym > 1e-12:
        raise ValueError("generator is not anti-Hermitian")
    evals, evecs = np.linalg.eigh(herm)
    return (evecs * np.exp(-1j * evals)) @ evecs.conj().T


@lru_cache(maxsize=32)
def _two_mode_bs_unitary(theta: float, n_max: int) -> np.ndarray:
    """exp(theta (a^dag b - a b^dag)) on two truncated modes, kron(a-basis, b-basis)."""
    a1 = annihilation_matrix(n_max)
    ident = np.eye(n_max + 1, dtype=complex)
    big_a = np.kron(a1, ident)
    big_b = np.kron(ident, a1)
    gen = theta * (big_a.conj().T @ big_b - big_a @ big_b.conj().T)
    return _frozen(_unitary_from_generator(gen))


def _apply_matrix_axis(mat: np.ndarray, arr: np.ndarray, axis: int) -> np.ndarray:
    out = np.tensordot(mat, arr, axes=([1], [axis]))
    return np.moveaxis(out, 0, axis)


def _apply_pair(unitary: np.ndarray, arr: np.ndarray, axis_a: int, axis_b: int, d1: int) -> np.ndarray:
    nd = arr.ndim
    moved = np.moveaxis(arr, (axis_a, axis_b), (nd - 2, nd - 1))
    shape = moved.shape
    flat = moved.reshape(-1, d1 * d1) @ unitary.T
    return np.moveaxis(flat.reshape(shape), (nd - 2, nd - 1), (axis_a, axis_b))


def apply_mode_operator(op: ModeOperator, mode: int, psi: FockVector) -> FockVector:
    """Apply a (not necessarily unitary) single-mode operator to one mode."""
    if op.cutoff != psi.cutoff:
        raise ValueError("operator and state cutoffs differ")
    if not 0 <= mode < psi.mode_count:
        raise ValueError(f"mode {mode} out of range for {psi.mode_count} mode(s)")
    return FockVector(psi.cutoff, _apply_matrix_axis(op.entries, psi.amplitudes, mode))


def embed_mode_operator(op: ModeOperator, mode: int, mode_count: int) -> np.ndarray:
    """Kron-embed a single-mode operator into the full multimode matrix."""
    if not 0 <= mode < mode_count:
        raise ValueError(f"mode {mode} out of range for {mode_count} mode(s)")
    d1 = op.cutoff.dim
    ident = np.eye(d1, dtype=complex)
    out = np.ones((1, 1), dtype=complex)
    for m in range(mode_count):
        out = np.kron(out, op.entries if m == mode else ident)
    return out


# ---------------------------------------------------------------------------
# channels and network elements
# ---------------------------------------------------------------------------

def beamsplitter(theta: float, mode_a: int, mode_b: int, state: State) -> State:
    """Two-mode mixer exp(theta (a^dag b - a b^dag)) on the chosen mode pair.

    The generator preserves total photon number, so amplitude never leaks
    between photon-number sectors even on the truncated basis.  On a single
    photon in ``mode_a`` the action is
    ``|1,0> -> cos(theta)|1,0> - sin(theta)|0,1>``.
    """
    mode_count = state.mode_count
    if mode_a == mode_b or not (0 <= mode_a < mode_count and 0 <= mode_b < mode_count):
        raise ValueError(f"invalid mode pair ({mode_a}, {mode_b}) for {mode_count} mode(s)")
    d1 = state.cutoff.dim
    unitary = _two_mode_bs_unitary(float(theta), state.cutoff.n_max)
    if isinstance(state, FockVector):
        return FockVector(state.cutoff, _apply_pair(unitary, state.amplitudes, mode_a, mode_b, d1))
    tens = state.as_tensor()
    tens = _apply_pair(unitary, tens, mode_a, mode_b, d1)
    tens = _apply_pair(unitary.conj(), tens, mode_count + mode_a, mode_count + mode_b, d1)
    d = d1**mode_count
    return FockDensity(state.cutoff, mode_count, tens.reshape(d, d))


def balanced_splitter_thetas(mode_count: int) -> tuple[float, ...]:
    """Mixing angles of the two-mode chain that spreads mode 0 evenly.

    Chain step k mixes modes (0, k); the angle signs are chosen so mode 0
    contributes amplitude ``+1/sqrt(M)`` to every output, which makes the
    symmetric combination of the outputs carry the input statistics.
    """
    if mode_count < 1:
        raise ValueError(f"mode count must be at least 1, got {mode_count}")
    return tuple(
        -math.asin(1.0 / math.sqrt(mode_count - k + 1)) for k in range(1, mode_count)
    )


def balanced_splitter(mode_count: int, state: State) -> State:
    """Spread mode 0 of ``state`` evenly over all ``mode_count`` modes.

    A single photon entering mode 0 exits each mode with probability exactly
    ``1 / mode_count``; that interface contract (not the particular chain
    decomposition) is what callers may rely on.
    """
    if state.mode_count != mode_count:
        raise ValueError(
            f"state has {state.mode_count} mode(s), expected {mode_count}"
        )
    out = state
    for k, theta in enumerate(balanced_splitter_thetas(mode_count), start=1):
        out = beamsplitter(theta, 0, k, out)
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


def loss_kraus_operators(eta: float, cutoff: CutoffLike) -> tuple[np.ndarray, ...]:
    """Kraus set of the transmissivity-``eta`` pure-loss channel (k photons lost).

    The set resolves the identity exactly on the truncated basis, so the
    channel is trace preserving within truncation.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"transmissivity must lie in [0, 1], got {eta}")
    return _loss_kraus_set(float(eta), as_cutoff(cutoff).n_max)


def pure_loss(eta: float, mode: int, rho: FockDensity) -> FockDensity:
    """Pure-loss channel with transmissivity ``eta`` on one mode of a density."""
    if not 0 <= mode < rho.mode_count:
        raise ValueError(f"mode {mode} out of range for {rho.mode_count} mode(s)")
    kraus = loss_kraus_operators(eta, rho.cutoff)
    tens = rho.as_tensor()
    out = np.zeros_like(tens)
    for op in kraus:
        branch = _apply_matrix_axis(op, tens, mode)
        out += _apply_matrix_axis(op.conj(), branch, rho.mode_count + mode)
    d = rho.cutoff.dim**rho.mode_count
    return FockDensity(rho.cutoff, rho.mode_count, out.reshape(d, d))


# ---------------------------------------------------------------------------
# moments and state manipulation
# ---------------------------------------------------------------------------

def _full_matrix(op: Union[np.ndarray, ModeOperator], state: State) -> np.ndarray:
    if isinstance(op, ModeOperator):
        if state.mode_count != 1:
            raise ValueError("a bare ModeOperator applies to single-mode states only")
        if op.cutoff != state.cutoff:
            raise ValueError("operator and state cutoffs differ")
        return op.entries
    mat = np.asarray(op, dtype=complex)
    d = state.cutoff.dim**state.mode_count
    if mat.shape != (d, d):
        raise ValueError(f"operator shape {mat.shape} does not match state dimension {d}")
    return mat


def expectation(op: Union[np.ndarray, ModeOperator], state: State) -> complex:
    """<O> = <psi|O|psi> or Tr(rho O)."""
    mat = _full_matrix(op, state)
    if isinstance(state, FockVector):
        flat = state.amplitudes.reshape(-1)
        return complex(np.vdot(flat, mat @ flat))
    return complex(np.einsum("ij,ji->", state.entries, mat))


def variance(op: Union[np.ndarray, ModeOperator], state: State) -> float:
    """Var(O) = <O^2> - <O>^2; imaginary residue above 1e-10 is a hard error."""
    mat = _full_matrix(op, state)
    first = expectation(mat, state)
    second = expectation(mat @ mat, state)
    var = second - first**2
    if abs(var.imag) > 1e-10:
        raise AssertionError(f"variance has imaginary residue {var.imag:.3e}")
    return float(var.real)


def normalize(state: State) -> tuple[State, float]:
    """Rescale to unit norm/trace; returns (state, pre-normalisation weight).

    For vectors the reported weight is the squared norm (the trace of the
    corresponding projector), for densities the trace.
    """
    if isinstance(state, FockVector):
        weight = float(np.vdot(state.amplitudes, state.amplitudes).real)
        if weight <= 0.0:
            raise ValueError("cannot normalise a zero vector")
        return FockVector(state.cutoff, state.amplitudes / math.sqrt(weight)), weight
    weight = state.trace
    if weight <= 0.0:
        raise ValueError("cannot normalise a zero-trace density")
    return FockDensity(state.cutoff, state.mode_count, state.entries / weight), weight
