"""Noiseless-linear-amplifier models.

Three layers, from most idealised to most explicit:

* the effective-channel algebra of the *ideal* amplifier ``g^n`` placed after
  a pure-loss channel (``effective_gain`` / ``effective_transmissivity`` /
  ``effective_sv_photons``).  The ideal amplifier has zero success
  probability, so pipelines never apply it numerically; it enters results
  only through this algebra plus a clipped-operator validation path;
* the *practical* amplifier built from a finite number of quantum scissors:
  a diagonal, sub-normalised Kraus element ``T = Pi_N g^n`` whose
  ``Tr(T rho T)`` is the heralding probability.  ``T`` is deliberately never
  renormalised, so success probabilities keep their physical meaning;
* a circuit-level single-scissor simulation (``scissor_kraus``) used as an
  independent oracle for the closed-form operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .fock import (
    CutoffLike,
    FockDensity,
    FockVector,
    ModeOperator,
    as_cutoff,
    basis_vector,
    beamsplitter,
)

IDEAL = "ideal"
PRACTICAL = "practical"


class UnphysicalGainError(ValueError):
    """The requested amplification cannot be realised on this source brightness."""


class ZeroSuccessError(RuntimeError):
    """Post-selection has no support: every herald branch has zero weight."""


@dataclass(frozen=True)
class NlaSpec:
    """Amplifier description: ideal, or practical with a scissor count."""

    kind: str
    gain: float
    scissors: Optional[int] = None

    def __post_init__(self):
        if self.kind not in (IDEAL, PRACTICAL):
            raise ValueError(f"kind must be '{IDEAL}' or '{PRACTICAL}', got {self.kind!r}")
        if self.gain < 1.0:
            raise ValueError(
                f"amplitude gain must be >= 1 (noiseless attenuation unsupported), got {self.gain}"
            )
        if self.kind == PRACTICAL:
            if self.scissors is None or int(self.scissors) < 1:
                raise ValueError("practical amplifier needs a scissor count >= 1")
            object.__setattr__(self, "scissors", int(self.scissors))
        elif self.scissors is not None:
            raise ValueError("ideal amplifier takes no scissor count")

    @staticmethod
    def ideal(gain: float) -> "NlaSpec":
        return NlaSpec(IDEAL, gain)

    @staticmethod
    def practical(gain: float, scissors: int) -> "NlaSpec":
        return NlaSpec(PRACTICAL, gain, scissors)


def effective_gain(gain: float, eta: float) -> float:
    """Gain of the equivalent source-side amplifier: sqrt(1 + (g^2 - 1) eta)."""
    _check_gain_eta(gain, eta)
    return math.sqrt(1.0 + (gain * gain - 1.0) * eta)


def effective_transmissivity(gain: float, eta: float) -> float:
    """Transmissivity of the equivalent channel: g^2 eta / (1 + (g^2 - 1) eta).

    Strictly greater than ``eta`` whenever g > 1 and eta < 1: the amplifier
    effectively removes channel loss.
    """
    _check_gain_eta(gain, eta)
    return gain * gain * eta / (1.0 + (gain * gain - 1.0) * eta)


def _check_gain_eta(gain: float, eta: float) -> None:
    if gain < 1.0:
        raise ValueError(f"amplitude gain must be >= 1, got {gain}")
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"transmissivity must lie in (0, 1], got {eta}")


def effective_sv_photons(mean_photons: float, gain_eff: float) -> float:
    """Mean photon number of a squeezed vacuum after an ideal amplifier.

    Solves ``sqrt(N'/(N'+1)) = g_eff^2 sqrt(N/(N+1))``.  Only admissible while
    the right-hand side stays below 1; beyond that boundary the amplified
    squeezing parameter would leave the physical range.
    """
    if mean_photons < 0:
        raise ValueError(f"mean photon number must be non-negative, got {mean_photons}")
    if gain_eff < 1.0:
        raise ValueError(f"effective gain must be >= 1, got {gain_eff}")
    lam = gain_eff * gain_eff * math.sqrt(mean_photons / (mean_photons + 1.0))
    if lam >= 1.0:
        raise UnphysicalGainError(
            f"unphysical NLA gain for this source brightness: "
            f"g_eff^2 sqrt(N/(N+1)) = {lam:.6f} >= 1"
        )
    return lam * lam / (1.0 - lam * lam)


# ---------------------------------------------------------------------------
# practical amplifier operator
# ---------------------------------------------------------------------------

def _pi_coefficient(scissors: int, n: int) -> float:
    return math.factorial(scissors) / (math.factorial(scissors - n) * scissors**n)


def projector_pi(scissors: int, gain: float, cutoff: CutoffLike) -> ModeOperator:
    """Scissor-count projector: diagonal, zero above ``scissors`` photons.

    Entry n is ``(1/(g^2+1))^(N/2) * N! / ((N-n)! N^n)`` for n <= N.  At fixed
    n the coefficient rises monotonically to 1 as the scissor count grows, so
    the practical amplifier approaches the ideal one.
    """
    c = as_cutoff(cutoff)
    if scissors < 1:
        raise ValueError(f"scissor count must be >= 1, got {scissors}")
    if gain < 1.0:
        raise ValueError(f"amplitude gain must be >= 1, got {gain}")
    if scissors > c.n_max:
        raise ValueError(
            f"cutoff n_max={c.n_max} cannot hold the {scissors}-photon scissor truncation"
        )
    prefactor = (1.0 / (gain * gain + 1.0)) ** (scissors / 2.0)
    diag = np.zeros(c.dim)
    for n in range(scissors + 1):
        diag[n] = prefactor * _pi_coefficient(scissors, n)
    return ModeOperator(c, np.diag(diag).astype(complex))


def gain_diagonal(gain: float, cutoff: CutoffLike) -> np.ndarray:
    return np.power(float(gain), np.arange(as_cutoff(cutoff).dim, dtype=float))


def nla_operator(scissors: int, gain: float, cutoff: CutoffLike) -> ModeOperator:
    """Practical amplifier Kraus element: scissor-count projector times g^n.

    Sub-normalised by construction; applied via ``apply_practical_nla`` the
    leftover weight is exactly the heralding probability.
    """
    pi = projector_pi(scissors, gain, cutoff)
    return ModeOperator(pi.cutoff, pi.entries * gain_diagonal(gain, pi.cutoff)[None, :])


def clipped_gain_operator(gain: float, cutoff: CutoffLike) -> ModeOperator:
    """g^n clipped at the photon cap and rescaled by its largest entry.

    Stand-in for the ideal amplifier in validation runs; the overall scale is
    irrelevant after post-selection, and rescaling keeps entries bounded.
    """
    if gain < 1.0:
        raise ValueError(f"amplitude gain must be >= 1, got {gain}")
    c = as_cutoff(cutoff)
    diag = gain_diagonal(gain, c)
    return ModeOperator(c, np.diag(diag / diag[-1]).astype(complex))


def apply_practical_nla(rho: FockDensity, specs: Sequence[NlaSpec]) -> tuple[FockDensity, float]:
    """Herald one practical amplifier per mode; joint post-selected result.

    Returns the renormalised output state and the probability that *all*
    amplifiers herald success, ``Tr(T_1 x ... x T_M rho T_1 x ... x T_M)``.
    """
    if len(specs) != rho.mode_count:
        raise ValueError(f"need one amplifier spec per mode ({rho.mode_count}), got {len(specs)}")
    if any(spec.kind != PRACTICAL for spec in specs):
        raise ValueError(
            "only practical amplifiers can be applied numerically; "
            "ideal ones enter through the effective-channel algebra"
        )
    diag = np.ones(1)
    for spec in specs:
        t = nla_operator(spec.scissors, spec.gain, rho.cutoff)
        diag = np.multiply.outer(diag, np.diag(t.entries).real).reshape(-1)
    weighted = diag[:, None] * rho.entries * diag[None, :]
    p_success = float(np.sum(diag * diag * np.diag(rho.entries).real))
    if p_success <= 1e-300:
        raise ZeroSuccessError("joint heralding probability vanished; state lies outside the scissor truncation")
    return FockDensity(rho.cutoff, rho.mode_count, weighted / p_success), p_success


# ---------------------------------------------------------------------------
# circuit-level scissor oracle
# ---------------------------------------------------------------------------

def scissor_kraus(gain: float, cutoff: CutoffLike) -> ModeOperator:
    """Single quantum scissor simulated at circuit level.

    Circuit: the signal meets an ancilla single photon that was split on an
    unbalanced mixer of transmissivity ``gamma = 1/(g^2+1)``; a balanced mixer
    then erases which-path information and success is heralded on exactly one
    photon at the first detector and none at the second.

    Convention: of the two heralding detectors we keep the one whose
    conditional map carries no sign flip; the mirror herald flips the sign of
    the one-photon component (a correctable phase).  The returned map is the
    amplitude map of that single herald, which is exactly
    ``nla_operator(1, g) / sqrt(2)``; summing both heralds reproduces the
    closed-form success probability.
    """
    if gain < 1.0:
        raise ValueError(f"amplitude gain must be >= 1, got {gain}")
    c = as_cutoff(cutoff)
    gamma = 1.0 / (gain * gain + 1.0)
    theta_split = -math.acos(math.sqrt(gamma))
    kraus = np.zeros((c.dim, c.dim), dtype=complex)
    for n in range(c.dim):
        # modes: 0 = signal, 1 = ancilla photon, 2 = scissor output
        state: FockVector = basis_vector((n, 1, 0), c)
        state = beamsplitter(theta_split, 1, 2, state)
        state = beamsplitter(math.pi / 4.0, 0, 1, state)
        kraus[:, n] = state.amplitudes[1, 0, :]
    return ModeOperator(c, kraus)
