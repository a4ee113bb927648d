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
  ``sensing.simulate_practical`` reads its diagonal and applies one per node;
* a circuit-level single-scissor simulation (``scissor_kraus``) used as an
  independent oracle for the closed-form operator.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .fock import FockVector, ModeOperator, basis_vector, beamsplitter
from .fock import _gain, _photon_number, _transmissivity, _whole_number

class UnphysicalGainError(ValueError):
    """The requested amplification cannot be realised on this source brightness."""


class AmplifierRangeError(ValueError):
    """The practical amplifier's Kraus element, or the moments it leaves, cannot be held in floats."""


@dataclass(frozen=True)
class NlaSpec:
    """A practical amplifier: amplitude gain and scissor count.

    The ideal amplifier needs no spec: it enters results only through the
    effective-channel algebra below.
    """

    gain: float
    scissors: int

    def __post_init__(self):
        _gain(self.gain)
        object.__setattr__(self, "scissors", _whole_number(self.scissors, "scissor count"))

    @staticmethod
    def practical(gain: float, scissors: int) -> "NlaSpec":
        return NlaSpec(gain, scissors)


def effective_gain(gain: float, eta: float) -> float:
    """Gain of the equivalent source-side amplifier: sqrt(1 + (g^2 - 1) eta)."""
    gain, eta = _gain(gain), _transmissivity(eta)
    return math.sqrt(1.0 + (gain * gain - 1.0) * eta)


def effective_transmissivity(gain: float, eta: float) -> float:
    """Transmissivity of the equivalent channel: g^2 eta / (1 + (g^2 - 1) eta).

    Strictly greater than ``eta`` whenever g > 1 and eta < 1: the amplifier
    effectively removes channel loss.
    """
    gain, eta = _gain(gain), _transmissivity(eta)
    return gain * gain * eta / (1.0 + (gain * gain - 1.0) * eta)


def effective_sv_photons(mean_photons: float, gain_eff: float) -> float:
    """Mean photon number of a squeezed vacuum after an ideal amplifier.

    Solves ``sqrt(N'/(N'+1)) = g_eff^2 sqrt(N/(N+1))``.  Only admissible while
    the right-hand side stays below 1; beyond that boundary the amplified
    squeezing parameter would leave the physical range.
    """
    mean_photons, gain_eff = _photon_number(mean_photons), _gain(gain_eff, "effective gain")
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
    return math.perm(scissors, n) / scissors**n


def projector_pi(scissors: int, gain: float, n_max: int) -> ModeOperator:
    """Scissor-count projector: diagonal, zero above ``scissors`` photons.

    Entry n is ``(1/(g^2+1))^(N/2) * N! / ((N-n)! N^n)`` for n <= N.  At fixed
    n the coefficient rises monotonically to 1 as the scissor count grows, so
    the practical amplifier approaches the ideal one.
    """
    n_max = _whole_number(n_max, "photon cap")
    scissors = _whole_number(scissors, "scissor count")
    gain = _gain(gain)
    if scissors > n_max:
        raise ValueError(
            f"cutoff n_max={n_max} cannot hold the {scissors}-photon scissor truncation"
        )
    prefactor = (1.0 / (gain * gain + 1.0)) ** (scissors / 2.0)
    diag = np.zeros(n_max + 1)
    for n in range(scissors + 1):
        diag[n] = prefactor * _pi_coefficient(scissors, n)
    return ModeOperator(np.diag(diag).astype(complex))


def gain_diagonal(gain: float, n_max: int) -> np.ndarray:
    return np.power(float(gain), np.arange(_whole_number(n_max, "photon cap") + 1, dtype=float))


def nla_operator(scissors: int, gain: float, n_max: int) -> ModeOperator:
    """Practical amplifier Kraus element: scissor-count projector times g^n.

    Sub-normalised by construction: the squared norm that one copy per node
    leaves on a state is exactly the joint heralding probability, which
    ``sensing.simulate_practical`` reports.

    Raises ``AmplifierRangeError`` when the vacuum entry ``(g^2+1)^(-N/2)``
    falls below the smallest normal float (every ratio to it would lose
    digits) or ``g^n`` overflows on the basis.
    """
    pi = projector_pi(scissors, gain, n_max).entries
    n_max = len(pi) - 1
    try:
        in_range = float(gain) ** n_max < math.inf  # the top entry of gain_diagonal
    except OverflowError:
        in_range = False
    if not in_range or pi[0, 0].real < sys.float_info.min:
        raise AmplifierRangeError(
            f"the amplifier with {scissors} scissors at gain {gain:g} leaves the float range "
            "((g^2+1)^(-N/2) below the smallest normal float, or g^n overflows); "
            "use fewer scissors or a lower gain"
        )
    return ModeOperator(pi * gain_diagonal(gain, n_max)[None, :])


def clipped_gain_operator(gain: float, n_max: int) -> ModeOperator:
    """g^n clipped at the photon cap and rescaled by its largest entry.

    Stand-in for the ideal amplifier in validation runs; the overall scale is
    irrelevant after post-selection, and rescaling keeps entries bounded.
    """
    gain = _gain(gain)
    diag = gain_diagonal(gain, n_max)
    return ModeOperator(np.diag(diag / diag[-1]).astype(complex))


# ---------------------------------------------------------------------------
# circuit-level scissor oracle
# ---------------------------------------------------------------------------

def scissor_kraus(gain: float, n_max: int) -> ModeOperator:
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
    gain = _gain(gain)
    n_max = _whole_number(n_max, "photon cap")
    gamma = 1.0 / (gain * gain + 1.0)
    theta_split = -math.acos(math.sqrt(gamma))
    kraus = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    for n in range(n_max + 1):
        # modes: 0 = signal, 1 = ancilla photon, 2 = scissor output
        state: FockVector = basis_vector((n, 1, 0), n_max)
        state = beamsplitter(theta_split, 1, 2, state)
        state = beamsplitter(math.pi / 4.0, 0, 1, state)
        kraus[:, n] = state.amplitudes[1, 0, :]
    return ModeOperator(kraus)
