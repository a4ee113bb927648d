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

from .fock import FockVector, ModeOperator, beamsplitter
from .fock import _check_entries, _frozen, _gain, _photon_number, _sqrt, _transmissivity, _whole_number

class UnphysicalGainError(ValueError):
    """The requested amplification cannot be realised on this source brightness."""


@dataclass(frozen=True)
class NlaSpec:
    """A practical amplifier: amplitude gain and scissor count.

    ``gain`` is one float, or a 1-D array of gains that
    ``sensing.simulate_practical`` evaluates in one pass; an array is kept as
    a read-only float copy, so such a spec is neither hashable nor comparable.
    """

    gain: float
    scissors: int

    def __post_init__(self):
        if np.ndim(self.gain):
            try:
                gains = np.array(self.gain, dtype=float)
            except OverflowError:
                # an int past the floats is checked as it is, so it gets the error a lone gain gets
                gains = np.array(self.gain, dtype=object)
            if gains.ndim != 1 or not gains.size:
                raise ValueError(f"a gain grid must be a non-empty 1-D array, got shape {gains.shape}")
            object.__setattr__(self, "gain", _frozen(gains))
        _check_entries(_gain, self.gain)
        object.__setattr__(self, "scissors", _whole_number(self.scissors, "scissor count"))

    @staticmethod
    def practical(gain: float, scissors: int) -> "NlaSpec":
        """Alias of ``NlaSpec(gain, scissors)``, kept for the benchmark's callers."""
        return NlaSpec(gain, scissors)


def _effective_gain(gain, eta):
    """The formula of ``effective_gain``, on inputs already checked; ``gain`` may be a float or an array."""
    return _sqrt(1.0 + (gain * gain - 1.0) * eta)


def _effective_transmissivity(gain, eta):
    """The formula of ``effective_transmissivity``, on inputs already checked; ``gain`` may be a float or an array."""
    return gain * gain * eta / (1.0 + (gain * gain - 1.0) * eta)


def _effective_sv_photons(mean_photons: float, gain_eff):
    """``(N', lam)``: the formula of ``effective_sv_photons`` on inputs already checked, and its range.

    ``gain_eff`` may be a float or an array.  ``lam = g_eff^2 sqrt(N/(N+1))``
    is physical below 1 (``_check_physical``), and nothing here checks it:
    where it is not, ``N'`` is that of ``lam = 0`` (and NaN where ``lam`` is
    infinite), with no division by zero.
    """
    lam = gain_eff * gain_eff * math.sqrt(mean_photons / (mean_photons + 1.0))
    # times a bool: lam itself where it is physical, 0 past the boundary
    held = lam * (lam < 1.0)
    return held * held / (1.0 - held * held), lam


def _check_physical(lam: float) -> None:
    """Raise ``UnphysicalGainError`` unless the amplified squeezing ``lam`` of ``_effective_sv_photons`` is below 1."""
    if lam >= 1.0:
        raise UnphysicalGainError(
            f"unphysical NLA gain for this source brightness: "
            f"g_eff^2 sqrt(N/(N+1)) = {lam:.6f} >= 1"
        )


def effective_gain(gain: float, eta: float) -> float:
    """Gain of the equivalent source-side amplifier: sqrt(1 + (g^2 - 1) eta)."""
    return _effective_gain(_gain(gain), _transmissivity(eta))


def effective_transmissivity(gain: float, eta: float) -> float:
    """Transmissivity of the equivalent channel: g^2 eta / (1 + (g^2 - 1) eta).

    Strictly greater than ``eta`` whenever g > 1 and eta < 1: the amplifier
    effectively removes channel loss.
    """
    return _effective_transmissivity(_gain(gain), _transmissivity(eta))


def effective_sv_photons(mean_photons: float, gain_eff: float) -> float:
    """Mean photon number of a squeezed vacuum after an ideal amplifier.

    Solves ``sqrt(N'/(N'+1)) = g_eff^2 sqrt(N/(N+1))``.  Only admissible while
    the right-hand side stays below 1; beyond that boundary the amplified
    squeezing parameter would leave the physical range.
    """
    n_eff, lam = _effective_sv_photons(_photon_number(mean_photons), _gain(gain_eff, "effective gain"))
    _check_physical(lam)
    return n_eff


# ---------------------------------------------------------------------------
# practical amplifier operator
# ---------------------------------------------------------------------------

def _pi_coefficient(scissors: int, n: int) -> float:
    return math.perm(scissors, n) / scissors**n


def _vacuum_entry(scissors: int, gain: float) -> float:
    """``(g^2+1)^(-N/2)``, the vacuum entry of ``Pi_N g^n``."""
    return (1.0 / (gain * gain + 1.0)) ** (scissors / 2.0)


def _projector_diagonal(scissors: int, gain: float, n_max: int) -> np.ndarray:
    """The diagonal of ``projector_pi``, as floats, after checking its inputs."""
    n_max = _whole_number(n_max, "photon cap")
    scissors = _whole_number(scissors, "scissor count")
    gain = _gain(gain)
    if scissors > n_max:
        raise ValueError(
            f"cutoff n_max={n_max} cannot hold the {scissors}-photon scissor truncation"
        )
    prefactor = _vacuum_entry(scissors, gain)
    diag = np.zeros(n_max + 1)
    for n in range(scissors + 1):
        diag[n] = prefactor * _pi_coefficient(scissors, n)
    return diag


def _diagonal_operator(diag: np.ndarray) -> ModeOperator:
    """The operator with ``diag`` on its diagonal, built as its one complex matrix."""
    entries = np.zeros((len(diag),) * 2, dtype=complex)
    np.fill_diagonal(entries, diag)
    return ModeOperator(entries)


def projector_pi(scissors: int, gain: float, n_max: int) -> ModeOperator:
    """Scissor-count projector: diagonal, zero above ``scissors`` photons.

    Entry n is ``(1/(g^2+1))^(N/2) * N! / ((N-n)! N^n)`` for n <= N.  At fixed
    n the coefficient rises monotonically to 1 as the scissor count grows, so
    the practical amplifier approaches the ideal one.
    """
    return _diagonal_operator(_projector_diagonal(scissors, gain, n_max))


def gain_diagonal(gain: float, n_max: int) -> np.ndarray:
    return np.power(float(gain), np.arange(_whole_number(n_max, "photon cap") + 1, dtype=float))


def _amplifier_vacuum(scissors: int, gain: float, n_max: int) -> float:
    """The vacuum entry of ``Pi_N g^n`` (``_vacuum_entry``), checked to stay in the floats on ``{0..n_max}``.

    Raises ``ValueError`` unless the vacuum entry is a normal float (every
    ratio to it would lose digits otherwise) and ``g^n_max``, the top entry of
    ``gain_diagonal``, is finite.
    """
    gain = float(gain)
    vacuum = _vacuum_entry(scissors, gain)
    try:
        in_range = gain ** n_max < math.inf
    except OverflowError:
        in_range = False
    if not in_range or vacuum < sys.float_info.min:
        raise ValueError(
            f"the amplifier with {scissors} scissors at gain {gain:g} leaves the float range "
            "((g^2+1)^(-N/2) below the smallest normal float, or g^n overflows); "
            "use fewer scissors or a lower gain"
        )
    return vacuum


def nla_operator(scissors: int, gain: float, n_max: int) -> ModeOperator:
    """Practical amplifier Kraus element: scissor-count projector times g^n.

    Sub-normalised by construction: the squared norm that one copy per node
    leaves on a state is exactly the joint heralding probability, which
    ``sensing.simulate_practical`` reports.  Raises ``ValueError`` where the
    operator leaves the float range (``_amplifier_vacuum``).
    """
    diag = _projector_diagonal(scissors, gain, n_max)
    n_max = len(diag) - 1
    _amplifier_vacuum(scissors, gain, n_max)
    return _diagonal_operator(diag * gain_diagonal(gain, n_max))


def clipped_gain_operator(gain: float, n_max: int) -> ModeOperator:
    """g^n clipped at the photon cap and rescaled by its largest entry.

    Stand-in for the ideal amplifier in validation runs; the overall scale is
    irrelevant after post-selection, and rescaling keeps entries bounded.
    """
    gain = _gain(gain)
    diag = gain_diagonal(gain, n_max)
    return _diagonal_operator(diag / diag[-1])


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

    The circuit runs once, on the Choi state ``sum_n |n>_ref |n, 1, 0>`` with
    a reference mode in front: column ``n`` of the map is the output held
    against ``|n>_ref`` and the herald.
    """
    gain = _gain(gain)
    n_max = _whole_number(n_max, "photon cap")
    gamma = 1.0 / (gain * gain + 1.0)
    # modes: 0 = reference, 1 = signal, 2 = ancilla photon, 3 = scissor output
    choi = np.zeros((n_max + 1,) * 4, dtype=complex)
    photons = np.arange(n_max + 1)
    choi[photons, photons, 1, 0] = 1.0
    state = beamsplitter(-math.acos(math.sqrt(gamma)), 2, 3, FockVector(choi))
    state = beamsplitter(math.pi / 4.0, 1, 2, state)
    return ModeOperator(state.amplitudes[:, 1, 0, :].T)
