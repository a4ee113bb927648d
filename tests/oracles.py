"""Dense Fock-space oracles that only the tests use: basis states, the lossless split probe and its QFI."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from cvdqs import fock
from cvdqs.fock import FockVector, _whole_number, apply_mode_operator, normalize, quadratures, sv_fock


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


def lossless_cvmp_vector(nodes: int, mean_photons: float, n_max: int) -> FockVector:
    """The split squeezed-vacuum probe before any loss, normalised."""
    source, _ = normalize(sv_fock(mean_photons, n_max))
    spread = np.zeros((source.n_max + 1,) * nodes, dtype=complex)
    spread[(slice(None),) + (0,) * (nodes - 1)] = source.amplitudes
    return fock.balanced_splitter(nodes, FockVector(spread))


def qfi_pure_displacement(state: FockVector) -> float:
    """Quantum Fisher information of a pure Fock probe for a common displacement.

    For the generator sum_m p_m the information is 4 Var(sum_m p_m), in the
    Fock kernel's p convention; the rms bound is 1/sqrt(I_F).
    """
    unit, _ = normalize(state)
    _, p_op = quadratures(unit.n_max)
    amps = unit.amplitudes
    summed = np.zeros_like(amps)
    for mode in range(unit.mode_count):
        summed += apply_mode_operator(p_op, mode, unit).amplitudes
    first = float(np.vdot(amps, summed).real)
    second = float(np.vdot(summed, summed).real)
    return 4.0 * (second - first**2)
