"""Converged reference values, computed without the production pipelines.

The practical-amplifier reference builds the heralded state exactly instead
of truncating a dense ``(cutoff+1)^M`` tensor:

* splitting ``s`` photons evenly over ``M`` modes gives the amplitudes
  ``sqrt(s! / prod n_i!) * M^(-s/2)`` (all positive, which matches the sign
  convention of ``fock.balanced_splitter``);
* the scissor amplifier ``Pi_N g^n`` is diagonal and zero above ``N``
  photons per mode, so the heralded state lives on ``{0..N}^M`` and the x
  ladder needs one level more.

So no per-mode photon cap enters.  The only truncation is the single-mode
source, whose cap is raised in even steps (the squeezed vacuum has even
photon numbers only, so an odd step adds nothing) until two successive caps
agree to ``CONVERGED_REL``.  Only the source (``fock.sv_fock``) and the
amplifier diagonal (``nla.nla_operator``) come from the package; loss, split
and moments are this module's own.

Amplifier-free quantities and bounds use their closed forms, written out
again here rather than imported from ``cvdqs.sensing``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from cvdqs import fock, nla

#: Two successive even source caps agreeing to this relative level count as
#: converged; far below the 10-digit CSV rendering.
CONVERGED_REL = 1e-13
FIRST_SOURCE_CAP = 8
LAST_SOURCE_CAP = 80


class NotConverged(RuntimeError):
    pass


def _log_factorials(n: int) -> np.ndarray:
    return np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, n + 1)))))


@lru_cache(maxsize=None)
def _split_factors(nodes: int, scissors: int, gain: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-occupation photon total and split-times-amplifier factor on {0..N}^M."""
    levels = np.arange(scissors + 1)
    occ = np.stack(np.meshgrid(*([levels] * nodes), indexing="ij"), axis=0)
    total = occ.sum(axis=0)
    log_fact = _log_factorials(nodes * scissors)
    log_split = 0.5 * (log_fact[total] - log_fact[occ].sum(axis=0)) - 0.5 * total * math.log(nodes)
    diag = np.diag(nla.nla_operator(scissors, gain, scissors).entries).real
    factor = np.exp(log_split) * np.prod(diag[occ], axis=0)
    return total, factor


def _lossy_source_sectors(mean_photons: float, eta: float, cap: int, max_photons: int) -> np.ndarray:
    """b[k, s]: amplitude of s photons left after k were lost, source cut at ``cap``."""
    source = fock.sv_fock(mean_photons, cap).amplitudes.real
    k = np.arange(cap + 1)[:, None]
    s = np.arange(max_photons + 1)[None, :]
    n = k + s
    inside = n <= cap
    n_safe = np.where(inside, n, 0)
    log_fact = _log_factorials(cap + max_photons)
    log_comb = log_fact[n_safe] - log_fact[k] - log_fact[s]
    with np.errstate(divide="ignore"):
        log_loss = k * math.log1p(-eta) if eta < 1.0 else np.where(k == 0, 0.0, -np.inf)
    weight = np.exp(0.5 * (log_comb + log_loss + s * math.log(eta)))
    return np.where(inside, source[n_safe] * weight, 0.0)


def _x_ladder(psi: np.ndarray, axis: int) -> np.ndarray:
    """x = (a + a^dag)/2 on one axis of a real tensor whose top level is empty."""
    dim = psi.shape[axis]
    root = np.sqrt(np.arange(dim, dtype=float))
    shape = [1] * psi.ndim
    shape[axis] = dim - 1
    root = root[1:].reshape(shape)
    out = np.zeros_like(psi)
    lower = [slice(None)] * psi.ndim
    upper = [slice(None)] * psi.ndim
    lower[axis] = slice(0, dim - 1)
    upper[axis] = slice(1, dim)
    out[tuple(lower)] += root * psi[tuple(upper)]
    out[tuple(upper)] += root * psi[tuple(lower)]
    return 0.5 * out


def practical_at_cap(
    nodes: int, mean_photons: float, eta: float, gain: float, scissors: int, cap: int
) -> tuple[float, float, float]:
    """(probe_power, delta_alpha, p_success) with the source cut at ``cap``."""
    total, factor = _split_factors(nodes, scissors, float(gain))
    sectors = _lossy_source_sectors(mean_photons, eta, cap, nodes * scissors)
    branches = sectors[:, total] * factor  # (loss branch, occupations...)
    sq = branches * branches
    weight = float(sq.sum())
    photons = float((sq * total).sum()) / weight
    padded = np.pad(branches, [(0, 0)] + [(0, 1)] * nodes)
    xbar = sum(_x_ladder(padded, axis) for axis in range(1, nodes + 1)) / nodes
    first = float((padded * xbar).sum()) / weight
    second = float((xbar * xbar).sum()) / weight
    return photons, math.sqrt(second - first * first), weight


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def practical(nodes: int, mean_photons: float, eta: float, gain: float, scissors: int) -> dict:
    """Converged practical-amplifier point and the source cap it needed."""
    prev = practical_at_cap(nodes, mean_photons, eta, gain, scissors, FIRST_SOURCE_CAP)
    cap = FIRST_SOURCE_CAP
    while cap < LAST_SOURCE_CAP:
        cap += 2
        cur = practical_at_cap(nodes, mean_photons, eta, gain, scissors, cap)
        if max(_rel(a, b) for a, b in zip(cur, prev)) <= CONVERGED_REL:
            power, delta, p_success = cur
            return {"probe_power": power, "delta_alpha": delta, "p_success": p_success, "source_cap": cap}
        prev = cur
    raise NotConverged(f"no convergence by source cap {LAST_SOURCE_CAP} at M={nodes}, g={gain}")


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def _brightness(mean_photons: float) -> float:
    return (math.sqrt(mean_photons + 1.0) + math.sqrt(mean_photons)) ** 2


def delta_alpha_lossy(nodes: int, mean_photons: float, eta: float) -> float:
    """Averaged-x rms error of a squeezed source split over M lossy modes."""
    return 0.5 * math.sqrt((eta / _brightness(mean_photons) + 1.0 - eta) / nodes)


def delta_alpha_product(nodes: int, total_photons: float, eta_local: float = 1.0) -> float:
    return delta_alpha_lossy(nodes, total_photons / nodes, eta_local)


def crlb(nodes: int, per_mode_photons: float, eta: float) -> float:
    return 0.5 / math.sqrt(nodes * (eta * _brightness(per_mode_photons) + 1.0 - eta))


def ideal_nla(nodes: int, mean_photons: float, eta: float, gain: float):
    """(probe_power, delta_alpha) of ideal amplifiers, or None past the physical range."""
    g_eff_sq = 1.0 + (gain * gain - 1.0) * eta
    eta_eff = gain * gain * eta / g_eff_sq
    lam = g_eff_sq * math.sqrt(mean_photons / (mean_photons + 1.0))
    if lam >= 1.0:
        return None
    n_eff = lam * lam / (1.0 - lam * lam)
    return n_eff * eta_eff, delta_alpha_lossy(nodes, n_eff, eta_eff)
