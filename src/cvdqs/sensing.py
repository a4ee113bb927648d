"""Displacement-sensing engines, closed forms, and bounds.

Scenario: one squeezed-vacuum source split evenly over M sensor nodes by a
balanced network, distributed through pure-loss channels, optionally repaired
by one noiseless linear amplifier per node, then probed by a uniform
displacement and read out by per-node x homodyne.  The estimator is the
average of the x outcomes; every probe built here has zero x means, so the
rms estimation error equals the standard deviation of that average and the
displacement itself never needs to be applied numerically.

Probe power is the total mean photon number arriving at the nodes (after
post-selection where amplifiers are heralded); it is the fairness metric for
comparing schemes.  The product baseline generates its squeezed states
locally, so by default it suffers no distribution loss (``eta_local`` exists
for equal-loss comparisons).

The two Fock engines, ``simulate_no_nla_fock`` and ``simulate_practical``,
sum the pure loss branches of the source into one density ``R`` indexed by
the source's photon total (``_source_density``), so no multimode density
matrix is formed.  Both probe states are symmetric under permuting the
nodes, so every moment is an overlap, weighted by ``R``, of the kets
``[a^dag psi, psi, a psi]`` of mode 0 or 1: both engines hand two 3x3 Gram
matrices (``_gram``), of one mode and of a pair, to one formula
(``_symmetric_moments``).  The covariance engine in :mod:`cvdqs.gaussian` is
their independent oracle, and this module does not import it.

The practical engine is the composition of four stages:

1. ``_practical_source``: the weights of ``R`` and the truncation deficit;
   gain-free, and cached.
2. ``_amplifier_shape``: the amplifier at gain 1, its power series and kets.
3. ``_gain_stage``: the one-mode and pair Gram matrices of a block of gains.
4. ``_heralded_points``: one ``SensitivityPoint`` per gain.

A gain grid runs stages 3 and 4 over chunks of ``_GAIN_CHUNK`` gains.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
# bound by name: the scalar closed forms test for arrays on every call
from numpy import ndarray

from . import fock
from .fock import (
    FockVector,
    ModeOperator,
    TruncationError,
    annihilation_matrix,
    apply_mode_operator,
    loss_kraus_operators,
    normalize,
    sv_fock,
    _check_entries,
    _sqrt,
)
from .nla import (
    NlaSpec,
    _amplifier_vacuum,
    _check_physical,
    _vacuum_entry,
    _effective_gain,
    _effective_sv_photons,
    _effective_transmissivity,
    nla_operator,
)

SCHEME_NO_NLA = "entangled_no_nla"
SCHEME_IDEAL_NLA = "entangled_ideal_nla"
SCHEME_PRACTICAL_NLA = "entangled_practical_nla"
SCHEME_PRODUCT = "product_optimal"

#: Ceiling on probability weight the photon cap may swallow, loose enough for
#: cutoff-5 runs of the four-node scenarios; every result reports the deficit.
TRUNC_TOL = 1e-4

_MEAN_TOL = 1e-10

# gains per pass of stages 3 and 4, so that a grid holds one chunk's tables beside
# its points: the tables take about 1 kB per gain at M=4, cap 8
_GAIN_CHUNK = 4096


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one simulated experiment: amplifier-free or practical NLA."""

    nodes: int
    mean_photons: float
    eta: float
    scheme: str
    cutoff: int = 8
    nla: Optional[NlaSpec] = None

    def __post_init__(self):
        _check_scenario(self.nodes, self.mean_photons, self.eta)
        object.__setattr__(self, "nodes", int(self.nodes))
        if self.scheme not in (SCHEME_NO_NLA, SCHEME_PRACTICAL_NLA):
            raise ValueError(
                f"no engine simulates scheme {self.scheme!r}; "
                f"expected {SCHEME_NO_NLA!r} or {SCHEME_PRACTICAL_NLA!r}"
            )
        object.__setattr__(self, "cutoff", fock._whole_number(self.cutoff, "photon cap"))
        if self.scheme == SCHEME_NO_NLA and self.nla is not None:
            raise ValueError("the amplifier-free scheme takes no NlaSpec")
        if self.scheme == SCHEME_PRACTICAL_NLA and self.nla is None:
            raise ValueError("practical-amplifier scheme needs an NlaSpec")


@dataclass(frozen=True)
class SensitivityPoint:
    """One sweep result: rms error at a probe power, with herald probability."""

    probe_power: float
    delta_alpha: float
    p_success: float
    cutoff: Optional[int] = None
    trunc_deficit: Optional[float] = None


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def _brightness_factor(mean_photons):
    """(sqrt(N+1) + sqrt(N))^2, the anti-squeezed variance of the source; ``ValueError`` past the floats.

    ``mean_photons`` may be a float or an array.  Squared as ``root * root``,
    which is correctly rounded where ``** 2`` is not, so the two routes give
    the same bits.  The factor rises with ``N``, so an array is checked by its ends.
    """
    if isinstance(mean_photons, ndarray):
        _check_entries(_brightness_factor, mean_photons)
        root = np.sqrt(mean_photons + 1.0) + np.sqrt(mean_photons)
        return root * root
    root = math.sqrt(mean_photons + 1.0) + math.sqrt(mean_photons)
    factor = root * root
    if factor == math.inf:
        raise ValueError(
            f"mean photon number {mean_photons} is too large: the source brightness "
            "(sqrt(N+1) + sqrt(N))^2 leaves the float range"
        )
    return factor


def _loss_only_error(nodes: int, mean_photons, eta):
    """The loss-only rms error of ``delta_alpha_entangled``, on inputs already checked.

    ``mean_photons`` and ``eta`` may be floats or arrays; the result is a float or an array of their shape.
    """
    return 0.5 * _sqrt(eta / (nodes * _brightness_factor(mean_photons)) + (1.0 - eta) / nodes)


def _loss_only_bound(nodes: int, mean_photons, eta):
    """The pure-state QFI formula ``1/sqrt(4 Var(sum p))`` of ``crlb_entangled``, on inputs already checked.

    ``mean_photons`` and ``eta`` may be floats or arrays; the result is a float or an array of their shape.
    A denominator past the floats reads inf, and the bound 0; an array also warns of
    the overflow, which ``_closed_form`` silences.
    """
    return 0.5 / _sqrt(nodes * eta * _brightness_factor(mean_photons) + nodes * (1.0 - eta))


def _ideal_nla_point(nodes: int, mean_photons: float, eta: float, gain):
    """``(probe_power, delta_alpha, lam)`` of ``delta_alpha_ideal_nla``, on inputs already checked.

    ``gain`` may be a float or an array (a gain grid).  The gain is physical
    where ``lam = g_eff^2 sqrt(N/(N+1))`` is below 1 (``nla._check_physical``);
    elsewhere the power and error are those of a stand-in and mean nothing.
    An array past the boundary, or of gains whose square overflows, warns;
    ``cli._ideal_block`` silences it.
    """
    g_eff = _effective_gain(gain, eta)
    eta_eff = _effective_transmissivity(gain, eta)
    n_eff, lam = _effective_sv_photons(mean_photons, g_eff)
    return n_eff * eta_eff, _loss_only_error(nodes, n_eff, eta_eff), lam


def _closed_form(arrays: bool, formula, nodes: int, mean_photons, eta):
    """``formula(nodes, mean_photons, eta)`` on checked inputs: a float for floats, an array where ``arrays``.

    On an array an overflow reads inf, as on a float, with no numpy warning.
    """
    if arrays:
        with np.errstate(over="ignore"):
            return formula(nodes, mean_photons, eta)
    return formula(nodes, mean_photons, eta)


def delta_alpha_entangled(nodes: int, mean_photons, eta) -> float | np.ndarray:
    """Rms error of the split-source scheme without amplifiers.

    ``(1/2) sqrt( eta / (M (sqrt(N+1)+sqrt(N))^2) + (1-eta)/M )``.  ``mean_photons``
    and ``eta`` may be floats, giving a float, or 1-D arrays, giving an array
    whose every entry ``==`` the float call on its entries; an array is checked
    once, whole.
    """
    arrays = _check_scenario(nodes, mean_photons, eta)
    return _closed_form(arrays, _loss_only_error, nodes, mean_photons, eta)


def delta_alpha_product(nodes: int, total_photons, eta_local=1.0) -> float | np.ndarray:
    """Rms error of the optimum product baseline: M equal squeezed states.

    ``total_photons`` is shared evenly, so each node carries ``N/M``; the
    default ``eta_local = 1`` reflects local state generation with no
    distribution loss.  Takes arrays as ``delta_alpha_entangled`` does.
    """
    arrays = _check_scenario(nodes, total_photons, eta_local)
    return _closed_form(arrays, _loss_only_error, nodes, total_photons / nodes, eta_local)


def delta_alpha_ideal_nla(nodes: int, mean_photons: float, eta: float, gain: float) -> SensitivityPoint:
    """Rms error with one ideal amplifier per node, via the effective channel.

    Composes the effective gain and transmissivity with the amplified source
    brightness, then evaluates the loss-only formula on the effective
    scenario.  Probe power is the effective brightness times the effective
    transmissivity.  Ideal amplifiers succeed with probability zero, which
    ``p_success`` reports as 0.  A gain past the physical range raises
    ``nla.UnphysicalGainError``.
    """
    _check_scenario(nodes, mean_photons, eta)
    power, error, lam = _ideal_nla_point(nodes, mean_photons, eta, fock._gain(gain))
    _check_physical(lam)
    return SensitivityPoint(probe_power=power, delta_alpha=error, p_success=0.0)


def crlb_entangled(nodes: int, mean_photons, eta) -> float | np.ndarray:
    """``1/sqrt(4 Var(sum_i p_i))`` on the lossy split-source state: the pure-state QFI formula.

    ``(1/2) [M eta (sqrt(N+1)+sqrt(N))^2 + M (1-eta)]^(-1/2)``.  ``4 Var`` of
    the displacement generator ``sum_i p_i`` is the quantum Fisher information
    (QFI) of a pure state; the lossy state is mixed, and for it the formula
    only bounds the QFI from above.  So at ``eta < 1`` this value falls below
    the state's true quantum Cramer-Rao bound, which the averaged-x error
    ``delta_alpha_entangled`` attains; at ``eta = 1`` the state is pure and
    the two coincide.  Takes arrays as ``delta_alpha_entangled`` does.
    """
    arrays = _check_scenario(nodes, mean_photons, eta)
    return _closed_form(arrays, _loss_only_bound, nodes, mean_photons, eta)


def crlb_product(nodes: int, mean_photons, eta) -> float | np.ndarray:
    """``1/sqrt(4 Var(sum_i p_i))`` on the product baseline (N/M per node): the pure-state QFI formula.

    As ``crlb_entangled``: below ``eta = 1`` it falls below the lossy state's
    true quantum Cramer-Rao bound.  Takes arrays as ``delta_alpha_entangled`` does.
    """
    arrays = _check_scenario(nodes, mean_photons, eta)
    return _closed_form(arrays, _loss_only_bound, nodes, mean_photons / nodes, eta)


def _check_scenario(nodes: int, mean_photons, eta) -> bool:
    """Check a node count, and a photon number and a transmissivity that may be floats or arrays.

    Returns whether either of the two is an array; an array is checked by its ends (``_check_entries``).
    """
    fock._whole_number(nodes, "node count")
    _check_entries(fock._photon_number, mean_photons)
    _check_entries(fock._transmissivity, eta)
    return isinstance(mean_photons, ndarray) or isinstance(eta, ndarray)


# ---------------------------------------------------------------------------
# Fock pipeline (pure Kraus branches of the lossy split source)
# ---------------------------------------------------------------------------

def _source_density(
    mean_photons: float, eta: float, n_max: int, scale: np.ndarray
) -> tuple[np.ndarray, float]:
    """``R[s, s'] = sum_k conj(c_k[s]) c_k[s']`` over ``c_k = scale * b_k``, ``b_k`` the lossy source.

    ``b_k`` is loss branch ``k`` (``k`` photons lost) of the normalised
    single-mode source.  Loss is applied to the source mode before splitting;
    with equal per-mode transmissivity this is exactly equivalent to splitting
    first, and needs one mode instead of M.  A branch that loses more photons
    than the source holds is exactly zero.  ``R`` is ``(n_max+1) x (n_max+1)``.
    Also returns the source's truncation deficit, after raising
    ``TruncationError`` if it exceeds ``TRUNC_TOL``.
    """
    source = sv_fock(mean_photons, n_max)
    deficit = source.norm_deficit
    if deficit > TRUNC_TOL:
        raise TruncationError(
            f"truncation deficit {deficit:.3e} exceeds tolerance {TRUNC_TOL:.3e} "
            f"at n_max={n_max}; increase the cutoff"
        )
    unit = normalize(source)[0].amplitudes
    branches = np.array([kraus @ unit for kraus in loss_kraus_operators(eta, n_max)]) * scale
    return branches.conj().T @ branches, deficit


def _gather_weights(density: np.ndarray, sectors: int, length: int) -> np.ndarray:
    """``density[sector + b, sector + k]`` for every shift pair ``b, k`` in ``{-1, 0, 1}``.

    Shape ``(3, 3, sectors, length)``: contracted with ``length`` coefficients
    of the summed-out modes, it gives the table that ``_gram`` reads.  Source
    totals outside ``density`` read zero.
    """
    padded = np.zeros((sectors + length + 1,) * 2, dtype=density.dtype)
    padded[1 : len(density) + 1, 1 : len(density) + 1] = density
    sector = np.arange(sectors)[:, None] + np.arange(length) + 1
    shifts = np.arange(-1, 2)[:, None, None, None]
    return padded[sector + shifts, sector + shifts.swapaxes(0, 1)]


def _gram(bras: np.ndarray, table: np.ndarray, kets: np.ndarray) -> np.ndarray:
    """``G[i, j] = Re sum_n conj(bras[i, n]) table[i, j, n] kets[j, n]``, all nine overlaps at once.

    ``bras`` and ``kets`` stack three flattened amplitude tensors in source-shift
    order ``-1, 0, +1`` (``_shift_stack``, ``_held_ladders``);
    ``table[i, j, n]`` is the summed weight of their shift pair at the photon
    total of entry ``n``.  Leading axes of all three (one per gain) are kept.
    """
    return np.einsum("...in,...ijn,...jn->...ij", bras.conj(), table, kets).real


@functools.lru_cache(maxsize=8)
def _ladder_pair(n_max: int) -> tuple[ModeOperator, ModeOperator]:
    """``(a, a^dag)`` on ``{0..n_max}``: one pair per basis, shared by every practical point."""
    lower = ModeOperator(annihilation_matrix(n_max))
    return lower, ModeOperator(lower.entries.conj().T)


def _shift_stack(state: FockVector, mode: int) -> np.ndarray:
    """``[a^dag psi, psi, a psi]`` on one mode: their source totals sit at shifts -1, 0 and +1.

    a lowers the tensor, so its source sits one above.
    """
    lower, upper = _ladder_pair(state.n_max)
    return np.array(
        [
            apply_mode_operator(upper, mode, state).amplitudes,
            state.amplitudes,
            apply_mode_operator(lower, mode, state).amplitudes,
        ]
    )


def _require_unbiased(mean_x: float) -> None:
    if abs(mean_x) > _MEAN_TOL:
        raise AssertionError(
            f"probe state has non-zero x mean ({abs(mean_x):.3e}); averaged-x error would be biased"
        )


def _symmetric_moments(nodes: int, one, pair) -> tuple[float, float, float]:
    """Weight, ``Var(xbar)`` and power of a state symmetric under permuting the nodes.

    ``Var(xbar) = [<x_1^2> + (M-1) <x_1 x_2>] / M - <x_1>^2`` and the power is
    ``M <n_1>``.  ``one`` is the Gram matrix (``_gram``) of mode 0's
    ``[a^dag psi, psi, a psi]`` with itself, as nested lists; ``pair``, which only
    ``M > 1`` reads, that of mode 0's stack against mode 1's.
    ``x = (a + a^dag)/2`` reads the entries of the outer kets, 0 and 2, and
    the power reads ``<a psi|a psi>``.
    """
    (up_up, up, up_down), (_, weight, down), (down_up, _, down_down) = one
    mean_x = (up + down) / (2.0 * weight)
    _require_unbiased(mean_x)
    x_sq = (up_up + up_down + down_up + down_down) / (4.0 * weight)
    x_cross = 0.0
    if nodes > 1:
        (cross_uu, _, cross_ud), _, (cross_du, _, cross_dd) = pair
        x_cross = (cross_uu + cross_ud + cross_du + cross_dd) / (4.0 * weight)
    return weight, (x_sq + (nodes - 1) * x_cross) / nodes - mean_x**2, nodes * (down_down / weight)


@functools.lru_cache(maxsize=4)
def _held_ladders(n_max: int, modes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where the ladders of modes 0 and 1 read a ``(n_max+1)^modes`` tensor, on its held entries.

    The held entries hold at most ``n_max + 1`` photons; they are enumerated
    one mode at a time, so no array of ``(n_max+1)^modes`` entries is formed.
    On the flattened tensor a photon more in mode ``m`` is a shift of
    ``(n_max+1)^(modes-1-m)``, so ``[a^dag psi, psi, a psi]`` of mode ``m`` at
    an entry with ``n_m`` photons there is ``psi`` one shift down times
    ``sqrt(n_m)``, ``psi``, and ``psi`` one shift up times ``sqrt(n_m + 1)``.
    Where the truncated ``annihilation_matrix`` gives zero (``n_m = 0`` for
    ``a^dag``, ``n_m = n_max`` for ``a``) the scale is zero and the index
    stays on the entry.  Returns the indices and scales, shape
    ``(min(modes, 2), 3, held)`` in source-shift order -1, 0, +1, and the
    photon total of every held entry, all frozen.
    """
    dim = n_max + 1
    held, totals = np.zeros(1, dtype=np.intp), np.zeros(1, dtype=np.intp)
    for _ in range(modes):
        held = (held[:, None] * dim + np.arange(dim)).ravel()
        totals = (totals[:, None] + np.arange(dim)).ravel()
        keep = totals <= dim
        held, totals = held[keep], totals[keep]
    index, scale = [], []
    for mode in range(min(modes, 2)):
        step = dim ** (modes - 1 - mode)
        photons = held // step % dim
        below = photons < n_max
        index.append([np.where(photons > 0, held - step, held), held, np.where(below, held + step, held)])
        scale.append([np.sqrt(photons), np.ones(len(held)), np.where(below, np.sqrt(photons + 1.0), 0.0)])
    return fock._frozen(np.array(index)), fock._frozen(np.array(scale)), fock._frozen(totals)


def simulate_no_nla_fock(cfg: ScenarioConfig) -> SensitivityPoint:
    """Run the amplifier-free pipeline on the dense ``(cutoff+1)^M`` Fock tensor.

    Cross-engine validation path: must agree with both the closed form and
    the Gaussian engine.  The source is split once per point, not once per
    loss branch: ``fock.balanced_splitter`` spreads the comb with amplitude 1
    on every ``|s, 0, ..., 0>`` into ``Phi``.  The splitter conserves photon
    number, so loss branch ``b_k`` splits into ``Phi[n] b_k[T(n)]``, ``T``
    the photon total, and ``a_i`` (``a_i^dag``) of it is ``(a_i Phi)[n]
    b_k[T(n) + 1]`` (``b_k[T(n) - 1]``), truncation edge included: the kets
    of the Gram matrices are the ladders of ``Phi`` on modes 0 and 1.
    ``Phi`` holds at most ``cutoff`` photons and a ladder adds one, so only
    the held entries, those with at most ``cutoff + 1`` photons, carry
    weight.  The ladders are read straight off the flattened ``Phi`` (a copy
    from ``M=3``, where the splitter leaves its axes permuted) at the held
    entries by index shifts (``_held_ladders``, cached on ``(cutoff, M)``),
    so no ladder is applied to the full tensor; the split is never cached.
    A tensor of more than ``2**22`` amplitudes, or from ``M=2`` a splitter
    unitary of more than ``2**22`` entries, raises ``ValueError`` before
    anything is built.
    """
    if cfg.scheme != SCHEME_NO_NLA:
        raise ValueError(f"expected scheme {SCHEME_NO_NLA!r}, got {cfg.scheme!r}")
    nodes, cap = cfg.nodes, cfg.cutoff
    # about 100 B of peak memory per amplitude; from M=2 the splitter's two-mode
    # unitary has (cap+1)^4 real entries of 8 B each, more than the state below M=4
    if (cap + 1) ** (max(nodes, 4) if nodes > 1 else 1) > 2**22:
        raise ValueError(f"cutoff {cap} on M={nodes} nodes needs over 2**22 dense Fock entries")
    density, deficit = _source_density(cfg.mean_photons, cfg.eta, cap, np.ones(cap + 1))
    comb = np.zeros((cap + 1,) * nodes, dtype=complex)
    comb[(slice(None),) + (0,) * (nodes - 1)] = 1.0
    split = fock.balanced_splitter(nodes, FockVector(comb))
    index, scale, totals = _held_ladders(cap, nodes)
    kets = split.amplitudes.reshape(-1)[index] * scale
    table = _gather_weights(density, cap + 2, 1)[..., 0][:, :, totals]
    one = _gram(kets[0], table, kets[0]).tolist()
    pair = _gram(kets[0], table, kets[1]).tolist() if nodes > 1 else None
    _, variance, power = _symmetric_moments(nodes, one, pair)
    return SensitivityPoint(
        probe_power=power,
        delta_alpha=math.sqrt(variance),
        p_success=1.0,
        cutoff=cap,
        trunc_deficit=deficit,
    )


def _power_series(poly: np.ndarray, power: int, length: int) -> np.ndarray:
    """The first ``length`` coefficients of ``poly(z) ** power``, lowest order first.

    By repeated squaring: at most ``2 log2(power)`` truncated convolutions.
    Every coefficient of an amplifier's ``f`` is positive, so nothing cancels.
    """
    out = np.zeros(length)
    out[0] = 1.0
    while power:
        if power & 1:
            out = np.convolve(out, poly)[:length]
        power >>= 1
        if power:
            poly = np.convolve(poly, poly)[:length]
    return out


@functools.lru_cache(maxsize=8)
def _amplifier_basis(dim: int, n_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``0.5 * log(n!)`` on ``{0..dim-1}``, and the gain exponents of the kets and of the series, frozen.

    The kets' exponents ``n + shift``, shape ``(3, dim)`` in source-shift
    order -1, 0, +1, are clipped to the basis: where ``n + shift`` leaves it
    the ladder leaves zero.  The series' are ``2r`` for ``r`` in ``0..n_max``.
    """
    half_log_factorial = np.array([0.5 * math.lgamma(k + 1.0) for k in range(dim)])
    exponents = np.clip(np.arange(dim) + np.arange(-1.0, 2.0)[:, None], 0, dim - 1)
    even = np.arange(0.0, 2 * n_max + 1, 2.0)
    return fock._frozen(half_log_factorial), fock._frozen(exponents), fock._frozen(even)


def _amplifier_dim(scissors: int, n_max: int) -> int:
    """The amplifier's basis ``{0..min(N, cap) + 1}``: ``R`` holds no weight above the cap, and a ladder adds one."""
    return min(scissors, n_max) + 2


@functools.lru_cache(maxsize=32)
def _practical_source(
    nodes: int, mean_photons: float, eta: float, n_max: int, scissors: int
) -> tuple[np.ndarray, float]:
    """Stage 1 of ``simulate_practical``: the weights of the split source, and its truncation deficit.

    Splitting ``s`` photons evenly puts amplitude ``sqrt(s!) M^(-s/2) prod_i
    1/sqrt(n_i!)`` on occupation ``(n_1, ..., n_M)``, all positive in the sign
    convention of ``fock.balanced_splitter``, so ``R`` here is formed from the
    loss branches scaled by ``sqrt(s!) M^(-s/2)``.  Its weights are gathered
    (``_gather_weights``) for every photon total ``0..2 dim - 2`` that a pair
    of modes on the amplifier's basis (``_amplifier_dim``) can hold, and
    frozen.  A source that fails the truncation guard, a cap whose split
    amplitudes leave the float range, or a cap too long for one array,
    raises and is not cached.
    """
    # log(sqrt(s!) M^(-s/2)) is convex in s, so on 0..cap it peaks at an end: the
    # cap is checked before any array of cap + 1 entries is asked for
    try:
        log_peak = 0.5 * math.lgamma(n_max + 1.0) - 0.5 * math.log(nodes) * n_max
    except OverflowError:
        log_peak = math.inf
    if log_peak > math.log(np.finfo(float).max):
        raise ValueError(
            f"the split amplitudes sqrt(s!) M^(-s/2) of cutoff {n_max} on M={nodes} nodes "
            "leave the float range; use a lower cutoff"
        )
    try:
        s = np.arange(n_max + 1)
    except ValueError as exc:  # numpy's "Maximum allowed size exceeded"
        raise ValueError(f"cutoff must be small enough for one array, got {n_max}: {exc}") from exc
    log_factorial = np.array([math.lgamma(n + 1.0) for n in s])
    log_split = 0.5 * log_factorial - 0.5 * math.log(nodes) * s
    density, deficit = _source_density(mean_photons, eta, n_max, np.exp(log_split))
    sectors = 2 * _amplifier_dim(scissors, n_max) - 1
    # the squeezed source and the loss branches are real, so R is
    return fock._frozen(_gather_weights(density.real, sectors, n_max + 1)), deficit


def _amplifier_shape(scissors: int, n_max: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Stage 2: ``(f, kets, t0)``, the amplifier's shape at gain 1 on its basis ``{0..dim-1}`` (``_amplifier_dim``).

    A heralded node multiplies a split occupation's amplitude by ``t[n] /
    sqrt(n!)``, ``t`` the diagonal of ``nla_operator(N, 1, N+1)`` here; divided
    by ``t0 = t[0]``, that is ``amp``.  ``f = amp**2`` is the power series of
    one summed-out mode, and ``kets``, shape ``(3, dim)``, are ``[a^dag amp,
    amp, a amp]`` (``_shift_stack``).  The scale keeps ``f^p`` finite at any
    ``M``; ``_heralded_points`` takes it back.  Runs under the caller's
    ``np.errstate``, so a zero entry of ``t`` reads zero, unwarned.
    """
    dim = _amplifier_dim(scissors, n_max)
    half_log_factorial, _, _ = _amplifier_basis(dim, n_max)
    t = nla_operator(scissors, 1.0, scissors + 1).entries.diagonal()[:dim].real
    amp = np.exp(np.log(t / t[0]) - half_log_factorial)
    return amp**2, _shift_stack(FockVector(amp), 0).real, float(t[0])


def _gain_stage(
    nodes: int, n_max: int, weights: np.ndarray, f: np.ndarray, kets: np.ndarray, gains: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Stage 3: the one-mode and pair Gram matrices (``_gram``) at every gain in ``gains``, shape ``(G, 3, 3)`` each.

    Summing out ``p`` modes whose photons total ``r`` leaves ``[z^r] f^p``,
    and at gain ``g`` it scales by ``g^(2r)`` and the kets by ``g^(n +
    shift)``.  The source weights times the two series ``[f^(M-1), f^(M-2)]``
    give the tables ``T1`` and ``T2`` of every shift pair.  The one-mode Gram
    reads ``T1`` at each ket's photon number; a pair overlap ``<l_i x amp| T2
    |amp x l_j>`` of kets ``l_i`` and ``l_j`` reads ``T2`` only at the pair's
    photon total, so all nine come from one contraction with its Hankel view
    (``_hankel``), which never forms the unweighted product of the two kets.
    The series are scaled in log space, so only a coefficient that itself
    leaves the floats overflows; under the caller's ``np.errstate`` nothing warns.
    """
    dim = kets.shape[1]
    _, exponents, even = _amplifier_basis(dim, n_max)
    rest = _power_series(f, max(nodes - 2, 0), n_max + 1)
    rest_of_one = np.convolve(rest, f)[: n_max + 1] if nodes > 1 else rest
    # [z^r] f^p times g^(2r) for every gain, p = M-1 then M-2: shape (G, 2, cap+1)
    series = np.exp(np.log([rest_of_one, rest]) + np.multiply.outer(np.log(gains), even)[:, None, :])
    # one product per gain, of the shape a single gain makes, so that no
    # point depends on the grid around it: tables of shape (G, 3, 3, sectors, 2)
    tables = (weights.reshape(-1, n_max + 1) @ series.swapaxes(1, 2)).reshape(len(gains), 3, 3, -1, 2)
    scaled = kets * gains[:, None, None] ** exponents
    one = _gram(scaled, tables[..., :dim, 0], scaled)
    # <l_i x amp| T(m + n) |amp x l_j>: l_i amp on mode 0, amp l_j on mode 1
    pair_kets = scaled * scaled[:, 1:2]
    pair = np.einsum("gim,gijmn,gjn->gij", pair_kets, _hankel(tables, dim), pair_kets)
    return one, pair


def _heralded_points(
    nodes: int, scissors: int, t0: float, gains: np.ndarray, one: np.ndarray, pair: np.ndarray,
    n_max: int, deficit: float,
) -> list[SensitivityPoint]:
    """Stage 4: one ``SensitivityPoint`` per gain, in grid order, from the Gram matrices of ``_gain_stage``.

    Gain by gain, the amplifier is checked in the float range
    (``nla._amplifier_vacuum``) and the weight, variance and power
    (``_symmetric_moments``) checked finite, so a grid raises the
    ``ValueError`` of its first failing gain.  The herald probability takes
    back the scale ``t0^(2M)`` at the gain's vacuum entry.
    """
    # t[0] at gain g is its vacuum entry times this ratio, exactly 1 for the exact operator
    ratio = t0 / _vacuum_entry(scissors, 1.0)
    points = []
    for gain, one_at, pair_at in zip(gains.tolist(), one.tolist(), pair.tolist()):
        vacuum = _amplifier_vacuum(scissors, gain, scissors + 1)
        weight, variance, power = _symmetric_moments(nodes, one_at, pair_at)
        if not all(map(math.isfinite, (weight, variance, power))):
            raise ValueError(
                f"the heralded moments at gain {gain:g} on M={nodes} nodes leave the float range; "
                "use a lower gain, fewer nodes or a lower cutoff"
            )
        points.append(
            SensitivityPoint(
                probe_power=power,
                delta_alpha=math.sqrt(variance),
                p_success=weight * (vacuum * ratio) ** (2 * nodes),
                cutoff=n_max,
                trunc_deficit=deficit,
            )
        )
    return points


def simulate_practical(cfg: ScenarioConfig):
    """Run the practical-amplifier engine, the four stages above, over one gain or a grid of them.

    Source, loss and balanced split, then one heralded amplifier per node:
    ``p_success`` is the joint herald probability (every node heralds), and
    the power and error are those of the post-selected state.  A float
    ``cfg.nla.gain`` gives one ``SensitivityPoint``; a 1-D array of gains
    gives a list, one per gain in its order, each ``==`` to the point of that
    gain alone.  The source cap ``cutoff`` is the only truncation, and no
    ``M``-mode tensor is formed: ``M`` enters only through the series powers
    of the gain stage.  Raises the source stage's errors, and the
    ``ValueError`` of the first gain at which the amplifier or the moments
    leave the float range.
    """
    if cfg.scheme != SCHEME_PRACTICAL_NLA:
        raise ValueError(f"expected scheme {SCHEME_PRACTICAL_NLA!r}, got {cfg.scheme!r}")
    spec, nodes, cap = cfg.nla, cfg.nodes, cfg.cutoff
    weights, deficit = _practical_source(nodes, cfg.mean_photons, cfg.eta, cap, spec.scissors)
    gains = np.array(spec.gain, dtype=float, ndmin=1)
    # a gain-1 amplifier past the floats puts every gain >= 1 past them: the
    # first gain is refused before the shape is read at gain 1
    _amplifier_vacuum(spec.scissors, gains[0].item(), spec.scissors + 1)
    points = []
    # stage 4 computes with Python floats only, so the errstate silences nothing of it
    with np.errstate(all="ignore"):
        f, kets, t0 = _amplifier_shape(spec.scissors, cap)
        for start in range(0, len(gains), _GAIN_CHUNK):
            chunk = gains[start : start + _GAIN_CHUNK]
            one, pair = _gain_stage(nodes, cap, weights, f, kets, chunk)
            points += _heralded_points(nodes, spec.scissors, t0, chunk, one, pair, cap, deficit)
    return points if np.ndim(spec.gain) else points[0]


def _hankel(tables: np.ndarray, dim: int) -> np.ndarray:
    """The view ``H[g, i, j, m, n] = tables[g, i, j, m + n, 1]``, ``m, n < dim``, copying nothing.

    ``tables`` is C-contiguous of shape ``(G, 3, 3, 2 dim - 1, 2)``; numpy
    checks that the view stays inside its buffer.
    """
    gain, first, second, total, column = tables.strides
    shape = (len(tables), 3, 3, dim, dim)
    return np.ndarray(shape, tables.dtype, tables, column, (gain, first, second, total, total))
