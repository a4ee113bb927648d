"""End-to-end displacement-sensing pipelines, closed forms, and bounds.

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

The four loss-only closed forms (``delta_alpha_entangled``,
``delta_alpha_product``, ``crlb_entangled``, ``crlb_product``) take a float or
a 1-D array as their photon number and transmissivity: an array is checked
once, whole, and gives an array each of whose entries ``==`` the float call
on its entries, so a sweep evaluates its whole grid in one call.
``delta_alpha_ideal_nla`` takes one gain; its formula, ``_ideal_nla_point``,
takes a gain grid and returns the physicality measure beside the point.

The numerical pipelines are Fock-only: the covariance engine in
:mod:`cvdqs.gaussian` is their independent oracle, and this module does not
import it.

The numerical pipelines represent the lossy source as its pure Kraus
branches rather than one dense multimode density matrix, keeping memory
linear in the basis size.  Uniform loss commutes with the balanced splitter,
so this is exact; ``test_practical_pipeline_matches_independent_oracle``
pins it against an oracle that loses photons after the split.
``cutoff`` caps the photon number of the single-mode source.  Both pipelines
sum the branches into one source density ``R`` indexed by the source's photon
total, and read every moment off as overlaps weighted by ``R`` in the sector
of each side: ``_gather_weights`` takes the weights of every overlap from
``R`` in a single pass.  Both probe states are symmetric under permuting the
nodes, so every moment is an overlap of the kets ``[a^dag psi, psi, a psi]``
of mode 0 or 1 (source shifts -1, 0, +1), and both pipelines hand two 3x3
Gram matrices of them, one mode and a pair, to one formula
(``_symmetric_moments``).  The amplifier-free pipeline splits one comb
of photon numbers over the dense ``(cutoff+1)^M`` tensor, once per point
rather than once per branch.  After the split it reads only the held
entries, those with at most ``cutoff + 1`` photons, the only ones that carry
weight: it reads the ladders of modes 0 and 1 there by index shifts
(``_held_ladders``) and forms each Gram matrix in one contraction (``_gram``)
over them.  The practical pipeline forms no
``M``-mode tensor at all: an even split has closed-form amplitudes, so its
ladders act on one mode, and a pair of modes enters only through its photon
total, read off a Hankel view of the weights.  ``R`` holds nothing above
``cutoff`` photons and a ladder adds one, so that mode's basis stops at
``min(N, cutoff) + 1`` photons.  Its cost grows with ``M`` only through the
polynomial powers ``f^(M-1)`` and ``f^(M-2)`` that sum out the other modes,
taken by repeated squaring.

The practical pipeline runs one source stage, then a gain axis.  The source
stage builds ``R`` and gathers its weights over every photon total a pair of
modes can hold; it does not depend on the gain and is cached, so a sweep over
gains builds it once.  It caches
those weights and the source's truncation deficit, nothing more, and runs the
truncation guard, so a source whose deficit exceeds ``TRUNC_TOL`` raises and
is never cached.  The gain stage then takes one gain or a whole grid of them
in one array pass: the amplifier's shape is read once, at gain 1, and the gain
``g`` only rescales the power series by ``g^(2r)`` and the kets by ``g^n``, so
one product per gain with the weights gives the tables of every gain, and two
batched contractions their Gram matrices.  Its x ladders depend only on the
basis, so it reads one cached ``(a, a^dag)`` pair per basis size
(``_ladder_pair``).
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
    quadratures,
    sv_fock,
    _sqrt,
)
from .nla import (
    NlaSpec,
    _check_amplifier_range,
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

#: Ceiling on probability weight the photon cap may swallow.  Loose enough
#: for quick cutoff-5 runs of the standard four-node scenarios (their deficit
#: is ~2e-5); the deficit itself is always surfaced in results.
TRUNC_TOL = 1e-4

_MEAN_TOL = 1e-10


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
    the same bits; an array's error is that of its first entry past the floats.
    """
    if isinstance(mean_photons, ndarray):
        root = np.sqrt(mean_photons + 1.0) + np.sqrt(mean_photons)
        with np.errstate(over="ignore"):
            factor = root * root
        past = mean_photons[np.isinf(factor)]
        if past.size:
            _brightness_factor(past[0].item())  # raises the error of that entry alone
        return factor
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
    the overflow, which ``cli.build_bounds_blocks`` and ``_closed_form`` silence.
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
    ``delta_alpha_entangled`` attains (ROADMAP item 11); at ``eta = 1`` the
    state is pure and the two coincide.  Takes arrays as
    ``delta_alpha_entangled`` does.
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

    Returns whether either of the two is an array; an array is checked whole
    (``_check_entries``).
    """
    fock._whole_number(nodes, "node count")
    if isinstance(mean_photons, ndarray) or isinstance(eta, ndarray):
        _check_entries(fock._photon_number, mean_photons)
        _check_entries(fock._transmissivity, eta)
        return True
    fock._photon_number(mean_photons)
    fock._transmissivity(eta)
    return False


def _check_entries(check, values) -> None:
    """Run the float ``check`` on a float, or on every entry of an array.

    Each check admits an interval, so an array passes when its least and
    greatest entries do (a NaN is both); otherwise its entries are checked in
    order, so the error is that of its first failing entry.
    """
    if not isinstance(values, ndarray):
        check(values)
    elif values.size:
        try:
            check(values.min())
            check(values.max())
        except ValueError:
            for entry in values.ravel().tolist():
                check(entry)
            raise


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
    first (pinned by ``test_practical_pipeline_matches_independent_oracle``,
    whose oracle loses photons after the split) and needs one mode instead of
    M.  A branch that loses more photons than the source holds is exactly zero.
    ``R`` is ``(n_max+1) x (n_max+1)``.  Also returns the source's truncation
    deficit, after raising ``TruncationError`` if it exceeds ``TRUNC_TOL``.
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
    the Gaussian engine.  The source is split once: ``fock.balanced_splitter``
    spreads the comb with amplitude 1 on every ``|s, 0, ..., 0>`` into ``Phi``.
    The splitter conserves photon number, so loss branch ``b_k`` splits into
    ``Phi[n] b_k[T(n)]``, ``T`` the photon total, and ``a_i`` (``a_i^dag``) of
    it is ``(a_i Phi)[n] b_k[T(n) + 1]`` (``b_k[T(n) - 1]``), truncation edge
    included; every moment is an overlap of these tensors.  ``Phi`` is
    symmetric under permuting the modes, so the moments come from the
    ladders of modes 0 and 1 alone: one ``_gram`` of mode 0's
    ``[a^dag Phi, Phi, a Phi]`` with itself and one against mode 1's, read
    through the practical engine's ``_symmetric_moments``.  ``Phi`` holds at
    most ``cutoff`` photons and a ladder adds one, so only the held entries,
    those with at most ``cutoff + 1`` photons, carry weight (711 of 6,561 at
    M=4, cutoff 8).  After the split no ladder is applied to the full tensor:
    the ladders are read straight off the flattened ``Phi`` (a copy from
    ``M=3``, where the splitter leaves its axes permuted) at the held entries
    by index shifts (``_held_ladders``, cached on ``(cutoff, M)``); the split
    is never cached.  A tensor of more than ``2**22`` amplitudes, or from
    ``M=2`` a splitter unitary of more than ``2**22`` entries, raises
    ``ValueError`` before anything is built.
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
    """Source stage of ``simulate_practical``: all of a point that does not depend on the gain.

    The weights gathered once from the density ``R`` for every photon total
    ``0..2 dim - 2`` that a pair of modes on the amplifier's basis
    (``_amplifier_dim``) can hold, frozen, and the source's truncation
    deficit; the one-mode overlaps read the first ``dim`` sectors.  A source
    that fails the truncation guard, a cap whose split amplitudes
    ``sqrt(s!) M^(-s/2)`` leave the float range, or a cap too long for one
    array, raises and is not cached.
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


def simulate_practical(cfg: ScenarioConfig):
    """Run the practical-amplifier pipeline on the Fock kernel, over one gain or a grid of them.

    Source, loss, and balanced split as in the amplifier-free pipeline, then
    one heralded amplifier per node; the reported probability is the joint
    one (every node must herald) and probe power is measured on the
    post-selected state.  A float ``cfg.nla.gain`` gives one
    ``SensitivityPoint``; a 1-D array of gains gives a list of them, one per
    gain in its order, each ``==`` to the point of that gain alone: a single
    gain is the same array pass on a gain axis of length 1.

    The heralded state is symmetric under permuting the nodes, so
    ``Var(xbar) = [<x_1^2> + (M-1) <x_1 x_2>] / M`` and the power is
    ``M <n_1>``: only the one- and two-mode marginals are needed, and no
    ``M``-mode tensor is formed.  Splitting ``s`` photons evenly puts amplitude
    ``sqrt(s!) M^(-s/2) prod_i 1/sqrt(n_i!)`` on occupation ``(n_1, ..., n_M)``
    (all positive in the sign convention of ``fock.balanced_splitter``), and
    the amplifier multiplies it by ``prod_i t[n_i]``, ``t`` its diagonal.  So
    a heralded loss branch is ``beta_k[s] prod_i amp[n_i]`` with
    ``beta_k[s] = b_k[s] sqrt(s!) M^(-s/2)`` and ``amp[n] = t[n] / sqrt(n!)``.
    Summing out ``p`` modes whose photons total ``r`` leaves the coefficient
    ``[z^r] f(z)^p`` with ``f(z) = sum_n amp[n]^2 z^n``, and summing the
    branches leaves the source density ``R[s, s'] = sum_k beta_k[s] beta_k[s']``.
    ``R`` holds nothing above ``cutoff`` photons and a ladder adds one, so
    ``amp`` lives on ``{0..min(N, cutoff) + 1}`` (``_amplifier_dim``); the
    entries above never reach a result.

    The gain enters as ``g^n``: ``t = t[0] a0[n] sqrt(n!) g^n`` with ``a0``
    the shape of the amplifier at gain 1, read once per call from one
    ``nla_operator(N, 1, N+1)``.  So ``[z^r] f^p`` at gain ``g`` is its value
    at gain 1 times ``g^(2r)``, and the kets ``l = [a^dag amp, amp, a amp]``,
    at source shifts -1, 0, +1, are the two ladders of ``a0`` (applied once)
    times ``g^(n-1)``, ``g^n`` and ``g^(n+1)``.  A product of the gathered
    weights with the ``(cutoff+1) x 2`` matrix of the two scaled series
    ``[f^(M-1), f^(M-2)]`` gives the tables ``T1`` and ``T2`` of every shift
    pair; one stacked matmul makes it for every gain, each of the shape a
    single gain makes, since a BLAS product of more columns may round a column
    differently.  The one-mode moments are the Gram matrix
    ``sum_n conj(l_i[n]) T1_ij[n] l_j[n]``.  A pair overlap
    ``<l_i x amp| T2 |amp x l_j>`` reads ``T2`` only at the pair's photon total,
    so all nine come from one contraction of ``conj(l_i) amp`` and
    ``amp l_j`` with the Hankel view ``T2_ij[m + n]``, which copies nothing.
    Unlike their convolution, the contraction never forms the product of
    those two arrays unweighted, which overflows at 40 scissors and g=1000;
    the series are scaled in log space, so only a coefficient that itself
    leaves the floats overflows.  Each gain's herald probability takes back
    the scale ``t[0]^(2M)``.  The source cap ``cutoff`` is the only truncation.

    Two stages: ``_practical_source``, cached on ``(M, N_S, eta, cutoff, N)``,
    builds ``R`` and gathers the weights of every shift pair once, so a gain
    sweep builds it once; the gain stage above runs once per call, for every
    gain at once.  The source stage raises ``TruncationError`` when the
    deficit exceeds ``TRUNC_TOL``, and ``ValueError`` when the cap's split
    amplitudes ``sqrt(s!) M^(-s/2)`` leave the float range (from cap 395 at
    M=4).  An amplifier that leaves the floats at some gain (``nla_operator``'s
    refusal), or a weight, variance or power that is not finite, raises the
    ``ValueError`` of the first such gain in the grid, as that gain alone would.
    """
    if cfg.scheme != SCHEME_PRACTICAL_NLA:
        raise ValueError(f"expected scheme {SCHEME_PRACTICAL_NLA!r}, got {cfg.scheme!r}")
    spec, nodes, cap = cfg.nla, cfg.nodes, cfg.cutoff
    weights, deficit = _practical_source(nodes, cfg.mean_photons, cfg.eta, cap, spec.scissors)
    gains = np.array(spec.gain, dtype=float, ndmin=1)
    gain_list = gains.tolist()
    # a gain-1 amplifier past the floats puts every gain >= 1 past them: the
    # first gain is refused before the shape is read at gain 1
    _check_amplifier_range(spec.scissors, gain_list[0], _vacuum_entry(spec.scissors, gain_list[0]), spec.scissors + 1)
    dim = _amplifier_dim(spec.scissors, cap)
    half_log_factorial, exponents, even = _amplifier_basis(dim, cap)

    # a moment that leaves the floats is caught below, not warned about
    with np.errstate(all="ignore"):
        # amp is scaled by t[0] so f^p stays finite at any M; the scale t[0]^(2M)
        # is common to every moment and comes back in the herald probability
        t = nla_operator(spec.scissors, 1.0, spec.scissors + 1).entries.diagonal()[:dim].real
        amp = np.exp(np.log(t / t[0]) - half_log_factorial)
        f = amp**2
        rest = _power_series(f, max(nodes - 2, 0), cap + 1)
        rest_of_one = np.convolve(rest, f)[: cap + 1] if nodes > 1 else rest
        # [z^r] f^p times g^(2r) for every gain, p = M-1 then M-2: shape (G, 2, cap+1)
        series = np.exp(np.log([rest_of_one, rest]) + np.multiply.outer(np.log(gains), even)[:, None, :])
        # one product per gain, of the shape a single gain makes, so that no
        # point depends on the grid around it: tables of shape (G, 3, 3, sectors, 2)
        tables = (weights.reshape(-1, cap + 1) @ series.swapaxes(1, 2)).reshape(len(gains), 3, 3, -1, 2)
        kets = _shift_stack(FockVector(amp), 0).real * gains[:, None, None] ** exponents
        one = _gram(kets, tables[..., :dim, 0], kets)
        # <l_i x amp| T(m + n) |amp x l_j>: l_i amp on mode 0, amp l_j on mode 1
        pair_kets = kets * kets[:, 1:2]
        pair = np.einsum("gim,gijmn,gjn->gij", pair_kets, _hankel(tables, dim), pair_kets)
    # t[0] at gain g is its vacuum entry times this ratio, exactly 1 for the exact operator
    ratio = float(t[0]) / _vacuum_entry(spec.scissors, 1.0)
    points = []
    for gain, one_at, pair_at in zip(gain_list, one.tolist(), pair.tolist()):
        vacuum = _vacuum_entry(spec.scissors, gain)
        _check_amplifier_range(spec.scissors, gain, vacuum, spec.scissors + 1)
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
                cutoff=cap,
                trunc_deficit=deficit,
            )
        )
    return points if np.ndim(spec.gain) else points[0]


def _hankel(tables: np.ndarray, dim: int) -> np.ndarray:
    """The view ``H[g, i, j, m, n] = tables[g, i, j, m + n, 1]``, ``m, n < dim``, copying nothing.

    ``tables`` is C-contiguous of shape ``(G, 3, 3, 2 dim - 1, 2)``; numpy
    checks that the view stays inside its buffer.
    """
    gain, first, second, total, column = tables.strides
    shape = (len(tables), 3, 3, dim, dim)
    return np.ndarray(shape, tables.dtype, tables, column, (gain, first, second, total, total))


def lossless_cvmp_vector(nodes: int, mean_photons: float, n_max: int) -> FockVector:
    """The split squeezed-vacuum probe before any loss, normalised."""
    source, _ = normalize(sv_fock(mean_photons, n_max))
    spread = np.zeros((source.n_max + 1,) * nodes, dtype=complex)
    spread[(slice(None),) + (0,) * (nodes - 1)] = source.amplitudes
    return fock.balanced_splitter(nodes, FockVector(spread))


# ---------------------------------------------------------------------------
# Fisher information
# ---------------------------------------------------------------------------

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
