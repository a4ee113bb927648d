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
of mode 0 or 1 (``_shift_stack``, source shifts -1, 0, +1), and both
pipelines hand two 3x3 Gram matrices of them, one mode and a pair, to one
formula (``_symmetric_moments``).  The amplifier-free pipeline splits one comb
of photon numbers over the dense ``(cutoff+1)^M`` tensor, once per point
rather than once per branch, applies the ladders to its first two modes, and
forms each Gram matrix in one contraction (``_gram``) over the entries that
hold at most ``cutoff + 1`` photons.  The practical pipeline forms no
``M``-mode tensor at all: its amplifier is zero above ``N`` photons per mode
and an even split has closed-form amplitudes, so its ladders act on one mode
on ``{0..N+1}``, and a pair of modes enters only through its photon total,
read off a Hankel gather of the weights.  Its cost grows with ``M`` only
through the polynomial powers ``f^(M-1)`` and ``f^(M-2)`` that sum out the
other modes.

The practical pipeline runs in two stages: a source stage that builds ``R``
and gathers its weights over every photon total a pair of modes can hold,
cached because it does not depend on the gain (a gain sweep builds it once),
and a gain stage that forms the amplifier, contracts both power series with
those weights in one product, and reads the two Gram matrices off the
result.  The source stage caches those weights and the source's truncation
deficit, nothing more.  The truncation guard runs once, in
``_source_density``, so a source whose deficit exceeds ``TRUNC_TOL`` raises
and is never cached.  The x ladders depend only on the basis, so both
pipelines read one cached ``(a, a^dag)`` pair per basis size (``_ladder_pair``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

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
)
from .gaussian import FOCK_P_VARIANCE_SCALE, GaussianState, quadrature_sum_variance
from .nla import (
    AmplifierRangeError,
    NlaSpec,
    effective_gain,
    effective_sv_photons,
    effective_transmissivity,
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

    scheme: str
    probe_power: float
    delta_alpha: float
    p_success: float
    cutoff: Optional[int] = None
    trunc_deficit: Optional[float] = None


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def _brightness_factor(mean_photons: float) -> float:
    """(sqrt(N+1) + sqrt(N))^2, the anti-squeezed variance of the source."""
    return (math.sqrt(mean_photons + 1.0) + math.sqrt(mean_photons)) ** 2


def delta_alpha_entangled(nodes: int, mean_photons: float, eta: float) -> float:
    """Rms error of the split-source scheme without amplifiers.

    ``(1/2) sqrt( eta / (M (sqrt(N+1)+sqrt(N))^2) + (1-eta)/M )``.
    """
    _check_scenario(nodes, mean_photons, eta)
    return 0.5 * math.sqrt(
        eta / (nodes * _brightness_factor(mean_photons)) + (1.0 - eta) / nodes
    )


def delta_alpha_product(nodes: int, total_photons: float, eta_local: float = 1.0) -> float:
    """Rms error of the optimum product baseline: M equal squeezed states.

    ``total_photons`` is shared evenly, so each node carries ``N/M``; the
    default ``eta_local = 1`` reflects local state generation with no
    distribution loss.
    """
    _check_scenario(nodes, total_photons, eta_local)
    return delta_alpha_entangled(nodes, total_photons / nodes, eta_local)


def delta_alpha_ideal_nla(nodes: int, mean_photons: float, eta: float, gain: float) -> SensitivityPoint:
    """Rms error with one ideal amplifier per node, via the effective channel.

    Composes the effective gain and transmissivity with the amplified source
    brightness, then evaluates the loss-only formula on the effective
    scenario.  Probe power is the effective brightness times the effective
    transmissivity.  Ideal amplifiers succeed with probability zero, which
    ``p_success`` reports as 0.
    """
    _check_scenario(nodes, mean_photons, eta)
    g_eff = effective_gain(gain, eta)
    eta_eff = effective_transmissivity(gain, eta)
    n_eff = effective_sv_photons(mean_photons, g_eff)
    return SensitivityPoint(
        scheme=SCHEME_IDEAL_NLA,
        probe_power=n_eff * eta_eff,
        delta_alpha=delta_alpha_entangled(nodes, n_eff, eta_eff),
        p_success=0.0,
    )


def crlb_entangled(nodes: int, mean_photons: float, eta: float) -> float:
    """Quantum Cramer-Rao lower bound for the split-source scheme.

    ``(1/2) [M eta (sqrt(N+1)+sqrt(N))^2 + M (1-eta)]^(-1/2)``; coincides with
    the achieved error at eta = 1 and is loose below.
    """
    _check_scenario(nodes, mean_photons, eta)
    return 0.5 / math.sqrt(
        nodes * eta * _brightness_factor(mean_photons) + nodes * (1.0 - eta)
    )


def crlb_product(nodes: int, mean_photons: float, eta: float) -> float:
    """Quantum Cramer-Rao lower bound for the product baseline (N/M per node)."""
    _check_scenario(nodes, mean_photons, eta)
    return crlb_entangled(nodes, mean_photons / nodes, eta)


def _check_scenario(nodes: int, mean_photons: float, eta: float) -> None:
    fock._whole_number(nodes, "node count")
    fock._photon_number(mean_photons)
    fock._transmissivity(eta)


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


def _photon_totals(dim: int, modes: int) -> np.ndarray:
    """Total photon number of every occupation of ``modes`` modes on ``{0..dim-1}``."""
    return functools.reduce(np.add.outer, [np.arange(dim)] * modes)


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
    order ``-1, 0, +1`` (``_shift_stack``); ``table[i, j, n]`` is the summed
    weight of their shift pair at the photon total of entry ``n``.
    """
    return np.einsum("in,ijn,jn->ij", bras.conj(), table, kets).real


@functools.lru_cache(maxsize=8)
def _ladder_pair(n_max: int) -> tuple[ModeOperator, ModeOperator]:
    """``(a, a^dag)`` on ``{0..n_max}``: one pair per basis, shared by both engines."""
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


def _symmetric_moments(nodes: int, one: np.ndarray, pair: Optional[np.ndarray]) -> tuple[float, float, float]:
    """Weight, ``Var(xbar)`` and power of a state symmetric under permuting the nodes.

    ``Var(xbar) = [<x_1^2> + (M-1) <x_1 x_2>] / M - <x_1>^2`` and the power is
    ``M <n_1>``.  ``one`` is the Gram matrix (``_gram``) of mode 0's
    ``_shift_stack`` with itself; ``pair``, which only ``M > 1`` reads, that of
    mode 0's stack against mode 1's.  ``x = (a + a^dag)/2`` reads the entries
    of the outer kets, 0 and 2, and the power reads ``<a psi|a psi>``.
    """
    (up_up, up, up_down), (_, weight, down), (down_up, _, down_down) = one.tolist()
    mean_x = (up + down) / (2.0 * weight)
    _require_unbiased(mean_x)
    x_sq = (up_up + up_down + down_up + down_down) / (4.0 * weight)
    x_cross = 0.0
    if nodes > 1:
        (cross_uu, _, cross_ud), _, (cross_du, _, cross_dd) = pair.tolist()
        x_cross = (cross_uu + cross_ud + cross_du + cross_dd) / (4.0 * weight)
    return weight, (x_sq + (nodes - 1) * x_cross) / nodes - mean_x**2, nodes * (down_down / weight)


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
    ``_shift_stack`` with itself and one against mode 1's, read through the
    practical engine's ``_symmetric_moments``.  ``Phi`` holds at most
    ``cutoff`` photons and a ladder adds one, so both contract only the
    entries with at most ``cutoff + 1`` photons; every other weight is
    zero.  A tensor of more than ``2**22`` amplitudes, or from ``M=2`` a
    splitter unitary of more than ``2**22`` entries, raises ``ValueError``
    before anything is built.
    """
    if cfg.scheme != SCHEME_NO_NLA:
        raise ValueError(f"expected scheme {SCHEME_NO_NLA!r}, got {cfg.scheme!r}")
    nodes, cap = cfg.nodes, cfg.cutoff
    # about 200 B of peak memory per amplitude; from M=2 the splitter's two-mode
    # unitary has (cap+1)^4 entries, more than the state below M=4
    if (cap + 1) ** (max(nodes, 4) if nodes > 1 else 1) > 2**22:
        raise ValueError(f"cutoff {cap} on M={nodes} nodes needs over 2**22 dense Fock entries")
    density, deficit = _source_density(cfg.mean_photons, cfg.eta, cap, np.ones(cap + 1))
    comb = np.zeros((cap + 1,) * nodes, dtype=complex)
    comb[(slice(None),) + (0,) * (nodes - 1)] = 1.0
    split = fock.balanced_splitter(nodes, FockVector(comb))
    totals = _photon_totals(cap + 1, nodes).ravel()
    # the comb holds at most cap photons and a ladder adds one; every weight
    # past cap + 1 photons reads beyond R and is zero
    held = np.flatnonzero(totals <= cap + 1)
    table = _gather_weights(density, cap + 2, 1)[..., 0][:, :, totals[held]]
    first = _shift_stack(split, 0).reshape(3, -1)[:, held]
    one = _gram(first, table, first)
    pair = _gram(first, table, _shift_stack(split, 1).reshape(3, -1)[:, held]) if nodes > 1 else None
    _, variance, power = _symmetric_moments(nodes, one, pair)
    return SensitivityPoint(
        scheme=SCHEME_NO_NLA,
        probe_power=power,
        delta_alpha=math.sqrt(variance),
        p_success=1.0,
        cutoff=cap,
        trunc_deficit=deficit,
    )


def _power_series(poly: np.ndarray, power: int, length: int) -> np.ndarray:
    """The first ``length`` coefficients of ``poly(z) ** power``, lowest order first."""
    out = np.zeros(length)
    out[0] = 1.0
    for _ in range(power):
        out = np.convolve(out, poly)[:length]
    return out


@functools.lru_cache(maxsize=8)
def _amplifier_basis(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """``0.5 * log(n!)`` on ``{0..dim-1}``, and the pair total ``m + n`` of two modes on it, frozen."""
    n = np.arange(dim)
    half_log_factorial = np.array([0.5 * math.lgamma(k + 1.0) for k in range(dim)])
    return fock._frozen(half_log_factorial), fock._frozen(n[:, None] + n)


@functools.lru_cache(maxsize=32)
def _practical_source(
    nodes: int, mean_photons: float, eta: float, n_max: int, scissors: int
) -> tuple[np.ndarray, float]:
    """Source stage of ``simulate_practical``: all of a point that does not depend on the gain.

    The weights gathered once from the density ``R`` for every photon total
    ``0..2N+2`` that a pair of modes can hold, frozen, and the source's
    truncation deficit; the one-mode overlaps read the first ``N+2`` sectors.
    A source that fails the truncation guard, or a cap whose split amplitudes
    ``sqrt(s!) M^(-s/2)`` leave the float range, raises and is not cached.
    """
    s = np.arange(n_max + 1)
    log_factorial = np.array([math.lgamma(n + 1.0) for n in s])
    log_split = 0.5 * log_factorial - 0.5 * math.log(nodes) * s
    if log_split.max() > math.log(np.finfo(float).max):
        raise ValueError(
            f"the split amplitudes sqrt(s!) M^(-s/2) of cutoff {n_max} on M={nodes} nodes "
            "leave the float range; use a lower cutoff"
        )
    density, deficit = _source_density(mean_photons, eta, n_max, np.exp(log_split))
    return fock._frozen(_gather_weights(density, 2 * scissors + 3, n_max + 1)), deficit


def simulate_practical(cfg: ScenarioConfig) -> SensitivityPoint:
    """Run the practical-amplifier pipeline on the Fock kernel.

    Source, loss, and balanced split as in the amplifier-free pipeline, then
    one heralded amplifier per node; the reported probability is the joint
    one (every node must herald) and probe power is measured on the
    post-selected state.

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
    The x ladders act on ``amp`` on ``{0..N+1}``, so only the two one-mode
    ladders are applied; each shifts the source total by a known one, which
    picks the entry of ``R``.  The kets ``l = [a^dag amp, amp, a amp]`` sit at
    source shifts -1, 0, +1, the order of the gathered weights, so one product
    of the weights with the two columns ``[f^(M-1), f^(M-2)]`` gives the tables
    ``T1`` and ``T2`` of every shift pair.  The one-mode moments are the Gram
    matrix ``sum_n conj(l_i[n]) T1_ij[n] l_j[n]``.  A pair overlap
    ``<l_i x amp| T2 |amp x l_j>`` reads ``T2`` only at the pair's photon total,
    so all nine come from one contraction of ``conj(l_i) amp`` and
    ``amp l_j`` with the Hankel gather ``T2_ij[m + n]``.  Unlike their
    convolution, the contraction never forms the product of those two arrays
    unweighted, which overflows at 40 scissors and g=1000.  The source cap
    ``cutoff`` is the only truncation.

    Two stages: ``_practical_source``, cached on ``(M, N_S, eta, cutoff, N)``,
    builds ``R`` and gathers the weights of every shift pair once, so a gain
    sweep builds it once; the gain stage forms ``t``, ``amp`` and the powers
    of ``f``, contracts them with those weights and applies the two ladders.
    The source stage raises ``TruncationError`` when the deficit exceeds
    ``TRUNC_TOL``, and ``ValueError`` when the cap's split amplitudes
    ``sqrt(s!) M^(-s/2)`` leave the float range (from cap 395 at M=4).  Too
    many scissors for the gain, or a weight, variance or power that is not
    finite, raise ``nla.AmplifierRangeError``.
    """
    if cfg.scheme != SCHEME_PRACTICAL_NLA:
        raise ValueError(f"expected scheme {SCHEME_PRACTICAL_NLA!r}, got {cfg.scheme!r}")
    spec, nodes, cap = cfg.nla, cfg.nodes, cfg.cutoff
    weights, deficit = _practical_source(nodes, cfg.mean_photons, cfg.eta, cap, spec.scissors)

    # a moment that leaves the floats is caught below, not warned about
    with np.errstate(all="ignore"):
        # amp is scaled by t[0] so f^p stays finite at any M; the scale t[0]^(2M)
        # is common to every moment and comes back in the herald probability
        t = np.diag(nla_operator(spec.scissors, spec.gain, spec.scissors + 1).entries).real
        half_log_factorial, pair_totals = _amplifier_basis(len(t))
        amp = np.exp(np.log(t / t[0]) - half_log_factorial)
        f = amp**2
        rest = _power_series(f, max(nodes - 2, 0), cap + 1)
        rest_of_one = np.convolve(rest, f)[: cap + 1] if nodes > 1 else rest
        # one contraction for both: the last axis sums out M-1 modes, then M-2
        tables = (weights.reshape(-1, cap + 1) @ np.array([rest_of_one, rest]).T).reshape(3, 3, -1, 2)
        kets = _shift_stack(FockVector(amp), 0)
        one = _gram(kets, tables[:, :, : len(t), 0], kets)
        # <l_i x amp| T(m + n) |amp x l_j>: l_i amp on mode 0, amp l_j on mode 1 (amp is real)
        pair_kets = kets * amp
        pair = np.einsum("im,ijmn,jn->ij", pair_kets.conj(), tables[:, :, pair_totals, 1], pair_kets).real
        weight, variance, power = _symmetric_moments(nodes, one, pair)
    if not all(map(math.isfinite, (weight, variance, power))):
        raise AmplifierRangeError(
            f"the heralded moments at gain {spec.gain:g} on M={nodes} nodes leave the float range; "
            "use a lower gain, fewer nodes or a lower cutoff"
        )
    return SensitivityPoint(
        scheme=SCHEME_PRACTICAL_NLA,
        probe_power=power,
        delta_alpha=math.sqrt(variance),
        p_success=weight * float(t[0]) ** (2 * nodes),
        cutoff=cap,
        trunc_deficit=deficit,
    )


def lossless_cvmp_vector(nodes: int, mean_photons: float, n_max: int) -> FockVector:
    """The split squeezed-vacuum probe before any loss, normalised."""
    source, _ = normalize(sv_fock(mean_photons, n_max))
    spread = np.zeros((source.n_max + 1,) * nodes, dtype=complex)
    spread[(slice(None),) + (0,) * (nodes - 1)] = source.amplitudes
    return fock.balanced_splitter(nodes, FockVector(spread))


# ---------------------------------------------------------------------------
# Fisher information
# ---------------------------------------------------------------------------

def qfi_pure_displacement(state: Union[FockVector, GaussianState]) -> float:
    """Quantum Fisher information of a pure probe for a common displacement.

    For the generator sum_m p_m the information is 4 Var(sum_m p_m), in the
    Fock kernel's p convention; the rms bound is 1/sqrt(I_F).
    """
    if isinstance(state, GaussianState):
        # symmetric-convention variance, rescaled to the Fock p normalisation
        return 4.0 * FOCK_P_VARIANCE_SCALE * quadrature_sum_variance(state, "p")
    unit, _ = normalize(state)
    _, p_op = quadratures(unit.n_max)
    amps = unit.amplitudes
    summed = np.zeros_like(amps)
    for mode in range(unit.mode_count):
        summed += apply_mode_operator(p_op, mode, unit).amplitudes
    first = float(np.vdot(amps, summed).real)
    second = float(np.vdot(summed, summed).real)
    return 4.0 * (second - first**2)
