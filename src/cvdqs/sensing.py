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
branches rather than one dense multimode density matrix; both routes are
algebraically identical (loss commutes with the balanced splitter when every
mode sees the same transmissivity) and the regression tests pin them against
each other, but branches keep the memory footprint linear in the basis size.
``cutoff`` caps the photon number of the single-mode source.  The
amplifier-free pipeline spreads each branch over a dense ``(cutoff+1)^M``
tensor.  The practical pipeline forms no ``M``-mode tensor at all: its
amplifier is zero above ``N`` photons per mode, an even split has closed-form
amplitudes, and the heralded state is symmetric under permuting the nodes, so
its moments come from the one- and two-mode marginals on ``{0..N+1}``.  Its
cost grows with ``M`` only through the polynomial powers ``f^(M-1)`` and
``f^(M-2)`` that sum out the other modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Union

import numpy as np

from . import fock
from .fock import (
    Cutoff,
    CutoffLike,
    FockVector,
    ModeOperator,
    TruncationError,
    annihilation_matrix,
    apply_mode_operator,
    as_cutoff,
    loss_kraus_operators,
    normalize,
    number_operator,
    quadratures,
    sv_fock,
)
from .gaussian import GaussianState, quadrature_sum_variance
from .nla import (
    PRACTICAL,
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
SCHEMES = (SCHEME_NO_NLA, SCHEME_IDEAL_NLA, SCHEME_PRACTICAL_NLA, SCHEME_PRODUCT)

#: Default ceiling on probability weight the photon cap may swallow.  Loose
#: enough for quick cutoff-5 runs of the standard four-node scenarios (their
#: deficit is ~2e-5); the deficit itself is always surfaced in results.
DEFAULT_PIPELINE_TRUNC_TOL = 1e-4

_MEAN_TOL = 1e-10


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one sensing experiment."""

    nodes: int
    mean_photons: float
    eta: float
    scheme: str
    cutoff: CutoffLike = 8
    nla: Optional[NlaSpec] = None
    trunc_tol: float = DEFAULT_PIPELINE_TRUNC_TOL

    def __post_init__(self):
        _check_scenario(self.nodes, self.mean_photons, self.eta)
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}")
        if self.trunc_tol <= 0:
            raise ValueError("truncation tolerance must be positive")
        object.__setattr__(self, "cutoff", as_cutoff(self.cutoff))
        if self.scheme == SCHEME_PRACTICAL_NLA and (self.nla is None or self.nla.kind != PRACTICAL):
            raise ValueError("practical-amplifier scheme needs a practical NlaSpec")


@dataclass(frozen=True)
class SensitivityPoint:
    """One sweep result: rms error at a probe power, with herald probability."""

    scheme: str
    probe_power: float
    delta_alpha: float
    p_success: float
    cutoff: Optional[int] = None
    trunc_deficit: Optional[float] = None
    note: str = ""


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
    per_mode = total_photons / nodes
    return 0.5 * math.sqrt(
        eta_local / (nodes * _brightness_factor(per_mode)) + (1.0 - eta_local) / nodes
    )


def delta_alpha_ideal_nla(nodes: int, mean_photons: float, eta: float, gain: float) -> SensitivityPoint:
    """Rms error with one ideal amplifier per node, via the effective channel.

    Composes the effective gain and transmissivity with the amplified source
    brightness, then evaluates the loss-only formula on the effective
    scenario.  Probe power is the effective brightness times the effective
    transmissivity.  Ideal amplifiers succeed with probability zero, which is
    flagged rather than asserted away.
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
        note="ideal NLA: zero-success idealization",
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
    return 0.5 / math.sqrt(
        nodes * eta * _brightness_factor(mean_photons / nodes) + nodes * (1.0 - eta)
    )


def advantage_db(delta_product: float, delta_entangled: float) -> float:
    """Sensitivity advantage 10 log10(var_product / var_entangled) in dB."""
    if delta_product <= 0 or delta_entangled <= 0:
        raise ValueError("rms errors must be positive")
    return 10.0 * math.log10(delta_product**2 / delta_entangled**2)


def _check_scenario(nodes: int, mean_photons: float, eta: float) -> None:
    if nodes < 1:
        raise ValueError(f"node count must be at least 1, got {nodes}")
    if mean_photons < 0:
        raise ValueError(f"mean photon number must be non-negative, got {mean_photons}")
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"transmissivity must lie in (0, 1], got {eta}")


def ideal_gain_for_power(nodes: int, mean_photons: float, eta: float, target_power: float) -> float:
    """Invert the ideal-amplifier probe-power map: find g with N_eff eta_eff = target.

    With ``a = g_eff^2`` and ``c = N/(N+1)`` the power is
    ``c a (a - 1 + eta) / (1 - c a^2)``, so ``a`` is the positive root of
    ``c (1 + P) a^2 + c (eta - 1) a - P = 0`` and ``g = sqrt(1 + (a - 1)/eta)``.
    Raises if the target lies below the gain-1 power ``N eta`` or needs a gain
    within 1e-12 of the physicality boundary.
    """
    _check_scenario(nodes, mean_photons, eta)
    if mean_photons == 0:
        raise ValueError("a vacuum source has zero probe power at any gain")
    p_lo = mean_photons * eta
    if target_power < p_lo:
        raise ValueError(f"target power {target_power} below the gain-1 power {p_lo:.6g}")
    c = mean_photons / (mean_photons + 1.0)
    quad, lin = c * (1.0 + target_power), c * (eta - 1.0)
    a = (math.sqrt(lin * lin + 4.0 * quad * target_power) - lin) / (2.0 * quad)
    gain = math.sqrt(1.0 + max(a - 1.0, 0.0) / eta)
    # physicality boundary in g for this brightness and channel
    lam_cap = math.sqrt((mean_photons + 1.0) / mean_photons)
    if gain > math.sqrt(1.0 + (lam_cap - 1.0) / eta) * (1.0 - 1e-12):
        raise ValueError(f"target power {target_power} unreachable below the physicality boundary")
    return gain


# ---------------------------------------------------------------------------
# Fock pipeline (pure Kraus branches of the lossy split source)
# ---------------------------------------------------------------------------

def _lossy_source(mean_photons: float, eta: float, cutoff: Cutoff) -> tuple[list[np.ndarray], float]:
    """Non-empty Kraus branches of loss on the normalised single-mode source.

    Loss is applied to the single source mode before splitting; with equal
    per-mode transmissivity this is exactly equivalent to splitting first
    (pinned by a regression test) and needs one mode instead of M.  Also
    returns the source's truncation deficit.
    """
    source = sv_fock(mean_photons, cutoff)
    unit, _ = normalize(source)
    amps = [kraus @ unit.amplitudes for kraus in loss_kraus_operators(eta, cutoff)]
    return [amp for amp in amps if float(np.vdot(amp, amp).real) > 1e-300], source.norm_deficit


@lru_cache(maxsize=32)
def _lossy_split_branches(
    nodes: int, mean_photons: float, eta: float, n_max: int
) -> tuple[tuple[FockVector, ...], float]:
    """Kraus branches of source-mode loss, each spread over the node modes."""
    cutoff = Cutoff(n_max)
    amps, deficit = _lossy_source(mean_photons, eta, cutoff)
    branches = []
    for amp in amps:
        spread = np.zeros((cutoff.dim,) * nodes, dtype=complex)
        spread[(slice(None),) + (0,) * (nodes - 1)] = amp
        branch = fock.balanced_splitter(nodes, FockVector(cutoff, spread))
        branches.append(branch)
    return tuple(branches), deficit


@dataclass(frozen=True)
class _MixtureMoments:
    weight: float
    mode_x_means: np.ndarray
    xbar_variance: float
    total_photons: float


def _mixture_moments(branches: Sequence[FockVector], nodes: int, cutoff: Cutoff) -> _MixtureMoments:
    """Moments of an (unnormalised) mixture of pure branches."""
    x_op, _ = quadratures(cutoff)
    n_op = number_operator(cutoff)
    weight = 0.0
    mean_x = np.zeros(nodes)
    xbar_first = 0.0
    xbar_second = 0.0
    photons = 0.0
    for branch in branches:
        amps = branch.amplitudes
        weight += float(np.vdot(amps, amps).real)
        xbar = np.zeros_like(amps)
        for mode in range(nodes):
            x_applied = apply_mode_operator(x_op, mode, branch).amplitudes
            mean_x[mode] += float(np.vdot(amps, x_applied).real)
            xbar += x_applied
            photons += float(
                np.vdot(amps, apply_mode_operator(n_op, mode, branch).amplitudes).real
            )
        xbar /= nodes
        xbar_first += float(np.vdot(amps, xbar).real)
        xbar_second += float(np.vdot(xbar, xbar).real)
    if weight <= 0.0:
        raise ValueError("mixture has zero weight")
    var = xbar_second / weight - (xbar_first / weight) ** 2
    return _MixtureMoments(weight, mean_x / weight, var, photons / weight)


def _require_unbiased(moments: _MixtureMoments) -> None:
    worst = float(np.max(np.abs(moments.mode_x_means)))
    if worst > _MEAN_TOL:
        raise AssertionError(
            f"probe state has non-zero x mean ({worst:.3e}); averaged-x error would be biased"
        )


def _require_converged(deficit: float, tol: float, cutoff: Cutoff) -> None:
    if deficit > tol:
        raise TruncationError(
            f"truncation deficit {deficit:.3e} exceeds tolerance {tol:.3e} "
            f"at n_max={cutoff.n_max}; increase the cutoff"
        )


def simulate_no_nla_fock(cfg: ScenarioConfig) -> SensitivityPoint:
    """Run the amplifier-free pipeline on the Fock kernel.

    Cross-engine validation path: must agree with both the closed form and
    the Gaussian engine.
    """
    if cfg.scheme != SCHEME_NO_NLA:
        raise ValueError(f"expected scheme {SCHEME_NO_NLA!r}, got {cfg.scheme!r}")
    branches, deficit = _lossy_split_branches(
        cfg.nodes, cfg.mean_photons, cfg.eta, cfg.cutoff.n_max
    )
    _require_converged(deficit, cfg.trunc_tol, cfg.cutoff)
    moments = _mixture_moments(branches, cfg.nodes, cfg.cutoff)
    _require_unbiased(moments)
    return SensitivityPoint(
        scheme=SCHEME_NO_NLA,
        probe_power=moments.total_photons,
        delta_alpha=math.sqrt(moments.xbar_variance),
        p_success=1.0,
        cutoff=cfg.cutoff.n_max,
        trunc_deficit=deficit,
    )


def _power_series(poly: np.ndarray, power: int, length: int) -> np.ndarray:
    """The first ``length`` coefficients of ``poly(z) ** power``, lowest order first."""
    out = np.zeros(length)
    out[0] = 1.0
    for _ in range(power):
        out = np.convolve(out, poly)[:length]
    return out


def _sqrt_factorial(n: int) -> float:
    """sqrt(n!), exact to rounding while n! fits a float, from lgamma above."""
    return math.sqrt(math.factorial(n)) if n < 171 else math.exp(0.5 * math.lgamma(n + 1.0))


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
    The x ladders act on ``amp`` (one mode) and ``amp x amp`` (two modes) on
    ``{0..N+1}``; each shifts the source total by a known one, which picks
    the entry of ``R``.  The source cap ``cutoff`` is the only truncation.
    """
    if cfg.scheme != SCHEME_PRACTICAL_NLA:
        raise ValueError(f"expected scheme {SCHEME_PRACTICAL_NLA!r}, got {cfg.scheme!r}")
    spec, nodes, cap = cfg.nla, cfg.nodes, cfg.cutoff.n_max
    amps, deficit = _lossy_source(cfg.mean_photons, cfg.eta, cfg.cutoff)
    _require_converged(deficit, cfg.trunc_tol, cfg.cutoff)

    s = np.arange(cap + 1)
    log_factorial = np.array([math.lgamma(n + 1.0) for n in s])
    beta = np.array(amps) * np.exp(0.5 * log_factorial - 0.5 * math.log(nodes) * s)
    # offset by one and zero-padded, so that source totals from -1 up to a
    # pair's top total plus the cap plus one read zero outside 0..cap
    basis = Cutoff(spec.scissors + 1)
    size = 2 * basis.dim + cap + 1
    density = np.zeros((size, size), dtype=complex)
    density[1 : cap + 2, 1 : cap + 2] = beta.conj().T @ beta

    # amp is scaled by t[0] so f^p stays finite at any M; the scale t[0]^(2M)
    # is common to every moment and comes back in the herald probability
    t = np.diag(nla_operator(spec.scissors, spec.gain, basis).entries).real
    amp = t / t[0] / np.array([_sqrt_factorial(n) for n in range(basis.dim)])
    f = amp**2
    rest = _power_series(f, max(nodes - 2, 0), cap + 1)
    rest_of_one = np.convolve(rest, f)[: cap + 1] if nodes > 1 else rest
    lower = ModeOperator(basis, annihilation_matrix(basis))
    upper = ModeOperator(basis, lower.entries.conj().T)

    def overlap(bra, ket, coefficients):
        """sum_k <bra|ket> over the loss branches and the summed-out modes.

        ``bra`` and ``ket`` are ``(tensor, shift)``: the marginal amplitude
        and how far its source total lies above the tensor's photon total.
        """
        (bra_amps, bra_shift), (ket_amps, ket_shift) = bra, ket
        totals = sum(np.indices(bra_amps.shape))
        r = np.arange(len(coefficients))
        sector = np.arange(totals.max() + 1)[:, None] + r + 1
        weights = density[sector + bra_shift, sector + ket_shift] @ coefficients
        return float(np.vdot(bra_amps, ket_amps * weights[totals]).real)

    def ladders(state, mode):
        """x = (a + a^dag)/2 on one mode: a lowers the tensor, so its source sits one above."""
        return [
            (apply_mode_operator(lower, mode, state).amplitudes, 1),
            (apply_mode_operator(upper, mode, state).amplitudes, -1),
        ]

    one = FockVector(basis, amp)
    x_one = ladders(one, 0)
    weight = overlap((amp, 0), (amp, 0), rest_of_one)
    mean_x = sum(overlap((amp, 0), ket, rest_of_one) for ket in x_one) / (2.0 * weight)
    x_sq = sum(overlap(bra, ket, rest_of_one) for bra in x_one for ket in x_one) / (4.0 * weight)
    mean_n = overlap(x_one[0], x_one[0], rest_of_one) / weight
    x_pair = 0.0
    if nodes > 1:
        pair = FockVector(basis, np.outer(amp, amp))
        x_first, x_second = ladders(pair, 0), ladders(pair, 1)
        x_pair = sum(overlap(bra, ket, rest) for bra in x_first for ket in x_second) / (4.0 * weight)
    moments = _MixtureMoments(
        weight * float(t[0]) ** (2 * nodes),
        np.array([mean_x]),
        (x_sq + (nodes - 1) * x_pair) / nodes - mean_x**2,
        nodes * mean_n,
    )
    _require_unbiased(moments)
    return SensitivityPoint(
        scheme=SCHEME_PRACTICAL_NLA,
        probe_power=moments.total_photons,
        delta_alpha=math.sqrt(moments.xbar_variance),
        p_success=moments.weight,
        cutoff=cfg.cutoff.n_max,
        trunc_deficit=deficit,
    )


def lossless_cvmp_vector(nodes: int, mean_photons: float, cutoff: CutoffLike) -> FockVector:
    """The split squeezed-vacuum probe before any loss, normalised."""
    cutoff = as_cutoff(cutoff)
    source, _ = normalize(sv_fock(mean_photons, cutoff))
    spread = np.zeros((cutoff.dim,) * nodes, dtype=complex)
    spread[(slice(None),) + (0,) * (nodes - 1)] = source.amplitudes
    return fock.balanced_splitter(nodes, FockVector(cutoff, spread))


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
        return 16.0 * quadrature_sum_variance(state, "p")
    unit, _ = normalize(state)
    _, p_op = quadratures(unit.cutoff)
    amps = unit.amplitudes
    summed = np.zeros_like(amps)
    for mode in range(unit.mode_count):
        summed += apply_mode_operator(p_op, mode, unit).amplitudes
    first = float(np.vdot(amps, summed).real)
    second = float(np.vdot(summed, summed).real)
    return 4.0 * (second - first**2)
