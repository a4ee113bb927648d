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
tensor.  The practical pipeline does not: its amplifier is zero above ``N``
photons per mode and an even split has closed-form amplitudes, so each
heralded branch is built directly on ``{0..N+1}^M``.
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
        if self.nodes < 1:
            raise ValueError(f"node count must be at least 1, got {self.nodes}")
        if self.mean_photons < 0:
            raise ValueError(f"mean photon number must be non-negative, got {self.mean_photons}")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"transmissivity must lie in (0, 1], got {self.eta}")
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

    The map is strictly increasing in g, so a bisection suffices.  Raises if
    the target lies outside what physical gains can reach.
    """
    _check_scenario(nodes, mean_photons, eta)

    def power(gain: float) -> float:
        g_eff = effective_gain(gain, eta)
        return effective_sv_photons(mean_photons, g_eff) * effective_transmissivity(gain, eta)

    if mean_photons == 0:
        raise ValueError("a vacuum source has zero probe power at any gain")
    lo, p_lo = 1.0, power(1.0)
    if target_power < p_lo:
        raise ValueError(f"target power {target_power} below the gain-1 power {p_lo:.6g}")
    # physicality boundary in g for this brightness and channel
    lam_cap = math.sqrt((mean_photons + 1.0) / mean_photons)
    g_cap_sq = 1.0 + (lam_cap - 1.0) / eta
    hi = math.sqrt(g_cap_sq) * (1.0 - 1e-12)
    if target_power > power(hi):
        raise ValueError(f"target power {target_power} unreachable below the physicality boundary")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if power(mid) < target_power:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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


def _split_amplifier_factor(nodes: int, amplifier: ModeOperator) -> tuple[np.ndarray, np.ndarray]:
    """Photon total and split-times-amplifier amplitude of each occupation.

    Splitting ``s`` photons evenly over ``M`` modes puts amplitude
    ``sqrt(s! / prod n_i!) * M^(-s/2)`` on occupation ``(n_1, ..., n_M)``, all
    positive in the sign convention of ``fock.balanced_splitter``; the
    amplifier then multiplies it by ``prod_i t[n_i]`` with ``t`` its diagonal.
    """
    dim = amplifier.cutoff.dim
    occupations = np.indices((dim,) * nodes)
    total = occupations.sum(axis=0)
    log_factorial = np.array([math.lgamma(n + 1.0) for n in range(nodes * (dim - 1) + 1)])
    split = np.exp(
        0.5 * (log_factorial[total] - log_factorial[occupations].sum(axis=0))
        - 0.5 * math.log(nodes) * total
    )
    diag = np.diag(amplifier.entries).real
    return total, split * np.prod(diag[occupations], axis=0)


def simulate_practical(cfg: ScenarioConfig) -> SensitivityPoint:
    """Run the practical-amplifier pipeline on the Fock kernel.

    Source, loss, and balanced split as in the amplifier-free pipeline, then
    one heralded amplifier per node; the reported probability is the joint
    one (every node must herald) and probe power is measured on the
    post-selected state.

    The amplifier is diagonal and zero above ``N`` photons per mode, so each
    heralded loss branch is built directly on ``{0..N+1}^M`` (the empty top
    level holds the x ladder) from the single-mode branch amplitudes; the
    source cap ``cutoff`` is the only truncation.
    """
    if cfg.scheme != SCHEME_PRACTICAL_NLA:
        raise ValueError(f"expected scheme {SCHEME_PRACTICAL_NLA!r}, got {cfg.scheme!r}")
    spec = cfg.nla
    if cfg.cutoff.n_max < spec.scissors:
        raise ValueError(
            f"cutoff n_max={cfg.cutoff.n_max} cannot hold the {spec.scissors}-photon scissor truncation"
        )
    amps, deficit = _lossy_source(cfg.mean_photons, cfg.eta, cfg.cutoff)
    _require_converged(deficit, cfg.trunc_tol, cfg.cutoff)
    basis = Cutoff(spec.scissors + 1)
    total, factor = _split_amplifier_factor(cfg.nodes, nla_operator(spec.scissors, spec.gain, basis))
    # photon totals above the source cap keep amplitude zero
    sectors = np.zeros(max(int(total.max()), cfg.cutoff.n_max) + 1, dtype=complex)
    branches = []
    for amp in amps:
        sectors[: cfg.cutoff.dim] = amp
        branches.append(FockVector(basis, sectors[total] * factor))
    moments = _mixture_moments(branches, cfg.nodes, basis)
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
