"""Self-validation suite: cross-engine and cross-route consistency checks.

Each check pits two independent computations of the same quantity against
each other (closed form vs Fock pipeline, circuit simulation vs closed-form
operator, ...) so a defect in either route surfaces as a failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fock, gaussian, nla, sensing


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _random_two_mode_state(rng: np.random.Generator, n_max: int) -> fock.FockVector:
    shape = (n_max + 1, n_max + 1)
    amps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    amps /= np.linalg.norm(amps)
    return fock.FockVector(amps)


def _apply_per_mode(op: fock.ModeOperator, state: fock.FockVector) -> fock.FockVector:
    out = state
    for mode in range(state.mode_count):
        out = fock.apply_mode_operator(op, mode, out)
    return out


def _check_engines_agree(cutoff: int) -> list[CheckResult]:
    results = []
    nodes, mean_photons = 4, 0.04
    worst_gauss = 0.0
    worst_fock = 0.0
    for eta in (0.3, 0.5, 1.0):
        closed = sensing.delta_alpha_entangled(nodes, mean_photons, eta)
        lossy = gaussian.loss_gaussian(gaussian.sv_gaussian(mean_photons), eta)
        gauss = gaussian.avg_x_std(gaussian.splitter_gaussian(lossy, nodes))
        cfg = sensing.ScenarioConfig(
            nodes=nodes,
            mean_photons=mean_photons,
            eta=eta,
            scheme=sensing.SCHEME_NO_NLA,
            cutoff=cutoff,
        )
        point = sensing.simulate_no_nla_fock(cfg)
        worst_gauss = max(worst_gauss, abs(gauss - closed))
        worst_fock = max(worst_fock, abs(point.delta_alpha - closed))
    results.append(
        CheckResult(
            "gaussian engine matches closed-form sensitivity",
            worst_gauss <= 1e-8,
            f"max deviation {worst_gauss:.3e} (tol 1e-8)",
        )
    )
    results.append(
        CheckResult(
            "fock pipeline matches closed-form sensitivity",
            worst_fock <= 1e-4,
            f"max deviation {worst_fock:.3e} (tol 1e-4, n_max={point.cutoff})",
        )
    )
    return results


def _check_commutation() -> list[CheckResult]:
    rng = np.random.default_rng(20240514)
    cutoff = 6
    gain = 2.0
    theta = math.pi / 4
    ideal = fock.ModeOperator(np.diag(nla.gain_diagonal(gain, cutoff)).astype(complex))
    worst = 0.0
    for _ in range(4):
        state = _random_two_mode_state(rng, cutoff)
        left = _apply_per_mode(ideal, fock.beamsplitter(theta, 0, 1, state))
        right = fock.beamsplitter(theta, 0, 1, _apply_per_mode(ideal, state))
        worst = max(worst, float(np.max(np.abs(left.amplitudes - right.amplitudes))))
    commute = CheckResult(
        "ideal gain operator commutes with the splitter",
        worst <= 1e-10,
        f"max residual {worst:.3e} (tol 1e-10)",
    )
    truncated = nla.nla_operator(1, gain, cutoff)
    witnesses = []
    for _ in range(4):
        state = _random_two_mode_state(rng, cutoff)
        left = _apply_per_mode(truncated, fock.beamsplitter(theta, 0, 1, state))
        right = fock.beamsplitter(theta, 0, 1, _apply_per_mode(truncated, state))
        witnesses.append(float(np.linalg.norm(left.amplitudes - right.amplitudes)))
    witness = min(witnesses)
    no_commute = CheckResult(
        "truncated amplifier visibly fails to commute",
        witness >= 1e-3,
        f"smallest witness norm {witness:.3e} (must be >= 1e-3)",
    )
    return [commute, no_commute]


def _check_scissor_oracle() -> CheckResult:
    cutoff = 6
    worst = 0.0
    for gain in (1.0, 1.5, 2.0, 3.0):
        circuit = nla.scissor_kraus(gain, cutoff).entries
        closed = nla.nla_operator(1, gain, cutoff).entries
        # fix the documented per-herald constant (and any global phase) on the
        # vacuum entry, then demand entrywise agreement
        scale = closed[0, 0] / circuit[0, 0]
        worst = max(worst, float(np.max(np.abs(circuit * scale - closed))))
    return CheckResult(
        "scissor circuit reproduces the amplifier operator",
        worst <= 1e-12,
        f"max entry deviation {worst:.3e} (tol 1e-12)",
    )


def _check_projector_law(scissors: int) -> CheckResult:
    cutoff = max(6, scissors + 1)
    gain = 1.7
    pi = nla.projector_pi(scissors, gain, cutoff).entries
    diag = np.diag(pi).real
    worst = abs(diag[0] - (1.0 / (gain * gain + 1.0)) ** (scissors / 2.0))
    # coefficient recurrence c_n / c_{n-1} = (N - n + 1) / N, zero above N
    for n in range(1, cutoff + 1):
        expected = diag[n - 1] * (scissors - n + 1) / scissors if n <= scissors else 0.0
        worst = max(worst, abs(diag[n] - expected))
    return CheckResult(
        "projector coefficients follow the scissor-count law",
        worst <= 1e-12,
        f"max coefficient deviation {worst:.3e} (tol 1e-12)",
    )


def _check_clipped_gain_after_loss() -> CheckResult:
    cutoff = 24
    eta = 0.5
    source = fock.normalize(fock.sv_fock(0.04, cutoff))[0].amplitudes
    # loss as its pure Kraus branches, summed into a plain density matrix
    branches = [kraus @ source for kraus in fock.loss_kraus_operators(eta, cutoff)]
    rho = sum(np.outer(branch, branch.conj()) for branch in branches)
    x_op, p_op = fock.quadratures(cutoff)

    def variance(op: fock.ModeOperator, state: np.ndarray) -> float:
        mean = np.trace(state @ op.entries)
        return float((np.trace(state @ op.entries @ op.entries) - mean**2).real)

    worst = 0.0
    for gain in (1.2, 1.6, 2.0):
        clip = nla.clipped_gain_operator(gain, cutoff).entries
        boosted = clip @ rho @ clip
        rho_out = boosted / np.trace(boosted).real
        g_eff = nla.effective_gain(gain, eta)
        eta_eff = nla.effective_transmissivity(gain, eta)
        n_eff = nla.effective_sv_photons(0.04, g_eff)
        stretch = (math.sqrt(n_eff + 1.0) + math.sqrt(n_eff)) ** 2
        want_x = eta_eff / stretch / 4.0 + (1.0 - eta_eff) / 4.0
        want_p = eta_eff * stretch + (1.0 - eta_eff)
        worst = max(worst, abs(variance(x_op, rho_out) - want_x))
        worst = max(worst, abs(variance(p_op, rho_out) - want_p))
    return CheckResult(
        "clipped gain after loss matches the effective channel",
        worst <= 1e-5,
        f"max variance deviation {worst:.3e} (tol 1e-5)",
    )


def _check_bounds() -> CheckResult:
    nodes, mean_photons = 4, 0.04
    worst_violation = -math.inf
    for eta in np.linspace(0.1, 1.0, 10):
        eta = float(eta)
        gap_e = sensing.crlb_entangled(nodes, mean_photons, eta) - sensing.delta_alpha_entangled(
            nodes, mean_photons, eta
        )
        gap_p = sensing.crlb_product(nodes, mean_photons, eta) - sensing.delta_alpha_product(
            nodes, mean_photons, eta_local=eta
        )
        worst_violation = max(worst_violation, gap_e, gap_p)
    eq_e = abs(
        sensing.crlb_entangled(nodes, mean_photons, 1.0)
        - sensing.delta_alpha_entangled(nodes, mean_photons, 1.0)
    )
    eq_p = abs(
        sensing.crlb_product(nodes, mean_photons, 1.0)
        - sensing.delta_alpha_product(nodes, mean_photons)
    )
    ok = worst_violation <= 1e-12 and eq_e <= 1e-9 and eq_p <= 1e-9
    return CheckResult(
        "bounds sit below the achieved errors, equal at eta=1",
        ok,
        f"worst bound excess {worst_violation:.3e} (tol 1e-12), "
        f"eta=1 gaps {eq_e:.3e}/{eq_p:.3e} (tol 1e-9)",
    )


def _check_success_scaling(scissors: int) -> CheckResult:
    # the headline engine on a vacuum source: p_success = (g^2+1)^(-NM) and
    # delta_alpha = 1/(2 sqrt M) exactly.  M=2 keeps the law inside a float
    # (at M=100 it underflows from N=4 at g=2.5).  A law that underflows
    # reads as deviation 1, not a division by zero; the ratio is not taken
    # in log space, whose rounding (|log p| ulp) alone is 1.1e-13 at N=169
    nodes = 2
    worst = 0.0
    for gain in (1.0, 1.5, 2.5):
        point = sensing.simulate_practical(
            sensing.ScenarioConfig(
                nodes=nodes,
                mean_photons=0.0,
                eta=0.5,
                scheme=sensing.SCHEME_PRACTICAL_NLA,
                nla=nla.NlaSpec.practical(gain, scissors),
            )
        )
        expected = (gain * gain + 1.0) ** (-scissors * nodes)
        worst = max(worst, abs(point.p_success / expected - 1.0) if expected > 0.0 else 1.0)
        worst = max(worst, abs(point.delta_alpha * 2.0 * math.sqrt(nodes) - 1.0))
    return CheckResult(
        "vacuum heralding probability scales exactly",
        worst <= 1e-13,
        f"max relative deviation {worst:.3e} (tol 1e-13)",
    )


def _check_physicality_boundary() -> CheckResult:
    mean_photons = 0.04
    boundary = math.sqrt(math.sqrt((mean_photons + 1.0) / mean_photons))
    below = boundary * (1.0 - 1e-9)
    above = boundary * (1.0 + 1e-9)
    try:
        sensing_ok = nla.effective_sv_photons(mean_photons, below) >= 0.0
    except nla.UnphysicalGainError:
        sensing_ok = False
    try:
        nla.effective_sv_photons(mean_photons, above)
        raises = False
    except nla.UnphysicalGainError:
        raises = True
    return CheckResult(
        "unphysical amplification rejected exactly at the boundary",
        sensing_ok and raises,
        f"admits g_eff={below:.9f}, rejects g_eff={above:.9f}",
    )


def run_validation_suite(*, cutoff: int = 8, scissors: int = 2) -> list[CheckResult]:
    """Run every consistency check; returns one result per check.

    ``cutoff`` is the photon cap of the amplifier-free Fock pipeline checked
    against the closed form, and no other check reads it; a cap its truncation
    guard refuses raises ``fock.TruncationError``, and one that is not a whole
    number >= 1, or is above 44, ``ValueError``.  ``scissors`` sets the scissor
    count of the projector-law check and of the vacuum-heralding check, which
    runs ``sensing.simulate_practical``.
    """
    scissors = fock._whole_number(scissors, "scissor count")
    results = []
    results.extend(_check_engines_agree(cutoff))
    results.extend(_check_commutation())
    results.append(_check_scissor_oracle())
    results.append(_check_projector_law(scissors))
    results.append(_check_clipped_gain_after_loss())
    results.append(_check_bounds())
    results.append(_check_success_scaling(scissors))
    results.append(_check_physicality_boundary())
    return results


def render_report(results: list[CheckResult]) -> str:
    width = max(len(r.name) for r in results)
    lines = []
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        lines.append(f"{result.name.ljust(width)}  {status}  {result.detail}")
    failed = sum(1 for r in results if not r.passed)
    lines.append(
        f"{len(results) - failed}/{len(results)} checks passed"
        + ("" if failed == 0 else f", {failed} FAILED")
    )
    return "\n".join(lines)
