import itertools
import math

import numpy as np
import pytest

from cvdqs import fock, gaussian
from cvdqs.fock import Cutoff, TruncationError
from cvdqs.nla import NlaSpec, UnphysicalGainError, nla_operator
from cvdqs.sensing import (
    _lossy_source,
    _mixture_moments,
    SCHEME_NO_NLA,
    SCHEME_PRACTICAL_NLA,
    ScenarioConfig,
    advantage_db,
    crlb_entangled,
    crlb_product,
    delta_alpha_entangled,
    delta_alpha_ideal_nla,
    delta_alpha_product,
    ideal_gain_for_power,
    lossless_cvmp_vector,
    qfi_pure_displacement,
    simulate_no_nla_fock,
    simulate_practical,
)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_entangled_shot_noise_floor():
    for eta in (0.2, 0.7, 1.0):
        assert delta_alpha_entangled(4, 0.0, eta) == pytest.approx(0.25, abs=1e-15)


def test_entangled_reference_values():
    assert delta_alpha_entangled(4, 0.04, 0.5) == pytest.approx(0.228588, abs=1e-6)
    assert delta_alpha_entangled(4, 0.04, 1.0) == pytest.approx(0.204951, abs=1e-6)
    assert delta_alpha_entangled(4, 0.04, 0.3) == pytest.approx(0.237385, abs=1e-6)


def test_entangled_asymptotic_scaling():
    nodes, per_node = 4, 100.0
    exact = delta_alpha_entangled(nodes, nodes * per_node, 1.0)
    scaling = 1.0 / (4.0 * nodes * math.sqrt(per_node))
    assert abs(exact - scaling) / scaling < 0.01


def test_product_reference_values():
    assert delta_alpha_product(4, 0.0) == pytest.approx(0.25, abs=1e-15)
    assert delta_alpha_product(4, 0.16) == pytest.approx(0.204951, abs=1e-6)


def test_product_asymptotic_scaling():
    nodes, per_node = 4, 100.0
    exact = delta_alpha_product(nodes, nodes * per_node)
    scaling = 1.0 / (4.0 * math.sqrt(nodes * per_node))
    assert abs(exact - scaling) / scaling < 0.01


def test_ideal_nla_reduces_to_no_nla_at_unit_gain():
    point = delta_alpha_ideal_nla(4, 0.04, 0.5, 1.0)
    assert point.delta_alpha == pytest.approx(delta_alpha_entangled(4, 0.04, 0.5), abs=1e-14)
    assert point.probe_power == pytest.approx(0.02, abs=1e-14)
    assert point.p_success == 0.0
    assert "zero-success" in point.note


def test_ideal_nla_reference_point():
    point = delta_alpha_ideal_nla(4, 0.04, 0.5, 2.5)
    assert point.delta_alpha == pytest.approx(0.13313225, abs=1e-7)
    assert point.probe_power == pytest.approx(0.8809235, abs=1e-6)


def test_ideal_nla_monotone_until_boundary():
    previous = delta_alpha_entangled(4, 0.04, 1.0)
    for gain in (1.2, 1.4, 1.6, 1.8, 2.0, 2.2):
        point = delta_alpha_ideal_nla(4, 0.04, 1.0, gain)
        assert point.delta_alpha < previous
        previous = point.delta_alpha
    with pytest.raises(UnphysicalGainError):
        delta_alpha_ideal_nla(4, 0.04, 1.0, 2.3)


def test_ideal_gain_for_power_roundtrip():
    for target in (0.05, 0.2, 0.6):
        gain = ideal_gain_for_power(4, 0.04, 0.5, target)
        point = delta_alpha_ideal_nla(4, 0.04, 0.5, gain)
        assert point.probe_power == pytest.approx(target, rel=1e-9)
    with pytest.raises(ValueError):
        ideal_gain_for_power(4, 0.04, 0.5, 1e13)
    with pytest.raises(ValueError):
        ideal_gain_for_power(4, 0.04, 0.5, 1e-6)


# ---------------------------------------------------------------------------
# bounds and information
# ---------------------------------------------------------------------------

def test_bounds_match_errors_without_loss():
    assert crlb_entangled(4, 0.04, 1.0) == pytest.approx(
        delta_alpha_entangled(4, 0.04, 1.0), abs=1e-15
    )
    assert crlb_product(4, 0.04, 1.0) == pytest.approx(
        delta_alpha_product(4, 0.04), abs=1e-15
    )


def test_bounds_strictly_below_with_loss():
    for eta in np.linspace(0.1, 0.9, 9):
        eta = float(eta)
        assert crlb_entangled(4, 0.04, eta) < delta_alpha_entangled(4, 0.04, eta)
        assert crlb_product(4, 0.04, eta) < delta_alpha_product(4, 0.04, eta_local=eta)


def test_bounds_shot_noise_floor():
    assert crlb_entangled(4, 0.0, 0.6) == pytest.approx(0.25, abs=1e-15)
    assert crlb_product(4, 0.0, 0.6) == pytest.approx(0.25, abs=1e-15)


def test_qfi_vacuum():
    for nodes in (1, 3):
        vac = fock.vacuum_vector(nodes, 6)
        assert qfi_pure_displacement(vac) == pytest.approx(4.0 * nodes, abs=1e-10)


def test_qfi_single_mode_sv():
    psi, _ = fock.normalize(fock.sv_fock(0.04, 14))
    want = 4.0 * (math.sqrt(1.04) + 0.2) ** 2
    assert qfi_pure_displacement(psi) == pytest.approx(want, abs=1e-5)


def test_qfi_cvmp_matches_bound():
    probe = lossless_cvmp_vector(4, 0.04, 12)
    info = qfi_pure_displacement(probe)
    assert info == pytest.approx(4.0 * 4.0 * (math.sqrt(1.04) + 0.2) ** 2, abs=1e-5)
    assert 1.0 / math.sqrt(info) == pytest.approx(crlb_entangled(4, 0.04, 1.0), abs=1e-7)


def test_qfi_from_gaussian_state():
    state = gaussian.splitter_gaussian(gaussian.sv_gaussian(0.04), 4)
    assert qfi_pure_displacement(state) == pytest.approx(
        4.0 * 4.0 * (math.sqrt(1.04) + 0.2) ** 2, abs=1e-10
    )


def test_advantage_db():
    assert advantage_db(0.1, 0.1) == pytest.approx(0.0, abs=1e-15)
    nodes, per_node = 4, 100.0
    total = nodes * per_node
    equal_loss = advantage_db(
        delta_alpha_product(nodes, total), delta_alpha_entangled(nodes, total, 1.0)
    )
    assert equal_loss == pytest.approx(6.02, abs=0.05)
    values = [
        advantage_db(
            delta_alpha_product(nodes, total, eta_local=eta),
            delta_alpha_entangled(nodes, total, eta),
        )
        for eta in (1.0, 0.8, 0.6, 0.4, 0.2)
    ]
    assert all(a > b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# Fock pipelines
# ---------------------------------------------------------------------------

def test_no_nla_pipeline_matches_both_engines():
    for eta in (0.3, 0.5, 1.0):
        cfg = ScenarioConfig(
            nodes=4, mean_photons=0.04, eta=eta, scheme=SCHEME_NO_NLA, cutoff=8
        )
        point = simulate_no_nla_fock(cfg)
        closed = delta_alpha_entangled(4, 0.04, eta)
        gauss = gaussian.avg_x_std(
            gaussian.splitter_gaussian(gaussian.loss_gaussian(gaussian.sv_gaussian(0.04), eta), 4)
        )
        assert point.delta_alpha == pytest.approx(closed, abs=1e-4)
        assert abs(gauss - closed) < 1e-8
        assert point.p_success == 1.0
        assert point.probe_power == pytest.approx(0.04 * eta, abs=1e-6)


def test_practical_vacuum_source():
    # at M=100 an M-mode tensor could not be stored even on {0..N+1}^M; at
    # M=1000 the herald probability underflows to 0 but the moments hold; at
    # N=25 the amplifier amplitudes divide by sqrt(n!) with n! beyond int64
    cases = ((1, 8, 2), (4, 4, 2), (8, 8, 2), (100, 8, 2), (1000, 8, 2), (4, 8, 25))
    for nodes, cutoff, scissors in cases:
        cfg = ScenarioConfig(
            nodes=nodes,
            mean_photons=0.0,
            eta=0.5,
            scheme=SCHEME_PRACTICAL_NLA,
            cutoff=cutoff,
            nla=NlaSpec.practical(2.0, scissors),
        )
        point = simulate_practical(cfg)
        assert point.delta_alpha == pytest.approx(1.0 / (2.0 * math.sqrt(nodes)), rel=1e-13)
        assert point.probe_power == 0.0
        assert point.p_success == pytest.approx((1.0 / 5.0) ** (scissors * nodes), rel=1e-13)


def test_practical_requires_capacity_and_scheme():
    # a source cap below N computes: the amplifier's basis does not depend on it
    for case in ((2, 0.1, 1.0, 2, 3.0, 1), (3, 0.04, 0.5, 2, 1.7, 1)):
        _assert_matches_oracle(*case, trunc_tol=0.1)
    with pytest.raises(ValueError):
        ScenarioConfig(nodes=2, mean_photons=0.02, eta=0.5, scheme=SCHEME_PRACTICAL_NLA)


def test_truncation_tolerance_enforced():
    cfg = ScenarioConfig(
        nodes=2,
        mean_photons=0.04,
        eta=0.5,
        scheme=SCHEME_NO_NLA,
        cutoff=5,
        trunc_tol=1e-9,
    )
    with pytest.raises(TruncationError, match="increase the cutoff"):
        simulate_no_nla_fock(cfg)


# ---------------------------------------------------------------------------
# independent-path oracle for the practical pipeline
# ---------------------------------------------------------------------------

def _taylor_expm(matrix):
    """Scaling-and-squaring series exponential; independent of the package route."""
    norm = np.linalg.norm(matrix, ord=np.inf)
    squarings = max(0, int(math.ceil(math.log2(max(norm, 1e-30)))) + 3)
    scaled = matrix / (2.0**squarings)
    out = np.eye(matrix.shape[0], dtype=complex)
    term = np.eye(matrix.shape[0], dtype=complex)
    for order in range(1, 40):
        term = term @ scaled / order
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def _oracle_practical(nodes, mean_photons, eta, scissors, gain, n_max, source_cap=None):
    """From-scratch dense recomputation: explicit basis enumeration, series
    exponentials, loss applied after the splitter, factorial formula inline.

    The source is cut at ``source_cap`` photons (default ``n_max``), so a
    basis cap above it leaves room for the x ladder."""
    source_cap = n_max if source_cap is None else source_cap
    dim_single = n_max + 1
    basis = list(itertools.product(range(dim_single), repeat=nodes))
    index = {occ: i for i, occ in enumerate(basis)}
    dim = len(basis)

    def ladder(occ_from, mode, delta):
        occ = list(occ_from)
        occ[mode] += delta
        return tuple(occ)

    creators = []
    for mode in range(nodes):
        mat = np.zeros((dim, dim), dtype=complex)
        for occ, col in index.items():
            if occ[mode] < n_max:
                mat[index[ladder(occ, mode, +1)], col] = math.sqrt(occ[mode] + 1)
        creators.append(mat)
    destroyers = [mat.conj().T for mat in creators]

    # squeezed source amplitudes straight from the law
    r = math.asinh(math.sqrt(mean_photons))
    source = np.zeros(dim_single)
    for k in range(source_cap // 2 + 1):
        source[2 * k] = (
            (-math.tanh(r)) ** k
            * math.sqrt(math.factorial(2 * k))
            / (2**k * math.factorial(k) * math.sqrt(math.cosh(r)))
        )
    source /= np.linalg.norm(source)
    psi = np.zeros(dim, dtype=complex)
    for n in range(dim_single):
        psi[index[(n,) + (0,) * (nodes - 1)]] = source[n]

    for k in range(1, nodes):
        theta = -math.asin(1.0 / math.sqrt(nodes - k + 1))
        gen = theta * (
            creators[0] @ destroyers[k] - destroyers[0] @ creators[k]
        )
        psi = _taylor_expm(gen) @ psi

    rho = np.outer(psi, psi.conj())
    for mode in range(nodes):
        fresh = np.zeros_like(rho)
        for lost in range(dim_single):
            kraus = np.zeros((dim, dim), dtype=complex)
            for occ, col in index.items():
                n = occ[mode]
                if n >= lost:
                    target = list(occ)
                    target[mode] = n - lost
                    kraus[index[tuple(target)], col] = math.sqrt(
                        math.comb(n, lost) * (1 - eta) ** lost * eta ** (n - lost)
                    )
            fresh += kraus @ rho @ kraus.conj().T
        rho = fresh

    amp_single = np.zeros(dim_single)
    for n in range(min(scissors, n_max) + 1):
        amp_single[n] = (
            (1.0 / (gain**2 + 1.0)) ** (scissors / 2.0)
            * math.factorial(scissors)
            / (math.factorial(scissors - n) * scissors**n)
            * gain**n
        )
    amp_joint = np.array([math.prod(amp_single[n] for n in occ) for occ in basis])
    sandwich = amp_joint[:, None] * rho * amp_joint[None, :]
    p_success = float(np.trace(sandwich).real)
    rho_out = sandwich / p_success

    x_total = sum((creators[m] + destroyers[m]) / 2.0 for m in range(nodes)) / nodes
    mean_x = float(np.trace(rho_out @ x_total).real)
    mean_xx = float(np.trace(rho_out @ x_total @ x_total).real)
    number_total = sum(creators[m] @ destroyers[m] for m in range(nodes))
    power = float(np.trace(rho_out @ number_total).real)
    return math.sqrt(mean_xx - mean_x**2), power, p_success


def _assert_matches_oracle(nodes, mean_photons, eta, scissors, gain, cutoff, trunc_tol=1e-2):
    cfg = ScenarioConfig(
        nodes=nodes,
        mean_photons=mean_photons,
        eta=eta,
        scheme=SCHEME_PRACTICAL_NLA,
        cutoff=cutoff,
        nla=NlaSpec.practical(gain, scissors),
        trunc_tol=trunc_tol,
    )
    point = simulate_practical(cfg)
    want_da, want_power, want_p = _oracle_practical(
        nodes, mean_photons, eta, scissors, gain, max(cutoff, scissors + 1), source_cap=cutoff
    )
    assert point.delta_alpha == pytest.approx(want_da, abs=1e-8)
    assert point.probe_power == pytest.approx(want_power, abs=1e-8)
    assert point.p_success == pytest.approx(want_p, rel=1e-8)


def test_practical_pipeline_matches_independent_oracle():
    # (M, ns, eta, scissors, g, cutoff); the second has cutoff below M * scissors
    for case in (
        (2, 0.02, 0.7, 1, 1.5, 6),
        (3, 0.04, 0.5, 2, 1.7, 3),
        (2, 0.04, 1.0, 2, 2.0, 5),
        (3, 0.1, 0.6, 1, 1.0, 4),
    ):
        _assert_matches_oracle(*case)


def test_practical_cutoff_equal_to_scissors():
    # the source fills every level up to N, and x still raises N to N+1
    for nodes in (1, 2):
        _assert_matches_oracle(nodes, 0.1, 1.0, 2, 3.0, 2)


def _multinomial_oracle(nodes, mean_photons, eta, scissors, gain, cutoff):
    """Every heralded loss branch written out on ``{0..N+1}^M``: the branch
    amplitude ``b_k[s]`` times the split amplitude ``sqrt(s!/prod n_i!) M^(-s/2)``
    times ``prod_i t[n_i]``, zero where ``s`` exceeds the source cap; moments
    from the dense per-mode ladder passes of ``_mixture_moments``."""
    basis = Cutoff(scissors + 1)
    occupations = np.indices((basis.dim,) * nodes)
    total = occupations.sum(axis=0)
    log_factorial = np.array([math.lgamma(n + 1.0) for n in range(total.max() + 1)])
    split = np.exp(
        0.5 * (log_factorial[total] - log_factorial[occupations].sum(axis=0))
        - 0.5 * math.log(nodes) * total
    )
    diag = np.diag(nla_operator(scissors, gain, basis).entries).real
    factor = split * np.prod(diag[occupations], axis=0)
    amps, _ = _lossy_source(mean_photons, eta, Cutoff(cutoff))
    sectors = np.zeros(max(total.max(), cutoff) + 1, dtype=complex)

    def branches():  # one branch alive at a time
        for amp in amps:
            sectors[: cutoff + 1] = amp
            yield fock.FockVector(basis, sectors[total] * factor)

    moments = _mixture_moments(branches(), nodes, basis)
    return math.sqrt(moments.xbar_variance), moments.total_photons, moments.weight


def test_practical_matches_multinomial_oracle_at_many_nodes():
    for nodes, gain, scissors in itertools.product((4, 5, 6, 8), (1.0, 1.7, 3.0), (1, 2, 3)):
        cfg = ScenarioConfig(
            nodes=nodes,
            mean_photons=0.04,
            eta=0.5,
            scheme=SCHEME_PRACTICAL_NLA,
            cutoff=8,
            nla=NlaSpec.practical(gain, scissors),
        )
        point = simulate_practical(cfg)
        want_da, want_power, want_p = _multinomial_oracle(nodes, 0.04, 0.5, scissors, gain, 8)
        assert point.delta_alpha == pytest.approx(want_da, rel=1e-12)
        assert point.probe_power == pytest.approx(want_power, rel=1e-12)
        assert point.p_success == pytest.approx(want_p, rel=1e-12)


def test_practical_reference_point_frozen():
    # expected values from an independent dense-matrix computation (full kron
    # embedding, scipy expm, loss applied after the splitter)
    cfg = ScenarioConfig(
        nodes=4,
        mean_photons=0.04,
        eta=0.5,
        scheme=SCHEME_PRACTICAL_NLA,
        cutoff=5,
        nla=NlaSpec.practical(2.2, 2),
    )
    point = simulate_practical(cfg)
    assert point.delta_alpha == pytest.approx(0.185186412, abs=1e-8)
    assert point.probe_power == pytest.approx(0.242162633, abs=1e-8)
    assert point.p_success == pytest.approx(8.408927937e-07, rel=1e-8)


def test_practical_pipeline_matches_density_route_loss_after_split():
    # regression for the loss/splitter reordering: build the same scenario with
    # densities and per-mode loss applied after the split
    nodes, mean_photons, eta, scissors, gain, n_max = 2, 0.04, 0.6, 2, 1.8, 5
    from cvdqs.nla import apply_practical_nla

    psi, _ = fock.normalize(fock.sv_fock(mean_photons, n_max))
    spread = np.zeros((n_max + 1,) * nodes, dtype=complex)
    spread[(slice(None),) + (0,) * (nodes - 1)] = psi.amplitudes
    split = fock.balanced_splitter(nodes, fock.FockVector(Cutoff(n_max), spread))
    rho = fock.density_from_vector(split)
    for mode in range(nodes):
        rho = fock.pure_loss(eta, mode, rho)
    rho_out, p_success = apply_practical_nla(rho, [NlaSpec.practical(gain, scissors)] * nodes)
    x_op, _ = fock.quadratures(n_max)
    xbar = sum(fock.embed_mode_operator(x_op, m, nodes) for m in range(nodes)) / nodes
    da = math.sqrt(fock.variance(xbar, rho_out))
    n_op = fock.number_operator(n_max)
    power = sum(
        fock.expectation(fock.embed_mode_operator(n_op, m, nodes), rho_out).real
        for m in range(nodes)
    )
    cfg = ScenarioConfig(
        nodes=nodes,
        mean_photons=mean_photons,
        eta=eta,
        scheme=SCHEME_PRACTICAL_NLA,
        cutoff=n_max,
        nla=NlaSpec.practical(gain, scissors),
    )
    point = simulate_practical(cfg)
    assert point.delta_alpha == pytest.approx(da, abs=1e-10)
    assert point.probe_power == pytest.approx(power, abs=1e-10)
    assert point.p_success == pytest.approx(p_success, rel=1e-10)


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def test_truncation_convergence_of_reported_variance():
    # each +2 in n_max shrinks the variance error by >10x; measured 6->10
    # shifts are 1.25e-6 (N=0.04) and 2.3e-5 (N=0.1)
    for mean_photons, coarse_bound in ((0.04, 2e-6), (0.1, 3e-5)):
        values = []
        for n_max in (6, 10, 12):
            cfg = ScenarioConfig(
                nodes=4,
                mean_photons=mean_photons,
                eta=0.5,
                scheme=SCHEME_NO_NLA,
                cutoff=n_max,
                trunc_tol=1e-3,
            )
            values.append(simulate_no_nla_fock(cfg).delta_alpha ** 2)
        assert abs(values[0] - values[1]) < coarse_bound
        assert abs(values[1] - values[2]) < coarse_bound / 10.0
        assert abs(values[1] - values[2]) < abs(values[0] - values[1])


def test_variance_invariant_under_displacement():
    # justifies handling the sensed displacement analytically
    nodes, n_max = 2, 10
    probe = lossless_cvmp_vector(nodes, 0.04, n_max)
    x_op, _ = fock.quadratures(n_max)
    xbar = sum(fock.embed_mode_operator(x_op, m, nodes) for m in range(nodes)) / nodes
    base = fock.variance(xbar, probe)
    shift = fock.ModeOperator(Cutoff(n_max), fock.displacement_matrix(0.05, n_max))
    displaced = probe
    for mode in range(nodes):
        displaced = fock.apply_mode_operator(shift, mode, displaced)
    mean = fock.expectation(xbar, displaced).real
    assert mean == pytest.approx(0.05, abs=1e-6)
    assert fock.variance(xbar, displaced) == pytest.approx(base, abs=1e-8)


def test_benefit_ordering_at_matched_power():
    # ideal best, then practical, then no amplifier, across the mid powers
    for gain in (1.8, 2.0, 2.2, 2.4):
        cfg = ScenarioConfig(
            nodes=4,
            mean_photons=0.04,
            eta=0.5,
            scheme=SCHEME_PRACTICAL_NLA,
            cutoff=5,
            nla=NlaSpec.practical(gain, 2),
        )
        practical = simulate_practical(cfg)
        power = practical.probe_power
        ideal_gain = ideal_gain_for_power(4, 0.04, 0.5, power)
        ideal = delta_alpha_ideal_nla(4, 0.04, 0.5, ideal_gain)
        no_nla = delta_alpha_entangled(4, power / 0.5, 0.5)
        assert ideal.delta_alpha <= practical.delta_alpha
        assert practical.delta_alpha < no_nla


def test_practical_approaches_ideal_limit():
    # Pi_N g^n tends to g^n as N grows, and at fixed N each node carries fewer
    # photons as M grows, so the scissor engine must close in on the
    # effective-channel closed form, which shares no code with it
    def deviation(nodes, scissors):
        cfg = ScenarioConfig(
            nodes=nodes,
            mean_photons=0.04,
            eta=0.5,
            scheme=SCHEME_PRACTICAL_NLA,
            cutoff=40,
            nla=NlaSpec.practical(1.5, scissors),
        )
        ideal = delta_alpha_ideal_nla(nodes, 0.04, 0.5, 1.5).delta_alpha
        return abs(simulate_practical(cfg).delta_alpha - ideal) / ideal

    in_scissors = [deviation(4, scissors) for scissors in (2, 8, 32)]
    for coarse, fine in zip(in_scissors, in_scissors[1:]):
        assert fine < coarse / 3.0
    in_nodes = [deviation(nodes, 2) for nodes in (4, 10, 30, 100)]
    assert all(fine < coarse for coarse, fine in zip(in_nodes, in_nodes[1:]))
    assert in_nodes[-1] < 2e-3


def test_scenario_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(nodes=0, mean_photons=0.1, eta=0.5, scheme=SCHEME_NO_NLA)
    with pytest.raises(ValueError):
        ScenarioConfig(nodes=2, mean_photons=-0.1, eta=0.5, scheme=SCHEME_NO_NLA)
    with pytest.raises(ValueError):
        ScenarioConfig(nodes=2, mean_photons=0.1, eta=0.0, scheme=SCHEME_NO_NLA)
    with pytest.raises(ValueError):
        ScenarioConfig(nodes=2, mean_photons=0.1, eta=0.5, scheme="unknown")
