import dataclasses
import itertools
import math
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np
import pytest

from cvdqs import cli, fock, gaussian, nla, sensing, validate
from cvdqs.fock import TruncationError
from cvdqs.nla import NlaSpec, UnphysicalGainError, nla_operator
from cvdqs.sensing import (
    SCHEME_IDEAL_NLA,
    SCHEME_NO_NLA,
    SCHEME_PRACTICAL_NLA,
    SCHEME_PRODUCT,
    ScenarioConfig,
    crlb_entangled,
    crlb_product,
    delta_alpha_entangled,
    delta_alpha_ideal_nla,
    delta_alpha_product,
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
        vac = fock.basis_vector((0,) * nodes, 6)
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


# ---------------------------------------------------------------------------
# Fock pipelines
# ---------------------------------------------------------------------------

@pytest.fixture
def trunc_tol(monkeypatch):
    """``trunc_tol(tol)`` sets ``sensing.TRUNC_TOL`` for one test.

    The guard runs inside the cached source stage, so the cache is cleared
    whenever the tolerance changes and after the test: no source accepted
    under one tolerance reaches a call made under another.
    """
    def set_tol(tol):
        sensing._practical_source.cache_clear()
        monkeypatch.setattr(sensing, "TRUNC_TOL", tol)

    yield set_tol
    sensing._practical_source.cache_clear()


def test_no_nla_pipeline_power_and_success():
    # delta_alpha against the closed form and the Gaussian engine is a
    # `cvdqs validate` check at these points
    for eta in (0.3, 0.5, 1.0):
        cfg = ScenarioConfig(
            nodes=4, mean_photons=0.04, eta=eta, scheme=SCHEME_NO_NLA, cutoff=8
        )
        point = simulate_no_nla_fock(cfg)
        assert point.p_success == 1.0
        assert point.probe_power == pytest.approx(0.04 * eta, abs=1e-6)


class _Moments(NamedTuple):
    weight: float
    mode_x_means: np.ndarray
    xbar_variance: float
    total_photons: float


def _mixture_moments(branches, nodes, cutoff):
    """Moments of an (unnormalised) mixture of pure branches, from dense
    per-mode x and n passes over each branch."""
    x_op, _ = fock.quadratures(cutoff)
    lower = fock.ModeOperator(fock.annihilation_matrix(cutoff))
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
            x_applied = fock.apply_mode_operator(x_op, mode, branch).amplitudes
            mean_x[mode] += float(np.vdot(amps, x_applied).real)
            xbar += x_applied
            lowered = fock.apply_mode_operator(lower, mode, branch).amplitudes
            photons += float(np.vdot(lowered, lowered).real)
        xbar /= nodes
        xbar_first += float(np.vdot(amps, xbar).real)
        xbar_second += float(np.vdot(xbar, xbar).real)
    var = xbar_second / weight - (xbar_first / weight) ** 2
    return _Moments(weight, mean_x / weight, var, photons / weight)


def _loss_branches(mean_photons, eta, cutoff):
    """The Kraus branches of loss on the normalised single-mode source, from ``fock`` alone."""
    unit = fock.normalize(fock.sv_fock(mean_photons, cutoff))[0].amplitudes
    return [kraus @ unit for kraus in fock.loss_kraus_operators(eta, cutoff)]


def _per_branch_oracle(nodes, mean_photons, eta, cutoff):
    """Each loss branch of the source spread over the dense ``(cutoff+1)^M``
    tensor by its own ``fock.balanced_splitter`` call, then dense ladder passes."""
    amps = _loss_branches(mean_photons, eta, cutoff)

    def branches():
        for amp in amps:
            spread = np.zeros((cutoff + 1,) * nodes, dtype=complex)
            spread[(slice(None),) + (0,) * (nodes - 1)] = amp
            yield fock.balanced_splitter(nodes, fock.FockVector(spread))

    return _mixture_moments(branches(), nodes, cutoff)


def test_no_nla_pipeline_matches_per_branch_splits(monkeypatch, trunc_tol):
    # the engine's weight, and the mode-0 x mean it checks for bias
    weights, means = [], []
    moments, check = sensing._symmetric_moments, sensing._require_unbiased

    def recording_moments(*args):
        out = moments(*args)
        weights.append(out[0])
        return out

    def recording_check(mean_x):
        means.append(mean_x)
        check(mean_x)

    monkeypatch.setattr(sensing, "_symmetric_moments", recording_moments)
    monkeypatch.setattr(sensing, "_require_unbiased", recording_check)
    # a tolerance of 1 lets the low caps run: a guard on the input, not a tolerance
    trunc_tol(1.0)
    for nodes, cutoff, mean_photons, eta in itertools.product(
        range(1, 6), (2, 4, 6, 8), (0.0, 0.01, 0.04, 0.3), (0.1, 0.5, 0.7, 1.0)
    ):
        cfg = ScenarioConfig(
            nodes=nodes,
            mean_photons=mean_photons,
            eta=eta,
            scheme=SCHEME_NO_NLA,
            cutoff=cutoff,
        )
        point = simulate_no_nla_fock(cfg)
        want = _per_branch_oracle(nodes, mean_photons, eta, cutoff)
        assert weights.pop() == pytest.approx(want.weight, rel=1e-12)
        assert point.delta_alpha == pytest.approx(math.sqrt(want.xbar_variance), rel=1e-12)
        assert point.probe_power == pytest.approx(want.total_photons, rel=1e-12)
        assert abs(means.pop() - want.mode_x_means[0]) <= 1e-12


def test_no_nla_ladder_passes_do_not_grow_with_nodes(monkeypatch):
    # permutation symmetry: the ladders of modes 0 and 1 carry every moment
    counts = []
    apply = sensing.apply_mode_operator

    def counting(*args):
        counts[-1] += 1
        return apply(*args)

    monkeypatch.setattr(sensing, "apply_mode_operator", counting)
    for nodes in (2, 3, 4, 5):
        counts.append(0)
        simulate_no_nla_fock(
            ScenarioConfig(nodes=nodes, mean_photons=0.04, eta=0.5, scheme=SCHEME_NO_NLA, cutoff=4)
        )
    assert len(set(counts)) == 1 and counts[0] <= 4, counts


def test_practical_ladder_passes_do_not_grow_with_nodes(monkeypatch):
    # the pair overlaps convolve the one-mode ladders with amp over the pair's
    # photon total, so only the two one-mode ladders go through
    # apply_mode_operator and no grid over the occupations of two modes is built
    counts = []
    apply = sensing.apply_mode_operator

    def counting(*args):
        counts[-1] += 1
        return apply(*args)

    def two_mode_grid(*args):
        raise AssertionError("the practical engine built a grid over two modes")

    monkeypatch.setattr(sensing, "apply_mode_operator", counting)
    monkeypatch.setattr(sensing, "_photon_totals", two_mode_grid)
    monkeypatch.setattr(sensing.np, "outer", two_mode_grid)
    sensing._practical_source.cache_clear()
    for nodes in (1, 2, 4, 100):
        counts.append(0)
        simulate_practical(
            ScenarioConfig(
                nodes=nodes,
                mean_photons=0.04,
                eta=0.5,
                scheme=SCHEME_PRACTICAL_NLA,
                nla=NlaSpec.practical(2.0, 2),
            )
        )
    assert counts == [2, 2, 2, 2], counts


def test_overlaps_match_one_gather_per_overlap():
    # oracle: each overlap reads its own weights from the density, entry by
    # entry, with every source total outside it (below 0 or above the cap)
    # zero; _gram forms all nine overlaps of two stacks in one contraction
    rng = np.random.default_rng(7)
    for modes in (1, 2, 4):
        dim, n_coef = 4, 5
        totals = sensing._photon_totals(dim, modes).ravel()
        density = rng.normal(size=(n_coef, n_coef))
        density = density + density.T
        coefficients = rng.normal(size=n_coef)
        weights = sensing._gather_weights(density, totals.max() + 1, n_coef)
        bras, kets = rng.normal(size=(2, 3, totals.size)) + 1j * rng.normal(size=(2, 3, totals.size))
        gram = sensing._gram(bras, (weights @ coefficients)[:, :, totals], kets)

        def entry(row, col):
            return density[row, col] if 0 <= min(row, col) and max(row, col) < n_coef else 0.0

        for b, k in itertools.product((-1, 0, 1), repeat=2):
            table = [
                sum(entry(s + r + b, s + r + k) * coefficients[r] for r in range(n_coef))
                for s in range(totals.max() + 1)
            ]
            want = np.vdot(bras[b + 1], kets[k + 1] * np.array(table)[totals]).real
            assert gram[b + 1, k + 1] == pytest.approx(want, rel=1e-13)


def _practical_cfg(nodes, gain, cutoff=8):
    return ScenarioConfig(
        nodes=nodes,
        mean_photons=0.04,
        eta=0.5,
        scheme=SCHEME_PRACTICAL_NLA,
        cutoff=cutoff,
        nla=NlaSpec.practical(gain, 2),
    )


def test_gain_sweep_builds_the_source_once(monkeypatch, capsys):
    # the 41 gains of the default sweep share one lossy split source
    calls = []
    build = sensing.sv_fock

    def counting(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(sensing, "sv_fock", counting)
    sensing._practical_source.cache_clear()
    assert cli.main(["sweep-sensitivity"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 4 * 41
    assert len(calls) == 1


def test_refused_source_is_never_cached():
    # the guard runs inside the source stage, so a cap it refuses raises on
    # every call and leaves nothing in the cache for a later call to reuse
    sensing._practical_source.cache_clear()
    point = simulate_practical(_practical_cfg(4, 3.0, cutoff=5))
    assert point.trunc_deficit == pytest.approx(1.8e-5, rel=0.05)
    cached = sensing._practical_source.cache_info().currsize
    for gain in (3.0, 3.0, 2.0):
        with pytest.raises(TruncationError, match="increase the cutoff"):
            simulate_practical(_practical_cfg(4, gain, cutoff=2))
        assert sensing._practical_source.cache_info().currsize == cached
    assert simulate_practical(_practical_cfg(4, 3.0, cutoff=5)) == point


def test_cached_source_gives_the_cold_results():
    gains = (1.0, 1.7, 2.5, 3.0)
    for nodes in (1, 2, 4, 100):
        cold = []
        for gain in gains:
            sensing._practical_source.cache_clear()
            cold.append(simulate_practical(_practical_cfg(nodes, gain)))
        warm = [simulate_practical(_practical_cfg(nodes, gain)) for gain in gains]
        assert sensing._practical_source.cache_info().hits == len(gains)
        for got, want in zip(warm, cold):
            for field in dataclasses.fields(sensing.SensitivityPoint):
                assert getattr(got, field.name) == getattr(want, field.name), (nodes, field.name)


def test_cached_source_arrays_are_read_only():
    # one gather over every photon total a pair of modes can hold, 0..2N+2,
    # whatever the node count; the one-mode overlaps read its first N+2 sectors
    # the shared ladder pair on the amplifier's basis {0..N+1} is frozen too
    for nodes in (1, 4):
        weights, _ = sensing._practical_source(nodes, 0.04, 0.5, 8, 2)
        assert weights.shape == (3, 3, 2 * 2 + 3, 8 + 1)
        for array in (weights, *(op.entries for op in sensing._ladder_pair(2 + 1))):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 1.0


def test_one_ladder_pair_per_basis_serves_both_engines(monkeypatch):
    # the ladders depend on the basis alone: practical points at one scissor
    # count N share the pair on {0..N+1}, whatever (M, ns, eta), and the
    # amplifier-free engine at cutoff N+1 reads the same pair
    applied = []
    apply = sensing.apply_mode_operator

    def recording(op, mode, state):
        applied.append(op)
        return apply(op, mode, state)

    monkeypatch.setattr(sensing, "apply_mode_operator", recording)
    sensing._practical_source.cache_clear()
    sensing._ladder_pair.cache_clear()
    pair = sensing._ladder_pair(7 + 1)
    for nodes, mean_photons, eta in ((1, 0.04, 0.5), (4, 0.1, 0.3), (100, 0.0, 1.0)):
        simulate_practical(
            ScenarioConfig(
                nodes=nodes,
                mean_photons=mean_photons,
                eta=eta,
                scheme=SCHEME_PRACTICAL_NLA,
                nla=NlaSpec.practical(1.5, 7),
            )
        )
        cached = sensing._practical_source(nodes, mean_photons, eta, 8, 7)
        assert not any(isinstance(value, fock.ModeOperator) for value in cached)
    simulate_no_nla_fock(ScenarioConfig(nodes=3, mean_photons=0.04, eta=0.5, scheme=SCHEME_NO_NLA, cutoff=8))
    assert len(applied) == 3 * 2 + 4
    assert all(op is pair[0] or op is pair[1] for op in applied)
    assert sensing._ladder_pair.cache_info().currsize == 1


def test_ladder_cache_is_bounded():
    # each basis size adds an entry; an unbounded cache keeps them all
    for n_max in range(1, 41):
        sensing._ladder_pair(n_max)
    info = sensing._ladder_pair.cache_info()
    assert info.maxsize is not None
    assert info.currsize <= info.maxsize


@pytest.mark.parametrize("nodes, cutoff", [(2, 45), (3, 45), (2, 100)])
def test_no_nla_refuses_a_splitter_unitary_too_large(monkeypatch, nodes, cutoff):
    # the state is small, but from M=2 the splitter's two-mode unitary has
    # (cutoff+1)^4 entries: 46^4 is over 2**22, and at cutoff 100 each of its
    # 10,201-square matrices would take 1.66 GB
    def no_split(*args):
        raise AssertionError("the splitter was built")

    monkeypatch.setattr(fock, "balanced_splitter", no_split)
    cfg = ScenarioConfig(nodes=nodes, mean_photons=0.04, eta=0.5, scheme=SCHEME_NO_NLA, cutoff=cutoff)
    with pytest.raises(ValueError, match=f"cutoff {cutoff} on M={nodes} nodes"):
        simulate_no_nla_fock(cfg)


def test_no_nla_single_node_builds_no_splitter_unitary():
    # M=1 mixes no modes, so only the state counts against the limit
    cfg = ScenarioConfig(nodes=1, mean_photons=0.04, eta=0.5, scheme=SCHEME_NO_NLA, cutoff=60)
    assert simulate_no_nla_fock(cfg).delta_alpha == pytest.approx(delta_alpha_entangled(1, 0.04, 0.5), abs=1e-4)


def test_no_nla_vacuum_source():
    for nodes in (1, 2, 4):
        cfg = ScenarioConfig(nodes=nodes, mean_photons=0.0, eta=0.5, scheme=SCHEME_NO_NLA)
        point = simulate_no_nla_fock(cfg)
        assert point.delta_alpha == pytest.approx(1.0 / (2.0 * math.sqrt(nodes)), rel=1e-13)
        assert point.probe_power == 0.0


def test_no_nla_splits_the_source_once_per_call(monkeypatch):
    # a cache of split states would hide the split from a repeated point
    calls = []
    split = fock.balanced_splitter

    def counting(*args):
        calls.append(args)
        return split(*args)

    monkeypatch.setattr(fock, "balanced_splitter", counting)
    for mean_photons, eta in ((0.04, 0.5), (0.1, 0.7), (0.04, 0.5)):
        before = len(calls)
        simulate_no_nla_fock(
            ScenarioConfig(nodes=4, mean_photons=mean_photons, eta=eta, scheme=SCHEME_NO_NLA)
        )
        assert len(calls) == before + 1


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


def test_practical_requires_capacity_and_scheme(trunc_tol):
    # a source cap below N computes: the amplifier's basis does not depend on it
    trunc_tol(0.1)
    for case in ((2, 0.1, 1.0, 2, 3.0, 1), (3, 0.04, 0.5, 2, 1.7, 1)):
        _assert_matches_oracle(*case)
    with pytest.raises(ValueError):
        ScenarioConfig(nodes=2, mean_photons=0.02, eta=0.5, scheme=SCHEME_PRACTICAL_NLA)


def test_truncation_tolerance_enforced(trunc_tol):
    trunc_tol(1e-9)
    cfg = ScenarioConfig(nodes=2, mean_photons=0.04, eta=0.5, scheme=SCHEME_NO_NLA, cutoff=5)
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


def _assert_matches_oracle(nodes, mean_photons, eta, scissors, gain, cutoff):
    cfg = ScenarioConfig(
        nodes=nodes,
        mean_photons=mean_photons,
        eta=eta,
        scheme=SCHEME_PRACTICAL_NLA,
        cutoff=cutoff,
        nla=NlaSpec.practical(gain, scissors),
    )
    point = simulate_practical(cfg)
    want_da, want_power, want_p = _oracle_practical(
        nodes, mean_photons, eta, scissors, gain, max(cutoff, scissors + 1), source_cap=cutoff
    )
    assert point.delta_alpha == pytest.approx(want_da, abs=1e-8)
    assert point.probe_power == pytest.approx(want_power, abs=1e-8)
    assert point.p_success == pytest.approx(want_p, rel=1e-8)


def test_practical_pipeline_matches_independent_oracle(trunc_tol):
    # (M, ns, eta, scissors, g, cutoff); the second has cutoff below M * scissors.
    # The oracle loses photons after the split and the engine before it, so
    # every lossy case also checks that uniform loss commutes with the splitter
    trunc_tol(1e-2)
    for case in (
        (2, 0.02, 0.7, 1, 1.5, 6),
        (3, 0.04, 0.5, 2, 1.7, 3),
        (2, 0.04, 1.0, 2, 2.0, 5),
        (3, 0.1, 0.6, 1, 1.0, 4),
        (2, 0.04, 0.6, 2, 1.8, 5),
    ):
        _assert_matches_oracle(*case)


def test_practical_cutoff_equal_to_scissors(trunc_tol):
    # the source fills every level up to N, and x still raises N to N+1
    trunc_tol(1e-2)
    for nodes in (1, 2):
        _assert_matches_oracle(nodes, 0.1, 1.0, 2, 3.0, 2)


def _multinomial_oracle(nodes, mean_photons, eta, scissors, gain, cutoff):
    """Every heralded loss branch written out on ``{0..N+1}^M``: the branch
    amplitude ``b_k[s]`` times the split amplitude ``sqrt(s!/prod n_i!) M^(-s/2)``
    times ``prod_i t[n_i]``, zero where ``s`` exceeds the source cap; moments
    from the dense per-mode ladder passes of ``_mixture_moments``."""
    n_max = scissors + 1
    occupations = np.indices((n_max + 1,) * nodes)
    total = occupations.sum(axis=0)
    log_factorial = np.array([math.lgamma(n + 1.0) for n in range(total.max() + 1)])
    split = np.exp(
        0.5 * (log_factorial[total] - log_factorial[occupations].sum(axis=0))
        - 0.5 * math.log(nodes) * total
    )
    diag = np.diag(nla_operator(scissors, gain, n_max).entries).real
    factor = split * np.prod(diag[occupations], axis=0)
    amps = _loss_branches(mean_photons, eta, cutoff)
    sectors = np.zeros(max(total.max(), cutoff) + 1, dtype=complex)

    def branches():  # one branch alive at a time
        for amp in amps:
            sectors[: cutoff + 1] = amp
            yield fock.FockVector(sectors[total] * factor)

    moments = _mixture_moments(branches(), nodes, n_max)
    return math.sqrt(moments.xbar_variance), moments.total_photons, moments.weight


def test_practical_matches_multinomial_oracle_at_many_nodes():
    # the last four pairs put many photon totals under the pair convolution
    node_scissors = [*itertools.product((4, 5, 6, 8), (1, 2, 3)), (2, 25), (2, 60), (3, 25), (4, 7)]
    for (nodes, scissors), gain in itertools.product(node_scissors, (1.0, 1.7, 3.0)):
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


def _compositions(total, parts):
    """Every ``(m_0, ..., m_{parts-1})`` of non-negative integers summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _lossy_sv_density(mean_photons, eta, cap):
    """``R(s, s')`` of the squeezed vacuum cut at ``cap`` photons, renormalised,
    after pure loss, from the closed forms in log space:
    ``sum_k c_{s+k} c_{s'+k} sqrt(C(s+k,k) C(s'+k,k)) eta^((s+s')/2) (1-eta)^k``."""
    r = math.asinh(math.sqrt(mean_photons))

    def log_c(j):  # log |c_j| for even j; the sign is (-1)^(j/2)
        k = j // 2
        return (k * math.log(math.tanh(r)) + 0.5 * math.lgamma(j + 1.0) - k * math.log(2.0)
                - math.lgamma(k + 1.0) - 0.5 * math.log(math.cosh(r)))

    def log_binom(n, k):
        return math.lgamma(n + 1.0) - math.lgamma(k + 1.0) - math.lgamma(n - k + 1.0)

    norm = sum(math.exp(2.0 * log_c(j)) for j in range(0, cap + 1, 2))

    @lru_cache(maxsize=None)
    def density(s, s_prime):
        if (s - s_prime) % 2 or max(s, s_prime) > cap:
            return 0.0
        return sum(
            (-1) ** ((s + s_prime) // 2 + k) * math.exp(
                log_c(s + k) + log_c(s_prime + k) + 0.5 * (log_binom(s + k, k) + log_binom(s_prime + k, k))
                + 0.5 * (s + s_prime) * math.log(eta) + k * math.log1p(-eta)
            )
            for k in range(s % 2, cap - max(s, s_prime) + 1, 2)
        ) / norm

    return density


def _type_class_oracle(nodes, mean_photons, eta, scissors, gain, cap):
    """Heralded moments conditioned on the occupations of nodes 1 and 2.

    Split amplitude ``sqrt(s!) M^(-s/2) prod_i u[n_i]``, ``u[n] = t[n]/sqrt(n!)``
    scaled by ``t[0]``; the other ``M-2`` nodes enter through their occupation
    types ``(m_0, ..., m_N)``, each with its multinomial count, summed in log
    space into a weight per rest total.  Shares only ``nla_operator`` with the
    package, and with the engine only ``Var(xbar) = [<x_1^2> + (M-1) <x_1 x_2>]/M``."""
    t = np.diag(nla_operator(scissors, gain, scissors).entries).real
    log_u = [math.log(t[n] / t[0]) - 0.5 * math.lgamma(n + 1.0) for n in range(scissors + 1)]
    rest = [0.0] * ((nodes - 2) * scissors + 1)
    for counts in _compositions(nodes - 2, scissors + 1):
        log_weight = math.lgamma(nodes - 1.0) + sum(
            m * 2.0 * log_u[n] - math.lgamma(m + 1.0) for n, m in enumerate(counts)
        )
        rest[sum(n * m for n, m in enumerate(counts))] += math.exp(log_weight)
    density = _lossy_sv_density(mean_photons, eta, cap)

    def rho(r, bra, ket):
        # <n_1 n_2, rest| rho |n'_1 n'_2, rest>, summed over the rests of total r
        if min(bra + ket) < 0 or max(bra + ket) > scissors:
            return 0.0
        s, s_prime = sum(bra) + r, sum(ket) + r
        log_split = 0.5 * (math.lgamma(s + 1.0) + math.lgamma(s_prime + 1.0) - (s + s_prime) * math.log(nodes))
        return rest[r] * density(s, s_prime) * math.exp(log_split + sum(log_u[n] for n in bra + ket))

    weight = n_1 = a_1 = a_1_sq = a_1_a_2 = a_1_dag_a_2 = 0.0
    for r in range(len(rest)):
        for n1, n2 in itertools.product(range(scissors + 1), repeat=2):
            diag = rho(r, (n1, n2), (n1, n2))
            weight += diag
            n_1 += n1 * diag
            a_1 += math.sqrt(n1) * rho(r, (n1 - 1, n2), (n1, n2))
            a_1_sq += math.sqrt(n1 * (n1 - 1)) * rho(r, (n1 - 2, n2), (n1, n2))
            a_1_a_2 += math.sqrt(n1 * n2) * rho(r, (n1 - 1, n2 - 1), (n1, n2))
            a_1_dag_a_2 += math.sqrt((n1 + 1) * n2) * rho(r, (n1 + 1, n2 - 1), (n1, n2))
    mean_x = a_1 / weight
    x_sq = (2.0 * a_1_sq + 2.0 * n_1 + weight) / (4.0 * weight)
    x_cross = (2.0 * a_1_a_2 + 2.0 * a_1_dag_a_2) / (4.0 * weight)
    variance = (x_sq + (nodes - 1) * x_cross) / nodes - mean_x**2
    return math.sqrt(variance), nodes * n_1 / weight, weight * t[0] ** (2 * nodes)


def test_practical_matches_type_class_oracle_at_large_nodes():
    # converged cap 128; the multinomial oracle stops near M=8, this one runs
    # C(M-2+N, N) types (4,950 at M=100, N=2)
    for nodes, gain in ((30, 3.0), (100, 2.0), (100, 3.0)):
        cfg = ScenarioConfig(
            nodes=nodes,
            mean_photons=0.04,
            eta=0.5,
            scheme=SCHEME_PRACTICAL_NLA,
            cutoff=128,
            nla=NlaSpec.practical(gain, 2),
        )
        point = simulate_practical(cfg)
        want_da, want_power, want_p = _type_class_oracle(nodes, 0.04, 0.5, 2, gain, 128)
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


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def test_truncation_convergence_of_reported_variance(trunc_tol):
    # each +2 in n_max shrinks the variance error by >10x; measured 6->10
    # shifts are 1.25e-6 (N=0.04) and 2.3e-5 (N=0.1)
    trunc_tol(1e-3)
    for mean_photons, coarse_bound in ((0.04, 2e-6), (0.1, 3e-5)):
        values = []
        for n_max in (6, 10, 12):
            cfg = ScenarioConfig(
                nodes=4,
                mean_photons=mean_photons,
                eta=0.5,
                scheme=SCHEME_NO_NLA,
                cutoff=n_max,
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
    a = fock.annihilation_matrix(n_max)
    # exp(alpha (a^dag - a)) shifts <x> by alpha = 0.05
    shift = fock.ModeOperator(_taylor_expm(0.05 * (a.conj().T - a)))
    displaced = probe
    for mode in range(nodes):
        displaced = fock.apply_mode_operator(shift, mode, displaced)
    moments = []
    for state in (probe, displaced):
        x_all = [fock.apply_mode_operator(x_op, m, state).amplitudes for m in range(nodes)]
        xbar = sum(x_all) / nodes
        mean = np.vdot(state.amplitudes, xbar).real
        moments.append((mean, np.vdot(xbar, xbar).real - mean**2))
    (_, base), (mean, var) = moments
    assert mean == pytest.approx(0.05, abs=1e-6)
    assert var == pytest.approx(base, abs=1e-8)


def test_benefit_ordering_at_matched_power():
    # ideal best, then practical, then no amplifier, across the mid powers; the
    # ideal curve is read at the practical power off a fine gain grid, on which
    # power rises and delta_alpha falls with the gain
    ideal = [delta_alpha_ideal_nla(4, 0.04, 0.5, g) for g in np.linspace(1.0, 2.3, 1301)]
    ideal_power = [point.probe_power for point in ideal]
    ideal_delta = [point.delta_alpha for point in ideal]
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
        assert ideal_power[0] < power < ideal_power[-1]
        no_nla = delta_alpha_entangled(4, power / 0.5, 0.5)
        assert np.interp(power, ideal_power, ideal_delta) <= practical.delta_alpha
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


_PRACTICAL = dict(mean_photons=0.04, eta=0.5, scheme=SCHEME_PRACTICAL_NLA, nla=NlaSpec(2.0, 2))
_NO_NLA = dict(eta=0.5, scheme=SCHEME_NO_NLA)


def test_scenario_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(nodes=0, mean_photons=0.1, eta=0.5, scheme=SCHEME_NO_NLA)
    with pytest.raises(ValueError):
        ScenarioConfig(nodes=2, mean_photons=-0.1, eta=0.5, scheme=SCHEME_NO_NLA)
    with pytest.raises(ValueError):
        ScenarioConfig(nodes=2, mean_photons=0.1, eta=0.0, scheme=SCHEME_NO_NLA)
    with pytest.raises(ValueError):
        ScenarioConfig(nodes=2, mean_photons=0.1, eta=0.5, scheme="unknown")
    # an amplifier on the amplifier-free scheme would be silently ignored
    with pytest.raises(ValueError, match="takes no NlaSpec"):
        ScenarioConfig(
            nodes=4, mean_photons=0.04, eta=0.5, scheme=SCHEME_NO_NLA, nla=NlaSpec.practical(2.5, 2)
        )
    # closed-form-only schemes have no engine to run a config through
    for scheme in (SCHEME_IDEAL_NLA, SCHEME_PRODUCT):
        with pytest.raises(ValueError, match="no engine simulates"):
            ScenarioConfig(nodes=4, mean_photons=0.04, eta=0.5, scheme=scheme)
    # a whole-number float node count runs as the equal int, not as a TypeError
    assert simulate_practical(ScenarioConfig(nodes=3.0, **_PRACTICAL)) == simulate_practical(
        ScenarioConfig(nodes=3, **_PRACTICAL)
    )


# every public taker of a real-valued input, by the range its validator holds:
# (quantity named in the error, {id: taker}, refused values, accepted edges).
# A scenario or an effective channel needs eta > 0; a bare loss channel admits 0
_REAL_INPUTS = [
    (
        "mean photon number",
        {
            "sv-fock": lambda ns: fock.sv_fock(ns, 4),
            "sv-gaussian": gaussian.sv_gaussian,
            "effective-sv": lambda ns: nla.effective_sv_photons(ns, 1.0),
            "config": lambda ns: ScenarioConfig(nodes=4, mean_photons=ns, **_NO_NLA),
            "closed-form": lambda ns: delta_alpha_entangled(4, ns, 0.5),
            "product": lambda ns: delta_alpha_product(4, ns),
            "ideal": lambda ns: delta_alpha_ideal_nla(4, ns, 0.5, 1.0),
            "crlb": lambda ns: crlb_entangled(4, ns, 0.5),
            "crlb-product": lambda ns: crlb_product(4, ns, 0.5),
        },
        (-1e-12, math.nan, math.inf),
        (0.0,),
    ),
    (
        "transmissivity must lie in \\(0, 1\\]",
        {
            "config": lambda eta: ScenarioConfig(nodes=4, mean_photons=0.04, eta=eta, scheme=SCHEME_NO_NLA),
            "closed-form": lambda eta: delta_alpha_entangled(4, 0.04, eta),
            "product": lambda eta: delta_alpha_product(4, 0.04, eta),
            "ideal": lambda eta: delta_alpha_ideal_nla(4, 0.04, eta, 1.5),
            "crlb": lambda eta: crlb_entangled(4, 0.04, eta),
            "crlb-product": lambda eta: crlb_product(4, 0.04, eta),
            "effective-gain": lambda eta: nla.effective_gain(1.5, eta),
            "effective-eta": lambda eta: nla.effective_transmissivity(1.5, eta),
        },
        (0.0, 1 + 1e-12, math.nan),
        (1.0,),
    ),
    (
        "transmissivity must lie in \\[0, 1\\]",
        {
            "loss-kraus": lambda eta: fock.loss_kraus_operators(eta, 4),
            "loss-gaussian": lambda eta: gaussian.loss_gaussian(gaussian.sv_gaussian(0.04), eta),
        },
        (-1e-12, 1 + 1e-12, math.nan),
        (0.0, 1.0),
    ),
    (
        "amplitude gain",
        {
            "spec": lambda g: NlaSpec(g, 2),
            "effective-gain": lambda g: nla.effective_gain(g, 0.5),
            "effective-eta": lambda g: nla.effective_transmissivity(g, 0.5),
            "ideal": lambda g: delta_alpha_ideal_nla(4, 0.04, 0.5, g),
            "projector": lambda g: nla.projector_pi(2, g, 4),
            "nla-operator": lambda g: nla.nla_operator(2, g, 4),
            "clipped": lambda g: nla.clipped_gain_operator(g, 4),
            "scissor": lambda g: nla.scissor_kraus(g, 2),
        },
        (1 - 1e-12, math.nan, math.inf),
        (1.0,),
    ),
    (
        "effective gain",
        {"effective-sv": lambda g: nla.effective_sv_photons(0.04, g)},
        (1 - 1e-12, math.nan, math.inf),
        (1.0,),
    ),
]
_EDGE_REFUSALS = {
    f"{taker}-{name.split()[0]}-{bad}": (partial(take, bad), name)
    for name, takers, refused, _ in _REAL_INPUTS
    for taker, take in takers.items()
    for bad in refused
}


@pytest.mark.parametrize(
    "build, name",
    [
        (partial(ScenarioConfig, nodes=4, mean_photons=math.nan, **_NO_NLA), "mean photon number"),
        (partial(ScenarioConfig, nodes=4, mean_photons=math.inf, **_NO_NLA), "mean photon number"),
        (partial(delta_alpha_entangled, 4, math.nan, 0.5), "mean photon number"),
        (partial(crlb_product, 4, math.nan, 0.5), "mean photon number"),
        (partial(NlaSpec, math.nan, 2), "gain"),
        (partial(NlaSpec, math.inf, 2), "gain"),
        (partial(delta_alpha_ideal_nla, 4, 0.04, 0.5, math.nan), "gain"),
        (partial(ScenarioConfig, nodes=2.5, **_PRACTICAL), "node count"),
        (partial(delta_alpha_entangled, 2.5, 0.04, 0.5), "node count"),
        (partial(fock.sv_fock, 0.04, 8.7), "photon cap"),
        (partial(fock.sv_fock, 0.04, math.inf), "photon cap"),
        (partial(NlaSpec, 2.0, 2.5), "scissor count"),
        (partial(fock.sv_fock, math.nan, 4), "mean photon number"),
        (partial(gaussian.sv_gaussian, math.nan), "mean photon number"),
        (partial(nla.effective_sv_photons, math.nan, 1.5), "mean photon number"),
        (partial(nla.effective_sv_photons, 0.04, math.nan), "effective gain"),
        (partial(nla.clipped_gain_operator, math.nan, 4), "amplitude gain"),
        (partial(nla.projector_pi, 2, math.nan, 4), "amplitude gain"),
        (partial(nla.nla_operator, 2, math.nan, 4), "amplitude gain"),
        (partial(nla.scissor_kraus, math.nan, 2), "amplitude gain"),
    ]
    + list(_EDGE_REFUSALS.values()),
    ids=[
        "config-ns-nan", "config-ns-inf", "closed-form-ns-nan", "crlb-ns-nan",
        "spec-gain-nan", "spec-gain-inf", "ideal-gain-nan", "config-nodes-2.5",
        "closed-form-nodes-2.5", "cutoff-8.7", "cutoff-inf", "scissors-2.5",
        "sv-fock-ns-nan", "sv-gaussian-ns-nan", "effective-ns-nan", "effective-gain-nan",
        "clipped-gain-nan", "projector-gain-nan", "nla-operator-gain-nan", "scissor-gain-nan",
    ]
    + list(_EDGE_REFUSALS),
)
def test_non_finite_and_non_integral_inputs_raise_naming_the_parameter(build, name):
    # the CLI rejects these; the library used to accept them, return nan,
    # round them down or fail later with an error about another parameter.
    # Every taker of a real-valued input also refuses just past its edge,
    # naming the quantity and, for the transmissivity, the range it holds
    with pytest.raises(ValueError, match=name):
        build()


@pytest.mark.parametrize(
    "take, edge",
    [
        pytest.param(take, edge, id=f"{taker}-{name.split()[0]}-{edge}")
        for name, takers, _, edges in _REAL_INPUTS
        for taker, take in takers.items()
        for edge in edges
    ],
)
def test_each_real_valued_input_accepts_its_edge(take, edge):
    # ns=0, gain=1, eta=1, and eta=0 for the bare loss channels run
    take(edge)


_CAP_TAKERS = {
    "sv_fock": lambda cap: fock.sv_fock(0.04, cap).amplitudes,
    "loss_kraus_operators": lambda cap: np.array(fock.loss_kraus_operators(0.5, cap)),
    "annihilation_matrix": fock.annihilation_matrix,
    "quadratures": lambda cap: fock.quadratures(cap)[1].entries,
    "basis_vector": lambda cap: fock.basis_vector((1, 0), cap).amplitudes,
    "projector_pi": lambda cap: nla.projector_pi(1, 1.5, cap).entries,
    "gain_diagonal": lambda cap: nla.gain_diagonal(1.5, cap),
    "nla_operator": lambda cap: nla.nla_operator(1, 1.5, cap).entries,
    "clipped_gain_operator": lambda cap: nla.clipped_gain_operator(1.5, cap).entries,
    "scissor_kraus": lambda cap: nla.scissor_kraus(1.5, cap).entries,
    "lossless_cvmp_vector": lambda cap: lossless_cvmp_vector(2, 0.04, cap).amplitudes,
    "ScenarioConfig": lambda cap: ScenarioConfig(
        nodes=4, mean_photons=0.04, eta=0.5, scheme=SCHEME_NO_NLA, cutoff=cap
    ).cutoff,
}


@pytest.mark.parametrize("name", list(_CAP_TAKERS))
def test_every_photon_cap_is_a_checked_whole_number(name):
    # the cap is a plain int everywhere: each public function that takes one
    # refuses what is not a whole number >= 1, and runs a whole float as the int
    build = _CAP_TAKERS[name]
    for bad in (0, -1, 2.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="photon cap"):
            build(bad)
    whole, exact = build(8.0), build(8)
    assert type(whole) is type(exact)
    assert np.shape(whole) == np.shape(exact) and np.array_equal(whole, exact)


_COUNT_TAKERS = {
    "NlaSpec": ("scissor count", lambda n: NlaSpec(2.0, n).scissors),
    "projector_pi": ("scissor count", lambda n: nla.projector_pi(n, 1.5, 8).entries),
    "nla_operator": ("scissor count", lambda n: nla.nla_operator(n, 1.5, 8).entries),
    "run_validation_suite": ("scissor count", lambda n: validate.run_validation_suite(scissors=n)),
    "balanced_splitter": (
        "mode count", lambda m: fock.balanced_splitter(m, fock.basis_vector((1, 0), 3)).amplitudes
    ),
    "splitter_gaussian": ("mode count", lambda m: gaussian.splitter_gaussian(gaussian.sv_gaussian(0.1), m).cov),
}


@pytest.mark.parametrize("name", list(_COUNT_TAKERS))
def test_every_count_is_a_checked_whole_number(name):
    # scissor and mode counts share the photon cap's validator: each taker
    # refuses what is not a whole number >= 1, naming the count, and runs a
    # whole float as the int
    quantity, build = _COUNT_TAKERS[name]
    for bad in (0, -1, 2.5, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"{quantity} must be a whole number >= 1"):
            build(bad)
    whole, exact = build(2.0), build(2)
    assert type(whole) is type(exact)
    if isinstance(exact, list):
        assert whole == exact
    else:
        assert np.shape(whole) == np.shape(exact) and np.array_equal(whole, exact)
