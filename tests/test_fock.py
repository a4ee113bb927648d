import math

import numpy as np
import pytest

from cvdqs import fock
from cvdqs.fock import (
    FockVector,
    ModeOperator,
    apply_mode_operator,
    balanced_splitter,
    beamsplitter,
    loss_kraus_operators,
    normalize,
    quadratures,
    sv_fock,
)
from oracles import basis_vector


def random_vector(rng, mode_count, cutoff, max_total=None):
    """Random pure state, optionally restricted to total photons <= max_total."""
    shape = (cutoff + 1,) * mode_count
    amps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if max_total is not None:
        totals = np.zeros(shape)
        for axis in range(mode_count):
            idx = [None] * mode_count
            idx[axis] = slice(None)
            totals = totals + np.arange(cutoff + 1)[tuple(idx)]
        amps = np.where(totals <= max_total, amps, 0.0)
    amps /= np.linalg.norm(amps)
    return FockVector(amps)


def projector(psi):
    flat = psi.amplitudes.reshape(-1)
    return np.outer(flat, flat.conj())


def random_density(rng, mode_count, cutoff, max_total=None):
    """Mixture of two random pure states, as a plain matrix over the row-major basis."""
    psi_a = random_vector(rng, mode_count, cutoff, max_total)
    psi_b = random_vector(rng, mode_count, cutoff, max_total)
    return 0.6 * projector(psi_a) + 0.4 * projector(psi_b)


def lossy(eta, rho, cutoff):
    """The pure-loss channel on a single-mode density, from its Kraus set."""
    return sum(k @ rho @ k.conj().T for k in loss_kraus_operators(eta, cutoff))


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------

def test_cutoff_rejects_zero():
    # a cap of 0 is refused, and so is the one-entry basis it would give
    with pytest.raises(ValueError, match="photon cap"):
        sv_fock(0.04, 0)
    with pytest.raises(ValueError):
        FockVector(np.ones(1, dtype=complex))
    with pytest.raises(ValueError):
        FockVector(np.ones((3, 1), dtype=complex))
    with pytest.raises(ValueError):
        ModeOperator(np.ones((1, 1), dtype=complex))
    assert sv_fock(0.04, 1).n_max == 1


def test_vector_shape_must_match_cutoff():
    # every axis of a state has one length; an operator is square and must
    # match the state it acts on
    with pytest.raises(ValueError):
        FockVector(np.zeros((4, 5), dtype=complex))
    with pytest.raises(ValueError):
        FockVector(np.zeros((), dtype=complex))
    with pytest.raises(ValueError):
        ModeOperator(np.zeros((4, 5), dtype=complex))
    with pytest.raises(ValueError):
        ModeOperator(np.zeros(4, dtype=complex))
    psi = basis_vector((1, 0), 3)
    assert psi.n_max == 3
    with pytest.raises(ValueError, match="differ"):
        apply_mode_operator(quadratures(4)[0], 0, psi)
    assert apply_mode_operator(quadratures(3)[0], 0, psi).n_max == 3


def test_apply_mode_operator_matches_tensordot():
    # the kernel multiplies a reshaped view instead of moving axes; with one
    # real entry per row (the ladders and real diagonals the engines apply)
    # every output is a single product, so it equals the tensordot form bit
    # for bit, and a dense complex operator, whose products and sums the two
    # forms order differently, agrees to rounding
    rng = np.random.default_rng(11)
    n_max = 4
    lower = fock.annihilation_matrix(n_max)
    sparse = [lower, lower.conj().T, np.diag(rng.standard_normal(n_max + 1)).astype(complex)]
    dense = rng.standard_normal((n_max + 1,) * 2) + 1j * rng.standard_normal((n_max + 1,) * 2)
    for modes in range(1, 6):
        big = rng.standard_normal((2 * n_max + 2,) * modes) + 1j * rng.standard_normal((2 * n_max + 2,) * modes)
        stepped = big[(slice(None, None, 2),) * modes]
        for amps in (np.ascontiguousarray(stepped), stepped, stepped.T):
            assert amps.shape == (n_max + 1,) * modes
            for mode in range(modes):
                for op in sparse:
                    got = apply_mode_operator(ModeOperator(op), mode, FockVector(amps)).amplitudes
                    want = np.moveaxis(np.tensordot(op, amps, ([1], [mode])), 0, mode)
                    assert np.array_equal(got, want), (modes, mode)
                got = apply_mode_operator(ModeOperator(dense), mode, FockVector(amps)).amplitudes
                want = np.moveaxis(np.tensordot(dense, amps, ([1], [mode])), 0, mode)
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def test_states_are_frozen():
    psi = basis_vector((0,), 4)
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 0.0


# ---------------------------------------------------------------------------
# squeezed vacuum source
# ---------------------------------------------------------------------------

def test_sv_zero_photons_is_vacuum():
    psi = sv_fock(0.0, 6)
    expected = np.zeros(7)
    expected[0] = 1.0
    assert np.array_equal(psi.amplitudes, expected)


def test_sv_ground_amplitude():
    psi = sv_fock(0.04, 10)
    # |c0|^2 = 1/cosh(r) = 1/sqrt(1.04)
    assert abs(psi.amplitudes[0]) ** 2 == pytest.approx(1.0 / math.sqrt(1.04), abs=1e-12)
    assert abs(psi.amplitudes[0]) ** 2 == pytest.approx(0.980581, abs=1e-6)


def test_sv_odd_amplitudes_vanish_and_signs_alternate():
    psi = sv_fock(0.2, 9)
    amps = psi.amplitudes
    assert np.all(amps[1::2] == 0)
    assert amps[0].real > 0 and amps[2].real < 0 and amps[4].real > 0


def test_sv_mean_photon_number():
    psi = sv_fock(0.04, 10)
    # <n> = <psi|a^dag a|psi> = |a psi|^2
    lowered = fock.annihilation_matrix(10) @ psi.amplitudes
    assert np.vdot(lowered, lowered).real == pytest.approx(0.04, abs=1e-8)


def test_sv_rejects_negative_brightness():
    with pytest.raises(ValueError):
        sv_fock(-0.1, 6)


def test_sv_norm_deficit_reported():
    psi = sv_fock(0.04, 5)
    brute = 1.0 - float(np.sum(np.abs(psi.amplitudes) ** 2))
    assert psi.norm_deficit == pytest.approx(brute, abs=1e-15)
    assert 1e-6 < psi.norm_deficit < 1e-4


# ---------------------------------------------------------------------------
# quadratures
# ---------------------------------------------------------------------------

def test_vacuum_quadrature_variances():
    # zero means, so each variance is the squared norm of op|0>
    x_op, p_op = quadratures(8)
    vac = basis_vector((0,), 8).amplitudes
    x_vac, p_vac = x_op.entries @ vac, p_op.entries @ vac
    assert np.vdot(vac, x_vac) == 0 and np.vdot(vac, p_vac) == 0
    assert np.vdot(x_vac, x_vac).real == pytest.approx(0.25, abs=1e-12)
    assert np.vdot(p_vac, p_vac).real == pytest.approx(1.0, abs=1e-12)


def test_single_photon_x_variance():
    x_op, _ = quadratures(8)
    one = basis_vector((1,), 8).amplitudes
    x_one = x_op.entries @ one
    assert np.vdot(one, x_one) == 0
    assert np.vdot(x_one, x_one).real == pytest.approx(0.75, abs=1e-12)


def test_canonical_commutator_inside_cutoff():
    x_op, p_op = quadratures(12)
    comm = x_op.entries @ p_op.entries - p_op.entries @ x_op.entries
    inner = comm[:10, :10]
    assert np.max(np.abs(inner - 1j * np.eye(10))) < 1e-12


def test_sv_x_variance_matches_squeezing_law():
    # e^{-2r}/4 with e^{-r} = sqrt(N+1) - sqrt(N)
    x_op, p_op = quadratures(16)
    for mean_photons in (0.01, 0.04, 0.1):
        psi, _ = normalize(sv_fock(mean_photons, 16))
        squeeze = (math.sqrt(mean_photons + 1) - math.sqrt(mean_photons)) ** 2
        stretch = (math.sqrt(mean_photons + 1) + math.sqrt(mean_photons)) ** 2
        # even photon numbers only, so <x> = <p> = 0
        x_psi, p_psi = x_op.entries @ psi.amplitudes, p_op.entries @ psi.amplitudes
        assert np.vdot(psi.amplitudes, x_psi) == 0 and np.vdot(psi.amplitudes, p_psi) == 0
        assert np.vdot(x_psi, x_psi).real == pytest.approx(squeeze / 4.0, abs=1e-8)
        assert np.vdot(p_psi, p_psi).real == pytest.approx(stretch, abs=1e-6)


# ---------------------------------------------------------------------------
# beamsplitter
# ---------------------------------------------------------------------------

def test_beamsplitter_single_photon_rotation():
    # exponentiating the one-photon block by hand gives
    # |1,0> -> cos(theta)|1,0> - sin(theta)|0,1>
    theta = math.pi / 4
    out = beamsplitter(theta, 0, 1, basis_vector((1, 0), 4))
    assert out.amplitudes[1, 0] == pytest.approx(math.cos(theta), abs=1e-12)
    assert out.amplitudes[0, 1] == pytest.approx(-math.sin(theta), abs=1e-12)


def test_beamsplitter_zero_angle_is_identity():
    rng = np.random.default_rng(7)
    psi = random_vector(rng, 2, 5)
    out = beamsplitter(0.0, 0, 1, psi)
    assert np.max(np.abs(out.amplitudes - psi.amplitudes)) < 1e-14


def test_beamsplitter_composes_to_full_swap():
    psi = basis_vector((1, 0), 4)
    out = beamsplitter(math.pi / 4, 0, 1, beamsplitter(math.pi / 4, 0, 1, psi))
    assert abs(out.amplitudes[0, 1]) == pytest.approx(1.0, abs=1e-12)
    assert abs(out.amplitudes[1, 0]) < 1e-12


def test_beamsplitter_rejects_bad_modes():
    psi = basis_vector((0, 0), 4)
    with pytest.raises(ValueError):
        beamsplitter(0.3, 0, 0, psi)
    with pytest.raises(ValueError):
        beamsplitter(0.3, 0, 2, psi)


def test_beamsplitter_preserves_photon_sectors():
    rng = np.random.default_rng(11)
    n_max = 5
    totals = np.add.outer(np.arange(n_max + 1), np.arange(n_max + 1))
    for _ in range(3):
        psi = random_vector(rng, 2, n_max)
        out = beamsplitter(0.7, 0, 1, psi)
        for sector in range(2 * n_max + 1):
            mask = totals == sector
            before = np.sum(np.abs(psi.amplitudes[mask]) ** 2)
            after = np.sum(np.abs(out.amplitudes[mask]) ** 2)
            assert after == pytest.approx(before, abs=1e-12)


def dense_mixer(theta, n_max):
    """exp(theta (a^dag b - a b^dag)) from one eigendecomposition of the whole two-mode generator."""
    a1 = fock.annihilation_matrix(n_max)
    ident = np.eye(n_max + 1, dtype=complex)
    big_a, big_b = np.kron(a1, ident), np.kron(ident, a1)
    evals, evecs = np.linalg.eigh(1j * (theta * (big_a.conj().T @ big_b - big_a @ big_b.conj().T)))
    return (evecs * np.exp(-1j * evals)) @ evecs.conj().T


ANGLES = (0.0, 0.3, -0.7, math.pi / 4, -math.acos(math.sqrt(0.2)), 2.5)


@pytest.mark.parametrize("n_max", (1, 3, 8))
def test_mixer_blocks_match_the_dense_generator(n_max):
    # built one photon total at a time, the mixer is the exponential of the
    # whole generator
    for theta in ANGLES:
        got = fock._two_mode_bs_unitary(theta, n_max)
        assert np.max(np.abs(got - dense_mixer(theta, n_max))) < 1e-13, theta


@pytest.mark.parametrize("n_max", (1, 3, 8))
def test_mixer_is_real_orthogonal_and_conserves_the_photon_total(n_max):
    totals = np.add.outer(np.arange(n_max + 1), np.arange(n_max + 1)).ravel()
    across = totals[:, None] != totals[None, :]
    for theta in ANGLES:
        mixer = fock._two_mode_bs_unitary(theta, n_max)
        assert mixer.dtype == np.float64
        assert np.max(np.abs(mixer.T @ mixer - np.eye(len(mixer)))) < 1e-14, theta
        assert np.all(mixer[across] == 0.0), theta


def test_beamsplitter_matches_the_dense_mixer_on_every_mode_pair():
    # the real mixer acts on the real and imaginary parts together, whichever
    # two modes it joins and whatever the layout of the amplitudes
    rng = np.random.default_rng(5)
    n_max, theta = 3, 0.4
    dense = dense_mixer(theta, n_max).reshape((n_max + 1,) * 4)
    psi = random_vector(rng, 4, n_max)
    for amps in (psi.amplitudes, psi.amplitudes.T):
        for mode_a in range(4):
            for mode_b in range(4):
                if mode_a == mode_b:
                    continue
                got = beamsplitter(theta, mode_a, mode_b, FockVector(amps)).amplitudes
                want = np.moveaxis(np.tensordot(dense, amps, ([2, 3], [mode_a, mode_b])), (0, 1), (mode_a, mode_b))
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


# ---------------------------------------------------------------------------
# balanced splitter
# ---------------------------------------------------------------------------

def test_balanced_splitter_single_mode_is_identity():
    psi = sv_fock(0.1, 5)
    out = balanced_splitter(1, psi)
    assert np.array_equal(out.amplitudes, psi.amplitudes)


def test_balanced_splitter_single_photon_uniform():
    out = balanced_splitter(4, basis_vector((1, 0, 0, 0), 3))
    amps = out.amplitudes
    singles = [
        amps[1, 0, 0, 0],
        amps[0, 1, 0, 0],
        amps[0, 0, 1, 0],
        amps[0, 0, 0, 1],
    ]
    # brute-force contract: every mode receives amplitude +1/sqrt(M)
    for amp in singles:
        assert amp == pytest.approx(0.5, abs=1e-12)
    assert np.sum(np.abs(amps) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_balanced_splitter_comb_has_multinomial_amplitudes():
    # amplitude 1 on every |s, 0, ..., 0> comes out as sqrt(s!/prod n_i!) M^(-s/2),
    # all positive, in every sector s up to the cap and zero above it: the
    # sign convention both Fock pipelines rely on
    cap = 6
    for modes in range(1, 6):
        comb = np.zeros((cap + 1,) * modes, dtype=complex)
        comb[(slice(None),) + (0,) * (modes - 1)] = 1.0
        out = balanced_splitter(modes, FockVector(comb)).amplitudes
        want = np.zeros(out.shape)
        for occ in np.ndindex(out.shape):
            total = sum(occ)
            if total <= cap:
                want[occ] = math.sqrt(
                    math.factorial(total) / math.prod(math.factorial(n) for n in occ)
                ) * modes ** (-total / 2.0)
        assert np.max(np.abs(out - want)) <= 1e-13


def test_balanced_splitter_rejects_zero_modes():
    with pytest.raises(ValueError, match="mode count"):
        fock.balanced_splitter(0, basis_vector((1,), 3))


def test_balanced_splitter_sv_symmetric_variance():
    # covariance bookkeeping: Var of the averaged x equals Var_SV(x)/M
    from cvdqs.gaussian import avg_x_std, splitter_gaussian, sv_gaussian

    psi, _ = normalize(sv_fock(0.04, 14))
    spread = np.zeros((15, 15), dtype=complex)
    spread[:, 0] = psi.amplitudes
    out = balanced_splitter(2, FockVector(spread))
    x_op, _ = quadratures(14)
    xbar = sum(fock.apply_mode_operator(x_op, mode, out).amplitudes for mode in (0, 1)) / 2.0
    mean = np.vdot(out.amplitudes, xbar).real
    var = np.vdot(xbar, xbar).real - mean**2
    gauss = avg_x_std(splitter_gaussian(sv_gaussian(0.04), 2)) ** 2
    assert var == pytest.approx(gauss, abs=1e-8)


# ---------------------------------------------------------------------------
# pure loss channel
# ---------------------------------------------------------------------------

def test_pure_loss_single_photon():
    out = lossy(0.3, projector(basis_vector((1,), 4)), 4)
    expected = np.zeros((5, 5))
    expected[0, 0] = 0.7
    expected[1, 1] = 0.3
    assert np.max(np.abs(out - expected)) < 1e-12


def test_pure_loss_eta_one_is_identity():
    rng = np.random.default_rng(5)
    rho = random_density(rng, 1, 6)
    assert np.max(np.abs(lossy(1.0, rho, 6) - rho)) < 1e-12


def test_pure_loss_scales_mean_photons():
    rho = projector(normalize(sv_fock(0.04, 10))[0])
    lower = fock.annihilation_matrix(10)
    n_op = lower.conj().T @ lower
    assert np.trace(rho @ n_op).real == pytest.approx(0.04, abs=1e-8)
    assert np.trace(lossy(0.5, rho, 10) @ n_op).real == pytest.approx(0.02, abs=1e-8)


def test_pure_loss_preserves_trace():
    # the Kraus set resolves the identity on the truncated basis
    kraus = loss_kraus_operators(0.37, 7)
    completeness = sum(k.conj().T @ k for k in kraus)
    assert np.max(np.abs(completeness - np.eye(8))) < 1e-12
    rng = np.random.default_rng(9)
    rho = random_density(rng, 1, 7)
    assert np.trace(lossy(0.37, rho, 7)).real == pytest.approx(np.trace(rho).real, abs=1e-12)


def test_pure_loss_rejects_bad_eta():
    with pytest.raises(ValueError):
        loss_kraus_operators(1.2, 3)
    with pytest.raises(ValueError):
        loss_kraus_operators(-0.1, 3)


def test_loss_channels_compose():
    rng = np.random.default_rng(13)
    for _ in range(3):
        rho = random_density(rng, 1, 6, max_total=3)
        two_step = lossy(0.8, lossy(0.6, rho, 6), 6)
        one_step = lossy(0.48, rho, 6)
        assert np.max(np.abs(two_step - one_step)) < 1e-10


def test_channels_preserve_hermiticity_and_positivity():
    # mix two modes of each pure component, then lose photons from mode 1
    rng = np.random.default_rng(23)
    rho = sum(
        weight * projector(beamsplitter(0.6, 0, 1, random_vector(rng, 2, 4)))
        for weight in (0.6, 0.4)
    )
    on_mode_1 = [np.kron(np.eye(5), k) for k in loss_kraus_operators(0.4, 4)]
    out = sum(k @ rho @ k.conj().T for k in on_mode_1)
    assert np.max(np.abs(out - out.conj().T)) < 1e-12
    assert np.min(np.linalg.eigvalsh(out)) > -1e-10


# ---------------------------------------------------------------------------
# manipulation set
# ---------------------------------------------------------------------------

def test_normalize_reports_weight():
    scaled = FockVector(0.2 * basis_vector((0,), 3).amplitudes)
    unit, weight = normalize(scaled)
    assert weight == pytest.approx(0.04, abs=1e-15)
    assert np.vdot(unit.amplitudes, unit.amplitudes).real == pytest.approx(1.0, abs=1e-12)


def test_normalize_rejects_zero_state():
    with pytest.raises(ValueError):
        normalize(FockVector(np.zeros(4, dtype=complex)))


def test_loss_kraus_cache_is_bounded():
    # each distinct transmissivity adds an entry; an unbounded cache keeps them all
    for eta in np.linspace(0.01, 0.99, 100):
        fock.loss_kraus_operators(float(eta), 4)
    info = fock._loss_kraus_set.cache_info()
    assert info.maxsize is not None
    assert info.currsize <= info.maxsize


def test_beamsplitter_cache_is_bounded():
    # the scissor circuit mixes at an angle set by the gain, so each distinct
    # gain adds an entry; an unbounded cache keeps them all
    from cvdqs.nla import scissor_kraus

    for gain in np.linspace(1.0, 3.0, 100):
        scissor_kraus(float(gain), 2)
    info = fock._two_mode_bs_unitary.cache_info()
    assert info.maxsize is not None
    assert info.currsize <= info.maxsize
