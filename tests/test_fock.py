import math

import numpy as np
import pytest

from cvdqs import fock
from cvdqs.fock import (
    Cutoff,
    FockDensity,
    FockVector,
    balanced_splitter,
    basis_vector,
    beamsplitter,
    density_from_vector,
    expectation,
    normalize,
    number_operator,
    pure_loss,
    quadratures,
    sv_fock,
    vacuum_vector,
    variance,
)


def random_vector(rng, mode_count, cutoff, max_total=None):
    """Random pure state, optionally restricted to total photons <= max_total."""
    c = fock.as_cutoff(cutoff)
    shape = (c.dim,) * mode_count
    amps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if max_total is not None:
        totals = np.zeros(shape)
        for axis in range(mode_count):
            idx = [None] * mode_count
            idx[axis] = slice(None)
            totals = totals + np.arange(c.dim)[tuple(idx)]
        amps = np.where(totals <= max_total, amps, 0.0)
    amps /= np.linalg.norm(amps)
    return FockVector(c, amps)


def random_density(rng, mode_count, cutoff, max_total=None):
    psi_a = random_vector(rng, mode_count, cutoff, max_total)
    psi_b = random_vector(rng, mode_count, cutoff, max_total)
    rho = 0.6 * density_from_vector(psi_a).entries + 0.4 * density_from_vector(psi_b).entries
    return FockDensity(fock.as_cutoff(cutoff), mode_count, rho)


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------

def test_cutoff_rejects_zero():
    with pytest.raises(ValueError):
        Cutoff(0)


def test_vector_shape_must_match_cutoff():
    with pytest.raises(ValueError):
        FockVector(Cutoff(3), np.zeros(5, dtype=complex))


def test_density_must_be_hermitian():
    bad = np.zeros((4, 4), dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(ValueError):
        FockDensity(Cutoff(3), 1, bad)


def test_states_are_frozen():
    psi = vacuum_vector(1, 4)
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
    n_op = number_operator(10)
    mean = expectation(n_op.entries, psi).real
    assert mean == pytest.approx(0.04, abs=1e-8)


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
    x_op, p_op = quadratures(8)
    vac = vacuum_vector(1, 8)
    assert variance(x_op, vac) == pytest.approx(0.25, abs=1e-12)
    assert variance(p_op, vac) == pytest.approx(1.0, abs=1e-12)


def test_single_photon_x_variance():
    x_op, _ = quadratures(8)
    one = basis_vector((1,), 8)
    assert variance(x_op, one) == pytest.approx(0.75, abs=1e-12)


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
        assert variance(x_op, psi) == pytest.approx(squeeze / 4.0, abs=1e-8)
        assert variance(p_op, psi) == pytest.approx(stretch, abs=1e-6)


def test_variance_imaginary_guard():
    x_op, _ = quadratures(4)
    vac = vacuum_vector(1, 4)
    assert isinstance(variance(x_op, vac), float)


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
    psi = vacuum_vector(2, 4)
    with pytest.raises(ValueError):
        beamsplitter(0.3, 0, 0, psi)
    with pytest.raises(ValueError):
        beamsplitter(0.3, 0, 2, psi)


def test_beamsplitter_preserves_photon_sectors():
    rng = np.random.default_rng(11)
    c = Cutoff(5)
    totals = np.add.outer(np.arange(c.dim), np.arange(c.dim))
    for _ in range(3):
        psi = random_vector(rng, 2, c)
        out = beamsplitter(0.7, 0, 1, psi)
        for sector in range(2 * c.n_max + 1):
            mask = totals == sector
            before = np.sum(np.abs(psi.amplitudes[mask]) ** 2)
            after = np.sum(np.abs(out.amplitudes[mask]) ** 2)
            assert after == pytest.approx(before, abs=1e-12)


def test_beamsplitter_on_density_matches_vector_route():
    rng = np.random.default_rng(3)
    psi = random_vector(rng, 2, 4)
    via_vec = density_from_vector(beamsplitter(0.42, 0, 1, psi))
    via_rho = beamsplitter(0.42, 0, 1, density_from_vector(psi))
    assert np.max(np.abs(via_vec.entries - via_rho.entries)) < 1e-12


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


def test_balanced_splitter_rejects_zero_modes():
    with pytest.raises(ValueError):
        fock.balanced_splitter_thetas(0)


def test_balanced_splitter_sv_symmetric_variance():
    # covariance bookkeeping: Var of the averaged x equals Var_SV(x)/M
    from cvdqs.gaussian import avg_x_std, splitter_gaussian, sv_gaussian

    psi, _ = normalize(sv_fock(0.04, 14))
    spread = np.zeros((15, 15), dtype=complex)
    spread[:, 0] = psi.amplitudes
    out = balanced_splitter(2, FockVector(Cutoff(14), spread))
    x_op, _ = quadratures(14)
    x0 = fock.embed_mode_operator(x_op, 0, 2)
    x1 = fock.embed_mode_operator(x_op, 1, 2)
    var = variance((x0 + x1) / 2.0, out)
    gauss = avg_x_std(splitter_gaussian(sv_gaussian(0.04), 2)) ** 2
    assert var == pytest.approx(gauss, abs=1e-8)


# ---------------------------------------------------------------------------
# pure loss channel
# ---------------------------------------------------------------------------

def test_pure_loss_single_photon():
    rho = density_from_vector(basis_vector((1,), 4))
    out = pure_loss(0.3, 0, rho)
    expected = np.zeros((5, 5))
    expected[0, 0] = 0.7
    expected[1, 1] = 0.3
    assert np.max(np.abs(out.entries - expected)) < 1e-12


def test_pure_loss_eta_one_is_identity():
    rng = np.random.default_rng(5)
    rho = random_density(rng, 1, 6)
    out = pure_loss(1.0, 0, rho)
    assert np.max(np.abs(out.entries - rho.entries)) < 1e-12


def test_pure_loss_scales_mean_photons():
    rho = density_from_vector(normalize(sv_fock(0.04, 10))[0])
    out = pure_loss(0.5, 0, rho)
    mean = expectation(number_operator(10).entries, out).real
    assert mean == pytest.approx(0.02, abs=1e-8)


def test_pure_loss_preserves_trace():
    rng = np.random.default_rng(9)
    rho = random_density(rng, 1, 7)
    out = pure_loss(0.37, 0, rho)
    assert out.trace == pytest.approx(rho.trace, abs=1e-12)


def test_pure_loss_rejects_bad_eta():
    rho = density_from_vector(vacuum_vector(1, 3))
    with pytest.raises(ValueError):
        pure_loss(1.2, 0, rho)
    with pytest.raises(ValueError):
        pure_loss(-0.1, 0, rho)


def test_loss_channels_compose():
    rng = np.random.default_rng(13)
    for _ in range(3):
        rho = random_density(rng, 1, 6, max_total=3)
        two_step = pure_loss(0.8, 0, pure_loss(0.6, 0, rho))
        one_step = pure_loss(0.48, 0, rho)
        assert np.max(np.abs(two_step.entries - one_step.entries)) < 1e-10


def test_loss_commutes_with_balanced_splitter():
    # uniform per-mode loss and the splitter interchange freely inside the
    # truncation-exact sector; this underwrites the pipeline ordering
    rng = np.random.default_rng(17)
    eta = 0.55
    for modes in (2, 3):
        rho = random_density(rng, modes, 4, max_total=4)
        split_then_loss = balanced_splitter(modes, rho)
        for mode in range(modes):
            split_then_loss = pure_loss(eta, mode, split_then_loss)
        loss_then_split = rho
        for mode in range(modes):
            loss_then_split = pure_loss(eta, mode, loss_then_split)
        loss_then_split = balanced_splitter(modes, loss_then_split)
        assert np.max(np.abs(split_then_loss.entries - loss_then_split.entries)) < 1e-10


def test_channels_preserve_hermiticity_and_positivity():
    rng = np.random.default_rng(23)
    rho = random_density(rng, 2, 4)
    out = pure_loss(0.4, 1, beamsplitter(0.6, 0, 1, rho))
    assert np.max(np.abs(out.entries - out.entries.conj().T)) < 1e-12
    assert np.min(np.linalg.eigvalsh(out.entries)) > -1e-10


# ---------------------------------------------------------------------------
# manipulation set
# ---------------------------------------------------------------------------

def test_normalize_reports_weight():
    rho = density_from_vector(vacuum_vector(1, 3))
    scaled = FockDensity(Cutoff(3), 1, 0.04 * rho.entries)
    unit, weight = normalize(scaled)
    assert weight == pytest.approx(0.04, abs=1e-15)
    assert unit.trace == pytest.approx(1.0, abs=1e-12)


def test_normalize_rejects_zero_state():
    with pytest.raises(ValueError):
        normalize(FockVector(Cutoff(3), np.zeros(4, dtype=complex)))


def test_expectation_shape_mismatch():
    with pytest.raises(ValueError):
        expectation(np.eye(3), vacuum_vector(1, 3))
