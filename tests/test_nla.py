import math

import numpy as np
import pytest

from cvdqs import fock, nla, sensing
from cvdqs.fock import FockVector, normalize
from cvdqs.nla import (
    NlaSpec,
    UnphysicalGainError,
    effective_gain,
    effective_sv_photons,
    effective_transmissivity,
    nla_operator,
    projector_pi,
    scissor_kraus,
)
from oracles import basis_vector


# ---------------------------------------------------------------------------
# spec type
# ---------------------------------------------------------------------------

def test_spec_rejects_attenuation():
    with pytest.raises(ValueError):
        NlaSpec(0.5, 2)


def test_spec_checks_a_valid_grid_by_its_ends(monkeypatch):
    # every gain check admits an interval, so a valid grid is checked at its
    # least and greatest gains, not gain by gain
    calls = []
    check = nla._gain
    monkeypatch.setattr(nla, "_gain", lambda value: calls.append(float(value)) or check(value))
    NlaSpec(np.linspace(1.0, 3.0, 1000), 2)
    assert calls == [1.0, 3.0]


def test_spec_refuses_a_grid_int_past_the_floats_as_a_lone_gain():
    # a grid holding an int past the floats gets the error of its first bad
    # gain alone, not the OverflowError of converting the grid to floats
    for grid, bad in (([2.0, 10**400], 10**400), ((-(10**400), 1.5), -(10**400)), ([2.0, 0.5, 10**400], 0.5)):
        with pytest.raises(ValueError) as alone:
            NlaSpec(bad, 2)
        with pytest.raises(ValueError) as refused:
            NlaSpec(grid, 2)
        assert str(refused.value) == str(alone.value)


def test_spec_requires_scissors_for_practical():
    with pytest.raises(ValueError):
        NlaSpec(2.0, None)
    with pytest.raises(ValueError):
        NlaSpec(2.0, 0)
    assert NlaSpec(2.0, 2).scissors == 2
    # the benchmark still builds its specs through this alias
    assert NlaSpec.practical(2.0, 2) == NlaSpec(2.0, 2)


# ---------------------------------------------------------------------------
# effective channel algebra
# ---------------------------------------------------------------------------

def test_effective_gain_values():
    assert effective_gain(1.0, 0.3) == pytest.approx(1.0, abs=1e-15)
    assert effective_gain(2.5, 0.5) == pytest.approx(math.sqrt(3.625), abs=1e-12)
    assert effective_gain(2.5, 0.5) == pytest.approx(1.903943, abs=1e-6)
    for g in (1.0, 1.7, 3.0):
        assert effective_gain(g, 1.0) == pytest.approx(g, abs=1e-15)


def test_effective_transmissivity_values():
    assert effective_transmissivity(2.5, 0.5) == pytest.approx(0.8620689655172413, abs=1e-12)
    assert effective_transmissivity(1.0, 0.37) == pytest.approx(0.37, abs=1e-15)
    assert effective_transmissivity(2.2, 1.0) == pytest.approx(1.0, abs=1e-15)
    for g in (1.3, 2.0, 3.0):
        for eta in (0.2, 0.5, 0.9):
            assert effective_transmissivity(g, eta) > eta


def test_effective_domain_errors():
    with pytest.raises(ValueError):
        effective_gain(0.99, 0.5)
    with pytest.raises(ValueError):
        effective_transmissivity(1.5, 0.0)
    with pytest.raises(ValueError):
        effective_transmissivity(1.5, 1.2)


def test_effective_sv_photons_identity_gain():
    for mean in (0.0, 0.04, 0.3):
        assert effective_sv_photons(mean, 1.0) == pytest.approx(mean, abs=1e-13)


def test_effective_sv_photons_amplifies():
    n_eff = effective_sv_photons(0.04, 1.9039432764659772)
    assert n_eff == pytest.approx(1.0218712, abs=1e-6)
    lam = 1.9039432764659772**2 * math.sqrt(0.04 / 1.04)
    assert lam == pytest.approx(0.710921, abs=1e-6)


def test_effective_sv_photons_vacuum_fixed_point():
    assert effective_sv_photons(0.0, 4.0) == 0.0


def test_physicality_boundary_is_sharp():
    # boundary at g_eff^2 = ((N+1)/N)^(1/2) = 5.0990195 / ... for N = 0.04
    boundary_sq = math.sqrt(1.04 / 0.04)
    assert boundary_sq == pytest.approx(5.0990195, abs=1e-6)
    below = math.sqrt(boundary_sq * (1 - 1e-9))
    above = math.sqrt(boundary_sq * (1 + 1e-9))
    assert effective_sv_photons(0.04, below) > 0
    with pytest.raises(UnphysicalGainError, match="unphysical NLA gain"):
        effective_sv_photons(0.04, above)


# ---------------------------------------------------------------------------
# practical operator
# ---------------------------------------------------------------------------

def test_projector_single_scissor():
    pi = projector_pi(1, 2.0, 5).entries
    want = np.zeros(6)
    want[0] = want[1] = 1.0 / math.sqrt(5.0)
    assert np.diag(pi).real == pytest.approx(want, abs=1e-12)


def test_projector_two_scissors():
    pi = projector_pi(2, 2.0, 5).entries
    want = np.zeros(6)
    want[0], want[1], want[2] = 0.2, 0.2, 0.1
    assert np.diag(pi).real == pytest.approx(want, abs=1e-12)


def test_projector_coefficients_approach_unity():
    # at fixed n the coefficient N!/((N-n)! N^n) climbs monotonically to 1
    def coefficient(scissors, n):
        pi = projector_pi(scissors, 1.0, max(scissors, n + 1)).entries
        return float(np.diag(pi).real[n]) / 0.5 ** (scissors / 2.0)

    assert coefficient(1, 1) == pytest.approx(1.0, abs=1e-15)
    assert coefficient(32, 1) == pytest.approx(1.0, abs=1e-15)
    for n in (2, 3):
        values = [coefficient(scissors, n) for scissors in (n, 2 * n, 8 * n, 64 * n)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[-1] < 1.0
        assert values[-1] > 0.95


def test_projector_requires_capacity():
    with pytest.raises(ValueError):
        projector_pi(4, 2.0, 3)


def test_nla_operator_single_scissor():
    op = nla_operator(1, 2.0, 4).entries
    want = np.zeros(5)
    want[0] = 1.0 / math.sqrt(5.0)
    want[1] = 2.0 / math.sqrt(5.0)
    assert np.diag(op).real == pytest.approx(want, abs=1e-12)


def test_nla_operator_unit_gain_still_truncates():
    op = nla_operator(2, 1.0, 4).entries
    want = np.zeros(5)
    want[0], want[1], want[2] = 0.5, 0.5, 0.25
    assert np.diag(op).real == pytest.approx(want, abs=1e-12)


def test_nla_operator_vacuum_eigenvalue():
    for scissors in (1, 2, 3):
        for gain in (1.0, 2.0, 3.0):
            op = nla_operator(scissors, gain, 4).entries
            assert op[0, 0].real == pytest.approx(
                (1.0 / (gain * gain + 1.0)) ** (scissors / 2.0), abs=1e-14
            )


@pytest.mark.parametrize("scissors, gain, n_max", [(2, 1.0, 3), (2, 2.5, 8), (40, 3.0, 45), (300, 1.2, 301)])
def test_nla_operator_equals_the_projector_times_the_gain(scissors, gain, n_max):
    # the dense product of the two public factors, entry for entry
    want = projector_pi(scissors, gain, n_max).entries * nla.gain_diagonal(gain, n_max)[None, :]
    assert np.array_equal(nla_operator(scissors, gain, n_max).entries, want)


def test_nla_operator_builds_only_its_own_matrix():
    # one complex (N+2)^2 matrix: no float projector, complex copy or product beside it
    import tracemalloc

    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        op = nla_operator(1000, 1.0, 1001)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before <= 1.1 * op.entries.nbytes


def apply_practical(state, gain, scissors):
    """One practical amplifier per mode: the heralded state and the joint success probability."""
    op = nla_operator(scissors, gain, state.n_max)
    for mode in range(state.mode_count):
        state = fock.apply_mode_operator(op, mode, state)
    return normalize(state)


def test_apply_practical_vacuum_four_modes():
    out, p = apply_practical(basis_vector((0, 0, 0, 0), 2), 2.0, 2)
    assert p == pytest.approx((1.0 / 25.0) ** 4, rel=1e-12)
    assert out.amplitudes[0, 0, 0, 0].real == pytest.approx(1.0, abs=1e-12)
    assert np.sum(np.abs(out.amplitudes)) == pytest.approx(1.0, abs=1e-12)


def test_apply_practical_single_photon():
    out, p = apply_practical(basis_vector((1,), 3), 2.0, 1)
    assert p == pytest.approx(0.8, rel=1e-12)
    assert out.amplitudes[1].real == pytest.approx(1.0, abs=1e-12)


def test_apply_practical_matches_explicit_sandwich():
    # brute-force route on a 2-mode instance: build the diagonal by hand
    rng = np.random.default_rng(41)
    amps = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    totals = np.add.outer(np.arange(5), np.arange(5))
    amps = np.where(totals <= 2, amps, 0.0)
    amps /= np.linalg.norm(amps)
    scissors, gain = 3, 1.4
    out, p = apply_practical(FockVector(amps), gain, scissors)
    single = np.zeros(5)
    for n in range(scissors + 1):
        if n <= 4:
            single[n] = (
                (1.0 / (gain**2 + 1.0)) ** (scissors / 2.0)
                * math.factorial(scissors)
                / (math.factorial(scissors - n) * scissors**n)
                * gain**n
            )
    heralded = np.outer(single, single) * amps
    p_want = float(np.sum(np.abs(heralded) ** 2))
    assert p == pytest.approx(p_want, rel=1e-12)
    assert np.max(np.abs(out.amplitudes - heralded / math.sqrt(p_want))) < 1e-12


def test_apply_practical_high_scissor_count_is_gentle():
    # many scissors at unit gain: output approaches the input on low-photon states
    scissors = 12
    amps = np.zeros((scissors + 1, scissors + 1), dtype=complex)
    amps[0, 0] = 1.0
    amps[1, 0] = amps[0, 1] = 0.2
    amps[1, 1] = amps[2, 0] = amps[0, 2] = 0.04
    amps /= np.linalg.norm(amps)
    out, p = apply_practical(FockVector(amps), 1.0, scissors)
    assert np.max(np.abs(out.amplitudes - amps)) < 0.01
    assert p == pytest.approx(2.0 ** (-scissors * 2), rel=0.2)


def test_apply_practical_zero_success():
    # three photons lie above two scissors: nothing heralds, and post-selection
    # refuses the zero vector rather than dividing by zero
    with pytest.raises(ValueError, match="zero vector"):
        apply_practical(basis_vector((3,), 4), 2.0, 2)


def test_vacuum_success_scaling_exact():
    # through the headline engine, whose herald probability is the joint one
    for nodes in (1, 2, 4):
        for scissors in (1, 2):
            for gain in (1.0, 1.8, 2.6):
                point = sensing.simulate_practical(
                    sensing.ScenarioConfig(
                        nodes=nodes,
                        mean_photons=0.0,
                        eta=0.5,
                        scheme=sensing.SCHEME_PRACTICAL_NLA,
                        cutoff=3,
                        nla=NlaSpec(gain, scissors),
                    )
                )
                assert point.p_success == pytest.approx(
                    (gain * gain + 1.0) ** (-scissors * nodes), rel=1e-13
                )


# ---------------------------------------------------------------------------
# scissor circuit oracle
# ---------------------------------------------------------------------------

def test_scissor_unit_gain_passes_qubit_states():
    kraus = scissor_kraus(1.0, 5).entries
    state = np.zeros(6, dtype=complex)
    state[0], state[1] = 1.0, 0.7
    out = kraus @ state
    assert out[1] / out[0] == pytest.approx(0.7, abs=1e-12)


def test_scissor_doubles_one_photon_amplitude():
    kraus = scissor_kraus(2.0, 5).entries
    state = np.zeros(6, dtype=complex)
    state[0], state[1] = 1.0, 0.1
    out = kraus @ state
    assert out[1] / out[0] == pytest.approx(0.2, abs=1e-12)


def test_scissor_annihilates_two_photons():
    kraus = scissor_kraus(2.0, 5).entries
    assert np.max(np.abs(kraus[:, 2:])) < 1e-14


def test_scissor_matches_closed_form_operator():
    # entrywise agreement up to the vacuum-entry scale is a `cvdqs validate`
    # check; pinned here is that scale, the documented 1/sqrt(2) of one herald
    for gain in (1.0, 1.5, 2.0, 3.0):
        circuit = scissor_kraus(gain, 6).entries
        closed = nla_operator(1, gain, 6).entries
        assert abs(closed[0, 0] / circuit[0, 0]) == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_scissor_heralds_jointly_recover_closed_form_probability():
    # the kept herald and its mirror: the mirror flips the one-photon sign,
    # and summing both herald probabilities reproduces T^dag T
    gain, n_max = 2.0, 5
    gamma = 1.0 / (gain * gain + 1.0)
    kept = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    mirror = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    for n in range(n_max + 1):
        psi = basis_vector((n, 1, 0), n_max)
        psi = fock.beamsplitter(-math.acos(math.sqrt(gamma)), 1, 2, psi)
        psi = fock.beamsplitter(math.pi / 4.0, 0, 1, psi)
        kept[:, n] = psi.amplitudes[1, 0, :]
        mirror[:, n] = psi.amplitudes[0, 1, :]
    assert np.max(np.abs(kept - scissor_kraus(gain, n_max).entries)) < 1e-14
    ratio_kept = kept[1, 1] / kept[0, 0]
    ratio_mirror = mirror[1, 1] / mirror[0, 0]
    assert ratio_kept == pytest.approx(gain, abs=1e-12)
    assert ratio_mirror == pytest.approx(-gain, abs=1e-12)
    closed = nla_operator(1, gain, n_max).entries
    both = kept.conj().T @ kept + mirror.conj().T @ mirror
    assert np.max(np.abs(both - closed.conj().T @ closed)) < 1e-14
