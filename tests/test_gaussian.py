import math

import numpy as np
import pytest

from cvdqs.gaussian import (
    GaussianState,
    avg_x_std,
    loss_gaussian,
    splitter_gaussian,
    sv_gaussian,
)


def sv_x_variance(mean_photons):
    return (math.sqrt(mean_photons + 1) - math.sqrt(mean_photons)) ** 2 / 4.0


def test_sv_covariance_values():
    state = sv_gaussian(0.04)
    assert state.cov[0, 0] == pytest.approx(sv_x_variance(0.04), abs=1e-12)
    # pure-state saturation of the uncertainty product
    assert state.cov[0, 0] * state.cov[1, 1] == pytest.approx(1.0 / 16.0, abs=1e-12)
    assert sv_gaussian(0.0).cov == pytest.approx(0.25 * np.eye(2))


def test_sv_rejects_negative():
    with pytest.raises(ValueError):
        sv_gaussian(-1e-3)


def test_cov_symmetry_enforced():
    bad = np.array([[0.25, 0.1], [0.0, 0.25]])
    with pytest.raises(ValueError):
        GaussianState(bad)


@pytest.mark.parametrize("shape", [(0, 0), (2,), (3, 3), (2, 4)])
def test_cov_shape_enforced(shape):
    with pytest.raises(ValueError, match="square matrix of even size"):
        GaussianState(np.zeros(shape))


def test_loss_is_affine_map():
    state = sv_gaussian(0.04)
    out = loss_gaussian(state, 0.5)
    want = 0.5 * sv_x_variance(0.04) + 0.5 * 0.25
    assert out.cov[0, 0] == pytest.approx(want, abs=1e-12)
    assert np.max(np.abs(loss_gaussian(state, 1.0).cov - state.cov)) < 1e-15
    assert loss_gaussian(state, 0.0).cov == pytest.approx(0.25 * np.eye(2))


def householder_splitter_cov(state, m):
    """S cov S^T with a Householder completion S of the uniform first column."""
    uniform = np.full(m, 1.0 / math.sqrt(m))
    w = np.eye(m)[0] - uniform
    rot = np.eye(m) if m == 1 else np.eye(m) - 2.0 * np.outer(w, w) / (w @ w)
    s = np.kron(rot, np.eye(2))
    cov = 0.25 * np.eye(2 * m)
    cov[:2, :2] = state.cov
    return s @ cov @ s.T


@pytest.mark.parametrize("m", range(1, 7))
def test_splitter_matches_symplectic_route(m):
    # the closed form against the whole covariance of the explicit splitter
    source = loss_gaussian(sv_gaussian(0.3), 0.6)
    out = splitter_gaussian(source, m)
    assert out.mode_count == m
    assert np.max(np.abs(out.cov - householder_splitter_cov(source, m))) < 1e-15


def test_splitter_rejects_bad_inputs():
    with pytest.raises(ValueError, match="mode count"):
        splitter_gaussian(sv_gaussian(0.1), 0)
    with pytest.raises(ValueError, match="single-mode"):
        splitter_gaussian(splitter_gaussian(sv_gaussian(0.1), 2), 2)


def test_splitter_identity_single_mode():
    state = sv_gaussian(0.2)
    out = splitter_gaussian(state, 1)
    assert np.max(np.abs(out.cov - state.cov)) < 1e-14


def test_splitter_divides_sv_variance():
    state = splitter_gaussian(sv_gaussian(0.04), 4)
    var = avg_x_std(state) ** 2
    assert var == pytest.approx(sv_x_variance(0.04) / 4.0, abs=1e-14)


def test_avg_x_std_vacuum_shot_noise():
    for m in (1, 2, 4, 6):
        vacuum = splitter_gaussian(sv_gaussian(0.0), m)
        assert avg_x_std(vacuum) == pytest.approx(0.5 / math.sqrt(m), abs=1e-12)


def test_avg_x_std_matches_closed_form():
    # full scenario: loss on the source, then the balanced split
    from cvdqs.sensing import delta_alpha_entangled

    for eta in (0.3, 0.5, 1.0):
        state = splitter_gaussian(loss_gaussian(sv_gaussian(0.04), eta), 4)
        assert avg_x_std(state) == pytest.approx(
            delta_alpha_entangled(4, 0.04, eta), abs=1e-12
        )
    lossless = splitter_gaussian(sv_gaussian(0.04), 4)
    assert avg_x_std(lossless) == pytest.approx(0.204951, abs=1e-6)
    lossy = splitter_gaussian(loss_gaussian(sv_gaussian(0.04), 0.5), 4)
    assert avg_x_std(lossy) == pytest.approx(0.228588, abs=1e-6)


def test_states_satisfy_uncertainty():
    # physical states have cov + i Omega / 4 positive semidefinite
    for state in (
        splitter_gaussian(sv_gaussian(0.0), 2),
        sv_gaussian(0.3),
        loss_gaussian(sv_gaussian(0.3), 0.6),
        splitter_gaussian(loss_gaussian(sv_gaussian(0.1), 0.4), 3),
    ):
        omega = np.kron(np.eye(state.mode_count), [[0.0, 1.0], [-1.0, 0.0]])
        assert np.linalg.eigvalsh(state.cov + 0.25j * omega).min() >= -1e-10
