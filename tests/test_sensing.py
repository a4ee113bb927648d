import ast
import dataclasses
import itertools
import math
import os
import subprocess
import sys
import warnings
from collections import Counter
from fractions import Fraction
from functools import lru_cache, partial
from pathlib import Path
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
    simulate_no_nla_fock,
    simulate_practical,
)
from oracles import basis_vector, lossless_cvmp_vector, qfi_pure_displacement


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


def _count_scenario_checks(monkeypatch) -> list:
    calls = []
    check = sensing._check_scenario

    def counting(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(sensing, "_check_scenario", counting)
    return calls


LOSS_ONLY_FORMS = (delta_alpha_entangled, delta_alpha_product, crlb_entangled, crlb_product)
GRID = np.linspace(0.1, 0.9, 50)


@pytest.mark.parametrize(
    "form, args",
    [
        pytest.param(form, args, id=form.__name__)
        for form, args in [
            (delta_alpha_entangled, (4, 0.04, 0.5)),
            (delta_alpha_product, (4, 0.04, 0.5)),
            (delta_alpha_ideal_nla, (4, 0.04, 0.5, 1.5)),
            (crlb_entangled, (4, 0.04, 0.5)),
            (crlb_product, (4, 0.04, 0.5)),
        ]
    ]
    + [
        pytest.param(form, args, id=f"{form.__name__}-{kind}")
        for form in LOSS_ONLY_FORMS
        for kind, args in [
            ("photons", (4, GRID, 0.5)),
            ("eta", (4, 0.04, GRID)),
            ("both", (4, GRID, GRID[::-1])),
        ]
    ],
)
def test_each_closed_form_checks_its_inputs_once(monkeypatch, form, args):
    # a product or ideal form hands its checked inputs to an unchecked formula,
    # not to another public form that would check them again; an array is
    # checked once, whole, not once per entry
    calls = _count_scenario_checks(monkeypatch)
    form(*args)
    assert len(calls) == 1 and all(seen is given for seen, given in zip(calls[0], args[:3], strict=True))


def _loss_only_inputs(seed: int, size: int):
    """Seeded photon numbers and transmissivities, with ``N = 0``, ``eta = 1`` and brightnesses near the float edge."""
    rng = np.random.default_rng(seed)
    photons = np.concatenate(
        [[0.0, 0.0, 5e-324, 4.4e307, 1e307], rng.uniform(0.0, 10.0, size), 10.0 ** rng.uniform(-12.0, 12.0, size)]
    )
    etas = np.concatenate([[1.0, 0.3, 1.0, 1.0, 5e-324], 1.0 - rng.uniform(0.0, 1.0, 2 * size)])
    return photons, etas


@pytest.mark.parametrize("form", LOSS_ONLY_FORMS, ids=lambda form: form.__name__)
@pytest.mark.parametrize("nodes", [1, 4, 7])
def test_loss_only_forms_take_arrays_entry_for_entry(form, nodes):
    # an array gives an array, each entry == the float call on its entries,
    # overflowing denominators (M=7 at 4.4e307 photons) included and unwarned
    photons, etas = _loss_only_inputs(nodes, 200)
    want = [form(nodes, n, eta) for n, eta in zip(photons.tolist(), etas.tolist())]
    assert all(type(value) is float for value in want)
    got = form(nodes, photons, etas)
    assert isinstance(got, np.ndarray) and got.shape == photons.shape
    assert got.tolist() == want
    assert form(nodes, photons, 0.5).tolist() == [form(nodes, n, 0.5) for n in photons.tolist()]
    assert form(nodes, 0.04, etas).tolist() == [form(nodes, 0.04, eta) for eta in etas.tolist()]


@pytest.mark.parametrize(
    "photons, etas, message",
    [
        ([0.1, -1.0, math.nan], 0.5, "mean photon number must be finite and non-negative, got -1.0"),
        ([0.1, math.nan, -1.0], 0.5, "mean photon number must be finite and non-negative, got nan"),
        ([0.1, math.inf], 0.5, "mean photon number must be finite and non-negative, got inf"),
        (0.1, [0.5, 0.0, 2.0], "transmissivity must lie in \\(0, 1\\], got 0.0"),
        (0.1, [1.0, math.nan], "transmissivity must lie in \\(0, 1\\], got nan"),
        ([0.1, 1e308, 1.7e308], 0.5, "mean photon number 1e\\+308 is too large"),
    ],
    ids=["negative", "nan", "inf", "eta-zero", "eta-nan", "brightness"],
)
def test_loss_only_forms_refuse_an_array_by_its_first_bad_entry(photons, etas, message):
    # as a loop over the entries would; M=1, so the product forms see the brightness too
    for form in LOSS_ONLY_FORMS:
        with pytest.raises(ValueError, match=message):
            form(1, np.array(photons), np.array(etas))


def test_brightness_is_the_correctly_rounded_square():
    # (sqrt(N+1) + sqrt(N))^2 as root * root; float ** 2 was 1 ulp off on
    # about 0.08% of uniform inputs in [0, 10)
    photons = np.random.default_rng(3).uniform(0.0, 10.0, 20_000)
    roots = [math.sqrt(n + 1.0) + math.sqrt(n) for n in photons.tolist()]
    want = [float(Fraction(root) ** 2) for root in roots]
    assert [sensing._brightness_factor(n) for n in photons.tolist()] == want
    assert sensing._brightness_factor(photons).tolist() == want


def test_an_array_holding_a_nan_is_checked_entry_by_entry():
    # a NaN is an array's least and greatest entry, so its ends would hide an entry past the floats
    with pytest.raises(ValueError, match="^mean photon number inf is too large"):
        sensing._brightness_factor(np.array([1.0, math.nan, math.inf]))
    # a NaN itself passes the brightness check, as on a float: the ideal form's stand-in rows hold it
    factors = sensing._brightness_factor(np.array([1.0, math.nan]))
    assert factors[0] == sensing._brightness_factor(1.0) and math.isnan(factors[1])


@pytest.mark.parametrize(
    "steps, ns",
    [(41, 0.04), (1000, 0.04), (41, 4e307), (1000, 4e307)],
    ids=["41", "1000", "41-ns4e307", "1000-ns4e307"],
)
def test_bounds_rows_check_no_row(monkeypatch, steps, ns):
    # one call of each of the four public closed forms, each checking the
    # whole eta grid at once, the block's eta column itself; no row is checked
    # on its own, and a brightness near the float edge overflows unwarned, as from the CLI
    req = cli.SweepRequest(command="bounds", eta_steps=steps, mean_photons=ns)
    calls = _count_scenario_checks(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        [block] = cli.build_bounds_blocks(req)
    assert [len(column) for column in block.values()] == [steps] * 5
    assert len(calls) == 4
    assert all(etas is block["eta"] for _, _, etas in calls)


@pytest.mark.parametrize("steps", [41, 1000])
def test_sensitivity_sweep_checks_a_fixed_number_of_times(monkeypatch, steps):
    # the practical engine's scenario and one array call of each baseline;
    # the ideal-NLA columns read the request's checked inputs
    req = cli.SweepRequest(command="sweep-sensitivity", g_steps=steps)
    calls = _count_scenario_checks(monkeypatch)
    blocks = cli.build_sensitivity_blocks(req)
    assert [len(block["g"]) for block in blocks] == [steps] * 4
    assert len(calls) == 3


def test_ideal_nla_checks_each_input_once(monkeypatch):
    # M, ns and eta through _check_scenario, the gain through fock._gain; the
    # effective channel reads them unchecked
    calls = []
    for name in ("_whole_number", "_photon_number", "_transmissivity", "_gain"):
        check = getattr(fock, name)

        def counting(*args, _check=check, _name=name, **kwargs):
            calls.append(_name)
            return _check(*args, **kwargs)

        for module in (fock, nla, sensing):
            if getattr(module, name, None) is check:
                monkeypatch.setattr(module, name, counting)
    delta_alpha_ideal_nla(4, 0.04, 0.5, 1.5)
    assert sorted(calls) == ["_gain", "_photon_number", "_transmissivity", "_whole_number"]


@pytest.mark.parametrize(
    "form, args",
    [
        (crlb_entangled, (4, 1e308, 0.5)),
        (crlb_entangled, (1, 1e308, 0.5)),
        (crlb_product, (1, 1e308, 0.5)),
        (delta_alpha_entangled, (1, 1e308, 0.5)),
        (delta_alpha_product, (1, 1e308, 0.5)),
    ],
    ids=["crlb_entangled-M4", "crlb_entangled", "crlb_product", "delta_alpha_entangled", "delta_alpha_product"],
)
def test_closed_forms_refuse_a_brightness_past_the_float_range(form, args):
    # (sqrt(N+1) + sqrt(N))^2 overflows above N of about 4.5e307
    with pytest.raises(ValueError, match="mean photon number 1e\\+308 is too large"):
        form(*args)


def test_fock_engine_does_not_load_the_gaussian_oracle():
    # a fresh interpreter, so no other test's import of cvdqs.gaussian counts
    src = Path(sensing.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", "import sys, cvdqs.sensing; print(sorted(sys.modules))"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout
    assert "'cvdqs.sensing'" in loaded and "'cvdqs.fock'" in loaded
    assert "'cvdqs.gaussian'" not in loaded


def test_qfi_vacuum():
    for nodes in (1, 3):
        vac = basis_vector((0,) * nodes, 6)
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


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 4: the dense route drops a^dag|cutoff>, an error its trunc_deficit does not bound",
)
def test_no_nla_pipeline_error_within_reported_deficit():
    # at cutoff 12 the source's deficit is 8.2e-6, yet delta_alpha is 1.57e-4 off the closed form
    cfg = ScenarioConfig(nodes=1, mean_photons=0.3, eta=0.7, scheme=SCHEME_NO_NLA, cutoff=12)
    point = simulate_no_nla_fock(cfg)
    want = delta_alpha_entangled(1, 0.3, 0.7)
    assert abs(point.delta_alpha - want) / want <= point.trunc_deficit


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


def test_held_ladders_match_the_dense_ladders():
    # oracle: [a^dag psi, psi, a psi] of modes 0 and 1 by dense apply_mode_operator
    # passes, read at the entries holding at most cutoff + 1 photons; the index
    # shifts must give the same amplitudes, truncation edges included
    rng = np.random.default_rng(11)
    for nodes, cutoff in itertools.product(range(1, 6), range(2, 13)):
        shape = (cutoff + 1,) * nodes
        state = fock.FockVector(rng.normal(size=shape) + 1j * rng.normal(size=shape))
        index, scale, totals = sensing._held_ladders(cutoff, nodes)
        photons = np.indices(shape).sum(axis=0).ravel()
        held = np.flatnonzero(photons <= cutoff + 1)
        assert np.array_equal(totals, photons[held])
        kets = state.amplitudes.reshape(-1)[index] * scale
        assert kets.shape == (min(nodes, 2), 3, held.size)
        lower = fock.ModeOperator(fock.annihilation_matrix(cutoff))
        upper = fock.ModeOperator(lower.entries.conj().T)
        for mode in range(min(nodes, 2)):
            dense = [
                fock.apply_mode_operator(upper, mode, state).amplitudes,
                state.amplitudes,
                fock.apply_mode_operator(lower, mode, state).amplitudes,
            ]
            want = np.array([ket.reshape(-1)[held] for ket in dense])
            assert np.max(np.abs(kets[mode] - want)) <= 1e-15, (nodes, cutoff, mode)


def test_no_nla_point_peaks_below_five_dense_tensors():
    # after the split only the held entries are touched: a warm M=4, cutoff-30
    # point peaks within 5x the (cutoff+1)^4 complex tensor (14.1 MB); with
    # four dense ladder tensors and two stacked copies it peaked at 8.2x
    import tracemalloc

    cfg = ScenarioConfig(nodes=4, mean_photons=0.04, eta=0.5, scheme=SCHEME_NO_NLA, cutoff=30)
    simulate_no_nla_fock(cfg)
    tracemalloc.start()
    try:
        point = simulate_no_nla_fock(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert math.isfinite(point.delta_alpha)
    assert peak <= 5 * 31**4 * 16, peak / (31**4 * 16)


def test_no_nla_ladder_passes_do_not_grow_with_nodes(monkeypatch):
    # permutation symmetry: the ladders of modes 0 and 1 carry every moment, so
    # every M > 1 forms two Gram matrices, M=1 one; each reads the stacks on the
    # held entries alone, those with at most cutoff + 1 photons, and no dense
    # ladder pass runs at all
    grams = []
    gram = sensing._gram

    def recording(bras, table, kets):
        grams[-1].append((bras.shape, kets.shape))
        return gram(bras, table, kets)

    def dense_ladder(*args):
        raise AssertionError("the amplifier-free engine applied a dense ladder")

    monkeypatch.setattr(sensing, "_gram", recording)
    monkeypatch.setattr(sensing, "apply_mode_operator", dense_ladder)
    cutoff = 4
    for nodes in (1, 2, 3, 4, 5):
        grams.append([])
        simulate_no_nla_fock(
            ScenarioConfig(nodes=nodes, mean_photons=0.04, eta=0.5, scheme=SCHEME_NO_NLA, cutoff=cutoff)
        )
        held = int(np.count_nonzero(np.indices((cutoff + 1,) * nodes).sum(axis=0) <= cutoff + 1))
        assert grams[-1] == [((3, held), (3, held))] * min(nodes, 2), (nodes, grams[-1])


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
                nla=NlaSpec(2.0, 2),
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
        totals = np.indices((dim,) * modes).sum(axis=0).ravel()
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
        nla=NlaSpec(gain, 2),
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
    # count N share the pair on {0..N+1}, whatever (M, ns, eta); the
    # amplifier-free engine at cutoff N+1 reads its ladders off the held
    # entries by index shifts and applies no dense ladder
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
                nla=NlaSpec(1.5, 7),
            )
        )
        cached = sensing._practical_source(nodes, mean_photons, eta, 8, 7)
        assert not any(isinstance(value, fock.ModeOperator) for value in cached)
    assert len(applied) == 3 * 2
    simulate_no_nla_fock(ScenarioConfig(nodes=3, mean_photons=0.04, eta=0.5, scheme=SCHEME_NO_NLA, cutoff=8))
    assert len(applied) == 3 * 2
    assert all(op is pair[0] or op is pair[1] for op in applied)
    assert sensing._ladder_pair.cache_info().currsize == 1


def _power_series_by_convolutions(poly, power, length):
    # the reference: power - 1 truncated convolutions, one factor at a time
    out = np.zeros(length)
    out[0] = 1.0
    for _ in range(power):
        out = np.convolve(out, poly)[:length]
    return out


def test_power_series_by_squaring_matches_repeated_convolution():
    # positive coefficients, so squaring cancels nothing: agreement to a few
    # ulp per factor of two in the power
    rng = np.random.default_rng(3)
    for length, power in itertools.product((1, 4, 9, 41), (0, 1, 2, 3, 5, 8, 13, 64, 98)):
        poly = rng.uniform(0.1, 1.0, size=rng.integers(1, 12))
        got = sensing._power_series(poly, power, length)
        want = _power_series_by_convolutions(poly, power, length)
        assert got.shape == want.shape == (length,)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def _practical_points(nodes, gains, scissors=2, cutoff=8, mean_photons=0.04, eta=0.5):
    cfg = partial(ScenarioConfig, nodes=nodes, mean_photons=mean_photons, eta=eta,
                  scheme=SCHEME_PRACTICAL_NLA, cutoff=cutoff)
    grid = simulate_practical(cfg(nla=NlaSpec(np.asarray(gains), scissors)))
    return grid, [simulate_practical(cfg(nla=NlaSpec(gain, scissors))) for gain in gains]


@pytest.mark.parametrize(
    "nodes, gains, scissors, cutoff, mean_photons, eta",
    [
        pytest.param(4, np.linspace(1.0, 3.0, 41), 2, 8, 0.04, 0.5, id="sweep-defaults"),
        pytest.param(5, np.linspace(1.0, 3.0, 3), 2, 8, 0.04, 0.5, id="M5"),
        pytest.param(6, np.linspace(1.0, 3.0, 2), 2, 8, 0.04, 0.5, id="M6"),
        pytest.param(1, np.linspace(1.0, 3.0, 41), 2, 8, 0.04, 0.5, id="M1"),
        pytest.param(2, np.linspace(1.0, 3.0, 41), 1, 10, 0.04, 0.5, id="M2-N1-cap10"),
        pytest.param(30, np.linspace(1.0, 3.0, 41), 2, 40, 0.04, 0.5, id="M30-cap40"),
        pytest.param(2, np.linspace(1.0, 1000.0, 41), 40, 8, 1e-12, 0.5, id="N40-g1000"),
        pytest.param(300, np.array([1000.0, 1.0, 2.5]), 40, 8, 0.0, 1e-9, id="N40-g1000-M300"),
    ],
)
def test_a_gain_grid_gives_the_points_of_its_gains_one_by_one(nodes, gains, scissors, cutoff, mean_photons, eta):
    # one array pass over the grid; each point equals the call at its gain
    # alone, bit for bit, in the grid's order
    grid, singles = _practical_points(nodes, gains, scissors, cutoff, mean_photons, eta)
    assert isinstance(grid, list) and grid == singles
    assert all(isinstance(point, sensing.SensitivityPoint) for point in singles)
    assert all(type(value) is float for point in grid for value in (point.delta_alpha, point.p_success))


@pytest.mark.parametrize(
    "nodes, gains, scissors, cutoff, mean_photons, eta, named",
    [
        # the vacuum entry (g^2+1)^(-N/2) leaves the normal floats from g ~ 2.996 at N=616
        pytest.param(4, [2.5, 2.75, 3.0, 3.25], 616, 8, 0.04, 0.5, "616 scissors at gain 3 ", id="vacuum-entry"),
        # g^(N+1) overflows from g ~ 2.986 at N=650, before the vacuum entry leaves
        pytest.param(4, [1.0, 2.0, 3.0, 1.5], 650, 8, 0.04, 0.5, "650 scissors at gain 3 ", id="top-entry"),
        pytest.param(2, [1.0, 10.0, 100.0, 1000.0, 2.0], 40, 60, 3.0, 0.5, "on M=2 ", id="moments"),
        pytest.param(1000, [1.0, 2.0, 3.0], 2, 170, 0.04, 0.5, "on M=1000 ", id="powers"),
    ],
)
def test_a_gain_grid_refuses_at_its_first_failing_gain(nodes, gains, scissors, cutoff, mean_photons, eta, named):
    # the grid raises the ValueError of its first gain that fails alone, with
    # that gain's text, though later gains may fail otherwise or not at all
    cfg = partial(ScenarioConfig, nodes=nodes, mean_photons=mean_photons, eta=eta,
                  scheme=SCHEME_PRACTICAL_NLA, cutoff=cutoff)
    alone = []
    for gain in gains:
        try:
            alone.append(simulate_practical(cfg(nla=NlaSpec(gain, scissors))))
        except ValueError as exc:
            alone.append(str(exc))
    first = next(k for k, outcome in enumerate(alone) if isinstance(outcome, str))
    assert first > 0 and named in alone[first]
    with pytest.raises(ValueError) as refused:
        simulate_practical(cfg(nla=NlaSpec(np.array(gains), scissors)))
    assert str(refused.value) == alone[first]


def test_gain_grid_spec_is_checked_and_read_only():
    with pytest.raises(ValueError, match="amplitude gain must be finite and >= 1, got 0.5"):
        NlaSpec(np.array([1.0, 0.5, 2.0]), 2)
    with pytest.raises(ValueError, match="amplitude gain must be finite and >= 1, got nan"):
        NlaSpec([1.0, math.nan], 2)
    # a bad gain mid-grid: the scalar message of the first bad gain, whatever follows it
    for grid, bad in (([1.0, math.nan, 0.5], math.nan), ([1.5, 0.5, math.inf], 0.5), ([2.0, math.inf, 0.5], math.inf)):
        with pytest.raises(ValueError) as alone:
            NlaSpec(bad, 2)
        with pytest.raises(ValueError) as refused:
            NlaSpec(np.array(grid), 2)
        assert str(refused.value) == str(alone.value)
    for shape in ((0,), (2, 2)):
        with pytest.raises(ValueError, match="non-empty 1-D"):
            NlaSpec(np.ones(shape), 2)
    gains = np.array([1.0, 2.0])
    spec = NlaSpec(gains, 2)
    gains[0] = 5.0
    assert spec.gain.tolist() == [1.0, 2.0] and not spec.gain.flags.writeable
    # a list grid gives a list of points too, and a 0-d gain one point
    cfg = partial(ScenarioConfig, nodes=4, mean_photons=0.04, eta=0.5, scheme=SCHEME_PRACTICAL_NLA)
    assert simulate_practical(cfg(nla=NlaSpec([2.0], 2))) == [simulate_practical(cfg(nla=NlaSpec(2.0, 2)))]
    assert simulate_practical(cfg(nla=NlaSpec(np.float64(2.0), 2))) == simulate_practical(cfg(nla=NlaSpec(2.0, 2)))


def test_a_grid_in_chunks_keeps_its_points_and_its_first_error(monkeypatch):
    # chunks of two gains: stages 3 and 4 take several passes over one grid
    monkeypatch.setattr(sensing, "_GAIN_CHUNK", 2)
    grid, singles = _practical_points(4, np.linspace(1.0, 3.0, 7), 2, 8, 0.04, 0.5)
    assert grid == singles
    cfg = partial(ScenarioConfig, nodes=4, mean_photons=0.04, eta=0.5, scheme=SCHEME_PRACTICAL_NLA, cutoff=8)
    with pytest.raises(ValueError) as alone:
        simulate_practical(cfg(nla=NlaSpec(3.0, 616)))
    with pytest.raises(ValueError) as refused:
        simulate_practical(cfg(nla=NlaSpec(np.array([2.5, 2.75, 2.9, 3.0, 3.25]), 616)))
    assert str(refused.value) == str(alone.value)


def test_a_large_gain_grid_peaks_near_its_points():
    # a grid runs in chunks of gains, so 50,000 gains hold one chunk's tables
    # beside their points; with every gain's tables at once the peak was 7.7x
    # what the points hold
    import tracemalloc

    cfg = partial(ScenarioConfig, nodes=4, mean_photons=0.04, eta=0.5, scheme=SCHEME_PRACTICAL_NLA, cutoff=8)
    simulate_practical(cfg(nla=NlaSpec(np.linspace(1.0, 3.0, 3), 2)))
    spec = NlaSpec(np.linspace(1.0, 3.0, 50_000), 2)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        points = simulate_practical(cfg(nla=spec))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(points) == 50_000
    assert peak - before <= 3 * (held - before), (peak - before) / (held - before)


def test_a_thousand_scissors_cost_no_more_memory_than_their_amplifier():
    # the amplifier is read on {0..cap+1} only: a point at N=1000, cap 8 peaks
    # within 8 MB of the dense nla_operator(1000, 1, 1001) it reads its shape
    # from (32 MB), where the Hankel gather over N+2 photons took 161 MB
    import tracemalloc

    cfg = ScenarioConfig(nodes=4, mean_photons=0.04, eta=0.5, scheme=SCHEME_PRACTICAL_NLA,
                         cutoff=8, nla=NlaSpec(1.5, 1000))
    sensing._practical_source.cache_clear()
    tracemalloc.start()
    try:
        nla_operator(1000, 1.0, 1001)
        _, amplifier_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        point = simulate_practical(cfg)
        _, point_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert math.isfinite(point.delta_alpha)
    assert point_peak <= amplifier_peak + 8 * 2**20, (point_peak, amplifier_peak)


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
            nla=NlaSpec(2.0, scissors),
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
        nla=NlaSpec(gain, scissors),
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
            nla=NlaSpec(gain, scissors),
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


@lru_cache(maxsize=None)
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


@pytest.mark.parametrize(
    "nodes, gain, cap",
    [
        (30, 3.0, 128),
        (100, 2.0, 128),
        (100, 3.0, 128),
        pytest.param(
            100, 3.0, 8,
            marks=pytest.mark.xfail(
                strict=True, raises=AssertionError, reason="ROADMAP item 1: source cut at the cap before loss"
            ),
        ),
    ],
)
def test_practical_matches_type_class_oracle_at_large_nodes(nodes, gain, cap):
    # the engine at cap `cap` against the oracle at the converged cap 128; the
    # multinomial oracle stops near M=8, this one runs C(M-2+N, N) types (4,950
    # at M=100, N=2), once per (nodes, gain)
    cfg = ScenarioConfig(
        nodes=nodes,
        mean_photons=0.04,
        eta=0.5,
        scheme=SCHEME_PRACTICAL_NLA,
        cutoff=cap,
        nla=NlaSpec(gain, 2),
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
        nla=NlaSpec(2.2, 2),
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
            nla=NlaSpec(gain, 2),
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
            nla=NlaSpec(1.5, scissors),
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
            nodes=4, mean_photons=0.04, eta=0.5, scheme=SCHEME_NO_NLA, nla=NlaSpec(2.5, 2)
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
# A scenario or an effective channel needs eta > 0; a bare loss channel admits 0.
# An int past the largest float is refused by name too, not by float()'s OverflowError
_PAST_THE_FLOATS = 10**400
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
        (-1e-12, math.nan, math.inf, _PAST_THE_FLOATS),
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
        (1 - 1e-12, math.nan, math.inf, _PAST_THE_FLOATS),
        (1.0,),
    ),
    (
        "effective gain",
        {"effective-sv": lambda g: nla.effective_sv_photons(0.04, g)},
        (1 - 1e-12, math.nan, math.inf, _PAST_THE_FLOATS),
        (1.0,),
    ),
]
_EDGE_REFUSALS = {
    f"{taker}-{name.split()[0]}-{'1e400' if bad is _PAST_THE_FLOATS else bad}": (partial(take, bad), name)
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
    "basis_vector": lambda cap: basis_vector((1, 0), cap).amplitudes,
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
    # refuses what is not a whole number >= 1 within the float range, and runs
    # a whole float as the int
    build = _CAP_TAKERS[name]
    for bad in (0, -1, 2.5, math.nan, math.inf, 10**400):
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
        "mode count", lambda m: fock.balanced_splitter(m, basis_vector((1, 0), 3)).amplitudes
    ),
    "splitter_gaussian": ("mode count", lambda m: gaussian.splitter_gaussian(gaussian.sv_gaussian(0.1), m).cov),
}


@pytest.mark.parametrize("name", list(_COUNT_TAKERS))
def test_every_count_is_a_checked_whole_number(name):
    # scissor and mode counts share the photon cap's validator: each taker
    # refuses what is not a whole number >= 1 within the float range, naming
    # the count, and runs a whole float as the int
    quantity, build = _COUNT_TAKERS[name]
    for bad in (0, -1, 2.5, math.nan, math.inf, 10**400):
        with pytest.raises(ValueError, match=f"{quantity} must be a whole number >= 1"):
            build(bad)
    whole, exact = build(2.0), build(2)
    assert type(whole) is type(exact)
    if isinstance(exact, list):
        assert whole == exact
    else:
        assert np.shape(whole) == np.shape(exact) and np.array_equal(whole, exact)


# ---------------------------------------------------------------------------
# package surface
# ---------------------------------------------------------------------------

def _names_read(tree: ast.AST):
    """Every name ``tree`` reads: bare names, attributes, and strings, which ``getattr`` targets are."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_definition_in_src_is_used_outside_the_tests():
    # code that only the tests call lives under tests/: every top-level
    # function and class of the package is read somewhere in src/ or bench/
    # beyond its own definition (a recursive call does not count)
    root = Path(__file__).resolve().parent.parent
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for folder in ("src", "bench")
        for path in sorted((root / folder).rglob("*.py"))
    }
    read = Counter(name for tree in trees.values() for name in _names_read(tree))
    unused = [
        f"{path.name}:{node.name}"
        for path, tree in trees.items()
        if path.parent.name == "cvdqs"
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and read[node.name] == Counter(_names_read(node))[node.name]
    ]
    assert unused == []


# ---------------------------------------------------------------------------
# README
# ---------------------------------------------------------------------------

def test_readme_library_quick_start_runs(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 4
    assert all(math.isfinite(float(value)) for value in printed)
