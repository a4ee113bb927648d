"""Acceptance suite: one test per headline target, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.  Criteria 2-5 and the bounds half of 8
are cross-route checks that ``cvdqs validate`` implements; they read its
results by check name and print each check's detail.
"""

import math

import numpy as np
import pytest

from cvdqs.nla import NlaSpec, effective_transmissivity
from cvdqs.sensing import (
    SCHEME_PRACTICAL_NLA,
    ScenarioConfig,
    delta_alpha_entangled,
    delta_alpha_product,
    simulate_practical,
)
from cvdqs.validate import run_validation_suite
from oracles import lossless_cvmp_vector, qfi_pure_displacement

NODES = 4
SOURCE = 0.04
ETA = 0.5


def verdict(number, passed, detail):
    print(f"criterion {number:2d}: {'PASS' if passed else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def checks():
    """``cvdqs validate``'s results at its defaults, keyed by check name."""
    return {result.name: result for result in run_validation_suite()}


def delegated_verdict(number, checks, *names):
    """Verdict of a criterion that is exactly the ``validate`` checks ``names``."""
    results = [checks[name] for name in names]
    ok = all(result.passed for result in results)
    verdict(number, ok, "; ".join(f"{result.name}: {result.detail}" for result in results))
    assert ok


def test_criterion_01_effective_transmissivity():
    value = effective_transmissivity(2.5, 0.5)
    ok = abs(value - 0.8621) <= 1e-4
    verdict(1, ok, f"effective transmissivity at g=2.5, eta=0.5 is {value:.6f} (target 0.8621 +- 1e-4)")
    assert ok


def test_criterion_02_closed_form_engine_agreement(checks):
    delegated_verdict(
        2,
        checks,
        "fock pipeline matches closed-form sensitivity",
        "gaussian engine matches closed-form sensitivity",
    )


def test_criterion_03_scissor_oracle(checks):
    delegated_verdict(3, checks, "scissor circuit reproduces the amplifier operator")


def test_criterion_04_commutation_suite(checks):
    delegated_verdict(
        4,
        checks,
        "ideal gain operator commutes with the splitter",
        "truncated amplifier visibly fails to commute",
    )


def test_criterion_05_effective_channel_equivalence(checks):
    delegated_verdict(5, checks, "clipped gain after loss matches the effective channel")


def _practical_sweep(gains, cutoff=8):
    # cutoff 8, the CLI default, puts the upper crossover power within 2e-3 of
    # converged: it moves 0.425 -> 0.567 -> 0.568 over cutoffs 5 -> 8 -> 12
    # (0.568 at 40 too) because the amplifier re-weights the source's
    # six-photon tail by g^12
    rows = []
    for gain in gains:
        cfg = ScenarioConfig(
            nodes=NODES,
            mean_photons=SOURCE,
            eta=ETA,
            scheme=SCHEME_PRACTICAL_NLA,
            cutoff=cutoff,
            nla=NlaSpec(float(gain), 2),
        )
        point = simulate_practical(cfg)
        rows.append(
            {
                "gain": float(gain),
                "power": point.probe_power,
                "practical": point.delta_alpha,
                "p_success": point.p_success,
                "product": delta_alpha_product(NODES, point.probe_power),
                # unamplified split source delivering the same arriving power,
                # as the CLI's entangled_no_nla row
                "no_nla": delta_alpha_entangled(NODES, point.probe_power / ETA, ETA),
            }
        )
    return rows


def _stops_beating_product(rows, scheme):
    """First power at which ``scheme`` stops beating the product baseline.

    Linearly interpolated between the two sweep points around the sign change
    of ``scheme - product``; ``None`` if the scheme never stops winning.
    """
    for a, b in zip(rows, rows[1:]):
        da, db = a[scheme] - a["product"], b[scheme] - b["product"]
        if da < 0 <= db:
            return a["power"] + da / (da - db) * (b["power"] - a["power"])
    return None


def test_criterion_06_crossover_window():
    # The repeater window: powers at which loss has already erased the
    # unamplified split source's advantage over the product baseline, yet the
    # amplified scheme still beats it.  At low power the practical scheme wins
    # throughout (eta > 1/M), so the lower edge is where the unamplified scheme
    # stops winning: exactly 1/6 at M=4, eta=0.5, where both squeezed variances
    # are 2/3 of vacuum.
    span = (0.05, 0.8)
    rows = _practical_sweep(np.linspace(1.0, 3.2, 111))
    powers = [row["power"] for row in rows]
    assert min(powers) <= span[0] and max(powers) >= span[1], "sweep must cover the power span"
    in_span = [row for row in rows if span[0] <= row["power"] <= span[1]]
    low = _stops_beating_product(in_span, "no_nla")
    assert low is not None, (
        f"no crossing of entangled_no_nla over product_optimal inside the span {span}"
    )
    high = _stops_beating_product(in_span, "practical")
    assert high is not None, (
        f"no crossing of entangled_practical_nla over product_optimal inside the span {span}"
    )
    assert low < high, f"practical window closes at {high:.3f}, before it opens at {low:.3f}"
    window = [row for row in in_span if low <= row["power"] <= high]
    assert all(row["practical"] < row["product"] for row in window), (
        "the practical scheme loses to the product baseline inside the window"
    )
    above = [row for row in in_span if row["power"] > low]
    assert all(row["no_nla"] >= row["product"] for row in above), (
        "the unamplified scheme beats the product baseline again above the lower crossing"
    )
    lowest = rows[0]
    lead = 1.0 - lowest["practical"] / lowest["product"]
    ok = abs(low - 0.18) <= 0.08 and abs(high - 0.58) <= 0.08
    verdict(
        6,
        ok,
        f"repeater window spans probe power [{low:.3f}, {high:.3f}] "
        f"(no-NLA and practical crossings of product; target [0.18, 0.58] +- 0.08 "
        f"per endpoint); practical leads product by {lead:.1%} at the sweep's "
        f"lowest power {lowest['power']:.3f}",
    )
    assert ok, (
        f"measured window [{low:.3f}, {high:.3f}] misses the target boxes "
        f"[0.10, 0.26] x [0.50, 0.66]"
    )


def test_criterion_07_operating_point():
    rows = _practical_sweep(np.linspace(1.5, 2.8, 131))  # same sweep family as criterion 6
    # advantage in dB: 10 log10 of the variance ratio, product over practical
    best = max(rows, key=lambda row: 10 * math.log10(row["product"] ** 2 / row["practical"] ** 2))
    gain_ok = abs(best["gain"] - 2.2) <= 0.3
    p_ok = 1e-6 <= best["p_success"] <= 1e-4
    verdict(
        7,
        gain_ok and p_ok,
        f"max advantage at gain {best['gain']:.3f} (target 2.2 +- 0.3), "
        f"joint herald probability {best['p_success']:.2e} (within 10x of 1e-5)",
    )
    assert gain_ok and p_ok


def test_criterion_08_bound_suite(checks):
    bounds = checks["bounds sit below the achieved errors, equal at eta=1"]
    info = qfi_pure_displacement(lossless_cvmp_vector(NODES, SOURCE, 12))
    target = 4.0 * NODES * (math.sqrt(SOURCE + 1.0) + math.sqrt(SOURCE)) ** 2
    qfi_dev = abs(info - target)
    ok = bounds.passed and qfi_dev <= 1e-5
    verdict(8, ok, f"{bounds.name}: {bounds.detail}; QFI deviation {qfi_dev:.2e} (tol 1e-5)")
    assert ok


def test_criterion_09_asymptotic_scalings():
    per_node = 100.0
    total = NODES * per_node
    ent = delta_alpha_entangled(NODES, total, 1.0)
    ent_scaling = 1.0 / (4.0 * NODES * math.sqrt(per_node))
    prod = delta_alpha_product(NODES, total)
    prod_scaling = 1.0 / (4.0 * math.sqrt(NODES * per_node))
    rel_e = abs(ent - ent_scaling) / ent_scaling
    rel_p = abs(prod - prod_scaling) / prod_scaling
    ok = rel_e < 0.01 and rel_p < 0.01
    verdict(9, ok, f"asymptote deviations: entangled {rel_e:.4%}, product {rel_p:.4%} (tol 1%)")
    assert ok


def test_criterion_10_advantage_behavior():
    per_node = 100.0
    total = NODES * per_node
    # advantage in dB: 10 log10 of the variance ratio, product over entangled
    series = [
        10 * math.log10(
            delta_alpha_product(NODES, total, eta_local=eta) ** 2
            / delta_alpha_entangled(NODES, total, eta) ** 2
        )
        for eta in (1.0, 0.9, 0.75, 0.6, 0.45, 0.3)
    ]
    at_unity = series[0]
    monotone = all(a > b for a, b in zip(series, series[1:]))
    ok = abs(at_unity - 6.02) <= 0.05 and monotone
    verdict(
        10,
        ok,
        f"equal-loss advantage {at_unity:.4f} dB at eta=1 (target 6.02 +- 0.05), "
        f"strictly decreasing with loss: {monotone}",
    )
    assert ok
