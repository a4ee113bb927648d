"""Every sweep input either gives finite rows (exit 0) or a usage error (exit 2).

The matrix crosses the extremes of each scenario setting; every case runs
through ``cli.main`` in-process with warnings raised as errors.  A case fails
on an exception, a warning, exit 1, a ``nan`` or ``inf`` cell, or an exit-2
message that names none of the settings it could be about.
"""

import contextlib
import csv
import decimal
import functools
import io
import itertools
import math
import warnings
from decimal import Decimal

import pytest

from cvdqs.cli import main

COMMANDS = ("sweep-sensitivity", "sweep-nla")
NODES = ("1", "2", "300")
MEAN_PHOTONS = ("0", "1e-12", "3", "1e4")
ETAS = ("1e-9", "0.5", "1")
SCISSORS = ("1", "2", "40")
CUTOFFS = ("1", "8", "60")
GAIN_MAXIMA = ("1", "1.0000001", "5", "1000")
TEXT_COLUMNS = {"scheme", "error"}
NAMED = ("cutoff", "gain", "M=", "scissors")


def _outcome(argv) -> str:
    """``"ok"`` or ``"usage"`` for an accepted outcome, else what went wrong.

    An exception, a warning among them, propagates.
    """
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error")
        code = main(list(argv))
    if code == 2:
        message = stderr.getvalue()
        if message.startswith("error: ") and any(name in message for name in NAMED):
            return "usage"
        return f"exit 2 with {message!r}"
    if code != 0:
        return f"exit {code}"
    header, *rows = stdout.getvalue().splitlines()
    columns = header.split(",")
    for row in rows:
        # no text cell of these commands holds a comma, so a plain split suffices
        for column, cell in zip(columns, row.split(",")):
            if cell and column not in TEXT_COLUMNS and not math.isfinite(float(cell)):
                return f"{column}={cell}"
    return "ok" if rows else "no rows"


def test_every_matrix_case_gives_finite_rows_or_exits_two():
    cases = list(itertools.product(COMMANDS, NODES, MEAN_PHOTONS, ETAS, SCISSORS, CUTOFFS, GAIN_MAXIMA))
    assert len(cases) == 2592
    counts = {"ok": 0, "usage": 0}
    failures = []
    for command, nodes, ns, eta, scissors, cutoff, g_max in cases:
        argv = [
            command, "--M", nodes, "--ns", ns, "--eta", eta, "--scissors", scissors,
            "--cutoff", cutoff, "--g-max", g_max, "--g-steps", "2",
        ]
        try:
            outcome = _outcome(argv)
        except Exception as exc:  # noqa: BLE001 - any escape fails the case
            outcome = f"{type(exc).__name__}: {exc}"
        if outcome in counts:
            counts[outcome] += 1
        else:
            failures.append((" ".join(argv), outcome))
    assert not failures, f"{len(failures)} failing cases, first: {failures[:5]}"
    # a change that moves a case from one accepted outcome to the other
    # updates these: 1,080 of the usage errors are truncation errors, 58 are
    # moments out of the float range (the 62 cases of MOVED_TO_OK left them
    # when the pair overlaps stopped forming the overflowing l amp * amp l)
    assert counts == {"ok": 1454, "usage": 1138}


# the 31 settings per command, all at --scissors 40 --g-max 1000, whose rows
# became finite when the pair overlaps of the practical engine were fused
# into one contraction
MOVED_TO_OK = [
    (command, nodes, ns, eta, cutoff)
    for command in COMMANDS
    for nodes, cutoffs in (("2", CUTOFFS), ("300", ("1", "8")))
    for ns in ("0", "1e-12")
    for eta in ETAS
    for cutoff in cutoffs
] + [(command, "2", "3", "1e-9", "60") for command in COMMANDS]


def _partitions(total, largest, parts):
    """Every partition of ``total`` into at most ``parts`` parts of at most ``largest``, as ``{part: count}``."""
    if total == 0:
        yield {}
        return
    for part in range(min(total, largest), 0, -1) if parts else ():
        for rest in _partitions(total - part, part, parts - 1):
            yield {**rest, part: rest.get(part, 0) + 1}


@functools.lru_cache(maxsize=None)
def _decimal_oracle(nodes, mean_photons, eta, scissors, gain, cap):
    """``(delta_alpha, probe_power, p_success)`` of the practical scheme in 40-digit decimals.

    The exponent range of ``decimal`` is unbounded for these inputs, so this
    route shares no overflow with the float engine.  Source ``c_2k^2`` is
    proportional to ``(ns/(1+ns))^k C(2k, k) / 4^k`` below the cap, each loss
    branch is written out, the amplifier diagonal comes from its closed form,
    and the other ``M-2`` nodes enter through the partitions of their photon
    total, each with its count of arrangements.  Needs ``M >= 2``.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        ns, eta, gain, modes = Decimal(mean_photons), Decimal(eta), Decimal(gain), Decimal(nodes)
        terms = [(ns / (1 + ns)) ** k * math.comb(2 * k, k) / Decimal(4) ** k for k in range(cap // 2 + 1)]
        source = [Decimal(0)] * (cap + 1)
        for k, term in enumerate(terms):
            source[2 * k] = (-1) ** k * (term / sum(terms)).sqrt()
        lost = [Decimal(1)] + [(1 - eta) ** k for k in range(1, cap + 1)]  # 0^0 is undefined in decimal
        branches = [
            [source[s + k] * (math.comb(s + k, k) * eta**s * lost[k]).sqrt() for s in range(cap + 1 - k)]
            for k in range(cap + 1)
        ]

        @functools.lru_cache(maxsize=None)
        def density(s, s_prime):
            return sum((b[s] * b[s_prime] for b in branches if max(s, s_prime) < len(b)), Decimal(0))

        t = [
            (gain * gain + 1) ** (-Decimal(scissors) / 2) * math.perm(scissors, n) * (gain / scissors) ** n
            for n in range(scissors + 1)
        ]
        u = [t[n] / Decimal(math.factorial(n)).sqrt() for n in range(scissors + 1)]
        split = [(math.factorial(s) / modes**s).sqrt() for s in range(cap + 1)]
        others = nodes - 2
        rest = [Decimal(0)] * (cap + 1)
        for r in range(cap + 1):
            for counts in _partitions(r, scissors, others):
                used = sum(counts.values())
                term = math.perm(others, used) * u[0] ** (2 * (others - used))
                for part, count in counts.items():
                    term = term * u[part] ** (2 * count) / math.factorial(count)
                rest[r] += term

        def rho(r, bra, ket):
            # <n_1 n_2, rest| rho |n'_1 n'_2, rest>, summed over the rests of total r
            s, s_prime = sum(bra) + r, sum(ket) + r
            if min(bra + ket) < 0 or max(bra + ket) > scissors or max(s, s_prime) > cap:
                return Decimal(0)
            amplified = u[bra[0]] * u[bra[1]] * u[ket[0]] * u[ket[1]]
            return rest[r] * density(s, s_prime) * split[s] * split[s_prime] * amplified

        weight = n_1 = a_1 = a_1_sq = a_1_a_2 = a_1_dag_a_2 = Decimal(0)
        for r in (r for r in range(cap + 1) if rest[r]):
            for n1, n2 in itertools.product(range(min(scissors, cap + 1 - r) + 1), repeat=2):
                diag = rho(r, (n1, n2), (n1, n2))
                weight += diag
                n_1 += n1 * diag
                a_1 += Decimal(n1).sqrt() * rho(r, (n1 - 1, n2), (n1, n2))
                a_1_sq += Decimal(n1 * (n1 - 1)).sqrt() * rho(r, (n1 - 2, n2), (n1, n2))
                a_1_a_2 += Decimal(n1 * n2).sqrt() * rho(r, (n1 - 1, n2 - 1), (n1, n2))
                a_1_dag_a_2 += Decimal((n1 + 1) * n2).sqrt() * rho(r, (n1 + 1, n2 - 1), (n1, n2))
        x_sq = (2 * a_1_sq + 2 * n_1 + weight) / (4 * weight)
        x_cross = (a_1_a_2 + a_1_dag_a_2) / (2 * weight)
        variance = (x_sq + (modes - 1) * x_cross) / modes - (a_1 / weight) ** 2
        return float(variance.sqrt()), float(modes * n_1 / weight), float(weight)


@pytest.mark.parametrize("command, nodes, ns, eta, cutoff", MOVED_TO_OK)
def test_high_gain_rows_match_the_vacuum_law_or_a_decimal_oracle(command, nodes, ns, eta, cutoff):
    # ns=0 is vacuum at any gain: the shot-noise floor 1/(2 sqrt(M)) at zero
    # power, heralded with probability (g^2+1)^(-N M); every other row is
    # checked against the decimal route
    argv = [
        command, "--M", nodes, "--ns", ns, "--eta", eta, "--scissors", "40",
        "--cutoff", cutoff, "--g-max", "1000", "--g-steps", "2",
    ]
    assert _outcome(argv) == "ok"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main([*argv, "--precision", "12"]) == 0
    rows = [
        row
        for row in csv.DictReader(io.StringIO(stdout.getvalue()))
        if row.get("scheme", "entangled_practical_nla") == "entangled_practical_nla"
    ]
    assert [float(row["g"]) for row in rows] == [1.0, 1000.0]
    for row in rows:
        gain = float(row["g"])
        if float(ns) == 0:
            want = (0.5 / math.sqrt(int(nodes)), 0.0, (gain * gain + 1.0) ** (-40 * int(nodes)))
        else:
            want = _decimal_oracle(int(nodes), float(ns), float(eta), 40, gain, int(cutoff))
        if "delta_alpha" in row:
            assert float(row["delta_alpha"]) == pytest.approx(want[0], rel=1e-11)
        assert float(row["probe_power"]) == pytest.approx(want[1], rel=1e-11, abs=1e-300)
        assert float(row["p_success"]) == pytest.approx(want[2], rel=1e-11, abs=1e-300)


HIGH_GAIN = ["--M", "2", "--ns", "3", "--scissors", "40", "--cutoff", "60", "--g-max", "1000"]


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["sweep-nla", "--M", "1000", "--cutoff", "170"], id="nla-M1000-cutoff170"),
        pytest.param(["sweep-nla", *HIGH_GAIN], id="nla-high-gain"),
        pytest.param(["sweep-sensitivity", *HIGH_GAIN], id="sensitivity-high-gain"),
        pytest.param(["sweep-nla", "--cutoff", "172", "--g-steps", "2"], id="nla-cutoff172"),
    ],
)
def test_known_edge_input_gives_finite_rows_or_exits_two(argv):
    assert _outcome(argv) in ("ok", "usage")


PAST_FLOAT_RANGE = "1" + "0" * 400


@pytest.mark.parametrize("command", ("bounds", "validate", *COMMANDS))
@pytest.mark.parametrize(
    "flag, key",
    [
        ("--M", "M"), ("--scissors", "scissors"), ("--cutoff", "cutoff"), ("--jobs", "jobs"),
        ("--eta-steps", "eta_steps"), ("--g-steps", "g_steps"), ("--precision", "precision"),
    ],
)
def test_a_count_past_the_float_range_exits_two_naming_its_key(command, flag, key):
    # float() of such an int overflows; every command refuses it before any
    # work, read or not, with a usage error rather than a traceback
    stderr = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error")
        assert main([command, flag, PAST_FLOAT_RANGE]) == 2
    assert stderr.getvalue().startswith(f"error: {key} must ")


TOO_LONG_FOR_AN_ARRAY = "1" + "0" * 300


@pytest.mark.parametrize(
    "command, flag, key",
    [
        ("bounds", "--eta-steps", "eta_steps"),
        ("sweep-nla", "--g-steps", "g_steps"),
        ("sweep-sensitivity", "--g-steps", "g_steps"),
    ],
)
def test_a_grid_too_long_for_an_array_exits_two_naming_its_key(command, flag, key):
    # inside the float range, yet beyond numpy's largest array: the grid is
    # refused by its key, not by numpy's "Maximum allowed size exceeded" alone
    stderr = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error")
        assert main([command, flag, TOO_LONG_FOR_AN_ARRAY]) == 2
    assert stderr.getvalue().startswith(f"error: {key} must be small enough for one array, got 1000")


@pytest.mark.parametrize("command", COMMANDS)
def test_a_cutoff_too_long_for_an_array_exits_two_naming_the_cutoff(command):
    # inside the float range, yet beyond numpy's largest array: the cap is
    # refused before any array of cutoff + 1 entries is asked for
    stderr = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error")
        assert main([command, "--cutoff", TOO_LONG_FOR_AN_ARRAY]) == 2
    message = stderr.getvalue()
    assert message.startswith("error: the split amplitudes sqrt(s!) M^(-s/2) of cutoff 1000"), message
    assert f"cutoff {TOO_LONG_FOR_AN_ARRAY} on M=4 nodes" in message


@pytest.mark.parametrize("command", COMMANDS)
def test_a_cutoff_too_long_for_an_array_on_many_nodes_exits_two_naming_the_cutoff(command):
    # with M as large as the cap the split amplitudes stay finite at the cap,
    # so the cap reaches the array of cutoff + 1 entries and is refused there
    stderr = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error")
        argv = [command, "--M", TOO_LONG_FOR_AN_ARRAY, "--cutoff", TOO_LONG_FOR_AN_ARRAY, "--g-steps", "2"]
        assert main(argv) == 2
    message = stderr.getvalue()
    assert message.startswith("error: cutoff must be small enough for one array, got 1000"), message
