import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from cvdqs import cli, fock, gaussian, nla, sensing
from cvdqs.cli import (
    SENSITIVITY_COLUMNS,
    SweepRequest,
    UsageError,
    build_bounds_rows,
    build_nla_rows,
    build_sensitivity_rows,
    main,
    parse_config_text,
    render_csv,
)
from cvdqs.nla import NlaSpec
from cvdqs.sensing import SCHEME_PRACTICAL_NLA, ScenarioConfig, simulate_practical
from cvdqs.validate import run_validation_suite


def read(path):
    with open(path, "rb") as handle:
        return handle.read()


# ---------------------------------------------------------------------------
# request validation
# ---------------------------------------------------------------------------

def test_request_rejects_bad_grid():
    with pytest.raises(UsageError):
        SweepRequest(command="sweep-nla", g_min=0.8)
    with pytest.raises(UsageError):
        SweepRequest(command="sweep-nla", g_steps=1)
    with pytest.raises(UsageError):
        SweepRequest(command="sweep-nla", g_min=2.0, g_max=1.5)


def test_request_rejects_bad_precision_and_jobs():
    with pytest.raises(UsageError):
        SweepRequest(command="bounds", precision=2)
    with pytest.raises(UsageError):
        SweepRequest(command="bounds", precision=18)
    with pytest.raises(UsageError):
        SweepRequest(command="bounds", jobs=0)


def test_request_rejects_bad_eta_grid():
    with pytest.raises(UsageError):
        SweepRequest(command="bounds", eta_min=0.0)
    with pytest.raises(UsageError):
        SweepRequest(command="bounds", eta_max=1.1)


@pytest.mark.parametrize("command", ["sweep-sensitivity", "sweep-nla", "bounds", "validate"])
@pytest.mark.parametrize(
    "key, flag, value",
    [
        ("M", "--M", "0"),
        ("ns", "--ns", "-1"),
        ("eta", "--eta", "0"),
        ("eta", "--eta", "1.5"),
        ("scissors", "--scissors", "0"),
        ("cutoff", "--cutoff", "0"),
        ("g_min", "--g-min", "0.5"),
    ],
    ids=["M-0", "ns--1", "eta-0", "eta-1.5", "scissors-0", "cutoff-0", "g_min-0.5"],
)
def test_every_command_refuses_a_physical_setting_before_any_work(tmp_path, capsys, command, key, flag, value):
    # the request checks every setting, also those the command does not read,
    # so the refusal comes before any work and before --out is created
    out = tmp_path / "new.csv"
    assert main([command, flag, value, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {key} must ") and value in captured.err
    assert not out.exists()


# ---------------------------------------------------------------------------
# CSV mechanics
# ---------------------------------------------------------------------------

def test_render_csv_quotes_special_fields():
    text = render_csv(("a", "b"), [{"a": 'x,"y"', "b": 1.5}], precision=3)
    assert text == 'a,b\n"x,""y""",1.500e+00\n'


def test_render_csv_cell_rules():
    columns = ("none", "empty", "int", "np_int", "float", "np_float", "comma", "quote", "newline", "plain")
    row = {
        "none": None,
        "empty": "",
        "int": 12,
        "np_int": np.int64(-7),
        "float": 0.125,
        "np_float": np.float64(-3.0e-5),
        "comma": "a,b",
        "quote": 'say "hi"',
        "newline": "two\nlines",
        "plain": "entangled_no_nla",
    }
    text = render_csv(columns, [row], precision=2)
    assert text == (
        ",".join(columns) + "\n"
        + ',,12,-7,1.25e-01,-3.00e-05,"a,b","say ""hi""","two\nlines",entangled_no_nla\n'
    )
    # a numeric cell is never quoted, whatever the precision renders
    for value in (1.5, -2.0e300, float("inf"), float("nan"), np.int64(10**12)):
        cell = render_csv(("x",), [{"x": value}], precision=6).splitlines()[1]
        assert '"' not in cell and cell


def test_render_csv_equals_the_per_cell_join():
    # plain floats skip _cell's type tests; every cell must still render as _cell renders it
    values = [
        1.5, -2.0e-300, 0.0, -0.0, 1e300, float("inf"), float("-inf"), float("nan"),
        np.float64(3.25), np.float64("nan"), np.int64(-7), 12, True, False, None, "",
        'say "hi"', "a,b", "two\nlines", "entangled_no_nla",
    ]
    columns = ("a", "b", "c", "d", "missing")
    rows = [{col: values[(i + j) % len(values)] for j, col in enumerate(columns[:-1])} for i in range(len(values))]
    for precision in (0, 3, 12):
        spec = f".{precision}e"
        want = [",".join(columns)] + [",".join(cli._cell(row.get(col), spec) for col in columns) for row in rows]
        assert render_csv(columns, rows, precision) == "\n".join(want) + "\n"


def test_bounds_csv_bytes(tmp_path):
    # SHA-256 of `bounds --eta-steps 1000`, recorded before render_csv formatted
    # plain floats on a fast path: every cell of it is a plain float
    out = tmp_path / "bounds.csv"
    assert main(["bounds", "--eta-steps", "1000", "--out", str(out)]) == 0
    assert hashlib.sha256(read(out)).hexdigest() == "2877d7b978fce424d11f608f46220ddc47334e30470040de857133fef20c6231"


def test_sensitivity_csv_schema_and_determinism(tmp_path):
    argv = [
        "sweep-sensitivity",
        "--g-steps", "5",
        "--g-max", "2.0",
        "--cutoff", "5",
        "--precision", "8",
        "--out", str(tmp_path / "a.csv"),
    ]
    assert main(argv) == 0
    assert main(["sweep-sensitivity", "--g-steps", "5", "--g-max", "2.0", "--cutoff", "5",
                 "--precision", "8", "--out", str(tmp_path / "b.csv")]) == 0
    first = read(tmp_path / "a.csv")
    assert first == read(tmp_path / "b.csv")
    lines = first.decode().strip().split("\n")
    assert lines[0] == ",".join(SENSITIVITY_COLUMNS)
    assert len(lines) == 1 + 4 * 5
    # sorted by (scheme, g)
    keys = [(row.split(",")[0], float(row.split(",")[4])) for row in lines[1:]]
    assert keys == sorted(keys)


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["sweep-sensitivity"], "84fc5f32b5cf51cae2ee4cd95ca7ff7387c864a0ce9b1b335612fd51f0be006f"),
        (
            ["sweep-nla", "--M", "5", "--g-steps", "3"],
            "b5698cf315fc0e95dc7b41bb587609b449038cd5300070a277749efeeb349b78",
        ),
        (
            ["sweep-nla", "--M", "6", "--g-steps", "2"],
            "44777e0bab8ab8fdf5be73c84ddae15868bd7860dc668f0b75ca73305b7fcf1a",
        ),
    ],
)
def test_golden_csv_bytes(tmp_path, argv, digest):
    # SHA-256 of the default-settings CSVs, recorded before the practical engine
    # changed (the M=6 one before it moved to the two-mode marginal); an engine
    # change must keep them
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(read(out)).hexdigest() == digest


def test_many_scissors_exit_zero(tmp_path):
    # sqrt(n!) beyond int64 (n >= 21), n! beyond a float (n >= 171) and
    # sqrt(n!) beyond a float (n >= 301) in the amplifier amplitudes
    out = tmp_path / "out.csv"
    for scissors in ("20", "25", "200", "300"):
        assert main(["sweep-nla", "--scissors", scissors, "--g-steps", "2", "--out", str(out)]) == 0
        assert len(read(out).splitlines()) == 3


def test_scissors_beyond_the_float_range_exit_two(tmp_path):
    # at g=3 the vacuum entry (g^2+1)^(-N/2) of the amplifier leaves the normal
    # floats from N=616 and g^n overflows from N=646; the powers of f overflow
    # at M=1000 with a cap of 170, the amplitudes at g=1000, and the source's
    # split amplitudes sqrt(s!) M^(-s/2) from cap 395 at M=4.  Each command
    # stops with a usage error naming the scissor count, node count or cap and
    # the gain or node count instead of a nan row, a warning or a traceback
    out = tmp_path / "out.csv"
    assert main(["sweep-nla", "--scissors", "615", "--g-steps", "2", "--out", str(out)]) == 0
    rows = read(out).decode().splitlines()[1:]
    assert len(rows) == 2 and all(math.isfinite(float(cell)) for row in rows for cell in row.split(","))
    src = Path(cli.__file__).resolve().parents[1]
    high_gain = ["--ns", "3", "--scissors", "40", "--cutoff", "60", "--g-max", "1000", "--g-steps", "2"]
    for argv, named in (
        (["sweep-nla", "--scissors", "616", "--g-steps", "2"], "616 scissors at gain 3 "),
        (["sweep-nla", "--scissors", "700", "--g-steps", "2"], "700 scissors at gain 3 "),
        (["sweep-nla", "--M", "1000", "--cutoff", "170", "--g-steps", "2"], "at gain 3 on M=1000 "),
        (
            ["sweep-nla", "--M", "300", "--ns", "0", "--eta", "1e-9", "--scissors", "1", "--cutoff", "60",
             "--g-max", "1000", "--g-steps", "2"],
            "at gain 1000 on M=300 ",
        ),
        (["sweep-nla", "--M", "2", *high_gain], "at gain 1000 on M=2 "),
        (["sweep-sensitivity", "--M", "2", *high_gain], "at gain 1000 on M=2 "),
        (["sweep-nla", "--cutoff", "395", "--g-steps", "2"], "cutoff 395 on M=4 "),
    ):
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "cvdqs.cli", *argv],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(src)),
            timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert named in proc.stderr
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr


def test_help_works_twice(capsys):
    # the parser is built once and reused; printing help must leave it usable
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["sweep-nla", "--help"])
        assert exc.value.code == 0
        assert "--scissors SCISSORS" in capsys.readouterr().out
    assert main(["bounds", "--eta-steps", "3"]) == 0


def test_cutoff_below_scissors(tmp_path, capsys):
    # the practical engine's basis is N+1 whatever the source cap, so a cap
    # below N computes; a cap too coarse for the source fails the truncation guard
    out = tmp_path / "out.csv"
    argv = ["sweep-nla", "--cutoff", "2", "--scissors", "3", "--g-steps", "2"]
    assert main(argv + ["--ns", "0.0001", "--out", str(out)]) == 0
    assert len(read(out).splitlines()) == 3
    assert main(["sweep-nla", "--cutoff", "1", "--scissors", "2"]) == 2
    assert "increase the cutoff" in capsys.readouterr().err


def test_sensitivity_rows_match_simulation_rerun():
    req = SweepRequest(command="sweep-sensitivity", g_min=1.0, g_max=1.0, g_steps=2)
    rows = build_sensitivity_rows(req)
    practical = [r for r in rows if r["scheme"] == SCHEME_PRACTICAL_NLA]
    assert len(practical) == 2
    point = simulate_practical(
        ScenarioConfig(
            nodes=4, mean_photons=0.04, eta=0.5, scheme=SCHEME_PRACTICAL_NLA,
            cutoff=8, nla=NlaSpec.practical(1.0, 2),
        )
    )
    for row in practical:
        assert row["delta_alpha"] == point.delta_alpha
        assert row["p_success"] == point.p_success
        assert row["probe_power"] == point.probe_power
        assert row["trunc_deficit"] == point.trunc_deficit


def test_sensitivity_vacuum_source_hits_shot_noise():
    req = SweepRequest(command="sweep-sensitivity", mean_photons=0.0, g_steps=2, cutoff=4)
    rows = build_sensitivity_rows(req)
    assert len(rows) == 8
    for row in rows:
        assert row["delta_alpha"] == pytest.approx(0.25, abs=1e-9)


def test_sensitivity_annotates_unphysical_ideal_rows():
    req = SweepRequest(command="sweep-sensitivity", g_min=3.2, g_max=3.4, g_steps=2, cutoff=5)
    rows = build_sensitivity_rows(req)
    ideal = [r for r in rows if r["scheme"] == "entangled_ideal_nla"]
    assert all("unphysical NLA gain" in r["error"] for r in ideal)
    assert all(r.get("delta_alpha") is None or "delta_alpha" not in r for r in ideal)
    practical = [r for r in rows if r["scheme"] == SCHEME_PRACTICAL_NLA]
    assert all("error" not in r for r in practical)


def test_sensitivity_jobs_do_not_change_output():
    base = SweepRequest(command="sweep-sensitivity", g_steps=7, g_max=2.2)
    parallel = SweepRequest(command="sweep-sensitivity", g_steps=7, g_max=2.2, jobs=4)
    rows_a = build_sensitivity_rows(base)
    rows_b = build_sensitivity_rows(parallel)
    assert rows_a == rows_b


def test_practical_beats_product_in_midrange():
    # the amplified scheme dips below the product baseline through mid powers
    req = SweepRequest(command="sweep-sensitivity", g_min=1.9, g_max=2.5, g_steps=7)
    rows = build_sensitivity_rows(req)
    by_gain = {}
    for row in rows:
        by_gain.setdefault(row["g"], {})[row["scheme"]] = row
    for gain, group in by_gain.items():
        assert group[SCHEME_PRACTICAL_NLA]["delta_alpha"] < group["product_optimal"]["delta_alpha"]
        assert group[SCHEME_PRACTICAL_NLA]["probe_power"] == group["product_optimal"]["probe_power"]


def test_unwritable_path_is_usage_error(tmp_path):
    req_argv = ["bounds", "--out", str(tmp_path / "missing_dir" / "x.csv")]
    assert main(req_argv) == 2


# ---------------------------------------------------------------------------
# heralding sweep
# ---------------------------------------------------------------------------

def test_nla_sweep_monotone_success():
    req = SweepRequest(command="sweep-nla", g_steps=9, g_min=1.0, g_max=3.0)
    rows = build_nla_rows(req)
    success = [row["p_success"] for row in rows]
    assert success[0] == max(success)
    assert all(a > b for a, b in zip(success, success[1:]))
    powers = [row["probe_power"] for row in rows]
    assert all(a < b for a, b in zip(powers, powers[1:]))


def test_nla_sweep_reference_gain_probability():
    # joint heralding probability at gain 2.2 for the default scenario;
    # dominated by the vacuum weight (g^2 + 1)^(-N M)
    req = SweepRequest(command="sweep-nla", g_min=2.2, g_max=2.3, g_steps=2)
    rows = build_nla_rows(req)
    p = rows[0]["p_success"]
    floor = (2.2**2 + 1.0) ** (-2 * 4)
    assert floor < p < 10 * floor
    assert p == pytest.approx(8.4194e-07, rel=1e-3)


# ---------------------------------------------------------------------------
# bounds sweep
# ---------------------------------------------------------------------------

def test_bounds_rows_monotone_and_tight_at_unity():
    req = SweepRequest(command="bounds", eta_steps=10)
    rows = build_bounds_rows(req)
    last = rows[-1]
    assert last["eta"] == pytest.approx(1.0)
    assert last["crlb_entangled"] == pytest.approx(last["delta_alpha_entangled"], abs=1e-12)
    assert last["crlb_product"] == pytest.approx(last["delta_alpha_product"], abs=1e-12)
    for col in ("crlb_entangled", "crlb_product", "delta_alpha_entangled", "delta_alpha_product"):
        series = [row[col] for row in rows]
        assert all(a > b for a, b in zip(series, series[1:]))
    for row in rows:
        assert row["crlb_entangled"] <= row["delta_alpha_entangled"] + 1e-12
        assert row["crlb_product"] <= row["delta_alpha_product"] + 1e-12


def test_bounds_loss_dominated_limit():
    req = SweepRequest(command="bounds", eta_min=1e-6, eta_max=1.0, eta_steps=5)
    rows = build_bounds_rows(req)
    first = rows[0]
    for col in ("crlb_entangled", "crlb_product", "delta_alpha_entangled", "delta_alpha_product"):
        assert first[col] == pytest.approx(0.25, abs=1e-4)


# ---------------------------------------------------------------------------
# config file handling
# ---------------------------------------------------------------------------

def test_config_parsing_and_comments():
    text = "# scenario\nM = 2\nns = 0.1  # brighter\n\neta = 0.7\n"
    values = parse_config_text(text)
    assert values == {"nodes": 2, "mean_photons": 0.1, "eta": 0.7}


def test_config_unknown_key_reports_line():
    with pytest.raises(UsageError, match="line 3"):
        parse_config_text("M = 2\nns = 0.1\nbogus = 1\n")


def test_config_bad_syntax_reports_line():
    with pytest.raises(UsageError, match="line 2"):
        parse_config_text("M = 2\nwhat even is this\n")
    with pytest.raises(UsageError, match="line 1"):
        parse_config_text("M = not_an_int\n")


def test_flags_override_config(tmp_path, capsys):
    config = tmp_path / "conf"
    config.write_text("M = 2\nprecision = 4\neta_steps = 3\n", encoding="utf-8")
    assert main(["bounds", "--config", str(config), "--M", "9"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert len(lines) == 4  # header + 3 grid points from config
    # M=9 from the flag: eta=1 row carries 1/(2 sqrt 9) at ns -> small
    last = lines[-1].split(",")
    assert float(last[1]) == pytest.approx(0.5 / math.sqrt(9 * (math.sqrt(1.04) + 0.2) ** 2), rel=1e-4)


def test_config_env_var(tmp_path, capsys, monkeypatch):
    config = tmp_path / "conf"
    config.write_text("eta_steps = 2\nprecision = 3\n", encoding="utf-8")
    monkeypatch.setenv(cli.CONFIG_ENV_VAR, str(config))
    assert main(["bounds"]) == 0
    out = capsys.readouterr().out
    assert len(out.strip().split("\n")) == 3


def test_missing_config_is_usage_error(tmp_path):
    assert main(["bounds", "--config", str(tmp_path / "nope")]) == 2


# ---------------------------------------------------------------------------
# validate command
# ---------------------------------------------------------------------------

def test_validation_suite_passes_clean():
    results = run_validation_suite()
    assert all(r.passed for r in results), [r.name for r in results if not r.passed]


def test_validate_writes_report_to_out(tmp_path, capsys):
    # --out takes the report stdout would carry, byte for byte, and leaves stdout empty
    assert main(["validate"]) == 0
    report = capsys.readouterr().out
    assert report.endswith("10/10 checks passed\n")
    out = tmp_path / "validate.txt"
    assert main(["validate", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert read(out) == report.encode()
    assert main(["validate", "--out", str(tmp_path / "missing_dir" / "v.txt")]) == 2
    assert "cannot write" in capsys.readouterr().err


def test_unwritable_out_fails_before_the_work(tmp_path, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        pytest.fail("the command ran before its --out path was checked")

    monkeypatch.setattr(cli, "simulate_practical", no_work)
    monkeypatch.setattr(cli, "run_validation_suite", no_work)
    missing = str(tmp_path / "missing_dir" / "v.csv")
    for command in ("sweep-nla", "sweep-sensitivity", "validate"):
        assert main([command, "--out", missing]) == 2
        assert "cannot write" in capsys.readouterr().err


def test_failed_run_keeps_an_existing_out_file(tmp_path, capsys):
    # the path is checked in append mode, which does not truncate
    out = tmp_path / "v.csv"
    out.write_bytes(b"earlier,bytes\n")
    assert main(["sweep-nla", "--cutoff", "2", "--g-steps", "2", "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert read(out) == b"earlier,bytes\n"


GAUSSIAN = "gaussian engine matches closed-form sensitivity"
FOCK = "fock pipeline matches closed-form sensitivity"
COMMUTES = "ideal gain operator commutes with the splitter"
WITNESS = "truncated amplifier visibly fails to commute"
SCISSOR = "scissor circuit reproduces the amplifier operator"
PROJECTOR = "projector coefficients follow the scissor-count law"
CLIPPED = "clipped gain after loss matches the effective channel"
BOUNDS = "bounds sit below the achieved errors, equal at eta=1"
VACUUM = "vacuum heralding probability scales exactly"


def _scaled_at(values, n):
    # values times 1.001 at photon number n (the column n of an operator)
    return values * np.where(np.arange(values.shape[-1]) == n, 1.001, 1.0)


def _untruncated(pi):
    # the projector forgets its scissor truncation, so Pi_N g^n becomes a
    # multiple of g^n and commutes with the splitter like the ideal gain
    return fock.ModeOperator(pi.entries[0, 0] * np.eye(len(pi.entries)))


@pytest.mark.parametrize(
    "module, attr, corrupt, failing",
    [
        pytest.param(
            sensing, "delta_alpha_entangled", lambda v: v * (1 + 1e-3), {GAUSSIAN, FOCK, BOUNDS},
            id="closed_form_sensitivity",
        ),
        pytest.param(gaussian, "avg_x_std", lambda v: v * (1 + 1e-6), {GAUSSIAN}, id="gaussian"),
        pytest.param(
            nla, "effective_transmissivity", lambda v: v * 1.01, {CLIPPED}, id="effective_eta"
        ),
        pytest.param(sensing, "crlb_entangled", lambda v: v * 1.001, {BOUNDS}, id="crlb"),
        pytest.param(
            nla, "gain_diagonal", lambda d: _scaled_at(d, 2), {CLIPPED, COMMUTES}, id="gain_diagonal"
        ),
        pytest.param(
            nla, "projector_pi", lambda pi: fock.ModeOperator(_scaled_at(pi.entries, 1)),
            {SCISSOR, PROJECTOR}, id="projector_coefficient",
        ),
        pytest.param(
            nla, "projector_pi", _untruncated, {WITNESS, SCISSOR, PROJECTOR}, id="projector_truncation"
        ),
        pytest.param(
            sensing, "nla_operator", lambda t: fock.ModeOperator(_scaled_at(t.entries, 0)),
            {VACUUM}, id="practical_engine_amplifier",
        ),
    ],
)
def test_validation_suite_catches_injected_fault(monkeypatch, module, attr, corrupt, failing):
    # each fault corrupts one function's output and must break exactly the
    # checks that compare it against an independent route
    exact = getattr(module, attr)
    monkeypatch.setattr(module, attr, lambda *args: corrupt(exact(*args)))
    results = run_validation_suite()
    assert {r.name for r in results if not r.passed} == failing
    assert len(results) == 10


def test_validate_command_exit_codes(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_validate_rejects_undersized_cutoff(capsys):
    # --cutoff is the Fock check's source cap; a cap its truncation guard
    # rejects is a usage error, whatever the scissor count
    assert main(["validate", "--cutoff", "1", "--scissors", "2"]) == 2
    assert "increase the cutoff" in capsys.readouterr().err


@pytest.mark.parametrize("cutoff", ["45", "100", "200"])
def test_validate_refuses_a_dense_tensor_too_large(capsys, cutoff):
    # the Fock check's (cutoff+1)^4 tensor would need gigabytes from cutoff
    # 45 on, and sv_fock overflows from 172: both are refused before anything is built
    start = time.perf_counter()
    assert main(["validate", "--cutoff", cutoff]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"cutoff {cutoff}" in err and "M=4" in err


def _validate_report(capsys, *flags):
    code = main(["validate", *flags])
    lines = capsys.readouterr().out.splitlines()
    return code, {name: line for line in lines for name in (FOCK, VACUUM) if line.startswith(name)}


def test_validate_runs_the_fock_check_at_the_given_cutoff(capsys):
    # the cap is used as given, not raised to 8: at 5 the Fock pipeline is
    # 1.4e-4 off the closed form, outside its 1e-4 tolerance
    code, lines = _validate_report(capsys, "--cutoff", "5")
    assert code == 1
    assert "FAIL" in lines[FOCK] and "n_max=5)" in lines[FOCK]
    assert "PASS" in lines[VACUUM]


def test_validate_scissor_count_needs_no_cutoff(capsys):
    # 25 scissors run at the default cutoff 8; at 200 and 300 the vacuum law
    # (g^2+1)^(-2N) underflows a float at g=2.5 and reads as deviation 1
    code, lines = _validate_report(capsys, "--scissors", "25")
    assert code == 0
    assert "PASS" in lines[VACUUM]
    for scissors in ("200", "300"):
        code, lines = _validate_report(capsys, "--scissors", scissors)
        assert code == 1
        assert "FAIL" in lines[VACUUM] and "deviation 1.000e+00" in lines[VACUUM]
        assert "PASS" in lines[FOCK]


def test_validate_exits_one_on_failure(capsys, monkeypatch):
    from cvdqs.validate import CheckResult

    monkeypatch.setattr(
        cli,
        "run_validation_suite",
        lambda **kwargs: [CheckResult("stub check", False, "forced failure")],
    )
    assert main(["validate"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_error_rows_render_with_empty_values():
    req = SweepRequest(command="sweep-sensitivity", g_min=3.1, g_max=3.2, g_steps=2, cutoff=5)
    text = render_csv(cli.SENSITIVITY_COLUMNS, build_sensitivity_rows(req), precision=6)
    ideal_lines = [line for line in text.splitlines() if line.startswith("entangled_ideal_nla")]
    assert len(ideal_lines) == 2
    for line in ideal_lines:
        fields = line.split(",")
        assert fields[6] == "" and fields[7] == "" and fields[8] == ""  # power/dalpha/p empty
        assert "unphysical NLA gain" in line


# ---------------------------------------------------------------------------
# settings table: flags, config keys and non-finite numbers
# ---------------------------------------------------------------------------

# (config key, flag, field, non-default value, another non-default value)
SETTINGS = [
    ("M", "--M", "nodes", 3, 5),
    ("ns", "--ns", "mean_photons", 0.1, 0.2),
    ("eta", "--eta", "eta", 0.7, 0.8),
    ("scissors", "--scissors", "scissors", 1, 3),
    ("cutoff", "--cutoff", "cutoff", 6, 7),
    ("g_min", "--g-min", "g_min", 1.5, 2.0),
    ("g_max", "--g-max", "g_max", 2.5, 2.0),
    ("g_steps", "--g-steps", "g_steps", 5, 7),
    ("eta_min", "--eta-min", "eta_min", 0.2, 0.3),
    ("eta_max", "--eta-max", "eta_max", 0.9, 0.8),
    ("eta_steps", "--eta-steps", "eta_steps", 4, 6),
    ("out", "--out", "out", "a.csv", "b.csv"),
    ("precision", "--precision", "precision", 6, 12),
    ("jobs", "--jobs", "jobs", 2, 3),
]
FLOAT_SETTINGS = [(key, flag) for key, flag, _, value, _ in SETTINGS if isinstance(value, float)]


def _config(tmp_path, text):
    path = tmp_path / "conf"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_settings_cover_every_request_field():
    names = [f.name for f in dataclasses.fields(SweepRequest) if f.name != "command"]
    assert names == [name for _, _, name, _, _ in SETTINGS]


def test_readme_lists_every_config_key():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    assert "`" + ", ".join(key for key, _, _, _, _ in SETTINGS) + "`" in readme


@pytest.mark.parametrize("key,flag,name,value,other", SETTINGS, ids=[s[0] for s in SETTINGS])
def test_flag_and_config_key_build_the_same_request(tmp_path, key, flag, name, value, other):
    by_flag = cli.build_request(["bounds", flag, str(value)])
    by_config = cli.build_request(["bounds", "--config", _config(tmp_path, f"{key} = {value}\n")])
    assert by_flag == by_config
    assert getattr(by_flag, name) == value
    assert by_flag != SweepRequest(command="bounds")
    both = cli.build_request(
        ["bounds", "--config", _config(tmp_path, f"{key} = {value}\n"), flag, str(other)]
    )
    assert getattr(both, name) == other


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key,flag", FLOAT_SETTINGS, ids=[key for key, _ in FLOAT_SETTINGS])
def test_non_finite_numbers_are_usage_errors(tmp_path, capsys, key, flag, text):
    assert main(["bounds", f"{flag}={text}"]) == 2
    assert key in capsys.readouterr().err
    assert main(["bounds", "--config", _config(tmp_path, f"{key} = {text}\n")]) == 2
    assert key in capsys.readouterr().err
