import dataclasses
import enum
import hashlib
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cvdqs import cli, fock, gaussian, nla, sensing
from cvdqs.cli import (
    SENSITIVITY_COLUMNS,
    SweepRequest,
    UsageError,
    build_bounds_blocks,
    build_nla_blocks,
    build_sensitivity_blocks,
    main,
    parse_config_text,
    render_csv,
)
from cvdqs.nla import NlaSpec
from cvdqs.sensing import (
    SCHEME_IDEAL_NLA,
    SCHEME_NO_NLA,
    SCHEME_PRACTICAL_NLA,
    SCHEME_PRODUCT,
    ScenarioConfig,
    delta_alpha_entangled,
    delta_alpha_ideal_nla,
    delta_alpha_product,
    simulate_practical,
)
from cvdqs.validate import run_validation_suite


def read(path):
    with open(path, "rb") as handle:
        return handle.read()


def expand(blocks):
    """The rows of ``blocks`` as dicts: a column gives each row its own cell, any other value every row.

    A column is a list or an array, read through its ``.tolist()``.  An empty cell (``None``) is left out of its row.
    """
    out = []
    for block in blocks:
        block = {column: value.tolist() if isinstance(value, np.ndarray) else value for column, value in block.items()}
        length = next(len(value) for value in block.values() if isinstance(value, list))
        for i in range(length):
            cells = ((column, value[i] if isinstance(value, list) else value) for column, value in block.items())
            out.append({column: cell for column, cell in cells if cell is not None})
    return out


def assert_float_columns_are_arrays(blocks):
    """Every column of floats in ``blocks`` is a 1-D float64 array; a list holds an empty or text cell."""
    for block in blocks:
        for value in block.values():
            if isinstance(value, np.ndarray):
                assert value.dtype == np.float64 and value.ndim == 1
            elif isinstance(value, list):
                assert any(cell is None or isinstance(cell, str) for cell in value)


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
    # a library caller can hand in a float step count; NaN must fail too
    with pytest.raises(UsageError):
        SweepRequest(command="sweep-nla", g_steps=math.nan)


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
    with pytest.raises(UsageError, match="eta-max must not be below eta-min"):
        SweepRequest(command="bounds", eta_min=0.8, eta_max=0.5)
    with pytest.raises(UsageError):
        SweepRequest(command="bounds", eta_steps=math.nan)



@pytest.mark.parametrize(
    "command, key, value",
    [("sweep-nla", "g_steps", 2.5), ("bounds", "eta_steps", 3.5), ("bounds", "precision", 5.5)],
)
def test_request_refuses_a_fractional_count_by_name(command, key, value):
    # the CLI parses these as int, so only a library caller can hand in a fraction
    with pytest.raises(UsageError, match=rf"^{key} must be a whole number, got {value}$"):
        SweepRequest(command=command, **{key: value})


def test_request_names_its_first_bad_setting_in_field_order():
    # each setting is checked from its own row, in field order, before the cross-setting checks
    for bad, named in (
        (dict(g_steps=1.5, jobs=0), "g_steps"),
        (dict(precision=2.5, jobs=0), "precision"),
        (dict(g_steps=2.5, eta_max=2.0), "g_steps"),
        (dict(nodes=0, g_steps=1.5), "M"),
        (dict(jobs=0, g_steps=1), "jobs"),
    ):
        with pytest.raises(UsageError, match=f"^{named} "):
            SweepRequest(command="bounds", **bad)


def test_request_keeps_whole_float_counts_and_integer_messages():
    req = SweepRequest(command="bounds", eta_steps=3.0, precision=4.0)
    assert len(expand(build_bounds_blocks(req))) == 3
    assert render_csv(("x",), [{"x": [1.0]}], req.precision) == "x\n1.0000e+00\n"
    for key, value, message in (
        ("g_steps", 1, "gain grid needs at least 2 steps, got 1"),
        ("eta_steps", 0, "eta grid needs at least 2 steps, got 0"),
        ("precision", 18, "precision must lie in [3, 17], got 18"),
    ):
        with pytest.raises(UsageError) as exc:
            SweepRequest(command="bounds", **{key: value})
        assert str(exc.value) == message


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
        ("g_max", "--g-max", "0.5"),
        ("eta_min", "--eta-min", "0"),
        ("eta_max", "--eta-max", "1.5"),
        ("jobs", "--jobs", "0"),
    ],
    ids=[
        "M-0", "ns--1", "eta-0", "eta-1.5", "scissors-0", "cutoff-0", "g_min-0.5",
        "g_max-0.5", "eta_min-0", "eta_max-1.5", "jobs-0",
    ],
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
    text = render_csv(("a", "b"), [{"a": ['x,"y"'], "b": [1.5]}], precision=3)
    assert text == 'a,b\n"x,""y""",1.500e+00\n'
    # a one-cell value is quoted as a list's cell is
    text = render_csv(("a", "b"), [{"a": 'x,"y"', "b": [1.5, 2.5]}], precision=3)
    assert text == 'a,b\n"x,""y""",1.500e+00\n"x,""y""",2.500e+00\n'


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
    want = ",".join(columns) + "\n"
    want += ',,12,-7,1.25e-01,-3.00e-05,"a,b","say ""hi""","two\nlines",entangled_no_nla\n'
    # every cell as a one-row list, then every cell but one list as a one-cell value
    assert render_csv(columns, [{col: [value] for col, value in row.items()}], precision=2) == want
    assert render_csv(columns, [dict(row, none=[None])], precision=2) == want
    # every cell as a one-row array, the numbers in int64 or float64, the rest in object: each renders as in a list
    numeric = {"int": None, "np_int": None, "float": None, "np_float": None}
    arrays = {col: np.array([value], dtype=numeric.get(col, object)) for col, value in row.items()}
    assert [arrays[col].dtype for col in columns] == [object, object] + [np.int64] * 2 + [np.float64] * 2 + [object] * 4
    assert render_csv(columns, [arrays], precision=2) == want
    assert render_csv(columns, [dict(row, np_int=np.array([-7]))], precision=2) == want
    # a numeric cell is never quoted, whatever the precision renders
    for value in (1.5, -2.0e300, float("inf"), float("nan"), np.int64(10**12)):
        for column in ([value], np.array([value]), np.array([value], dtype=object)):
            cell = render_csv(("x",), [{"x": column}], precision=6).splitlines()[1]
            assert '"' not in cell and cell


CELLS = [
    1.5, -2.0e-300, 0.0, -0.0, 1e300, float("inf"), float("-inf"), float("nan"),
    np.float64(3.25), np.float64("nan"), np.float32(0.1), np.int64(-7), 12, True, False, None, "",
    'say "hi"', "a,b", "two\nlines", "entangled_no_nla",
]


def _per_cell_join(columns, blocks, precision):
    # the route render_csv replaced: one _cell call per cell of every expanded row
    spec = f".{precision}e"
    lines = [",".join(columns)]
    lines += [",".join(cli._cell(row.get(col), spec) for col in columns) for row in expand(blocks)]
    return "\n".join(lines) + "\n"


def _kernel_values(precision):
    """Floats on every edge of the matrix route's kernel at ``precision``, then random ones."""
    rng = np.random.default_rng(precision)
    powers = 10.0 ** np.arange(-30, 31)
    digits = rng.integers(10**precision, 10 ** (precision + 1), 40)
    edges = [
        0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-320, 2.2250738585072014e-308,
        np.nextafter(2.2250738585072014e-308, 0.0), 1e300, -1e300, 1e-300, -1e-300, 1.7976931348623157e308,
        # round up into the next decade
        0.99999999999999, 9.9999999999999e5, -99999.99999999999, float("9" * 20),
    ]
    # exact ties, and near-ties one ulp off them
    ties = (digits * 10.0 + 5.0) * 10.0 ** rng.integers(-8, 8, 40).astype(float)
    near = np.nextafter(ties, np.where(rng.random(40) < 0.5, -np.inf, np.inf))
    spread = rng.choice([-1.0, 1.0], 400) * 10.0 ** rng.uniform(-40.0, 40.0, 400)
    parts = (edges, powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf), -powers, ties, near, spread)
    return np.concatenate([np.asarray(part, dtype=float) for part in parts]).tolist()


@pytest.mark.parametrize("precision", [0, 3, 10, 12, 13, 17])
def test_the_matrix_kernel_formats_every_float_as_format_does(precision):
    values = _kernel_values(precision)
    matrix = cli._format_e(np.array(values), precision)
    assert [column[column != cli._PAD].tobytes().decode() for column in matrix.T] == [
        format(value, f".{precision}e") for value in values
    ]


@pytest.mark.parametrize("precision", [0, 3, 10, 12, 13, 17])
def test_a_large_table_renders_as_the_per_cell_join(monkeypatch, precision):
    # the table's distinct float64 arrays exceed the threshold, so up to
    # precision 12 render_csv writes byte matrices; above it, and for the same
    # table of lists, it joins cells
    routes = []
    matrix_rows = cli._matrix_rows
    monkeypatch.setattr(cli, "_matrix_rows", lambda *args: routes.append(args[2]) or matrix_rows(*args))
    values = np.array(_kernel_values(precision))
    mixed = [CELLS[i % len(CELLS)] for i in range(len(values))]
    bounds = [dict(zip(cli.BOUNDS_COLUMNS, (values, values[::-1], np.roll(values, -1), -values, values)))]
    layouts = [
        bounds,
        [
            {"a": values, "b": mixed, "c": "x,y", "d": None},
            {"a": values[::-1], "b": values, "c": 3, "e": [str(v) for v in values.tolist()]},
            {"b": mixed[:5], "c": [1.5, -0.0, None, 2.0, 1e300], "d": np.float64(-0.0), "e": np.arange(5)},
            {"a": np.array([]), "c": "empty block"},
        ],
        [{column: value.tolist() for column, value in bounds[0].items()}],
    ]
    assert 2 * len(values) >= cli._MATRIX_MIN_CELLS
    for blocks in layouts:
        columns = tuple(dict.fromkeys(column for block in blocks for column in block)) + ("missing",)
        assert render_csv(columns, blocks, precision) == _per_cell_join(columns, blocks, precision)
    assert routes == ([precision] * 2 if precision <= 12 else [])


def test_render_csv_equals_the_per_cell_join():
    # float64 arrays skip _cell's type tests; every cell must still render as _cell renders it
    columns = ("a", "b", "c", "d", "missing")
    rows = [{col: CELLS[(i + j) % len(CELLS)] for j, col in enumerate(columns[:-1])} for i in range(len(CELLS))]
    floats = [1.5, -2.0e-300, 0.0, -0.0, 1e300, float("inf"), float("-inf"), float("nan"), 5e-324, -2.5e-320]
    array = np.array(floats)
    layouts = [
        # one block of mixed lists, then one block per row
        [{col: [row[col] for row in rows] for col in columns[:-1]}],
        [{col: [value] for col, value in row.items()} for row in rows],
        # plain-float lists, then float64 arrays on the fast path, beside a mixed list
        [{"a": floats, "b": floats[::-1], "c": [None] * len(floats), "d": [str(v) for v in floats]}],
        [{"a": array, "b": array[::-1], "c": [None] * len(floats), "d": [str(v) for v in floats]}],
        # the same, long enough for the matrix route
        [{"a": np.tile(array, 80), "b": np.tile(array[::-1], 80), "c": [None] * 800, "d": list(map(str, floats)) * 80}],
        # int64 and object arrays, cell by cell; then an empty array, and one block per row of arrays
        [{"a": np.arange(-5, 5), "b": np.array(CELLS[:10], object), "c": array, "d": np.array(CELLS[10:20], object)}],
        [{"a": np.array([]), "b": np.array([], dtype=object), "c": "empty block"}, {"a": array, "d": np.int64(-7)}],
        [{col: np.array([value], dtype=object) for col, value in row.items()} for row in rows],
    ]
    for precision in (0, 3, 12, 17):
        for blocks in layouts:
            assert render_csv(columns, blocks, precision) == _per_cell_join(columns, blocks, precision)


def test_render_csv_formats_a_shared_list_once(monkeypatch):
    _check_a_shared_list_is_formatted_once(monkeypatch, 1)


def test_render_csv_formats_a_shared_list_once_on_the_matrix_route(monkeypatch):
    _check_a_shared_list_is_formatted_once(monkeypatch, 300)


def _check_a_shared_list_is_formatted_once(monkeypatch, repeat):
    # a column in several blocks is formatted once and read by each; 0.0 and
    # -0.0 in it stay apart, and NaN renders as nan.  On the matrix route the
    # float64 arrays go through the kernel, each once, and through no _cells
    shared = np.array([0.0, -0.0, float("nan"), 2.5] * repeat)
    mixed = [np.float64(-0.0), np.int64(3), None, "x,y"] * repeat
    blocks = [
        {"a": shared, "b": np.array([1.0, 2.0, 3.0, 4.0] * repeat), "c": "first"},
        {"a": shared, "b": shared, "c": mixed},
        {"b": mixed, "c": np.float64(-0.0), "d": np.int64(-7)},
    ]
    formatted, kernel = [], []
    cells, format_e = cli._cells, cli._format_e
    monkeypatch.setattr(cli, "_cells", lambda values, spec: formatted.append(values) or cells(values, spec))
    monkeypatch.setattr(cli, "_format_e", lambda values, digits: kernel.append(len(values)) or format_e(values, digits))
    for precision in (3, 17):
        formatted.clear()
        kernel.clear()
        text = render_csv(("a", "b", "c", "d"), blocks, precision)
        assert text == _per_cell_join(("a", "b", "c", "d"), blocks, precision)
        assert sum(values is mixed for values in formatted) == 1
        matrix = repeat > 1 and precision <= 12
        assert sum(values is shared for values in formatted) == (0 if matrix else 1)
        assert kernel == ([8 * repeat] if matrix else [])
    lines = render_csv(("a", "b", "c", "d"), blocks, 3).splitlines()
    assert [line.split(",")[0] for line in lines[1:5]] == ["0.000e+00", "-0.000e+00", "nan", "2.500e+00"]


class _Label(str, enum.Enum):
    PLAIN = "plain"


def test_render_csv_repeats_a_one_cell_value_over_its_block():
    # a value that is neither a list nor a 1-D array fills every row of its block, a str
    # subclass and a 0-d array too; a column a block lacks is empty
    blocks = [
        {"g": [1.0, 2.0, 3.0], "M": 4, "eta": 0.5, "p": np.float64(1.0), "n": np.int64(2), "s": "a,b"},
        {"g": np.array([4.0]), "M": 5, "eta": np.array(0.25), "s": _Label.PLAIN},
    ]
    text = render_csv(("s", "M", "eta", "g", "p", "n", "empty"), blocks, 3)
    assert text == (
        "s,M,eta,g,p,n,empty\n"
        '"a,b",4,5.000e-01,1.000e+00,1.000e+00,2,\n'
        '"a,b",4,5.000e-01,2.000e+00,1.000e+00,2,\n'
        '"a,b",4,5.000e-01,3.000e+00,1.000e+00,2,\n'
        "plain,5,2.500e-01,4.000e+00,,,\n"
    )
    assert text == _per_cell_join(("s", "M", "eta", "g", "p", "n", "empty"), blocks, 3)
    # the same on the matrix route
    blocks[1]["g"] = np.arange(2000.0)
    text = render_csv(("s", "M", "eta", "g", "p", "n", "empty"), blocks, 3)
    assert text.endswith("plain,5,2.500e-01,1.999e+03,,,\n")
    assert text == _per_cell_join(("s", "M", "eta", "g", "p", "n", "empty"), blocks, 3)


@pytest.mark.parametrize(
    "block",
    [
        {"a": [1.0, 2.0], "b": [1.0]},
        {"a": [1.0], "b": [], "c": 3.0},
        {"a": [1.0], "b": np.array([]), "c": 3.0},
        {"a": np.array([1.0, 2.0]), "b": np.array([1])},
        {"a": 1.0, "b": "x"},
        {},
    ],
    ids=["two-and-one", "one-and-none", "one-and-empty-array", "two-and-one-arrays", "no-list", "empty"],
)
def test_render_csv_refuses_a_block_without_one_row_count(block):
    # zip would silently cut the longer lists; a block of one-cell values has no row count
    with pytest.raises(ValueError, match="list columns of one length"):
        render_csv(("a", "b", "c"), [{"a": [1.0], "b": [2.0]}, block], 3)


def test_render_csv_memory_stays_within_four_times_its_text():
    # a large table of float64 arrays, as the bounds command builds it, is
    # written in byte-matrix chunks: it does not hold every formatted cell
    # beside its lines and its text
    steps = 50_000
    etas = np.linspace(0.1, 1.0, steps)
    block = dict(zip(cli.BOUNDS_COLUMNS, (np.sqrt(etas * k) for k in range(1, 6))))
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        text = render_csv(cli.BOUNDS_COLUMNS, [block], 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(text.splitlines()) == steps + 1
    assert peak - before <= 4 * len(text)


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


def _row_route_sensitivity_rows_at(req, gain, point):
    # the per-gain row dicts sweep-sensitivity built before it built scheme blocks
    base = {"M": req.nodes, "N_S": req.mean_photons, "eta": req.eta, "g": gain}
    rows = [
        dict(
            base,
            scheme=SCHEME_PRACTICAL_NLA,
            scissors=req.scissors,
            probe_power=point.probe_power,
            delta_alpha=point.delta_alpha,
            p_success=point.p_success,
            cutoff=point.cutoff,
            trunc_deficit=point.trunc_deficit,
        )
    ]
    try:
        ideal = delta_alpha_ideal_nla(req.nodes, req.mean_photons, req.eta, gain)
        rows.append(
            dict(
                base,
                scheme=SCHEME_IDEAL_NLA,
                probe_power=ideal.probe_power,
                delta_alpha=ideal.delta_alpha,
                p_success=ideal.p_success,
            )
        )
    except nla.UnphysicalGainError as exc:
        rows.append(dict(base, scheme=SCHEME_IDEAL_NLA, error=str(exc)))
    power = point.probe_power
    rows.append(
        dict(
            base,
            scheme=SCHEME_NO_NLA,
            probe_power=power,
            delta_alpha=delta_alpha_entangled(req.nodes, power / req.eta, req.eta),
            p_success=1.0,
        )
    )
    rows.append(
        dict(
            base,
            scheme=SCHEME_PRODUCT,
            probe_power=power,
            delta_alpha=delta_alpha_product(req.nodes, power),
            p_success=1.0,
        )
    )
    return rows


def _random_sweeps(seed: int, count: int) -> list:
    """Seeded ``(M, ns, eta, gain grid)`` flags: the first at ``ns = 0``, the second at ``eta = 1``.

    Every other grid crosses the physicality boundary ``g_eff^2 sqrt(N/(N+1)) = 1`` of the
    ideal amplifier, from ``lam`` in [0.3, 0.95] at its first gain to [1.05, 3] at its last.
    """
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(count):
        ns = 0.0 if i == 0 else float(rng.uniform(0.005, 0.1))
        eta = 1.0 if i == 1 else float(rng.uniform(0.05, 1.0))
        root = math.sqrt(ns / (ns + 1.0))
        g_min, g_max = (
            math.sqrt(1.0 + (lam / root - 1.0) / eta) if ns else lam
            for lam in (rng.uniform(0.3, 0.95), rng.uniform(1.05, 3.0))
        )
        cases.append(
            ["--M", str(rng.integers(1, 7)), "--ns", repr(ns), "--eta", repr(eta), "--g-min", repr(max(g_min, 1.0)),
             "--g-max", repr(g_max), "--g-steps", str(rng.integers(2, 60))]
        )
    return cases


@pytest.mark.parametrize(
    "flags",
    [
        [],
        ["--M", "1"],
        ["--M", "5"],
        ["--M", "6"],
        ["--g-min", "2", "--g-max", "2"],
        ["--scissors", "40", "--g-max", "1000", "--g-steps", "5"],
        ["--precision", "3"],
        ["--precision", "17"],
        *_random_sweeps(30, 8),
    ],
    ids=["defaults", "M1", "M5", "M6", "one-gain", "scissors40-g1000", "precision3", "precision17"]
    + [f"random{i}" for i in range(8)],
)
def test_sensitivity_csv_equals_the_row_route(capsys, flags):
    # the scheme blocks give the bytes of per-gain row dicts, sorted by
    # (scheme, g) and joined cell by cell with _cell: every ideal-NLA and
    # baseline cell is the scalar closed form's at its gain, and every error
    # cell the text of its UnphysicalGainError
    req = cli.build_request(["sweep-sensitivity", *flags])
    gains = req.gain_grid()
    points = simulate_practical(
        ScenarioConfig(
            nodes=req.nodes, mean_photons=req.mean_photons, eta=req.eta, scheme=SCHEME_PRACTICAL_NLA,
            cutoff=req.cutoff, nla=NlaSpec(gains, req.scissors),
        )
    )
    rows = [
        row for gain, point in zip(gains.tolist(), points) for row in _row_route_sensitivity_rows_at(req, gain, point)
    ]
    rows.sort(key=lambda row: (row["scheme"], row["g"]))
    spec = f".{req.precision}e"
    want = [",".join(SENSITIVITY_COLUMNS)]
    want += [",".join(cli._cell(row.get(col), spec) for col in SENSITIVITY_COLUMNS) for row in rows]
    assert main(["sweep-sensitivity", *flags]) == 0
    assert capsys.readouterr().out == "\n".join(want) + "\n"
    blocks = build_sensitivity_blocks(req)
    assert_float_columns_are_arrays(blocks)
    assert expand(blocks) == rows
    errors = sum("error" in row for row in rows)
    if "40" in flags:
        assert errors == 4
    if "--g-min" in flags and "--ns" in flags and float(flags[flags.index("--ns") + 1]) > 0:
        # the random grids that cross the boundary keep rows on both sides of it
        assert 0 < errors < len(gains)


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
    # the top-level help and each command's list every command and every flag,
    # exit 0, and leave the next parse working
    for argv in (["--help"], ["-h"], *([command, "--help"] for command in cli._COMMANDS)):
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            out = capsys.readouterr().out
            assert all(command in out for command in cli._COMMANDS)
            assert all(f"{_flag_of(key)} {key.upper()}" in out for key in cli._SETTINGS)
            assert "--config CONFIG" in out
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
    rows = expand(build_sensitivity_blocks(req))
    practical = [r for r in rows if r["scheme"] == SCHEME_PRACTICAL_NLA]
    assert len(practical) == 2
    point = simulate_practical(
        ScenarioConfig(
            nodes=4, mean_photons=0.04, eta=0.5, scheme=SCHEME_PRACTICAL_NLA,
            cutoff=8, nla=NlaSpec(1.0, 2),
        )
    )
    for row in practical:
        assert row["delta_alpha"] == point.delta_alpha
        assert row["p_success"] == point.p_success
        assert row["probe_power"] == point.probe_power
        assert row["trunc_deficit"] == point.trunc_deficit


def test_sensitivity_vacuum_source_hits_shot_noise():
    req = SweepRequest(command="sweep-sensitivity", mean_photons=0.0, g_steps=2, cutoff=4)
    rows = expand(build_sensitivity_blocks(req))
    assert len(rows) == 8
    for row in rows:
        assert row["delta_alpha"] == pytest.approx(0.25, abs=1e-9)


def test_sensitivity_annotates_unphysical_ideal_rows():
    req = SweepRequest(command="sweep-sensitivity", g_min=3.2, g_max=3.4, g_steps=2, cutoff=5)
    rows = expand(build_sensitivity_blocks(req))
    ideal = [r for r in rows if r["scheme"] == "entangled_ideal_nla"]
    assert all("unphysical NLA gain" in r["error"] for r in ideal)
    assert all(r.get("delta_alpha") is None or "delta_alpha" not in r for r in ideal)
    practical = [r for r in rows if r["scheme"] == SCHEME_PRACTICAL_NLA]
    assert all("error" not in r for r in practical)


def test_sensitivity_jobs_do_not_change_output():
    base = SweepRequest(command="sweep-sensitivity", g_steps=7, g_max=2.2)
    parallel = SweepRequest(command="sweep-sensitivity", g_steps=7, g_max=2.2, jobs=4)
    rows_a = expand(build_sensitivity_blocks(base))
    rows_b = expand(build_sensitivity_blocks(parallel))
    assert rows_a == rows_b


@pytest.mark.parametrize("command", ["sweep-sensitivity", "sweep-nla"])
def test_a_sweep_makes_one_engine_call_for_its_whole_grid(monkeypatch, command):
    # the grid's gains go to the practical engine as one array, and each row
    # holds the point of its gain alone
    calls = []

    def recording(cfg):
        calls.append(cfg.nla.gain)
        return simulate_practical(cfg)

    monkeypatch.setattr(cli, "simulate_practical", recording)
    req = SweepRequest(command=command, g_steps=5, g_max=2.2)
    blocks = (build_sensitivity_blocks if command == "sweep-sensitivity" else build_nla_blocks)(req)
    # no ideal-NLA row is masked below g = 2.2, so no column is a list
    assert_float_columns_are_arrays(blocks)
    assert not any(isinstance(value, list) for block in blocks for value in block.values())
    rows = expand(blocks)
    assert len(calls) == 1 and calls[0].tolist() == req.gain_grid().tolist()
    cfg = dict(nodes=4, mean_photons=0.04, eta=0.5, scheme=SCHEME_PRACTICAL_NLA, cutoff=8)
    practical = [row for row in rows if row.get("scheme", SCHEME_PRACTICAL_NLA) == SCHEME_PRACTICAL_NLA]
    assert [row["g"] for row in practical] == req.gain_grid().tolist()
    for row in practical:
        point = simulate_practical(ScenarioConfig(**cfg, nla=NlaSpec(row["g"], 2)))
        assert (row["probe_power"], row["p_success"]) == (point.probe_power, point.p_success)


def test_huge_node_count_ends_quickly():
    # the other M-2 modes are summed out by repeated squaring, so 10^11 nodes
    # take under 40 convolutions instead of 10^11: finite rows or a usage error
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "cvdqs.cli", "sweep-nla", "--M", "100000000000", "--g-steps", "2"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=60,
    )
    assert proc.returncode in (0, 2), proc.stderr
    assert "Traceback" not in proc.stderr
    if proc.returncode == 0:
        header, *rows = proc.stdout.splitlines()
        assert header == "g,p_success,probe_power" and len(rows) == 2
        assert all(math.isfinite(float(cell)) for row in rows for cell in row.split(","))


def test_practical_beats_product_in_midrange():
    # the amplified scheme dips below the product baseline through mid powers
    req = SweepRequest(command="sweep-sensitivity", g_min=1.9, g_max=2.5, g_steps=7)
    rows = expand(build_sensitivity_blocks(req))
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
    rows = expand(build_nla_blocks(req))
    success = [row["p_success"] for row in rows]
    assert success[0] == max(success)
    assert all(a > b for a, b in zip(success, success[1:]))
    powers = [row["probe_power"] for row in rows]
    assert all(a < b for a, b in zip(powers, powers[1:]))


def test_nla_sweep_reference_gain_probability():
    # joint heralding probability at gain 2.2 for the default scenario;
    # dominated by the vacuum weight (g^2 + 1)^(-N M)
    req = SweepRequest(command="sweep-nla", g_min=2.2, g_max=2.3, g_steps=2)
    rows = expand(build_nla_blocks(req))
    p = rows[0]["p_success"]
    floor = (2.2**2 + 1.0) ** (-2 * 4)
    assert floor < p < 10 * floor
    assert p == pytest.approx(8.4194e-07, rel=1e-3)


# ---------------------------------------------------------------------------
# bounds sweep
# ---------------------------------------------------------------------------

def test_bounds_rows_monotone_and_tight_at_unity():
    req = SweepRequest(command="bounds", eta_steps=10)
    rows = expand(build_bounds_blocks(req))
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


@pytest.mark.parametrize("steps", [2, 1000])
@pytest.mark.parametrize("ns", [0.0, 0.04, 3.0])
@pytest.mark.parametrize("nodes", [1, 4, 7])
def test_bounds_rows_equal_the_scalar_closed_forms(nodes, ns, steps):
    # the grid is evaluated as arrays, and each column stays a float64 array;
    # every cell, read through .tolist(), must be the public scalar form's float, bit for bit
    req = SweepRequest(command="bounds", nodes=nodes, mean_photons=ns, eta_min=1e-6, eta_max=1.0, eta_steps=steps)
    blocks = build_bounds_blocks(req)
    assert all(type(column) is np.ndarray and column.dtype == np.float64 for column in blocks[0].values())
    rows = expand(blocks)
    assert [row["eta"] for row in rows] == np.linspace(1e-6, 1.0, steps).tolist()
    for row in rows:
        eta = row["eta"]
        assert row == {
            "eta": eta,
            "crlb_entangled": sensing.crlb_entangled(nodes, ns, eta),
            "crlb_product": sensing.crlb_product(nodes, ns, eta),
            "delta_alpha_entangled": sensing.delta_alpha_entangled(nodes, ns, eta),
            "delta_alpha_product": sensing.delta_alpha_product(nodes, ns, eta_local=eta),
        }
        assert all(type(value) is float for value in row.values())


def test_bounds_refuses_a_brightness_past_the_float_range(capsys):
    # (sqrt(N+1) + sqrt(N))^2 overflows above N of about 4.5e307
    assert main(["bounds", "--ns", "5e307"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: mean photon number 5e+307 is too large")


def test_bounds_rows_stay_finite_below_the_brightness_limit(capsys):
    # the bound's denominator leaves the float range: the bound reads 0, with no
    # overflow warning (pytest raises warnings as errors)
    assert main(["bounds", "--ns", "4e307"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    cells = [float(cell) for row in rows for cell in row.split(",")]
    assert len(cells) == 10 * 5 and all(map(math.isfinite, cells))


def test_bounds_loss_dominated_limit():
    req = SweepRequest(command="bounds", eta_min=1e-6, eta_max=1.0, eta_steps=5)
    rows = expand(build_bounds_blocks(req))
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


def _untruncated(diag):
    # the projector forgets its scissor truncation, so Pi_N g^n becomes a
    # multiple of g^n and commutes with the splitter like the ideal gain
    return np.full_like(diag, diag[0])


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
        # the projector's diagonal, which projector_pi and nla_operator both read
        pytest.param(
            nla, "_projector_diagonal", lambda diag: _scaled_at(diag, 1),
            {SCISSOR, PROJECTOR}, id="projector_coefficient",
        ),
        pytest.param(
            nla, "_projector_diagonal", _untruncated, {WITNESS, SCISSOR, PROJECTOR}, id="projector_truncation"
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
    text = render_csv(cli.SENSITIVITY_COLUMNS, build_sensitivity_blocks(req), precision=6)
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


# ---------------------------------------------------------------------------
# command-line grammar: a command, then --key VALUE or --key=VALUE pairs
# ---------------------------------------------------------------------------

def _flag_of(key):
    return "--" + key.replace("_", "-")


def _values(key):
    """Two distinct values of setting ``key`` that differ from its default and pass the request's checks."""
    name, kind, _ = cli._SETTINGS[key]
    default = getattr(SweepRequest(command="bounds"), name)
    if kind is str:
        return "a.csv", "b.csv"
    if kind is int:
        return default + 1, default + 2
    # the next two floats up from the default, or down where the request refuses those (eta_max = 1)
    for towards in (math.inf, -math.inf):
        first = math.nextafter(default, towards)
        second = math.nextafter(first, towards)
        try:
            SweepRequest(command="bounds", **{name: second})
        except UsageError:
            continue
        return first, second
    raise AssertionError(f"no float next to {key}'s default {default} passes the request's checks")


@pytest.fixture
def no_config_env(monkeypatch):
    monkeypatch.delenv(cli.CONFIG_ENV_VAR, raising=False)


@pytest.mark.parametrize("key", cli._SETTINGS)
def test_every_flag_form_and_config_line_give_the_request(tmp_path, no_config_env, key):
    name = cli._SETTINGS[key][0]
    value, _ = _values(key)
    want = SweepRequest(command="bounds", **{name: value})
    flag = _flag_of(key)
    assert cli.build_request(["bounds", flag, str(value)]) == want
    assert cli.build_request(["bounds", f"{flag}={value}"]) == want
    assert cli.build_request(["bounds", "--config", _config(tmp_path, f"{key} = {value}\n")]) == want


@pytest.mark.parametrize("key", cli._SETTINGS)
def test_flags_override_config_file_and_env(tmp_path, monkeypatch, key):
    name = cli._SETTINGS[key][0]
    value, other = _values(key)
    env = tmp_path / "env.conf"
    env.write_text(f"{key} = {other}\n", encoding="utf-8")
    monkeypatch.setenv(cli.CONFIG_ENV_VAR, str(env))
    given = tmp_path / "given.conf"
    given.write_text(f"{key} = {other}\n", encoding="utf-8")
    assert getattr(cli.build_request(["bounds"]), name) == other
    assert getattr(cli.build_request(["bounds", _flag_of(key), str(value)]), name) == value
    argv = ["bounds", "--config", str(given), _flag_of(key), str(value)]
    assert getattr(cli.build_request(argv), name) == value
    # --config replaces the environment's file, so a key it lacks keeps its default
    given.write_text("", encoding="utf-8")
    assert cli.build_request(["bounds", "--config", str(given)]) == SweepRequest(command="bounds")


@pytest.mark.parametrize("key", cli._SETTINGS)
def test_shortest_unique_prefix_names_its_flag(no_config_env, key):
    flag = _flag_of(key)
    prefix = next(
        flag[:end] for end in range(3, len(flag) + 1)
        if flag[:end] == flag or [f for f in cli._FLAGS if f.startswith(flag[:end])] == [flag]
    )
    value, _ = _values(key)
    assert cli.build_request(["bounds", prefix, str(value)]) == cli.build_request(["bounds", flag, str(value)])


def test_exact_flag_beats_prefix(no_config_env):
    assert cli.build_request(["bounds", "--eta", "0.7"]) == SweepRequest(command="bounds", eta=0.7)
    assert cli.build_request(["bounds", "--cut", "6"]) == SweepRequest(command="bounds", cutoff=6)
    assert cli.build_request(["bounds", "--eta-s=3"]) == SweepRequest(command="bounds", eta_steps=3)


# (argv, the flag, command or argument its error names)
MALFORMED = [
    (["sweep-nla", "--g-m", "2"], "--g-m"),
    (["sweep-nla", "--nope", "1"], "--nope"),
    (["sweep-nla", "--M"], "--M"),
    (["sweep-nla", "--M", "--eta", "0.5"], "--M"),
    (["sweep-nla", "--M", "x"], "--M"),
    (["sweep-nla", "--cut=x"], "--cutoff"),
    (["sweep-nla", "stray"], "stray"),
    (["frobnicate"], "frobnicate"),
    (["--M", "4"], "--M"),
    ([], "command"),
]


@pytest.mark.parametrize("argv, named", MALFORMED, ids=[" ".join(argv) or "no-command" for argv, _ in MALFORMED])
def test_malformed_argv_is_one_usage_error_line(capsys, no_config_env, argv, named):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert named in captured.err
    assert "Traceback" not in captured.err
