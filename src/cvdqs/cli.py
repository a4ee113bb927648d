"""Batch front-end: deterministic sensitivity/heralding/bound sweeps to CSV.

Identical requests produce byte-identical CSV files: floats are rendered in
scientific notation at a fixed precision, each command hands ``render_csv``
its table as column blocks that are sorted by construction (one per scheme,
in scheme order, each over the ascending grid), and nothing time- or
host-dependent is written.  A column of floats is a 1-D float64 array, as
the engine and the closed forms give it; a column that holds an empty or
text cell is a list.  Expected mid-sweep failures (the ideal amplifier
leaving its physical range at high gain) degrade to annotated rows instead of
aborting.

Row layout of ``sweep-sensitivity``: for every grid gain the practical
scheme is simulated, the ideal scheme is evaluated at the same gain with its
own probe power, and the two amplifier-free baselines are evaluated *at the
practical scheme's probe power* so that scheme comparisons line up row by
row.  Cells that do not apply to a scheme stay empty.

Command line: ``cvdqs COMMAND [--KEY VALUE | --KEY=VALUE]...``, read in one
pass over ``argv`` (``build_request``) from the ``_COMMANDS`` and
``_SETTINGS`` tables.  A flag may be cut to a unique prefix, an exact flag
winning over the longer ones it prefixes; flags override the config file.
Every usage error takes one route: a malformed command line, a bad config
file or an unusable scenario raises ``UsageError`` (the engine's refusals
raise ``ValueError`` or ``TruncationError``), and ``main`` prints it as one
``error: ...`` line and returns 2.  Only ``-h``/``--help`` raises
``SystemExit``, with code 0.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field, fields
from functools import lru_cache
from itertools import chain, repeat
from typing import Optional, get_type_hints

import numpy as np

from .fock import _FLOAT_MAX, TruncationError, _gain, _photon_number, _transmissivity, _whole_number
from .nla import NlaSpec, UnphysicalGainError, _check_physical
from .sensing import (
    SCHEME_IDEAL_NLA,
    SCHEME_NO_NLA,
    SCHEME_PRACTICAL_NLA,
    SCHEME_PRODUCT,
    ScenarioConfig,
    _ideal_nla_point,
    crlb_entangled,
    crlb_product,
    delta_alpha_entangled,
    delta_alpha_product,
    simulate_practical,
)
from .validate import render_report, run_validation_suite

CONFIG_ENV_VAR = "CVDQS_CONFIG"

SENSITIVITY_COLUMNS = (
    "scheme",
    "M",
    "N_S",
    "eta",
    "g",
    "scissors",
    "probe_power",
    "delta_alpha",
    "p_success",
    "cutoff",
    "trunc_deficit",
    "error",
)
NLA_COLUMNS = ("g", "p_success", "probe_power")
BOUNDS_COLUMNS = (
    "eta",
    "crlb_entangled",
    "crlb_product",
    "delta_alpha_entangled",
    "delta_alpha_product",
)


class UsageError(Exception):
    """Bad flags, bad config file, or an unusable scenario; exits with code 2."""


def _setting(key: str, default, check=None, help_text: Optional[str] = None):
    """A request field set by config key ``key`` or flag ``--key`` (``_`` as ``-``), vetted by ``check``."""
    return field(default=default, metadata={"key": key, "check": check, "help": help_text})


def _count(value, key: str) -> int:
    """``value`` as an int, after checking that it is whole and in the float range; errors name ``key``."""
    # an int is compared as it is: float() of one past the float range overflows
    if not (isinstance(value, int) or float(value).is_integer()):
        raise ValueError(f"{key} must be a whole number, got {value}")
    if not abs(value) <= _FLOAT_MAX:
        raise ValueError(f"{key} must lie within the float range, got {value}")
    return int(value)


@dataclass(frozen=True)
class SweepRequest:
    command: str
    nodes: int = _setting("M", 4, _whole_number, "number of sensor nodes")
    mean_photons: float = _setting("ns", 0.04, _photon_number, "source mean photon number")
    eta: float = _setting("eta", 0.5, _transmissivity, "channel transmissivity")
    scissors: int = _setting("scissors", 2, _whole_number, "quantum scissors per amplifier")
    # 8 still leaves the default sweep's high-gain end short of converged; at 5
    # the amplified six-photon tail is missing and the upper sensitivity curve
    # visibly shifts
    cutoff: int = _setting("cutoff", 8, _whole_number, "source photon cap")
    g_min: float = _setting("g_min", 1.0, _gain)
    g_max: float = _setting("g_max", 3.0, _gain)
    g_steps: int = _setting("g_steps", 41, _count)
    eta_min: float = _setting("eta_min", 0.1, _transmissivity)
    eta_max: float = _setting("eta_max", 1.0, _transmissivity)
    eta_steps: int = _setting("eta_steps", 10, _count)
    out: Optional[str] = _setting("out", None, help_text="output file path (default: stdout)")
    precision: int = _setting("precision", 10, _count, "float digits, 3..17")
    jobs: int = _setting("jobs", 1, _whole_number, "accepted and checked; has no effect")

    def __post_init__(self):
        # every command refuses a bad setting before any work, read or not; the first in field order is named
        try:
            for name, key, check in _CHECKS:
                value = check(getattr(self, name), key)
                # a library caller may pass a float count: it is kept as an int
                if check is _count:
                    object.__setattr__(self, name, value)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        if not self.g_max >= self.g_min:
            raise UsageError("g-max must not be below g-min")
        if not self.g_steps >= 2:
            raise UsageError(f"gain grid needs at least 2 steps, got {self.g_steps}")
        if not self.eta_max >= self.eta_min:
            raise UsageError("eta-max must not be below eta-min")
        if not self.eta_steps >= 2:
            raise UsageError(f"eta grid needs at least 2 steps, got {self.eta_steps}")
        if not 3 <= self.precision <= 17:
            raise UsageError(f"precision must lie in [3, 17], got {self.precision}")

    def gain_grid(self) -> np.ndarray:
        return _grid(self.g_min, self.g_max, self.g_steps, "g_steps")

    def eta_grid(self) -> np.ndarray:
        return _grid(self.eta_min, self.eta_max, self.eta_steps, "eta_steps")


def _grid(low: float, high: float, steps: int, key: str) -> np.ndarray:
    """``steps`` evenly spaced points from ``low`` to ``high``; a count numpy cannot allocate names ``key``."""
    try:
        return np.linspace(low, high, steps)
    except ValueError as exc:  # numpy's "Maximum allowed size exceeded"
        raise UsageError(f"{key} must be small enough for one array, got {steps}: {exc}") from exc


# config key -> (field name, value type, flag help), in flag order; the
# optional output path parses as str
_HINTS = get_type_hints(SweepRequest)
_SETTINGS = {
    f.metadata["key"]: (
        f.name,
        _HINTS[f.name] if _HINTS[f.name] in (int, float) else str,
        f.metadata["help"],
    )
    for f in fields(SweepRequest)
    if f.metadata
}
# (field name, config key, check) of every checked setting, in field order
_CHECKS = tuple(
    (f.name, f.metadata["key"], f.metadata["check"]) for f in fields(SweepRequest) if f.metadata.get("check")
)


# ---------------------------------------------------------------------------
# CSV rendering
# ---------------------------------------------------------------------------

def _cell(value, spec: str) -> str:
    """One CSV cell: strings quoted per RFC 4180 when they need it, numbers never do."""
    if isinstance(value, str):
        return '"' + value.replace('"', '""') + '"' if any(ch in value for ch in ',"\n') else value
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), spec)


def _cells(column, spec: str):
    """The cells of ``column``, formatted as they are read; any column but a float64 array goes through ``_cell``."""
    if isinstance(column, np.ndarray):
        return map(format if column.dtype == np.float64 else _cell, column.tolist(), repeat(spec))
    return map(_cell, column, repeat(spec))


# below this many cells in a table's distinct float64 arrays the per-cell join
# is faster: the matrix route's fixed cost overtakes its saving (crossover in README)
_MATRIX_MIN_CELLS = 1024
# the rows of the matrix route's byte chunks, and the entries of its kernel's passes
_CHUNK = 8192
# the matrix route's padding, dropped from its text: no byte of UTF-8 text is 0xFF
_PAD = 0xFF
# 10^k for k = -22..22: the positive powers are floats exactly (5^22 < 2^53), and
# each negative one is the correctly rounded quotient 1 / 10^-k
_POW10 = np.cumprod(np.full(23, 10.0)) / 10.0
_SCALE = np.concatenate((1.0 / _POW10[:0:-1], _POW10))


@lru_cache(maxsize=1)
def _ascii_words() -> tuple[np.ndarray, np.ndarray]:
    """As uint32 words: the four ASCII digits of 0..9999, and ``e``, sign and two digits of exponents -99..99.

    Built on first use, so a process that renders no large table never holds them.
    """
    four = (np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")).astype(np.uint8)
    exponents = np.arange(-99, 100)
    signed = np.column_stack(
        (
            np.full(len(exponents), ord("e")),
            np.where(exponents < 0, ord("-"), ord("+")),
            np.abs(exponents)[:, None] // np.array([10, 1]) % 10 + ord("0"),
        )
    )
    return four.view(np.uint32).ravel(), signed.astype(np.uint8).view(np.uint32).ravel()


def _format_e(values: np.ndarray, precision: int) -> np.ndarray:
    """``format(v, f".{precision}e")`` of each entry of ``values``, one a column of a ``_PAD``-padded uint8 matrix.

    The ``precision + 8`` rows hold a sign, the lead digit, ``.`` (none at
    precision 0), ``precision`` digits, ``e``, and a signed exponent of two
    or three digits.  With ``e = floor(log10|v|)`` and ``y = |v| 10^(p-e)``
    (two roundings at most, so ``|y - exact| <= 2^-51 y``, the slack), an
    entry's digits are ``rint(y)`` when ``y`` is no nearer than the slack to
    a half, exceeds ``10^p`` by more than it, and rounds below ``10^(p+1)``:
    then its decimal exponent is ``e`` and no tie is near.  A slack below a
    half puts ``y`` below ``2^50``, so the digits are exact floats, and an
    ``e`` that ``log10`` got wrong fails a check, so its accuracy never
    shows.  Every other entry (0, -0.0, inf, nan, ``|p - e| > 22``,
    near-ties, decade edges) is formatted by ``format``.  ``precision`` is
    at most 21.
    """
    four_digits, exponents = _ascii_words()
    out = np.empty((precision + 8, len(values)), np.uint8)
    with np.errstate(all="ignore"):
        size = np.abs(values)
        shift = precision - np.floor(np.log10(size))
        ok = np.abs(shift) <= 22
        shift = np.where(ok, shift, 0.0).astype(np.intp)
        scaled = size * _SCALE[shift + 22]
        digits = np.rint(scaled)
        slack = scaled * 2.0**-51
        ok &= np.abs(scaled - np.floor(scaled) - 0.5) > slack
        ok &= scaled - _POW10[precision] > slack
        ok &= digits < _POW10[precision + 1]
        # the digits in groups of four, most significant first, as ASCII: text[group, entry, place]
        groups = -(-(precision + 1) // 4)
        quotients = np.floor(np.where(ok, digits, 0.0) / _POW10[4 * np.arange(groups, -1, -1), None])
        fours = four_digits[(quotients[1:] - 1e4 * quotients[:-1]).astype(np.intp)]
    text = fours.view(np.uint8).reshape(groups, len(values), 4)
    # the lead digit, then the rest after the point
    rows = chain((1,), range(3, precision + 3))
    for row, place in zip(rows, range(4 * groups - precision - 1, 4 * groups)):
        out[row] = text[place // 4, :, place % 4]
    out[0] = np.where(np.signbit(values), ord("-"), _PAD)
    out[2] = ord(".") if precision else _PAD
    # an accepted exponent lies in [p - 22, p + 22], so it has two digits
    out[precision + 3 : precision + 7] = exponents[precision - shift + 99].view(np.uint8).reshape(-1, 4).T
    out[precision + 7] = _PAD
    rejected = np.flatnonzero(~ok)
    if rejected.size:
        spec = f".{precision}e"
        out[:, rejected] = _text_matrix([format(value, spec) for value in values[rejected].tolist()], len(out))
    return out


def _text_matrix(cells: list, height: int = 0) -> np.ndarray:
    """``cells`` in UTF-8, one a column, as a uint8 matrix padded with ``_PAD`` to at least ``height`` rows."""
    encoded = [cell.encode("utf-8", "surrogatepass") for cell in cells]
    height = max(height, max(map(len, encoded), default=0))
    data = b"".join(cell.ljust(height, b"\xff") for cell in encoded)
    return np.frombuffer(data, np.uint8).reshape(len(encoded), height).T


def _joined_rows(header: str, table: list, spec: str, distinct: dict, held_twice: set) -> str:
    """The text of ``table`` under ``header``, cell by cell; a column of ``distinct`` held twice is formatted once."""
    shared = {key: list(_cells(distinct[key], spec)) for key in held_twice}
    lines = [header]
    for values, rows in table:
        cells = []
        for value in values:
            if isinstance(value, str):
                cells.append(repeat(value, rows))
            else:
                cells.append(shared[id(value)] if id(value) in shared else _cells(value, spec))
        lines += map(",".join, zip(*cells))
    # the empty last line ends the text with a newline, with no second copy of it
    lines.append("")
    return "\n".join(lines)


def _matrix_rows(header: str, table: list, precision: int, distinct: dict, floats: list) -> list:
    """The text of ``table`` under ``header``, in pieces of ``_CHUNK`` rows, each written as a byte matrix.

    The float64 arrays ``floats`` are formatted in one ``_format_e`` call over
    all of them, any other column of ``distinct`` (id -> column) once by
    ``_cells``.  A chunk's matrix holds one text row a column, so that each
    write is a run of bytes; a block's constant cells and separators are
    written into it once, and each chunk overwrites its column cells.  The
    transpose of a chunk, its padding dropped, is its text.
    """
    flat = np.concatenate(floats)
    formatted = np.empty((precision + 8, len(flat)), np.uint8)
    for start in range(0, len(flat), _CHUNK):
        formatted[:, start : start + _CHUNK] = _format_e(flat[start : start + _CHUNK], precision)
    del flat
    matrices = {}
    for column in floats:
        matrices[id(column)], formatted = formatted[:, : len(column)], formatted[:, len(column) :]
    for key, column in distinct.items():
        if key not in matrices:
            matrices[key] = _text_matrix(list(_cells(column, f".{precision}e")))
    pieces = [header + "\n"]
    for values, rows in table:
        # (cells, whether they vary by row) per column; a constant is one column of bytes
        sources = [
            (_text_matrix([value]), False) if isinstance(value, str) else (matrices[id(value)], True)
            for value in values
        ]
        # each cell is followed by "," or, the last, by "\n"
        ends = np.cumsum([len(cells) + 1 for cells, _ in sources])
        chunk = np.empty((ends[-1], min(rows, _CHUNK)), np.uint8)
        chunk[ends - 1] = ord(",")
        chunk[-1] = ord("\n")
        for (cells, _), end in zip(sources, ends):
            chunk[end - 1 - len(cells) : end - 1] = cells[:, :1]
        for start in range(0, rows, _CHUNK):
            part = chunk[:, : rows - start]
            for (cells, varies), end in zip(sources, ends):
                if varies:
                    part[end - 1 - len(cells) : end - 1] = cells[:, start : start + part.shape[1]]
            pieces.append(part.T.tobytes().translate(None, b"\xff").decode("utf-8", "surrogatepass"))
    return pieces


def render_csv(columns, blocks, precision: int) -> str:
    """The CSV of ``blocks``, runs of rows in output order, under the header ``columns``.

    A block maps a column to a list or a 1-D numpy array, one cell per row,
    or to any other value, one cell for every row; a column it lacks is
    empty.  A block's columns set its rows, so it needs one and they must be
    of one length.  A float64 array is formatted with ``format``; a list, or
    an array of another dtype (its ``.tolist()``), cell by cell through
    ``_cell``, which gives a float the same text.  A column that several
    places hold is formatted once.  A table whose distinct float64 arrays
    hold at least ``_MATRIX_MIN_CELLS`` cells, at a precision of at most 12,
    is written by ``_matrix_rows``; any other is joined cell by cell, each
    column that one place holds formatted as its rows are joined.  Both give
    the same text.
    """
    spec = f".{precision}e"
    # per block, its values in column order (a constant as its cell's text) and its row count;
    # id of each column -> the column; the ids of columns held in more than one place
    table, distinct, held_twice = [], {}, set()
    for block in blocks:
        values, lengths = [], set()
        for value in map(block.get, columns):
            if isinstance(value, list) or isinstance(value, np.ndarray) and value.ndim == 1:
                lengths.add(len(value))
                if id(value) in distinct:
                    held_twice.add(id(value))
                distinct[id(value)] = value
            else:
                value = _cell(value, spec)
            values.append(value)
        if len(lengths) != 1:
            raise ValueError(f"a block needs list columns of one length, got lengths {sorted(lengths)}")
        table.append((values, lengths.pop()))
    header = ",".join(columns)
    floats = [column for column in distinct.values() if isinstance(column, np.ndarray) and column.dtype == np.float64]
    if precision <= 12 and sum(map(len, floats)) >= _MATRIX_MIN_CELLS:
        return "".join(_matrix_rows(header, table, precision, distinct, floats))
    return _joined_rows(header, table, spec, distinct, held_twice)


# ---------------------------------------------------------------------------
# sweep bodies
# ---------------------------------------------------------------------------

def _practical_points(req: SweepRequest) -> tuple[np.ndarray, list]:
    """The gain grid and the practical scheme's point at each of its gains, from one engine call."""
    gains = req.gain_grid()
    points = simulate_practical(
        ScenarioConfig(
            nodes=req.nodes,
            mean_photons=req.mean_photons,
            eta=req.eta,
            scheme=SCHEME_PRACTICAL_NLA,
            cutoff=req.cutoff,
            nla=NlaSpec(gains, req.scissors),
        )
    )
    return gains, points


def _ideal_block(req: SweepRequest, gains: np.ndarray) -> dict:
    """The ideal-NLA columns over the gain grid, from one array evaluation of the closed form's formula.

    The request checked ``M``, ``ns`` and ``eta``, and the grid's ends hold every gain, so no
    row is checked again.  A gain past the physical range keeps only its ``error`` cell: the
    ``UnphysicalGainError`` text that the public form raises at that gain's ``lam``.  The
    columns stay arrays unless a row is masked; then, holding empty and text cells, they are lists.
    """
    nodes, ns, eta = req.nodes, req.mean_photons, req.eta
    # a gain past the boundary, or one whose square overflows, reads a stand-in silently
    with np.errstate(all="ignore"):
        power, error, lam = _ideal_nla_point(nodes, ns, eta, gains)
    unphysical = np.flatnonzero(lam >= 1.0).tolist()
    if not unphysical:
        return {"probe_power": power, "delta_alpha": error, "p_success": 0.0}
    rows = len(gains)
    block = {"probe_power": power.tolist(), "delta_alpha": error.tolist(), "p_success": [0.0] * rows}
    block["error"] = [None] * rows
    for row in unphysical:
        for column in block.values():
            column[row] = None
        try:
            _check_physical(lam[row])
        except UnphysicalGainError as exc:
            block["error"][row] = str(exc)
    return block


def build_sensitivity_blocks(req: SweepRequest) -> list[dict]:
    """One block per scheme, in scheme order, each over the ascending gain grid."""
    gains, points = _practical_points(req)
    nodes, eta = req.nodes, req.eta
    # baselines at the practical scheme's probe power, for row-wise comparison
    powers = np.array([point.probe_power for point in points])
    no_nla = delta_alpha_entangled(nodes, powers / eta, eta)
    product = delta_alpha_product(nodes, powers)
    blocks = {
        SCHEME_PRACTICAL_NLA: {
            "scissors": req.scissors,
            "probe_power": powers,
            "delta_alpha": np.array([point.delta_alpha for point in points]),
            "p_success": np.array([point.p_success for point in points]),
            # one engine call reads one source, so every point carries its cap and deficit
            "cutoff": points[0].cutoff,
            "trunc_deficit": points[0].trunc_deficit,
        },
        SCHEME_IDEAL_NLA: _ideal_block(req, gains),
        SCHEME_NO_NLA: {"probe_power": powers, "delta_alpha": no_nla, "p_success": 1.0},
        SCHEME_PRODUCT: {"probe_power": powers, "delta_alpha": product, "p_success": 1.0},
    }
    common = {"M": nodes, "N_S": req.mean_photons, "eta": eta, "g": gains}
    return [dict(common, scheme=scheme, **blocks[scheme]) for scheme in sorted(blocks)]


def build_nla_blocks(req: SweepRequest) -> list[dict]:
    """One block over the ascending gain grid."""
    gains, points = _practical_points(req)
    powers = np.array([point.probe_power for point in points])
    return [{"g": gains, "p_success": np.array([point.p_success for point in points]), "probe_power": powers}]


def build_bounds_blocks(req: SweepRequest) -> list[dict]:
    """One block over the ascending eta grid, from one array call of each public closed form."""
    nodes, ns = req.nodes, req.mean_photons
    etas = req.eta_grid()
    columns = (
        etas,
        crlb_entangled(nodes, ns, etas),
        crlb_product(nodes, ns, etas),
        delta_alpha_entangled(nodes, ns, etas),
        delta_alpha_product(nodes, ns, etas),
    )
    return [dict(zip(BOUNDS_COLUMNS, columns))]


def _write_output(req: SweepRequest, text: str, mode: str = "w") -> None:
    """Write ``text`` to ``req.out`` opened with ``mode``, or to stdout without one."""
    if req.out is None:
        sys.stdout.write(text)
        return
    try:
        with open(req.out, mode, encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {req.out!r}: {exc}") from exc


def _csv_runner(columns, build_blocks):
    """A command that writes ``build_blocks(req)`` as CSV to ``req.out`` or stdout."""

    def run(req: SweepRequest) -> int:
        _write_output(req, render_csv(columns, build_blocks(req), req.precision))
        return 0

    return run


def run_validate(req: SweepRequest) -> int:
    results = run_validation_suite(cutoff=req.cutoff, scissors=req.scissors)
    _write_output(req, render_report(results) + "\n")
    return 0 if all(r.passed for r in results) else 1


# subcommand -> (help, runner), in --help order
_COMMANDS = {
    "sweep-sensitivity": (
        "rms error vs probe power for all four schemes over a gain grid",
        _csv_runner(SENSITIVITY_COLUMNS, build_sensitivity_blocks),
    ),
    "sweep-nla": (
        "joint heralding probability and probe power over a gain grid",
        _csv_runner(NLA_COLUMNS, build_nla_blocks),
    ),
    "bounds": (
        "the pure-state QFI formula 1/sqrt(4 Var(sum p)) and the achieved errors over a transmissivity grid",
        _csv_runner(BOUNDS_COLUMNS, build_bounds_blocks),
    ),
    "validate": ("run the self-validation suite", run_validate),
}


# ---------------------------------------------------------------------------
# configuration handling
# ---------------------------------------------------------------------------

def parse_config_text(text: str) -> dict:
    """Parse a line-oriented ``key = value`` config; '#' starts a comment."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SETTINGS:
            raise UsageError(f"config line {lineno}: unknown key {key!r}")
        name, kind, _ = _SETTINGS[key]
        try:
            values[name] = kind(value)
        except ValueError as exc:
            raise UsageError(f"config line {lineno}: bad value for {key!r}: {value!r}") from exc
    return values


def load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return parse_config_text(handle.read())
    except OSError as exc:
        raise UsageError(f"cannot read config {path!r}: {exc}") from exc


# flag -> (field name, value type, help), in --help order; a setting's flag is
# "--" and its config key with "_" as "-", and its value is named by the key
_FLAGS = {"--" + key.replace("_", "-"): setting for key, setting in _SETTINGS.items()}
_FLAGS["--config"] = ("config", str, "key = value config file")
_FLAGS["--help"] = ("help", None, "show this help and exit")


def _help_text() -> str:
    """The ``--help`` text: every command and every flag, from ``_COMMANDS`` and ``_FLAGS``."""
    commands = [(command, help_text) for command, (help_text, _) in _COMMANDS.items()]
    flags = [
        (f"{flag} {flag[2:].replace('-', '_').upper()}" if kind else f"-h, {flag}", help_text or "")
        for flag, (_, kind, help_text) in _FLAGS.items()
    ]
    width = 2 + max(len(left) for left, _ in commands + flags)
    return "\n".join(
        [
            "usage: cvdqs COMMAND [--KEY VALUE | --KEY=VALUE]...",
            "",
            "Distributed-quantum-sensing sweeps with noiseless-linear-amplifier repeaters",
            "",
            "commands:",
            *(f"  {left:<{width}}{right}".rstrip() for left, right in commands),
            "",
            "flags (every command takes every flag, and a unique prefix of one):",
            *(f"  {left:<{width}}{right}".rstrip() for left, right in flags),
            "",
        ]
    )


def _flag(token: str) -> str:
    """The flag ``token`` names: itself if it is one, else the one flag it is a prefix of; ``-h`` is ``--help``."""
    if token in _FLAGS:
        return token
    if token == "-h":
        return "--help"
    matches = [flag for flag in _FLAGS if flag.startswith(token)] if token.startswith("--") and token != "--" else []
    if len(matches) == 1:
        return matches[0]
    if matches:
        raise UsageError(f"ambiguous flag {token}: could match {', '.join(matches)}")
    raise UsageError(f"unknown flag {token}")


def build_request(argv) -> SweepRequest:
    """The request of ``argv``: a command, then ``--key VALUE`` or ``--key=VALUE`` pairs.

    A flag's value has its setting's type, and the last one given wins; flags
    override the ``--config`` file, or else the one ``CVDQS_CONFIG`` names.
    ``-h``/``--help`` prints the help and raises ``SystemExit(0)``; any other
    malformed ``argv`` raises ``UsageError``.
    """
    tokens = iter(sys.argv[1:] if argv is None else argv)
    command = next(tokens, None)
    if command in ("-h", "--help"):
        sys.stdout.write(_help_text())
        raise SystemExit(0)
    if command not in _COMMANDS:
        given = f"unknown command {command!r}" if command else "no command"
        raise UsageError(f"{given}; choose from {', '.join(_COMMANDS)}")
    flags: dict = {}
    for token in tokens:
        if not token.startswith("-"):
            raise UsageError(f"unexpected argument {token!r}")
        flag, equals, value = token.partition("=")
        flag = _flag(flag)
        name, kind, _ = _FLAGS[flag]
        if kind is None:
            sys.stdout.write(_help_text())
            raise SystemExit(0)
        if not equals:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                raise UsageError(f"{flag} needs a value")
        try:
            flags[name] = kind(value)
        except ValueError as exc:
            raise UsageError(f"{flag}: invalid {kind.__name__} value {value!r}") from exc
    config_path = flags.pop("config", None) or os.environ.get(CONFIG_ENV_VAR)
    values = load_config_file(config_path) if config_path else {}
    values.update(flags)
    return SweepRequest(command=command, **values)


def main(argv=None) -> int:
    """Run one command; a usage error or a refused scenario prints ``error: ...`` and exits 2."""
    try:
        request = build_request(argv)
        # an unwritable --out fails before the work; append mode keeps an existing file's bytes
        _write_output(request, "", "a")
        return _COMMANDS[request.command][1](request)
    except (UsageError, TruncationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
