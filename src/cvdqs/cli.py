"""Batch front-end: deterministic sensitivity/heralding/bound sweeps to CSV.

Identical requests produce byte-identical CSV files: floats are rendered in
scientific notation at a fixed precision, each command hands ``render_csv``
its table as column blocks that are sorted by construction (one per scheme,
in scheme order, each over the ascending grid), and nothing time- or
host-dependent is written.  Expected mid-sweep failures (the ideal amplifier
leaving its physical range at high gain) degrade to annotated rows instead of
aborting.

Row layout of ``sweep-sensitivity``: for every grid gain the practical
scheme is simulated, the ideal scheme is evaluated at the same gain with its
own probe power, and the two amplifier-free baselines are evaluated *at the
practical scheme's probe power* so that scheme comparisons line up row by
row.  Cells that do not apply to a scheme stay empty.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field, fields
from functools import lru_cache
from itertools import repeat
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


def _cells(values: list, spec: str):
    """The cells of ``values``, formatted as they are read; plain floats skip ``_cell``'s type tests."""
    if set(map(type, values)) <= {float}:
        return map(format, values, repeat(spec))
    return (_cell(value, spec) for value in values)


def render_csv(columns, blocks, precision: int) -> str:
    """The CSV of ``blocks``, runs of rows in output order, under the header ``columns``.

    A block maps a column to a list, one cell per row, or to one cell for every
    row; a column it lacks is empty.  A block's lists set its rows, so it needs
    one and they must be of one length.  A list that several blocks hold is
    formatted once; any other is formatted as its rows are joined.
    """
    spec = f".{precision}e"
    # id of each list -> whether a second place holds it; a table of one block shares nothing
    held: dict = {}
    for block in blocks if len(blocks) > 1 else ():
        for value in block.values():
            if type(value) is list:
                held[id(value)] = id(value) in held
    shared: dict = {}
    lines = [",".join(columns)]
    for block in blocks:
        cells, lengths = [], set()
        for value in map(block.get, columns):
            if type(value) is not list:
                cells.append(repeat(_cell(value, spec)))
                continue
            lengths.add(len(value))
            if not held.get(id(value)):
                cells.append(_cells(value, spec))
            else:
                if id(value) not in shared:
                    shared[id(value)] = list(_cells(value, spec))
                cells.append(shared[id(value)])
        if len(lengths) != 1:
            raise ValueError(f"a block needs list columns of one length, got lengths {sorted(lengths)}")
        lines += map(",".join, zip(*cells))
    # the empty last line ends the text with a newline, with no second copy of it
    lines.append("")
    return "\n".join(lines)


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
    ``UnphysicalGainError`` text that the public form raises at that gain's ``lam``.
    """
    nodes, ns, eta = req.nodes, req.mean_photons, req.eta
    # a gain past the boundary, or one whose square overflows, reads a stand-in silently
    with np.errstate(all="ignore"):
        power, error, lam = _ideal_nla_point(nodes, ns, eta, gains)
    block = {"probe_power": power.tolist(), "delta_alpha": error.tolist(), "p_success": 0.0}
    unphysical = np.flatnonzero(lam >= 1.0).tolist()
    if unphysical:
        block["p_success"] = [0.0] * len(gains)
        block["error"] = [None] * len(gains)
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
    powers = [point.probe_power for point in points]
    matched = np.array(powers)
    no_nla = delta_alpha_entangled(nodes, matched / eta, eta).tolist()
    product = delta_alpha_product(nodes, matched).tolist()
    blocks = {
        SCHEME_PRACTICAL_NLA: {
            "scissors": req.scissors,
            "probe_power": powers,
            "delta_alpha": [point.delta_alpha for point in points],
            "p_success": [point.p_success for point in points],
            # one engine call reads one source, so every point carries its cap and deficit
            "cutoff": points[0].cutoff,
            "trunc_deficit": points[0].trunc_deficit,
        },
        SCHEME_IDEAL_NLA: _ideal_block(req, gains),
        SCHEME_NO_NLA: {"probe_power": powers, "delta_alpha": no_nla, "p_success": 1.0},
        SCHEME_PRODUCT: {"probe_power": powers, "delta_alpha": product, "p_success": 1.0},
    }
    common = {"M": nodes, "N_S": req.mean_photons, "eta": eta, "g": gains.tolist()}
    return [dict(common, scheme=scheme, **blocks[scheme]) for scheme in sorted(blocks)]


def build_nla_blocks(req: SweepRequest) -> list[dict]:
    """One block over the ascending gain grid."""
    gains, points = _practical_points(req)
    powers = [point.probe_power for point in points]
    return [{"g": gains.tolist(), "p_success": [point.p_success for point in points], "probe_power": powers}]


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
    # .tolist() gives plain floats, which render_csv formats on its fast path
    return [dict(zip(BOUNDS_COLUMNS, (values.tolist() for values in columns)))]


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


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser; ``parse_args`` leaves it unchanged, so one serves every call."""
    shared = argparse.ArgumentParser(add_help=False)
    for key, (name, kind, help_text) in _SETTINGS.items():
        flag = "--" + key.replace("_", "-")
        shared.add_argument(flag, type=kind, dest=name, metavar=key.upper(), help=help_text)
    shared.add_argument("--config", type=str, default=None, help="key = value config file")

    parser = argparse.ArgumentParser(
        prog="cvdqs",
        description="Distributed-quantum-sensing sweeps with noiseless-linear-amplifier repeaters",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _) in _COMMANDS.items():
        sub.add_parser(command, parents=[shared], help=help_text)
    return parser


def build_request(argv) -> SweepRequest:
    args = vars(_build_parser().parse_args(argv))
    config_path = args["config"] or os.environ.get(CONFIG_ENV_VAR)
    values: dict = {}
    if config_path:
        values.update(load_config_file(config_path))
    for name, _, _ in _SETTINGS.values():
        if args[name] is not None:
            values[name] = args[name]
    return SweepRequest(command=args["command"], **values)


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
