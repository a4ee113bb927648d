"""Batch front-end: deterministic sensitivity/heralding/bound sweeps to CSV.

Identical requests produce byte-identical CSV files: floats are rendered in
scientific notation at a fixed precision, rows are emitted in sorted order
regardless of evaluation order, and nothing time- or host-dependent is
written.  Expected mid-sweep failures (the ideal amplifier leaving its
physical range at high gain) degrade to annotated rows instead of aborting.

Row layout of ``sweep-sensitivity``: for every grid gain the practical
scheme is simulated, the ideal scheme is evaluated at the same gain with its
own probe power, and the two amplifier-free baselines are evaluated *at the
practical scheme's probe power* so that scheme comparisons line up row by
row.  Cells that do not apply to a scheme stay empty.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import Optional, get_type_hints

import numpy as np

from .fock import TruncationError, _gain, _photon_number, _transmissivity, _whole_number
from .nla import NlaSpec, UnphysicalGainError
from .sensing import (
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


def _setting(key: str, default, help_text: Optional[str] = None):
    """A request field set by config key ``key`` or flag ``--key`` (``_`` as ``-``)."""
    return field(default=default, metadata={"key": key, "help": help_text})


@dataclass(frozen=True)
class SweepRequest:
    command: str
    nodes: int = _setting("M", 4, "number of sensor nodes")
    mean_photons: float = _setting("ns", 0.04, "source mean photon number")
    eta: float = _setting("eta", 0.5, "channel transmissivity")
    scissors: int = _setting("scissors", 2, "quantum scissors per amplifier")
    # 8 leaves the default sweep's high-gain end short of converged: against a
    # cap-40 run delta_alpha is 2.0e-5 / 1.9e-4 / 1.0e-3 off at g = 2 / 2.5 / 3
    # and the power 4.7e-4 off at g=3, while trunc_deficit reads 2.1e-8
    # throughout (ROADMAP.md, open item 1); at 5 the amplified six-photon tail
    # is missing and the upper sensitivity curve visibly shifts
    cutoff: int = _setting("cutoff", 8, "source photon cap")
    g_min: float = _setting("g_min", 1.0)
    g_max: float = _setting("g_max", 3.0)
    g_steps: int = _setting("g_steps", 41)
    eta_min: float = _setting("eta_min", 0.1)
    eta_max: float = _setting("eta_max", 1.0)
    eta_steps: int = _setting("eta_steps", 10)
    out: Optional[str] = _setting("out", None, "output file path (default: stdout)")
    precision: int = _setting("precision", 10, "float digits, 3..17")
    jobs: int = _setting("jobs", 1, "concurrent sweep evaluations")

    def __post_init__(self):
        for setting in fields(self):
            value = getattr(self, setting.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise UsageError(f"{setting.metadata['key']} must be finite, got {value}")
        # the library's checks: every command refuses these before any work, read or not
        try:
            _whole_number(self.nodes, "M")
            _photon_number(self.mean_photons, "ns")
            _transmissivity(self.eta, "eta")
            _whole_number(self.scissors, "scissors")
            _whole_number(self.cutoff, "cutoff")
            _gain(self.g_min, "g_min")
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        if self.g_max < self.g_min:
            raise UsageError("g-max must not be below g-min")
        if self.g_steps < 2:
            raise UsageError(f"gain grid needs at least 2 steps, got {self.g_steps}")
        if not 0.0 < self.eta_min <= self.eta_max <= 1.0:
            raise UsageError("eta grid must satisfy 0 < eta-min <= eta-max <= 1")
        if self.eta_steps < 2:
            raise UsageError(f"eta grid needs at least 2 steps, got {self.eta_steps}")
        if not 3 <= self.precision <= 17:
            raise UsageError(f"precision must lie in [3, 17], got {self.precision}")
        if self.jobs < 1:
            raise UsageError(f"jobs must be at least 1, got {self.jobs}")

    def gain_grid(self) -> np.ndarray:
        return np.linspace(self.g_min, self.g_max, self.g_steps)

    def eta_grid(self) -> np.ndarray:
        return np.linspace(self.eta_min, self.eta_max, self.eta_steps)


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


def render_csv(columns, rows, precision: int) -> str:
    spec = f".{precision}e"
    lines = [",".join(columns)]
    for row in rows:
        # a plain float is the common cell: format it without _cell's type tests
        lines.append(
            ",".join(
                format(value, spec) if type(value) is float else _cell(value, spec)
                for value in map(row.get, columns)
            )
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# sweep bodies
# ---------------------------------------------------------------------------

def _practical_config(req: SweepRequest, gain: float) -> ScenarioConfig:
    return ScenarioConfig(
        nodes=req.nodes,
        mean_photons=req.mean_photons,
        eta=req.eta,
        scheme=SCHEME_PRACTICAL_NLA,
        cutoff=req.cutoff,
        nla=NlaSpec.practical(gain, req.scissors),
    )


def _sensitivity_rows_at(req: SweepRequest, gain: float) -> list[dict]:
    base = {"M": req.nodes, "N_S": req.mean_photons, "eta": req.eta, "g": gain}
    point = simulate_practical(_practical_config(req, gain))
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
    except UnphysicalGainError as exc:
        rows.append(dict(base, scheme=SCHEME_IDEAL_NLA, error=str(exc)))
    # baselines at the practical scheme's probe power, for row-wise comparison
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


def _map_grid(req: SweepRequest, worker, grid) -> list:
    values = [float(g) for g in grid]
    if req.jobs <= 1 or len(values) <= 1:
        return [worker(g) for g in values]
    # evaluate the first point alone so the threads find the practical engine's
    # source stage (sensing._practical_source) cached
    head = worker(values[0])
    with ThreadPoolExecutor(max_workers=req.jobs) as pool:
        tail = list(pool.map(worker, values[1:]))
    return [head] + tail


def build_sensitivity_rows(req: SweepRequest) -> list[dict]:
    per_gain = _map_grid(req, lambda g: _sensitivity_rows_at(req, g), req.gain_grid())
    rows = [row for group in per_gain for row in group]
    rows.sort(key=lambda row: (row["scheme"], row["g"]))
    return rows


def build_nla_rows(req: SweepRequest) -> list[dict]:
    def one(gain: float) -> dict:
        point = simulate_practical(_practical_config(req, gain))
        return {"g": gain, "p_success": point.p_success, "probe_power": point.probe_power}

    # the grid ascends and _map_grid keeps its order, so the rows are sorted by g
    return _map_grid(req, one, req.gain_grid())


def build_bounds_rows(req: SweepRequest) -> list[dict]:
    nodes, ns = req.nodes, req.mean_photons
    return [
        {
            "eta": eta,
            "crlb_entangled": crlb_entangled(nodes, ns, eta),
            "crlb_product": crlb_product(nodes, ns, eta),
            "delta_alpha_entangled": delta_alpha_entangled(nodes, ns, eta),
            "delta_alpha_product": delta_alpha_product(nodes, ns, eta_local=eta),
        }
        for eta in map(float, req.eta_grid())  # ascending, so sorted by eta
    ]


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


def _csv_runner(columns, build_rows):
    """A command that writes ``build_rows(req)`` as CSV to ``req.out`` or stdout."""

    def run(req: SweepRequest) -> int:
        _write_output(req, render_csv(columns, build_rows(req), req.precision))
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
        _csv_runner(SENSITIVITY_COLUMNS, build_sensitivity_rows),
    ),
    "sweep-nla": (
        "joint heralding probability and probe power over a gain grid",
        _csv_runner(NLA_COLUMNS, build_nla_rows),
    ),
    "bounds": (
        "Cramer-Rao bounds over a transmissivity grid",
        _csv_runner(BOUNDS_COLUMNS, build_bounds_rows),
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
