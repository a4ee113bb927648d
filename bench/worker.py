"""One benchmark process: a set-up probe or the measured closed loop of a workload.

``run.py`` starts this file in a fresh interpreter, with BLAS and OpenMP
pinned to one thread, and reads one JSON object from the last line of its
standard output.  A single client calls cvdqs in a closed loop: the next call
starts only after the previous one returned.

* ``--probe``: import cvdqs and finish the workload's first op with every
  cache cold (for a sweep: its command on the two ends of the gain grid);
  report the seconds from before the first import.
* otherwise: run one warm-up round, then whole rounds until ``--seconds``
  have passed.  With ``--trace 1`` the time is split between an untraced and
  a traced half, and the layer spans of the traced half are reported.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from before numpy and cvdqs load

import argparse
import contextlib
import csv
import glob
import io
import json
import math
import resource
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from cvdqs import cli, gaussian, sensing
from cvdqs.nla import NlaSpec, UnphysicalGainError

NODES = 4
SCISSORS = 2
CUTOFF = 8

# source_scan draws (ns, eta, g) uniformly from these ranges
SCAN_NS = (0.01, 0.1)
SCAN_ETA = (0.1, 1.0)
SCAN_GAIN = (1.0, 2.5)
SCAN_ROUND_POINTS = 10


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


_VALUE_COLUMNS = (
    "probe_power",
    "delta_alpha",
    "p_success",
    "crlb_entangled",
    "crlb_product",
    "delta_alpha_entangled",
    "delta_alpha_product",
)


def _csv_failed_ops(argv: tuple[str, ...], text: str) -> int:
    """Ops (gain points, or the whole command) whose CSV cells are not finite numbers.

    The ideal-amplifier ``error`` rows past the physical range are expected
    output: their empty cells do not count.
    """
    rows = list(csv.DictReader(io.StringIO(text)))
    bad_keys = set()
    for row in rows:
        if row.get("error"):
            if row.get("scheme") == sensing.SCHEME_IDEAL_NLA:
                continue
            bad_keys.add(row.get("g"))
            continue
        cells = [row[col] for col in _VALUE_COLUMNS if col in row]
        try:
            ok = bool(cells) and _finite(*(float(c) for c in cells))
        except ValueError:
            ok = False
        if not ok:
            bad_keys.add(row.get("g"))
    if argv[0] == "bounds":
        return 1 if bad_keys or not rows else 0
    return len(bad_keys)


class CliWorkload:
    """Rounds of CLI commands run in-process through ``cli.main``."""

    def __init__(self, commands: list[tuple[tuple[str, ...], int]], busy: tuple[str, ...]):
        self.commands = commands  # (argv, ops the command counts for)
        self.busy = busy
        self.first_csv: dict[str, str] = {}
        self._first_failed: dict[str, int] = {}

    def warm_up(self) -> None:
        self.round()

    def first_op(self) -> None:
        """The first command, with a sweep cut to the two ends of its gain grid."""
        argv, _ = self.commands[0]
        if argv[0].startswith("sweep"):
            argv += ("--g-steps", "2")
        self._run(argv, 1)

    def round(self) -> tuple[int, int]:
        ops = failed = 0
        for argv, count in self.commands:
            ops += count
            failed += self._run(argv, count)
        return ops, failed

    def _run(self, argv: tuple[str, ...], count: int) -> int:
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(list(argv))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return count
        if code != 0:
            return count
        if argv[0] == "validate":
            return 0
        key = " ".join(argv)
        text = out.getvalue()
        if key not in self.first_csv:
            self.first_csv[key] = text
            self._first_failed[key] = _csv_failed_ops(argv, text)
        elif text != self.first_csv[key]:
            print(f"CSV bytes changed between repeats of {key!r}", file=sys.stderr)
            return count
        return self._first_failed[key]

    def outputs(self) -> dict:
        return {"csv": self.first_csv}


def scan_grid() -> list[tuple[float, float, float]]:
    """Low, middle and high value of each source_scan range, 27 points."""
    axes = [(lo, (lo + hi) / 2, hi) for lo, hi in (SCAN_NS, SCAN_ETA, SCAN_GAIN)]
    return [(ns, eta, g) for ns in axes[0] for eta in axes[1] for g in axes[2]]


def scan_points(seed: int):
    """Seeded (ns, eta, g) points; no two share (ns, eta), so each misses the split cache."""
    rng = np.random.default_rng(seed)
    seen = set()
    while True:
        ns, eta, g = (float(rng.uniform(lo, hi)) for lo, hi in (SCAN_NS, SCAN_ETA, SCAN_GAIN))
        if (ns, eta) not in seen:
            seen.add((ns, eta))
            yield ns, eta, g


class SourceScan:
    """Library calls over seeded source points at M=4, cutoff 8."""

    busy = (
        "fock.apply_mode_operator",
        "fock.balanced_splitter",
        "fock.beamsplitter",
        "fock.sv_fock",
        "fock.loss_kraus_operators",
        "nla.nla_operator",
        "gaussian",
        "sensing.simulate_practical",
        "sensing.simulate_no_nla_fock",
        "sensing.closed_form",
    )

    def __init__(self, seed: int):
        self.points = scan_points(seed)
        self.grid_results: list[dict] = []
        self.results: list[dict] = []

    def warm_up(self) -> None:
        for point in scan_grid():
            self._op(point, self.grid_results)

    def first_op(self) -> None:
        self._op(next(self.points), self.results)

    def round(self) -> tuple[int, int]:
        failed = 0
        for _ in range(SCAN_ROUND_POINTS):
            failed += self._op(next(self.points), self.results)
        return SCAN_ROUND_POINTS, failed

    def _op(self, point: tuple[float, float, float], sink: list) -> int:
        ns, eta, gain = point
        try:
            no_nla = sensing.simulate_no_nla_fock(
                sensing.ScenarioConfig(
                    nodes=NODES, mean_photons=ns, eta=eta, scheme=sensing.SCHEME_NO_NLA, cutoff=CUTOFF
                )
            )
            state = gaussian.splitter_gaussian(gaussian.loss_gaussian(gaussian.sv_gaussian(ns), eta), NODES)
            try:
                ideal = sensing.delta_alpha_ideal_nla(NODES, ns, eta, gain)
            except UnphysicalGainError:
                ideal = None
            out = {
                "ns": ns,
                "eta": eta,
                "g": gain,
                "no_nla_probe_power": no_nla.probe_power,
                "no_nla_delta_alpha": no_nla.delta_alpha,
                "gaussian_delta_alpha": gaussian.avg_x_std(state),
                "entangled_delta_alpha": sensing.delta_alpha_entangled(NODES, ns, eta),
                "product_delta_alpha": sensing.delta_alpha_product(NODES, ns),
                "crlb_entangled": sensing.crlb_entangled(NODES, ns, eta),
                "crlb_product": sensing.crlb_product(NODES, ns, eta),
                "ideal_probe_power": None if ideal is None else ideal.probe_power,
                "ideal_delta_alpha": None if ideal is None else ideal.delta_alpha,
            }
            practical = sensing.simulate_practical(
                sensing.ScenarioConfig(
                    nodes=NODES,
                    mean_photons=ns,
                    eta=eta,
                    scheme=sensing.SCHEME_PRACTICAL_NLA,
                    cutoff=CUTOFF,
                    nla=NlaSpec.practical(gain, SCISSORS),
                )
            )
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return 1
        out.update(
            practical_probe_power=practical.probe_power,
            practical_delta_alpha=practical.delta_alpha,
            practical_p_success=practical.p_success,
        )
        if not _finite(*(v for v in out.values() if v is not None)):
            return 1
        sink.append(out)
        return 0

    def outputs(self) -> dict:
        return {"grid": self.grid_results, "points": self.results}


def make_workload(name: str, seed: int):
    sweep = ("--jobs", "1", "--cutoff", str(CUTOFF))
    if name == "gain_sweep":
        return CliWorkload(
            [(("sweep-sensitivity",) + sweep, 41)],
            busy=(
                "fock.apply_mode_operator",
                "nla.nla_operator",
                "sensing.simulate_practical",
                "sensing.closed_form",
                "cli.main",
                "cli.render_csv",
            ),
        )
    if name == "node_scaling":
        return CliWorkload(
            [
                (("sweep-nla", "--M", "5", "--g-steps", "3") + sweep, 3),
                (("sweep-nla", "--M", "6", "--g-steps", "2") + sweep, 2),
            ],
            busy=(
                "fock.apply_mode_operator",
                "nla.nla_operator",
                "sensing.simulate_practical",
                "cli.main",
                "cli.render_csv",
            ),
        )
    if name == "source_scan":
        return SourceScan(seed)
    if name == "self_check":
        return CliWorkload(
            [(("validate",), 1), (("bounds", "--eta-steps", "1000"), 1)],
            busy=(
                "fock.apply_mode_operator",
                "fock.beamsplitter",
                "nla.nla_operator",
                "nla.scissor_kraus",
                "gaussian",
                "sensing.simulate_no_nla_fock",
                "sensing.closed_form",
                "cli.main",
                "cli.render_csv",
                "validate.run_validation_suite",
            ),
        )
    raise ValueError(f"unknown workload {name!r}")


# On a shared 2-vCPU VM the host's speed swung by up to ~35% over minutes,
# in process CPU time as much as in wall time, so not as steal time.  A fixed
# pass of interpreter and small-numpy work, timed between rounds, tracks that
# swing, and timings are scaled to the pass's time on the quiet host, so two
# runs taken at different times compare the program rather than the host.
CALIBRATION_REF_S = 0.0032
_CAL_OP = np.ones((9, 9), dtype=complex)
_CAL_STATE = np.ones((9, 9, 9, 9), dtype=complex)


def calibration_s() -> float:
    """Seconds the calibration pass takes now; ``CALIBRATION_REF_S`` on the quiet host."""
    start = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i
    for _ in range(40):
        np.tensordot(_CAL_OP, _CAL_STATE, axes=([1], [2]))
    return time.perf_counter() - start


def measure(workload, seconds: float) -> list[tuple[int, int, float, float]]:
    """Whole rounds until ``seconds`` have passed.

    Each round gives (ops, failed ops, seconds, calibration seconds), the last
    the mean of the calibration passes on either side of the round.
    """
    rounds = []
    end = time.perf_counter() + seconds
    cal_before = calibration_s()
    while True:
        start = time.perf_counter()
        ops, failed = workload.round()
        elapsed = time.perf_counter() - start
        cal_after = calibration_s()
        rounds.append((ops, failed, elapsed, (cal_before + cal_after) / 2))
        cal_before = cal_after
        if time.perf_counter() >= end:
            return rounds


def ops_per_s(rounds, scaled: bool = True) -> float:
    """Median over rounds of ops per second, scaled to the quiet host's speed."""
    return float(
        np.median([ops / seconds * (cal / CALIBRATION_REF_S if scaled else 1.0) for ops, _, seconds, cal in rounds])
    )


def blas_threads():
    """Threads OpenBLAS will use, asked from the library numpy loaded, or None."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()

    workload = make_workload(args.workload, args.seed)
    if args.probe:
        workload.first_op()
        setup = time.perf_counter() - _T0
        cal = float(np.median([calibration_s() for _ in range(5)]))
        print(json.dumps({"setup_s": setup * CALIBRATION_REF_S / cal, "raw_s": setup}))
        return 0

    workload.warm_up()
    report = {
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
    }
    if args.trace:
        from spans import Tracer

        untraced = measure(workload, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = measure(workload, args.seconds / 2)
        finally:
            tracer.uninstall()
        traced_ops = sum(ops for ops, *_ in traced)
        layers = tracer.metrics(traced_ops)
        layers["trace.ops_per_s_untraced"] = ops_per_s(untraced)
        layers["trace.ops_per_s_traced"] = ops_per_s(traced)
        layers["trace.overhead_frac"] = 1.0 - layers["trace.ops_per_s_traced"] / layers["trace.ops_per_s_untraced"]
        idle = [span for span in workload.busy if tracer.calls(span) == 0]
        if isinstance(workload, SourceScan) and tracer.split_builds == 0:
            idle.append("sensing.split_builds")
        report.update(layers=layers, idle_busy_layers=idle, traced_ops=traced_ops)
        rounds = untraced + traced
    else:
        rounds = measure(workload, args.seconds)
    report.update(
        rounds=len(rounds),
        attempted=sum(ops for ops, *_ in rounds),
        failed=sum(failed for _, failed, *_ in rounds),
        ops_per_s=ops_per_s(rounds),
        ops_per_s_unscaled=ops_per_s(rounds, scaled=False),
        calibration_s=float(np.median([cal for *_, cal in rounds])),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        outputs=workload.outputs(),
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
