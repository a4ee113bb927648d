"""cvdqs benchmark: end-to-end metrics, or per-layer metrics with ``--trace 1``.

Run from the root of a checkout:

    python3 bench/run.py --workload gain_sweep --seed 1 --seconds 15 --trace 0

Each workload runs in a fresh worker process (``worker.py``) with BLAS and
OpenMP pinned to one thread.  This process times set-up in further fresh
processes, checks every output against the converged references, prints one
provenance line and then, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without ``src/cvdqs``
in the working directory it exits with code 2 and prints no result.
"""

import os

# before numpy loads, here and in every child process
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import csv
import io
import json
import math
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"
REFERENCES = BENCH / "references.json"

WORKLOADS = ("gain_sweep", "node_scaling", "source_scan", "self_check")
SETUP_PROBES = 9
#: Above this relative deviation from the converged reference a run is incorrect.
REL_TOL = 0.05
#: Deviations below the CSV's 10-digit rendering and the references'
#: convergence read as this, so result_rel_err is never 0.
REL_ERR_FLOOR = 1e-9
#: The whole run, probes and checks included, stays inside this.
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def _child(args: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh interpreter; its last stdout line is JSON."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *args],
            capture_output=True,
            text=True,
            timeout=timeout,
            cwd=Path.cwd(),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} timed out") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {args} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# output checks: each returns the relative deviations of the values checked
# ---------------------------------------------------------------------------

def _rel(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


def check_gain_csv(text: str, ref: dict) -> list[float]:
    """sweep-sensitivity or sweep-nla CSV against a stored reference entry."""
    import reference as R

    nodes, ns, eta = ref["nodes"], ref["ns"], ref["eta"]
    points = ref["points"]
    seen = set()
    devs = []
    for row in csv.DictReader(io.StringIO(text)):
        key = row["g"]
        want = points.get(key)
        if want is None:
            return [math.inf]
        scheme = row.get("scheme", "entangled_practical_nla")
        if scheme == "entangled_ideal_nla":
            ideal = R.ideal_nla(nodes, ns, eta, float(key))
            if ideal is None:
                devs.append(0.0 if row["error"] else math.inf)
            elif row["error"]:
                devs.append(math.inf)
            else:
                devs += [_rel(float(row["probe_power"]), ideal[0]), _rel(float(row["delta_alpha"]), ideal[1])]
            continue
        power = float(row["probe_power"])
        devs.append(_rel(power, want["probe_power"]))
        if scheme == "entangled_practical_nla":
            seen.add(key)
            devs.append(_rel(float(row["p_success"]), want["p_success"]))
            if "delta_alpha" in row:
                devs.append(_rel(float(row["delta_alpha"]), want["delta_alpha"]))
        elif scheme == "entangled_no_nla":
            devs.append(_rel(float(row["delta_alpha"]), R.delta_alpha_lossy(nodes, power / eta, eta)))
        elif scheme == "product_optimal":
            devs.append(_rel(float(row["delta_alpha"]), R.delta_alpha_product(nodes, power)))
        else:
            return [math.inf]
    if seen != set(points):
        return [math.inf]
    return devs


def check_bounds_csv(text: str, argv: list[str]) -> list[float]:
    import reference as R
    from cvdqs import cli

    req = cli.build_request(argv)
    nodes, ns = req.nodes, req.mean_photons
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != req.eta_steps:
        return [math.inf]
    devs = []
    for row in rows:
        eta = float(row["eta"])
        devs += [
            _rel(float(row["delta_alpha_entangled"]), R.delta_alpha_lossy(nodes, ns, eta)),
            _rel(float(row["delta_alpha_product"]), R.delta_alpha_product(nodes, ns, eta)),
            _rel(float(row["crlb_entangled"]), R.crlb(nodes, ns, eta)),
            _rel(float(row["crlb_product"]), R.crlb(nodes, ns / nodes, eta)),
        ]
    return devs


def check_scan_point(out: dict) -> list[float]:
    import reference as R
    from worker import NODES, SCISSORS

    ns, eta, g = out["ns"], out["eta"], out["g"]
    lossy = R.delta_alpha_lossy(NODES, ns, eta)
    practical = R.practical(NODES, ns, eta, g, SCISSORS)
    ideal = R.ideal_nla(NODES, ns, eta, g)
    devs = [
        _rel(out["no_nla_probe_power"], ns * eta),
        _rel(out["no_nla_delta_alpha"], lossy),
        _rel(out["gaussian_delta_alpha"], lossy),
        _rel(out["entangled_delta_alpha"], lossy),
        _rel(out["product_delta_alpha"], R.delta_alpha_product(NODES, ns)),
        _rel(out["crlb_entangled"], R.crlb(NODES, ns, eta)),
        _rel(out["crlb_product"], R.crlb(NODES, ns / NODES, eta)),
        _rel(out["practical_probe_power"], practical["probe_power"]),
        _rel(out["practical_delta_alpha"], practical["delta_alpha"]),
        _rel(out["practical_p_success"], practical["p_success"]),
    ]
    if ideal is None:
        devs.append(0.0 if out["ideal_probe_power"] is None else math.inf)
    elif out["ideal_probe_power"] is None:
        devs.append(math.inf)
    else:
        devs += [_rel(out["ideal_probe_power"], ideal[0]), _rel(out["ideal_delta_alpha"], ideal[1])]
    return devs


def check_outputs(workload: str, outputs: dict) -> tuple[float, float]:
    """(result_rel_err, worst deviation of every value checked)."""
    from worker import make_workload

    if workload == "source_scan":
        metric = [d for out in outputs["grid"] for d in check_scan_point(out)]
        seeded = [d for out in outputs["points"] for d in check_scan_point(out)]
        if len(outputs["grid"]) != 27:
            metric.append(math.inf)
        worst = max(metric + seeded)
    else:
        refs = json.loads(REFERENCES.read_text())["commands"]
        metric = []
        for argv, _ in make_workload(workload, 0).commands:
            key = " ".join(argv)
            if argv[0] == "validate":
                continue
            text = outputs["csv"].get(key)
            if text is None:
                metric.append(math.inf)
            elif argv[0] == "bounds":
                metric += check_bounds_csv(text, list(argv))
            else:
                metric += check_gain_csv(text, refs[key])
        worst = max(metric)
    return max(max(metric), REL_ERR_FLOOR), worst


# ---------------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "cvdqs" / "__init__.py").is_file():
        print(f"error: no cvdqs sources under {SRC}; run from the root of a cvdqs checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        probes = []
        if not args.trace:
            probes = [_child(common + ["--probe"], deadline) for _ in range(SETUP_PROBES)]
        run = _child(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
        result_rel_err, worst = check_outputs(args.workload, run["outputs"])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    correct = worst <= REL_TOL
    if not correct:
        print(f"error: outputs deviate from the references by up to {worst:.3e} (tolerance {REL_TOL})", file=sys.stderr)
    if args.trace and run["idle_busy_layers"]:
        print(f"error: busy layers recorded no calls: {run['idle_busy_layers']}", file=sys.stderr)
        correct = False

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": run["numpy"],
        "blas_threads": run["blas_threads"],
        "nproc": os.cpu_count(),
        "rounds": run["rounds"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "setup_probes_s": [probe["setup_s"] for probe in probes],
        "setup_probes_unscaled_s": [probe["raw_s"] for probe in probes],
        "ops_per_s_unscaled": run["ops_per_s_unscaled"],
        "calibration_s": run["calibration_s"],
        "worst_rel_dev": worst,
    }
    if args.trace:
        provenance["traced_ops"] = run["traced_ops"]
        values = run["layers"]
        declared = "per_layer"
    else:
        values = {
            "setup_s": statistics.median(probe["setup_s"] for probe in probes),
            "ops_per_s": run["ops_per_s"],
            "peak_rss_mb": run["peak_rss_mb"],
            "result_rel_err": result_rel_err,
            "ok_frac": 1.0 - run["failed"] / run["attempted"],
        }
        declared = "end_to_end"
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())[declared]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    print(json.dumps({"provenance": provenance}))
    print(
        json.dumps(
            {"correct": correct, "attempted": run["attempted"], "failed": run["failed"], "metrics": metrics}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
