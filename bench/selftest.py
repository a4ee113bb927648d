"""Checks of the benchmark itself; about a minute.

    python3 -m pytest -q bench/selftest.py      (or: python3 bench/selftest.py)

Run from the root of a checkout.  Not part of the package's test suite,
because it starts the benchmark once per workload.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from itertools import islice
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from run import WORKLOADS
from worker import scan_points


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=180
    )


def test_seed_changes_scan_points():
    first = list(islice(scan_points(1), 50))
    assert first == list(islice(scan_points(1), 50))
    assert first != list(islice(scan_points(2), 50))


def test_scan_points_never_share_source():
    points = list(islice(scan_points(7), 5000))
    assert len({(ns, eta) for ns, eta, _ in points}) == len(points)


def test_short_run_of_every_workload_has_no_failures():
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            proc = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert result["correct"], proc.stderr
            assert result["attempted"] >= 1 and result["failed"] == 0
            if trace == "0":
                assert result["metrics"]["ok_frac"]["value"] == 1.0


def test_refuses_to_run_without_sources():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, Path(tmp) / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench(Path(tmp), "--workload", "gain_sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok  {name}")
