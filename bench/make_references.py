"""Write bench/references.json: converged reference values for the fixed gain grids.

Run from the root of a checkout:

    python3 bench/make_references.py

For every practical-amplifier point of the ``gain_sweep`` and
``node_scaling`` commands it stores the converged probe power, rms error and
joint heralding probability from ``reference.practical`` and the source cap
at which two successive even caps agreed.  Next to each command it records,
as measured and not as a target, how far the package's CLI output at that
commit lies from the reference (``cli_rel_err_at_generation``), and for the
default M=4 sweep how far the package's dense route at cutoff 12 lies from it,
a check of the reference by an independent route.

``source_scan`` draws its points from the seed and ``self_check`` has closed
forms only, so ``run.py`` computes their references when it checks a run.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from run import check_gain_csv  # first: pins BLAS threads before numpy loads
import reference as R
from worker import make_workload

from cvdqs import cli
from cvdqs.nla import NlaSpec
from cvdqs.sensing import SCHEME_PRACTICAL_NLA, ScenarioConfig, simulate_practical

DENSE_CHECK_CUTOFF = 12


def command_reference(argv: list[str]) -> dict:
    req = cli.build_request(argv)
    points = {}
    for gain in req.gain_grid():
        gain = float(gain)
        points[f"{gain:.{req.precision}e}"] = R.practical(req.nodes, req.mean_photons, req.eta, gain, req.scissors)
    return {
        "nodes": req.nodes,
        "ns": req.mean_photons,
        "eta": req.eta,
        "scissors": req.scissors,
        "points": points,
    }


def cli_rel_err(argv: list[str], ref: dict) -> float:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if cli.main(argv) != 0:
            raise SystemExit(f"cvdqs {' '.join(argv)} failed")
    return max(check_gain_csv(out.getvalue(), ref))


def dense_rel_err(argv: list[str], ref: dict) -> float:
    req = cli.build_request(argv)
    worst = 0.0
    for key, want in ref["points"].items():
        cfg = ScenarioConfig(
            nodes=req.nodes,
            mean_photons=req.mean_photons,
            eta=req.eta,
            scheme=SCHEME_PRACTICAL_NLA,
            cutoff=DENSE_CHECK_CUTOFF,
            nla=NlaSpec.practical(float(key), req.scissors),
        )
        got = simulate_practical(cfg)
        for name in ("probe_power", "delta_alpha", "p_success"):
            worst = max(worst, abs(getattr(got, name) - want[name]) / want[name])
    return worst


def main() -> int:
    commands = {}
    for workload in ("gain_sweep", "node_scaling"):
        for argv, _ in make_workload(workload, 0).commands:
            argv = list(argv)
            key = " ".join(argv)
            ref = command_reference(argv)
            ref["cli_rel_err_at_generation"] = cli_rel_err(argv, ref)
            if workload == "gain_sweep":
                ref[f"dense_cutoff{DENSE_CHECK_CUTOFF}_rel_err"] = dense_rel_err(argv, ref)
            commands[key] = ref
            print(f"{key}: cli deviation {ref['cli_rel_err_at_generation']:.3e}", file=sys.stderr)
    doc = {
        "generated_by": "python3 bench/make_references.py",
        "converged_rel": R.CONVERGED_REL,
        "commands": commands,
    }
    (BENCH / "references.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
