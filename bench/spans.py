"""Layer spans recorded around cvdqs's public functions, from outside the package.

``Tracer.install`` rebinds every traced function under every name that a
loaded ``cvdqs`` module holds for it: ``sensing`` binds
``apply_mode_operator`` and ``nla_operator`` by name, ``cli`` binds
``simulate_practical`` by name, ``fock.balanced_splitter`` is reached through
the module, and intra-module calls resolve through module globals, so every
call path is seen.  Nothing under ``src/`` is edited.

A span's self time is its duration minus the time of the spans it encloses.
Counts are exact and, divided by the ops of whole rounds, repeat run to run.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass

CLOSED_FORMS = (
    "delta_alpha_entangled",
    "delta_alpha_product",
    "delta_alpha_ideal_nla",
    "crlb_entangled",
    "crlb_product",
)
_SIMULATE = ("sensing.simulate_practical", "sensing.simulate_no_nla_fock")


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0


class _Frame:
    __slots__ = ("name", "child_s", "split_built")

    def __init__(self, name: str):
        self.name = name
        self.child_s = 0.0
        self.split_built = False


class Tracer:
    def __init__(self):
        self.spans: dict[str, SpanStats] = {}
        self.stack: list[_Frame] = []
        self.state_elems_max = 0
        self.apply_bytes = 0
        self.csv_bytes = 0
        self.checks_failed = 0
        self.split_builds = 0
        self._restore: list[tuple[object, str, object]] = []

    def _targets(self):
        """(span name, module, function name) for every traced function."""
        from cvdqs import cli, fock, gaussian, nla, sensing, validate

        targets = [
            ("fock.apply_mode_operator", fock, "apply_mode_operator"),
            ("fock.balanced_splitter", fock, "balanced_splitter"),
            ("fock.beamsplitter", fock, "beamsplitter"),
            ("fock.sv_fock", fock, "sv_fock"),
            ("fock.loss_kraus_operators", fock, "loss_kraus_operators"),
            ("nla.nla_operator", nla, "nla_operator"),
            ("nla.scissor_kraus", nla, "scissor_kraus"),
            ("sensing.simulate_practical", sensing, "simulate_practical"),
            ("sensing.simulate_no_nla_fock", sensing, "simulate_no_nla_fock"),
            ("cli.main", cli, "main"),
            ("cli.render_csv", cli, "render_csv"),
            ("validate.run_validation_suite", validate, "run_validation_suite"),
        ]
        targets += [("sensing.closed_form", sensing, name) for name in CLOSED_FORMS]
        targets += [
            ("gaussian", gaussian, name)
            for name, fn in vars(gaussian).items()
            if inspect.isfunction(fn) and fn.__module__ == gaussian.__name__ and not name.startswith("_")
        ]
        return targets

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items()) if name == "cvdqs" or name.startswith("cvdqs.")]
        for span, module, attr in self._targets():
            original = getattr(module, attr, None)
            if original is None:
                continue
            self.spans.setdefault(span, SpanStats())
            wrapper = self._wrap(span, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, name, value))
                        setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, value in reversed(self._restore):
            setattr(mod, name, value)
        self._restore.clear()

    def _wrap(self, span: str, fn):
        stats = self.spans[span]
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = _Frame(span)
            if span == "fock.balanced_splitter":
                for outer in stack:
                    if outer.name in _SIMULATE:
                        outer.split_built = True
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1].child_s += elapsed
                stats.calls += 1
                stats.self_s += elapsed - frame.child_s
                if frame.split_built:
                    self.split_builds += 1
            self._count(span, result)
            return result

        return traced

    def _count(self, span: str, result) -> None:
        if span == "fock.apply_mode_operator":
            # the state read has the shape of the state written
            amps = result.amplitudes
            self.state_elems_max = max(self.state_elems_max, amps.size)
            self.apply_bytes += 2 * amps.nbytes
        elif span == "cli.render_csv":
            self.csv_bytes += len(result.encode())
        elif span == "validate.run_validation_suite":
            self.checks_failed += sum(1 for check in result if not check.passed)

    def calls(self, span: str) -> int:
        stats = self.spans.get(span)
        return stats.calls if stats else 0

    def metrics(self, ops: int) -> dict[str, float]:
        """Per-layer metrics per op over the traced rounds (``ops`` of them)."""

        def per_op(value: float) -> float:
            return value / ops

        def stat(span: str) -> SpanStats:
            return self.spans.get(span, SpanStats())

        simulate_calls = sum(stat(span).calls for span in _SIMULATE)
        out = {
            "fock.state_elems_max": float(self.state_elems_max),
            "fock.apply_mode_operator.bytes_computed": per_op(self.apply_bytes),
            "sensing.split_builds": per_op(self.split_builds),
            "sensing.split_reuse_ratio": 1.0 - self.split_builds / simulate_calls if simulate_calls else 0.0,
            "cli.render_csv.bytes": per_op(self.csv_bytes),
            "validate.checks_failed": per_op(self.checks_failed),
        }
        for span in (
            "fock.apply_mode_operator",
            "fock.balanced_splitter",
            "fock.beamsplitter",
            "nla.nla_operator",
            "sensing.simulate_practical",
            "gaussian",
        ):
            out[f"{span}.calls"] = per_op(stat(span).calls)
        for span in (
            "fock.apply_mode_operator",
            "fock.balanced_splitter",
            "fock.beamsplitter",
            "fock.sv_fock",
            "fock.loss_kraus_operators",
            "nla.nla_operator",
            "nla.scissor_kraus",
            "gaussian",
            "sensing.simulate_practical",
            "sensing.simulate_no_nla_fock",
            "sensing.closed_form",
            "cli.main",
            "cli.render_csv",
            "validate.run_validation_suite",
        ):
            out[f"{span}.self_s"] = per_op(stat(span).self_s)
        return out
