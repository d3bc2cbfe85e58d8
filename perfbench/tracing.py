"""Spans and counters around the public functions of each d2dpa module.

The tracer wraps functions by name from outside the package: it replaces
every binding of a traced function in the ``d2dpa`` modules (the defining
module and each module that imported it by name) with a wrapper that records
a span, and restores the originals on exit.  Nothing under ``src/`` changes.

A span is ``[name, start, end, parent, op]``: its function, perf_counter
times, the index of the enclosing span (-1 at the top) and the op id that
was running (-1 during set-up).  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

# (span name, attribute, modules to look it up in; the first that has it wins).
# The span name's prefix is the layer.  `fd_nosic_search` is looked up in
# `_fast` first because the solvers call it through that dispatch module.
# The model's one-line helpers (shannon_rate, pu_min, rate_floor_snr) are
# left out: a span would cost more than their body, so their time counts as
# the caller's self time.
TRACED = [
    ("sim.run_campaign", "run_campaign", ("d2dpa.sim",)),
    ("sim.run_trial", "run_trial", ("d2dpa.sim",)),
    ("sim.generate_deployment", "generate_deployment", ("d2dpa.sim",)),
    ("sim.gains_from_deployment", "gains_from_deployment", ("d2dpa.sim",)),
    ("sim.build_rate_tables", "build_rate_tables", ("d2dpa.sim",)),
    ("solvers.solve_all", "solve_all", ("d2dpa.solvers",)),
    ("solvers.solve_fd_nosic", "solve_fd_nosic", ("d2dpa.solvers",)),
    ("solvers.solve_hd_nosic", "solve_hd_nosic", ("d2dpa.solvers",)),
    ("solvers.solve_hd_sic", "solve_hd_sic", ("d2dpa.solvers",)),
    ("solvers.solve_fd_sic", "solve_fd_sic", ("d2dpa.solvers",)),
    ("fdnosic.fd_nosic_search", "fd_nosic_search", ("d2dpa._fast", "d2dpa.fdnosic")),
    ("fdsic.solve_fd_sic_order", "solve_fd_sic_order", ("d2dpa.fdsic",)),
    ("fdsic.sufficient_feasibility", "sufficient_feasibility", ("d2dpa.fdsic",)),
    ("fdsic.segment_set", "segment_set", ("d2dpa.fdsic",)),
    ("fdsic.optimize_box_side", "optimize_box_side", ("d2dpa.fdsic",)),
    ("fdsic.optimize_su_side", "optimize_su_side", ("d2dpa.fdsic",)),
    ("fdsic.validate_sic_point", "validate_sic_point", ("d2dpa.fdsic",)),
    ("assignment.hungarian_max", "hungarian_max", ("d2dpa.assignment",)),
    ("assignment.lsa", "linear_sum_assignment", ("d2dpa.assignment",)),
    ("model.scenario_rates", "scenario_rates", ("d2dpa.model",)),
    ("model.fd_nosic_rates", "fd_nosic_rates", ("d2dpa.model",)),
    ("model.fd_sic_d2d_rate", "fd_sic_d2d_rate", ("d2dpa.model",)),
]

LAYERS = ("sim", "solvers", "fdnosic", "fdsic", "assignment", "model")
SCHEMES = ("solve_fd_nosic", "solve_hd_nosic", "solve_hd_sic", "solve_fd_sic")


def _probe_pretest(counts: Counter, name: str, result) -> None:
    counts[name + ".passed"] += bool(result)


def _probe_solution(counts: Counter, name: str, result) -> None:
    counts[name + ".infeasible"] += not result.feasible
    counts[name + ".sic"] += bool(result.sic_applied)


def _probe_assignment(counts: Counter, name: str, result) -> None:
    counts[name + ".rows"] += len(result[0].pair_to_cu)


PROBES = {
    "fdsic.sufficient_feasibility": _probe_pretest,
    "assignment.hungarian_max": _probe_assignment,
    **{f"solvers.{s}": _probe_solution for s in SCHEMES},
}


class Tracer:
    """Records spans and counts while installed; ``op`` tags new spans."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._sites: list[tuple[object, str, object, object]] = []
        modules = [
            m for n, m in sys.modules.items() if m is not None and (n == "d2dpa" or n.startswith("d2dpa."))
        ]
        for name, attr, homes in TRACED:
            original = None
            for home in homes:
                try:
                    original = getattr(importlib.import_module(home), attr, None)
                except ImportError:
                    continue
                if original is not None:
                    break
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._sites.append((module, key, original, wrapper))

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        probe = PROBES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span[2] = clock()
                stack.pop()
                counts[name + ".raised"] += 1
                raise
            span[2] = clock()
            stack.pop()
            if probe is not None:
                probe(counts, name, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        for module, key, _, wrapper in self._sites:
            setattr(module, key, wrapper)
        try:
            yield self
        finally:
            for module, key, original, _ in self._sites:
                setattr(module, key, original)

    def write(self, path, header: dict) -> None:
        """Write the spans as gzipped JSON lines: a header, then one span a line
        with times in microseconds from the first span."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            fields = ["name", "start_us", "end_us", "parent", "op"]
            out.write(json.dumps({**header, "names": names, "fields": fields}) + "\n")
            for name, start, end, parent, op in self.spans:
                out.write(
                    f"[{index[name]},{(start - t0) * 1e6:.3f},{(end - t0) * 1e6:.3f},{parent},{op}]\n"
                )

    def layer_metrics(self, n_ops: int, n_setup: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}.

        Times and call counts are per op: spans of the timed ops are divided
        by ``n_ops`` and spans recorded during set-up by ``n_setup``, the
        number of inputs set-up built (on assign_dense, the tables that the
        ops solve).  Ratios and error counts are over the whole run and are
        0 where nothing was attempted.
        """
        child = [0.0] * len(self.spans)
        for start, end, parent in ((s[1], s[2], s[3]) for s in self.spans):
            if parent >= 0:
                child[parent] += end - start
        # Sums per (name, phase): phase 0 is the timed ops, phase 1 set-up.
        time_sum, own_sum, call_sum = defaultdict(float), defaultdict(float), defaultdict(int)
        for i, (name, start, end, _, op) in enumerate(self.spans):
            key = (name, int(op < 0))
            time_sum[key] += end - start
            own_sum[key] += end - start - child[i]
            call_sum[key] += 1
        divisor = (n_ops, max(n_setup, 1))

        def per_op(sums, name: str) -> float:
            return sum(sums[(name, phase)] / divisor[phase] for phase in (0, 1))

        def ms(name: str) -> tuple[float, str]:
            return per_op(time_sum, name) * 1e3, "ms/op"

        def self_ms(name: str) -> tuple[float, str]:
            return per_op(own_sum, name) * 1e3, "ms/op"

        def calls(name: str) -> int:
            return call_sum[(name, 0)] + call_sum[(name, 1)]

        def ratio(num: float, den: float) -> tuple[float, str]:
            return (num / den if den else 0.0), "ratio"

        c = self.counts
        kernel = "fdnosic.fd_nosic_search"
        out: dict[str, tuple[float, str]] = {
            kernel + ".ms": ms(kernel),
            kernel + ".calls": (per_op(call_sum, kernel), "calls/op"),
            kernel + ".us_per_call": (
                (time_sum[(kernel, 0)] + time_sum[(kernel, 1)]) / max(calls(kernel), 1) * 1e6,
                "us",
            ),
            "fdsic.solve_fd_sic_order.ms": ms("fdsic.solve_fd_sic_order"),
            "fdsic.solve_fd_sic_order.calls": (per_op(call_sum, "fdsic.solve_fd_sic_order"), "calls/op"),
            "fdsic.segment_set.ms": ms("fdsic.segment_set"),
            "fdsic.pretest_pass_ratio": ratio(
                c["fdsic.sufficient_feasibility.passed"], calls("fdsic.sufficient_feasibility")
            ),
            "fdsic.validate_fail_ratio": ratio(
                c["fdsic.validate_sic_point.raised"], calls("fdsic.validate_sic_point")
            ),
            "fdsic.geometry_errors": (float(c["fdsic.solve_fd_sic_order.raised"]), "count"),
        }
        for scheme in SCHEMES:
            name = "solvers." + scheme
            out[name + ".ms"] = ms(name)
            out[name + ".infeasible_ratio"] = ratio(c[name + ".infeasible"], calls(name))
        out["solvers.solve_fd_nosic.self_ms"] = self_ms("solvers.solve_fd_nosic")
        out["solvers.solve_fd_sic.sic_won_ratio"] = ratio(
            c["solvers.solve_fd_sic.sic"], calls("solvers.solve_fd_sic")
        )
        out["sim.build_rate_tables.self_ms"] = self_ms("sim.build_rate_tables")
        out["sim.generate_deployment.ms"] = ms("sim.generate_deployment")
        out["sim.gains_from_deployment.ms"] = ms("sim.gains_from_deployment")
        lsa = calls("assignment.lsa")
        out["assignment.hungarian_max.ms"] = ms("assignment.hungarian_max")
        out["assignment.lsa_calls_per_table"] = (
            ratio(lsa, calls("assignment.hungarian_max"))[0], "calls"
        )
        out["assignment.lsa.ms"] = ms("assignment.lsa")
        # One solve for the optimum plus one confirming solve per row but the
        # last, whose confirmation needs none: D needed solves per D-row table.
        out["assignment.tiebreak_useful_ratio"] = ratio(c["assignment.hungarian_max.rows"], lsa)
        out["model.scenario_rates.ms"] = ms("model.scenario_rates")
        for layer in LAYERS:
            spans = {name for name, _ in own_sum if name.startswith(layer + ".")}
            out[layer + ".self_ms"] = (sum(self_ms(name)[0] for name in spans), "ms/op")
        return out
