"""Spans around calls into pbvoting's public functions, recorded from outside.

The library is not edited. ``instrument`` swaps a module attribute for a
timing wrapper for the length of a ``with`` block, at the module where the
caller looks the name up: ``bench.solve_av`` is what ``run_experiment``
calls, ``sequential.solve_pav`` is what ``rule_x_pav`` calls. Spans stay in
memory; ``layer_metrics`` turns them into per-layer self times and counts.

A span's self time is its duration minus the durations of its child spans,
so the self times of all spans add up to the time spent inside root spans.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional, Union

from pbvoting import bench, datagen, fairness, pabulib, sequential
from pbvoting.exact import SearchBudgetExceeded


@dataclass
class Span:
    name: str
    parent: Optional[int]
    start: float = 0.0
    end: float = 0.0
    outcome: object = None  # "exceeded", an EJR status, or parsed bytes


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, fn: Callable, name: Union[str, Callable],
             outcome: Optional[Callable] = None) -> Callable:
        def traced(*args, **kwargs):
            span = Span(name(*args) if callable(name) else name,
                        self._open[-1] if self._open else None)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except SearchBudgetExceeded:
                span.outcome = "exceeded"
                raise
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if outcome is not None:
                span.outcome = outcome(args, result)
            return result
        return traced


def _status(args, verdict):
    return verdict.status


def _text_bytes(args, parsed):
    return len(args[0].encode("utf-8"))


# (module, attribute, span name, outcome); the span name is also the layer
# metric's name without its "_s" suffix, except where _METRIC_OF says.
_POINTS = (
    (bench, "run_experiment", "bench.run_experiment", None),
    (bench, "run_rule", "bench.run_rule", None),
    (bench, "aggregate", "bench.aggregate", None),
    (bench, "optimum_value", lambda objective, *_: f"exact.optimum_{objective}",
     None),
    (bench, "solve_av", "exact.solve_av", None),
    (bench, "solve_cc", "exact.solve_cc", None),
    (bench, "solve_pav", "exact.solve_pav", None),
    (sequential, "solve_pav", "exact.solve_pav", None),
    (bench, "seq_pav", "sequential.seq_pav", None),
    (bench, "rule_x", "sequential.rule_x", None),
    (sequential, "rule_x", "sequential.rule_x", None),
    (bench, "rule_x_eps", "sequential.rule_x_eps", None),
    (bench, "rule_x_pav", "sequential.rule_x_pav", None),
    (bench, "find_ejr_violation", "fairness.ejr", _status),
    (fairness, "find_ejr_violation", "fairness.ejr", _status),
    (bench, "social_welfare", "core.score", None),
    (bench, "representation", "core.score", None),
    (bench, "generate", "datagen.generate", None),
    (datagen, "gen_euclidean", "datagen.generate", None),
    (pabulib, "parse_pb", "pabulib.parse", _text_bytes),
)

_METRIC_OF = {
    "bench.run_experiment": "bench.self_s",
    "bench.run_rule": "bench.self_s",
    "sequential.rule_x_pav": "sequential.rule_x_pav_self_s",
}

SELF_TIMES = (
    "exact.optimum_sw_s", "exact.optimum_rp_s", "exact.solve_av_s",
    "exact.solve_cc_s", "exact.solve_pav_s", "sequential.rule_x_s",
    "sequential.rule_x_eps_s", "sequential.seq_pav_s",
    "sequential.rule_x_pav_self_s", "fairness.ejr_s", "pabulib.parse_s",
    "datagen.generate_s", "core.score_s", "bench.self_s", "bench.aggregate_s",
)


@contextmanager
def instrument(tracer: Tracer):
    """Route the library calls listed in _POINTS through ``tracer``."""
    saved = []
    try:
        for module, attr, name, outcome in _POINTS:
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(fn, name, outcome))
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer self times (s) and counts, as ``name -> (value, unit)``."""
    duration = [s.end - s.start for s in spans]
    child = [0.0] * len(spans)
    root = list(range(len(spans)))
    for i, s in enumerate(spans):
        if s.parent is not None:  # a parent is always recorded first
            child[s.parent] += duration[i]
            root[i] = root[s.parent]

    out = {name: [0.0, "s"] for name in SELF_TIMES}
    for i, s in enumerate(spans):
        out[_METRIC_OF.get(s.name, s.name + "_s")][0] += duration[i] - child[i]

    # tie enumeration: solve_av/solve_cc minus the optimum search of the same
    # objective that run_experiment makes on the same instance
    per_root: dict[tuple[int, str], float] = {}
    for i, s in enumerate(spans):
        key = (root[i], s.name)
        per_root[key] = per_root.get(key, 0.0) + duration[i]
    for metric, solve, optimum in (("exact.av_ties_s", "solve_av", "optimum_sw"),
                                   ("exact.cc_ties_s", "solve_cc", "optimum_rp")):
        out[metric] = [sum(
            per_root[r, "exact." + solve] - per_root[r, "exact." + optimum]
            for r in {r for r, n in per_root if n == "exact." + solve}
            if (r, "exact." + optimum) in per_root), "s"]

    def count(pred):
        return [sum(1 for s in spans if pred(s)), "count"]

    out["exact.calls"] = count(lambda s: s.name.startswith("exact."))
    out["exact.exceeded"] = count(lambda s: s.outcome == "exceeded")
    out["fairness.ejr_calls"] = count(lambda s: s.name == "fairness.ejr")
    for status in ("satisfied", "violated", "unknown"):
        out[f"fairness.{status}"] = count(
            lambda s, status=status: s.name == "fairness.ejr"
            and s.outcome == status)
    out["pabulib.parse_bytes"] = [sum(
        s.outcome for s in spans if s.name == "pabulib.parse"), "bytes"]
    return {name: (value, unit) for name, (value, unit) in out.items()}
