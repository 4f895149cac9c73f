"""Span recording around the program's public layer entry points.

The benchmark never edits the program: :func:`install` replaces public
functions and methods of the already-imported ``repro`` modules with
thin wrappers that append ``[name, start, end, parent, attrs]`` records
to a :class:`Recorder`. Spans stay in memory and are written out once,
at the end of a run (:meth:`Recorder.dump`). Parents come from a
context variable, so nesting is correct per thread and per asyncio
task.

Self time of a span is its duration minus the durations of its direct
children; :func:`layer_metrics` sums self times per layer name and
derives the per-layer counts.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Per-layer metrics (name -> unit) the traced run reports, in order.
PER_LAYER_UNITS: Dict[str, str] = {
    "circuits.build_s": "s",
    "circuits.with_value_calls": "count",
    "faults.dictionary_s": "s",
    "sim.transfer_block_s": "s",
    "sim.variants": "count",
    "sim.variant_freqs": "count",
    "ga.run_s": "s",
    "ga.score_s": "s",
    "ga.evaluations": "count",
    "trajectory.build_s": "s",
    "diagnosis.prepare_s": "s",
    "diagnosis.classify_s": "s",
    "diagnosis.rows": "count",
    "diagnosis.rows_per_batch": "count",
    "posterior.build_s": "s",
    "posterior.build_self_s": "s",
    "posterior.worlds": "count",
    "posterior.score_s": "s",
    "posterior.rows": "count",
    "pipeline.self_s": "s",
    "entry.self_s": "s",
    "tracing.overhead_s": "s",
}


class Recorder:
    """In-memory span and counter store shared by every wrapper."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None)

    def _open(self, name: str) -> Tuple[list, contextvars.Token]:
        record = [name, time.perf_counter(), None, self._current.get(), {}]
        self.spans.append(record)
        return record, self._current.set(record)

    def span(self, name: str, fn: Callable,
             attrs: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` so each call records a span named ``name``.

        ``attrs(args, kwargs, result)`` may return a dict stored on the
        span (row counts, variant counts, ...).
        """
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                record, token = self._open(name)
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    record[2] = time.perf_counter()
                    self._current.reset(token)
                if attrs is not None:
                    record[4] = attrs(args, kwargs, result)
                return result
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record, token = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._current.reset(token)
            if attrs is not None:
                record[4] = attrs(args, kwargs, result)
            return result
        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so each call only bumps ``counts[name]`` (for
        calls too frequent to trace one by one)."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def to_json(self) -> dict:
        ids = {id(record): index for index, record in enumerate(self.spans)}
        return {
            "spans": [[name, start, end,
                       None if parent is None else ids[id(parent)], attrs]
                      for name, start, end, parent, attrs in self.spans],
            "counts": dict(self.counts),
        }

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_json(), handle)


# ----------------------------------------------------------------------
# Installing the wrappers
# ----------------------------------------------------------------------
def _patch_function(original: Callable, replacement: Callable) -> None:
    """Rebind ``original`` to ``replacement`` in every loaded ``repro``
    module that imported it by name."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro"
                                  or module_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _patch_method(cls: type, attr: str, wrap: Callable) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(wrap(raw.__func__)))
    else:
        setattr(cls, attr, wrap(raw))


def _rows(args, kwargs, result) -> dict:
    return {"rows": len(result)}


def _variants(args, kwargs, result) -> dict:
    return {"variants": len(result.labels),
            "variant_freqs": len(result.labels) * result.freqs_hz.size}


def install(recorder: Recorder) -> None:
    """Wrap every layer entry point named in the benchmark README."""
    from repro.circuits import components, families, library
    from repro.core import atpg
    from repro.corpus import runner
    from repro.diagnosis import evaluate, posterior
    from repro.faults import dictionary
    from repro.ga import engine as ga_engine
    from repro.ga import fitness
    from repro.runtime import batch, codec, server, service
    from repro.sim import engine as sim_engine
    from repro.trajectory import metrics, trajectory

    span = recorder.span
    functions = [
        (runner.run_corpus, "corpus.run", None),
        (families.generate, "circuits.build", None),
        (library.get_benchmark, "circuits.build", None),
        (metrics.evaluate_metrics, "trajectory.build", None),
        (evaluate.ambiguity_groups, "trajectory.build", None),
        (evaluate.make_test_cases, "diagnosis.prepare", None),
    ]
    for name in ("decode_request", "decode_request_many",
                 "decode_posterior_request", "encode_response",
                 "encode_response_many", "encode_posterior_response",
                 "encode_posterior_response_many"):
        functions.append((getattr(codec, name), "runtime.codec", None))
    for original, name, attrs in functions:
        _patch_function(original, span(name, original, attrs))

    methods = [
        (dictionary.FaultDictionary, "build", "faults.dictionary", None),
        (sim_engine.ScalarMnaEngine, "transfer_block", "sim.transfer_block",
         _variants),
        (sim_engine.BatchedMnaEngine, "transfer_block",
         "sim.transfer_block", _variants),
        (sim_engine.FactoredMnaEngine, "transfer_block",
         "sim.transfer_block", _variants),
        (ga_engine.GeneticAlgorithm, "run", "ga.run",
         lambda args, kwargs, result: {"evaluations": result.evaluations}),
        (fitness.TrajectoryFitness, "score_population", "ga.score", None),
        (trajectory.TrajectorySet, "from_source", "trajectory.build", None),
        (batch.BatchDiagnoser, "signatures", "diagnosis.prepare", None),
        (batch.BatchDiagnoser, "classify_points", "diagnosis.classify",
         _rows),
        (posterior.PosteriorDiagnoser, "from_atpg", "posterior.build",
         lambda args, kwargs, result: {"worlds": result.n_samples}),
        (posterior.PosteriorDiagnoser, "diagnose_points", "posterior.score",
         _rows),
        (atpg.FaultTrajectoryATPG, "run", "pipeline.run", None),
        (service.DiagnosisService, "warm", "runtime.warm", None),
        (server.AsyncDiagnosisService, "submit", "runtime.front", None),
        (server.AsyncDiagnosisService, "submit_many", "runtime.front",
         None),
        (server.AsyncDiagnosisService, "submit_posterior_many",
         "runtime.front", None),
    ]
    for cls, attr, name, attrs in methods:
        _patch_method(cls, attr,
                      lambda fn, name=name, attrs=attrs: span(name, fn,
                                                              attrs))
    _patch_method(components.TwoTerminal, "with_value",
                  lambda fn: recorder.counter("circuits.with_value_calls",
                                              fn))


# ----------------------------------------------------------------------
# Deriving per-layer metrics
# ----------------------------------------------------------------------
def self_times(spans: Sequence[list],
               keep: Optional[Callable[[list], bool]] = None
               ) -> Dict[str, float]:
    """Self seconds per span name from ``[name, start, end, parent,
    attrs]`` records whose parents are indices into ``spans``; with
    ``keep``, only spans it accepts are summed."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, attrs in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals: Dict[str, float] = defaultdict(float)
    for index, span in enumerate(spans):
        if keep is None or keep(span):
            totals[span[0]] += (span[2] - span[1]) - child_time[index]
    return totals


def union_seconds(intervals: Sequence[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    covered, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered


def layer_metrics(spans: Sequence[list], counts: Dict[str, int],
                  entry_self_s: float, overhead_s: float) -> Dict[str, float]:
    """The per-layer metric values of one traced run.

    ``entry_self_s`` and ``overhead_s`` are measured by the workload
    (their definitions differ between the corpus and serving runs).
    """
    selfs = self_times(spans)
    inclusive: Dict[str, float] = defaultdict(float)
    sums: Dict[str, int] = defaultdict(int)
    calls: Dict[str, int] = defaultdict(int)
    for name, start, end, parent, attrs in spans:
        inclusive[name] += end - start
        calls[name] += 1
        # A fallback solve nested in another engine's transfer_block
        # is the same variant work: count outermost sim spans only.
        nested_sim = name == "sim.transfer_block" and parent is not None \
            and spans[parent][0] == "sim.transfer_block"
        if not nested_sim:
            for key, value in attrs.items():
                sums[f"{name}.{key}"] += value
    classify_calls = calls["diagnosis.classify"]
    return {
        "circuits.build_s": selfs["circuits.build"],
        "circuits.with_value_calls": counts.get("circuits.with_value_calls",
                                                0),
        "faults.dictionary_s": selfs["faults.dictionary"],
        "sim.transfer_block_s": selfs["sim.transfer_block"],
        "sim.variants": sums["sim.transfer_block.variants"],
        "sim.variant_freqs": sums["sim.transfer_block.variant_freqs"],
        "ga.run_s": selfs["ga.run"],
        "ga.score_s": selfs["ga.score"],
        "ga.evaluations": sums["ga.run.evaluations"],
        "trajectory.build_s": selfs["trajectory.build"],
        "diagnosis.prepare_s": selfs["diagnosis.prepare"],
        "diagnosis.classify_s": selfs["diagnosis.classify"],
        "diagnosis.rows": sums["diagnosis.classify.rows"],
        "diagnosis.rows_per_batch": (
            sums["diagnosis.classify.rows"] / classify_calls
            if classify_calls else 0.0),
        "posterior.build_s": inclusive["posterior.build"],
        "posterior.build_self_s": (inclusive["posterior.build"]
                                   - _nested_in(spans, "posterior.build",
                                                "sim.transfer_block")),
        "posterior.worlds": sums["posterior.build.worlds"],
        "posterior.score_s": selfs["posterior.score"],
        "posterior.rows": sums["posterior.score.rows"],
        "pipeline.self_s": selfs["pipeline.run"],
        "entry.self_s": entry_self_s,
        "tracing.overhead_s": overhead_s,
    }


def _nested_in(spans: Sequence[list], outer: str, inner: str) -> float:
    """Seconds of outermost ``inner`` spans that run inside an
    ``outer`` span (at any depth)."""
    total = 0.0
    for name, start, end, parent, attrs in spans:
        if name != inner:
            continue
        inside = False
        ancestor = parent
        while ancestor is not None:
            ancestor_name = spans[ancestor][0]
            if ancestor_name == inner:
                break               # counted at the outer sim span
            if ancestor_name == outer:
                inside = True
                break
            ancestor = spans[ancestor][3]
        if inside:
            total += end - start
    return total


def layer_table(spans: Sequence[list], wall_s: float,
                keep: Optional[Callable[[list], bool]] = None) -> List[str]:
    """Human-readable self-time table (one line per span name)."""
    selfs = self_times(spans, keep)
    lines = []
    for name, seconds in sorted(selfs.items(), key=lambda kv: -kv[1]):
        share = seconds / wall_s if wall_s > 0 else 0.0
        lines.append(f"  {name:<22} {seconds:10.4f} s  {share:7.2%}")
    return lines
