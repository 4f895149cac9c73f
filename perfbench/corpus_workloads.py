"""``corpus_baseline`` and ``corpus_paper``: whole corpus passes through
:func:`repro.corpus.runner.run_corpus`, with no artifact store.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Tuple

import numpy as np

import harness
import layers
import refsolver

#: corpus_paper matrix: (family, size), three circuits each, larger than
#: the family defaults (5 / 5 / 2 / 6), fault targets capped at eight.
PAPER_FAMILIES: Tuple[Tuple[str, int], ...] = (
    ("rc_ladder", 8), ("lc_ladder", 7), ("biquad_chain", 3),
    ("random_topology", 9))
PAPER_PER_FAMILY = 3

#: Set-up is sampled this many times per run (fresh interpreters of
#: about 0.7 s each; with 3 the median spread up to 34 % across runs).
PROBE_SAMPLES = 15

#: Largest relative difference allowed between the program's fault
#: dictionary and the independent solver.
DICTIONARY_RTOL = 1e-9
#: Largest difference counted as the known deep-stopband precision loss
#: of circuits with inductors (``FOUND:`` in CHANGES.md) rather than a
#: wrong output.
KNOWN_DICTIONARY_RTOL = 1e-7


def spec_for(workload: str):
    from repro.core.config import PipelineConfig
    from repro.corpus.spec import CorpusSpec, FamilySpec
    from repro.diagnosis.posterior import PosteriorConfig
    if workload == "corpus_baseline":
        return CorpusSpec.baseline()
    return CorpusSpec(
        name="paper",
        families=tuple(FamilySpec(family, count=PAPER_PER_FAMILY,
                                  size=size, max_targets=8)
                       for family, size in PAPER_FAMILIES),
        pipeline=PipelineConfig.paper(),
        posterior=PosteriorConfig(n_samples=4, tolerance=0.03,
                                  samples_per_block=4))


def check_circuits(spec) -> Tuple[str, ...]:
    """Names of the circuits the reference check covers: the first
    circuit of each family."""
    from repro.circuits.families import generate
    return tuple(generate(family.family, family.seeds[0],
                          size=family.effective_size).circuit.name
                 for family in spec.families)


def capture_results(names) -> Dict[str, object]:
    """Keep the pipeline result of each named circuit as the runner
    produces it (the output checks read them after the pass)."""
    from repro.core.atpg import FaultTrajectoryATPG
    captured: Dict[str, object] = {}
    run_pipeline = FaultTrajectoryATPG.run

    def run_and_keep(self, *args, **kwargs):
        result = run_pipeline(self, *args, **kwargs)
        if self.info.circuit.name in names:
            captured[self.info.circuit.name] = result
        return result

    FaultTrajectoryATPG.run = run_and_keep
    return captured


def corpus_pass(spec) -> Tuple[dict, float, List[float]]:
    """One whole pass: ``(report, wall seconds, per-circuit seconds)``.

    Circuit boundaries come from the runner's own progress callback,
    which it calls as each circuit starts.
    """
    from repro.corpus import runner
    starts: List[float] = []
    started = time.perf_counter()
    report = runner.run_corpus(
        spec, log=lambda message: starts.append(time.perf_counter()))
    ended = time.perf_counter()
    per_circuit = [b - a for a, b in zip(starts, starts[1:] + [ended])]
    return report, ended - started, per_circuit


def run(bench: harness.Run) -> Dict[str, tuple]:
    spec = spec_for(bench.workload)
    checked = check_circuits(spec)
    captured = capture_results(checked)
    passes: List[Tuple[dict, Dict[str, object]]] = []
    if not bench.trace:
        setup_s = harness.setup_probe_seconds(bench, bench.workload,
                                              PROBE_SAMPLES)
        walls: List[float] = []
        per_circuit: List[float] = []
        # Whole passes only, as many as fill --seconds best (at least
        # one): the count is far from a rounding edge for both corpora,
        # so every run makes the same number of passes.
        while True:
            report, wall, per = corpus_pass(spec)
            passes.append((report, dict(captured)))
            walls.append(wall)
            per_circuit.extend(per)
            if len(walls) >= max(1, round(bench.seconds / walls[0])):
                break
        peak = harness.peak_rss_mb_self()
        completed = sum(r["results"]["completed"] for r, _ in passes)
        metrics = {
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak, "MiB"),
            "throughput_per_s": (completed / sum(walls), "1/s"),
            "latency_p50_ms": (harness.median(per_circuit) * 1e3, "ms"),
        }
        print(f"perfbench: {bench.workload}: {len(walls)} pass(es), "
              f"{completed} circuits in {sum(walls):.3f} s; per circuit "
              f"p50 {harness.median(per_circuit) * 1e3:.1f} ms; set-up "
              f"{setup_s:.3f} s")
        for family, figures in passes[0][0]["results"]["per_family"].items():
            print(f"perfbench: {family}: hard accuracy "
                  f"{figures['accuracy_mean']:.3f}, posterior accuracy "
                  f"{figures['posterior_accuracy_mean']:.3f} "
                  f"({figures['n_circuits']} circuits)")
    else:
        _, plain_wall, _ = corpus_pass(spec)
        recorder = layers.Recorder()
        layers.install(recorder)
        report, traced_wall, _ = corpus_pass(spec)
        passes.append((report, dict(captured)))
        trace = recorder.to_json()
        spans = trace["spans"]
        entry_self = layers.self_times(spans)["corpus.run"]
        metrics_values = layers.layer_metrics(
            spans, trace["counts"], entry_self, traced_wall - plain_wall)
        trace.update(workload=bench.workload, seed=bench.seed,
                     plain_wall_s=plain_wall, traced_wall_s=traced_wall)
        path = harness.OUT_DIR / f"trace_{bench.workload}_s{bench.seed}.json"
        path.write_text(json.dumps(trace))
        print(f"perfbench: trace written to {path.relative_to(harness.ROOT)}"
              f" ({len(spans)} spans)")
        print(f"perfbench: plain {plain_wall:.3f} s, traced "
              f"{traced_wall:.3f} s, overhead "
              f"{traced_wall - plain_wall:+.3f} s")
        print(f"perfbench: named layers cover "
              f"{1 - entry_self / traced_wall:.2%} of the traced run "
              f"(corpus.self_s {entry_self:.3f} s); self seconds:")
        for line in layers.layer_table(spans, traced_wall):
            print(line)
        metrics = {name: (value, layers.PER_LAYER_UNITS[name])
                   for name, value in metrics_values.items()}
    for report, results in passes:
        check_report(bench, spec, report)
        check_against_reference(bench, checked, results)
    return metrics


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def check_report(bench: harness.Run, spec, report: dict) -> None:
    """Report invariants: every circuit completes; ``n_faults`` equals
    targets x deviations; the test vector has ``num_frequencies``
    distinct frequencies inside the circuit's band."""
    from repro.circuits.families import generate
    results = report["results"]
    bench.attempted += spec.total_circuits
    for failure in results["failures"]:
        bench.fail(f"circuit {failure['family']}[seed={failure['seed']}] "
                   f"raised: {failure['error']}")
    n_deviations = len(spec.pipeline.deviations)
    sizes = {family.family: family.effective_size
             for family in spec.families}
    for record in results["circuits"]:
        where = f"{record['family']}[seed={record['seed']}]"
        info = generate(record["family"], record["seed"],
                        size=sizes[record["family"]])
        freqs = record["test_vector_hz"]
        problems = []
        if info.circuit.content_hash() != record["content_hash"]:
            problems.append("regenerated circuit differs")
        if record["n_faults"] != record["n_components"] * n_deviations:
            problems.append(f"n_faults {record['n_faults']} != "
                            f"{record['n_components']} x {n_deviations}")
        if len(freqs) != spec.pipeline.num_frequencies or \
                len(set(freqs)) != len(freqs):
            problems.append(f"test vector {freqs} is not "
                            f"{spec.pipeline.num_frequencies} distinct "
                            "frequencies")
        # The record rounds to 9 significant digits; allow that much.
        low, high = info.f_min_hz * (1 - 1e-8), info.f_max_hz * (1 + 1e-8)
        if not all(low <= f <= high for f in freqs):
            problems.append(f"test vector {freqs} leaves the band "
                            f"[{info.f_min_hz}, {info.f_max_hz}]")
        if problems:
            bench.fail(f"{where}: " + "; ".join(problems),
                       wrong_output=True)


def check_against_reference(bench: harness.Run, checked: Tuple[str, ...],
                            results: Dict[str, object]) -> None:
    """Reference checks of the first circuit of each family.

    One operation is its fault dictionary: at the test vector it must
    match the independent solver within DICTIONARY_RTOL, and its
    trajectory points must match independently computed signatures.
    One more operation per exact dictionary point (trajectory vertex):
    it must be diagnosed at distance ~0, never below the benchmark's own
    point-to-polyline distance to the named trajectory.

    Two failures are program faults recorded in CHANGES.md (``FOUND:``)
    and fail their operation on every run without making the output
    wrong: a vertex diagnosed away from distance 0, and a dictionary of
    a circuit with inductors off by at most KNOWN_DICTIONARY_RTOL. Any
    other problem is a wrong output.
    """
    for name in sorted(checked):
        result = results.get(name)
        if result is None:
            bench.attempted += 1
            bench.fail(f"{name}: no pipeline result", wrong_output=True)
            continue
        try:
            signatures = _reference_signatures(result)
            _check_dictionary(bench, name, result, signatures)
            _check_vertices(bench, name, result, signatures)
        except Exception as exc:     # noqa: BLE001 -- reported, not fatal
            bench.attempted += 1
            bench.fail(f"{name}: check raised {type(exc).__name__}: {exc}",
                       wrong_output=True)


def _reference_signatures(result) -> Dict[Tuple[str, float], np.ndarray]:
    """Reference signature (faulty minus golden dB row at the test
    vector) of every trajectory point, keyed ``(component, deviation)``."""
    info = result.info
    vector = np.asarray(result.test_vector_hz, dtype=float)
    golden = harness.reference_row(info, None, 0.0, vector)
    return {(t.component, deviation): harness.reference_row(
                info, t.component, deviation, vector) - golden
            for t in result.trajectories for deviation in t.deviations}


def _check_dictionary(bench: harness.Run, name: str, result,
                      signatures) -> None:
    from repro.faults.dictionary import FaultDictionary
    bench.attempted += 1
    info = result.info
    elements = harness.to_elements(info.circuit)
    source, output = info.input_source, info.output_node
    freqs = np.array(sorted(result.test_vector_hz), dtype=float)
    dictionary = FaultDictionary.build(result.universe, output, freqs,
                                       input_source=source)
    expected = refsolver.ac_transfer(elements, output, source, freqs)
    worst = harness.relative_error(dictionary.golden.values, expected)
    for entry in dictionary.entries:
        faulty = refsolver.scaled(elements, entry.fault.component,
                                  1.0 + entry.fault.deviation)
        expected = refsolver.ac_transfer(faulty, output, source, freqs)
        worst = max(worst, harness.relative_error(entry.response.values,
                                                  expected))
    off = [f"{t.component}@{deviation:+g}"
           for t in result.trajectories
           for deviation, point in zip(t.deviations, t.points)
           if not np.max(np.abs(point - signatures[t.component, deviation]))
           <= harness.POINT_ATOL]
    if off:
        bench.fail(f"{name}: trajectory points off the reference "
                   f"signature: {', '.join(off[:3])}", wrong_output=True)
    elif worst > DICTIONARY_RTOL:
        inductors = any(element[0] == "L" for element in elements)
        known = inductors and worst <= KNOWN_DICTIONARY_RTOL
        bench.fail(f"{name}: dictionary differs from the reference solver "
                   f"by {worst:.3g} (relative)", wrong_output=not known)


def _check_vertices(bench: harness.Run, name: str, result,
                    signatures) -> None:
    keys = [key for key in signatures if key[1] != 0.0]
    vertices = [signatures[key] for key in keys]
    owners = [f"{component}@{deviation:+g}" for component, deviation in keys]
    bench.attempted += len(vertices)
    polylines = {t.component: t.points for t in result.trajectories}
    undercut: List[str] = []
    misdiagnosed: List[str] = []
    for point, owner, diagnosis in zip(
            vertices, owners, result.diagnose_points(np.array(vertices))):
        own = refsolver.point_polyline_distance(
            point, polylines[diagnosis.component])
        if diagnosis.distance < own - harness.POINT_ATOL:
            undercut.append(f"{owner}: distance {diagnosis.distance:.6g} "
                            f"to {diagnosis.component} undercuts the "
                            f"reference {own:.6g}")
        elif not abs(diagnosis.distance) <= harness.POINT_ATOL:
            misdiagnosed.append(f"{owner} as {diagnosis.component} at "
                                f"{diagnosis.distance:.4g}")
    if undercut:
        bench.fail(f"{name}: " + "; ".join(undercut[:3]),
                   count=len(undercut), wrong_output=True)
    if misdiagnosed:
        bench.fail(f"{name}: {len(misdiagnosed)} of {len(vertices)} exact "
                   f"dictionary points diagnosed away from distance 0, "
                   f"e.g. " + ", ".join(misdiagnosed[:2]),
                   count=len(misdiagnosed))
