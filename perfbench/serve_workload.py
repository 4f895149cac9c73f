"""``serve_mixed``: ``repro-serve`` (default paper preset) warming four
registry circuits, driven in a closed loop by this process over one
keep-alive HTTP connection.

Client and server share the one CPU run.py pins the run to: split
across two CPUs, cross-CPU wake-ups dominated the latency tail (see
README).
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

import harness
import layers
import refsolver

#: Warmed circuits; four fit the server's default four-engine LRU, so
#: no request re-warms an engine inside the timed phase.
CIRCUITS = ("tow_thomas_biquad", "sallen_key_lowpass", "mfb_bandpass",
            "lc_ladder_lowpass5")
#: One round of requests: 10 seeded -- 8 hard (``d1``/``d4``:
#: /v1/diagnose with 1 or 4 rows, ``many``: a /v1/diagnose-many burst)
#: and 2 posterior -- then ``dict``: /v1/diagnose with the dictionary
#: faults of the paper's CUT at both ends of the deviation grid, the
#: same request each round.
ROUND = ("d1", "d4", "d1", "post", "d1", "many", "d4", "d1", "post", "d4",
         "dict")
PATHS = {"d1": "/v1/diagnose", "d4": "/v1/diagnose", "dict": "/v1/diagnose",
         "many": "/v1/diagnose-many", "post": "/v1/diagnose-posterior"}
CUT = "tow_thomas_biquad"
#: Distinct rounds of seeded requests; the timed phase cycles through
#: them, so every request is sent many times and the answers to
#: identical requests can be compared byte for byte.
DISTINCT_ROUNDS = 20
#: Off-grid fault deviations drawn per fault target for seeded rows.
OFF_GRID_PER_TARGET = 4
#: Set-up is sampled this many times per run (server spawns of about
#: 5 s each).
SERVER_SPAWNS = 3
PROBABILITY_ATOL = 1e-9
HEADERS = {"Content-Type": "application/json"}


class Server:
    """One spawned ``repro-serve`` process and its client connection."""

    def __init__(self, bench: harness.Run,
                 trace_out: Optional[str] = None) -> None:
        argv = [sys.executable, str(harness.BENCH_DIR / "serve_launcher.py")]
        if trace_out is not None:
            argv += ["--trace-out", trace_out]
        argv += ["--", "--port", "0"]
        for circuit in CIRCUITS:
            argv += ["--warm", circuit]
        self.log = open(bench.tmp / "server.log", "ab")
        self.started = time.perf_counter()
        self.proc = bench.spawn(argv, stdout=subprocess.PIPE,
                                stderr=self.log)
        line = harness.wait_line(self.proc, "REPRO-SERVE LISTENING", 120.0)
        host, port = line.split()[-2:]
        self.conn = http.client.HTTPConnection(host, int(port), timeout=120)
        self.rusage = None

    def call(self, method: str, path: str,
             body: Optional[bytes] = None) -> Tuple[int, bytes]:
        self.conn.request(method, path, body=body, headers=HEADERS)
        response = self.conn.getresponse()
        return response.status, response.read()

    def stop(self) -> None:
        """SIGINT (the CLI's graceful shutdown), then reap with rusage."""
        self.conn.close()
        self.proc.stdout.close()
        self.proc.send_signal(signal.SIGINT)
        deadline = time.monotonic() + 30.0
        while True:
            pid, status, rusage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.proc.kill()
                pid, status, rusage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.02)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.rusage = rusage
        self.log.close()


# ----------------------------------------------------------------------
# Inputs: measurement rows from the independent solver
# ----------------------------------------------------------------------
class CircuitRows:
    """Measurement rows of one circuit, from the independent solver.

    A row is the dB magnitude response of a single-fault circuit at the
    served test vector (ascending frequency); its signature point is
    the row minus the golden row. ``polylines`` are the fault
    trajectories through the dictionary grid, built the same way.
    """

    def __init__(self, name: str, test_vector: List[float],
                 rng: random.Random) -> None:
        from repro.circuits.library import get_benchmark
        from repro.core.config import PipelineConfig
        info = get_benchmark(name)
        self.targets = frozenset(info.faultable)
        freqs = np.asarray(test_vector, dtype=float)

        def row(component: Optional[str], deviation: float) -> np.ndarray:
            return harness.reference_row(info, component, deviation, freqs)

        golden = row(None, 0.0)
        grid = sorted(PipelineConfig.paper().deviations + (0.0,))
        self.polylines = {
            component: np.array([row(component, d) - golden for d in grid])
            for component in info.faultable}
        #: Dictionary faults at both ends of the deviation grid: outer
        #: trajectory vertices, at distance ~0 from their trajectory.
        self.vertices = [(row(component, d).tolist(),
                          row(component, d) - golden)
                         for component in info.faultable
                         for d in (grid[0], grid[-1])]
        #: Seeded traffic: faults off the dictionary grid.
        self.pool = []
        for component in info.faultable:
            for _ in range(OFF_GRID_PER_TARGET):
                faulty = row(component, rng.uniform(-0.4, 0.4))
                self.pool.append((faulty.tolist(), faulty - golden))

    def pick(self, rng: random.Random, count: int) -> Tuple[list, list]:
        chosen = [self.pool[rng.randrange(len(self.pool))]
                  for _ in range(count)]
        return [r for r, _ in chosen], [p for _, p in chosen]


def build_requests(rows: Dict[str, "CircuitRows"], seed: int
                   ) -> List[tuple]:
    """``(kind, path, body, expect)`` per request of DISTINCT_ROUNDS
    rounds; ``expect`` lists ``(circuit, points)`` per sub-request.

    Each request kind visits every circuit equally often (in a seeded
    order), so seeds change the rows but not the per-circuit mix.
    """
    rng = random.Random(seed * 7919 + 1)
    dictionary = rows[CUT].vertices
    dict_body = json.dumps({"circuit": CUT, "magnitudes_db":
                            [r for r, _ in dictionary]}).encode()
    circuit_orders = {}
    for kind in ("d1", "d4", "post"):
        order = list(CIRCUITS) * (ROUND.count(kind) * DISTINCT_ROUNDS
                                  // len(CIRCUITS))
        rng.shuffle(order)
        circuit_orders[kind] = iter(order)
    requests = []
    for _ in range(DISTINCT_ROUNDS):
        for kind in ROUND:
            if kind == "dict":
                requests.append((kind, PATHS[kind], dict_body,
                                 [(CUT, [p for _, p in dictionary])]))
                continue
            if kind == "many":
                items, expect = [], []
                for circuit in rng.sample(CIRCUITS, len(CIRCUITS)):
                    matrix, points = rows[circuit].pick(rng, 1)
                    items.append({"circuit": circuit,
                                  "magnitudes_db": matrix})
                    expect.append((circuit, points))
                body = {"requests": items}
            else:
                circuit = next(circuit_orders[kind])
                matrix, points = rows[circuit].pick(
                    rng, 4 if kind == "d4" else 1)
                body = {"circuit": circuit, "magnitudes_db": matrix}
                expect = [(circuit, points)]
            requests.append((kind, PATHS[kind],
                             json.dumps(body).encode(), expect))
    return requests


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def answer_problems(kind: str, payload: bytes, expect: List[tuple],
                    rows: Dict[str, CircuitRows]
                    ) -> Tuple[List[str], List[str]]:
    """``(wrong, vertex)`` problems with one answer: ``wrong`` breaks a
    property every answer must have; ``vertex`` is a dictionary fault
    diagnosed away from distance ~0 (the known classifier fault)."""
    obj = json.loads(payload)
    wrong: List[str] = []
    vertex: List[str] = []
    if kind == "post":
        (circuit, points), = expect
        posteriors = obj["posteriors"]
        if len(posteriors) != len(points):
            return [f"{len(posteriors)} posteriors for {len(points)} "
                    "rows"], vertex
        for posterior in posteriors:
            probabilities = [p for _, p in posterior["probabilities"]]
            if not all(0.0 <= p <= 1.0 for p in probabilities):
                wrong.append(f"{circuit}: probability outside [0, 1]")
            if abs(sum(probabilities) - 1.0) > PROBABILITY_ATOL:
                wrong.append(f"{circuit}: probabilities sum to "
                             f"{sum(probabilities)!r}")
        return wrong, vertex
    batches = obj["batches"] if kind == "many" else [obj["diagnoses"]]
    if len(batches) != len(expect):
        return [f"{len(batches)} answers for {len(expect)} requests"], vertex
    for diagnoses, (circuit, points) in zip(batches, expect):
        if len(diagnoses) != len(points):
            wrong.append(f"{len(diagnoses)} diagnoses for {len(points)} "
                         "rows")
            continue
        for diagnosis, point in zip(diagnoses, points):
            label, distance = diagnosis["component"], diagnosis["distance"]
            if label not in rows[circuit].targets:
                wrong.append(f"{circuit}: label {label!r} is not a fault "
                             "target")
                continue
            # The reported distance is to a point of the named
            # trajectory, so it cannot undercut the true distance.
            reference = refsolver.point_polyline_distance(
                point, rows[circuit].polylines[label])
            if distance < reference - harness.POINT_ATOL:
                wrong.append(f"{circuit}: distance {distance!r} to {label} "
                             f"is below the reference {reference!r}")
            if kind == "dict" and not abs(distance) <= harness.POINT_ATOL:
                vertex.append(f"{circuit}: dictionary fault diagnosed as "
                              f"{label} at distance {distance:.4g}")
    return wrong, vertex


# ----------------------------------------------------------------------
# Phases
# ----------------------------------------------------------------------
def setup(bench: harness.Run, trace_out: Optional[str] = None
          ) -> Tuple[Server, float, Dict[str, List[float]]]:
    """Spawn a server and wait until every warmed circuit has answered
    one hard and one posterior request; returns the elapsed seconds.

    Requests wait for the server's own start-up warm-up to finish, so
    pipeline builds and posterior builds never overlap on two threads
    (overlap made the server's peak memory vary from run to run).
    """
    from repro.circuits.library import get_benchmark
    from repro.core.config import PipelineConfig
    server = Server(bench, trace_out)
    deadline = time.monotonic() + 120.0
    while True:
        status, payload = server.call("GET", "/v1/healthz")
        if status == 200 and set(json.loads(payload)["warmed"]) >= \
                set(CIRCUITS):
            break
        if time.monotonic() > deadline:
            raise RuntimeError("server did not finish warming up")
        time.sleep(0.01)
    vectors: Dict[str, List[float]] = {}
    for circuit in CIRCUITS:
        status, payload = server.call("GET", f"/v1/test-vector/{circuit}")
        if status != 200:
            raise RuntimeError(f"test vector of {circuit}: HTTP {status} "
                               f"{payload[:200]!r}")
        vectors[circuit] = json.loads(payload)["test_vector_hz"]
        # The first fault target at the low end of the deviation grid.
        info = get_benchmark(circuit)
        row = harness.reference_row(
            info, info.faultable[0], PipelineConfig.paper().deviations[0],
            np.asarray(vectors[circuit], dtype=float)).tolist()
        for kind in ("d1", "post"):
            body = json.dumps({"circuit": circuit,
                               "magnitudes_db": [row]}).encode()
            status, payload = server.call("POST", PATHS[kind], body)
            if status != 200:
                raise RuntimeError(f"set-up {kind} request for {circuit}: "
                                   f"HTTP {status} {payload[:200]!r}")
    return server, time.perf_counter() - server.started, vectors


def operations(kind: str, expect: List[tuple]) -> int:
    """Operations one send of a request counts: one, except the
    dictionary request, which counts one per row, so the failed share
    moves with the number of rows that come back wrong."""
    return len(expect[0][1]) if kind == "dict" else 1


def drive(bench: harness.Run, server: Server, requests: List[tuple],
          rows: Dict[str, CircuitRows], seconds: Optional[float] = None,
          count: Optional[int] = None) -> dict:
    """Closed loop over ``requests`` in whole rounds, for ``seconds`` or
    for exactly ``count`` requests; then checks every answer."""
    firsts: Dict[Tuple[str, bytes], bytes] = {}
    sends = [0] * len(requests)
    latencies: Dict[str, List[float]] = {"hard": [], "post": []}
    intervals: List[Tuple[float, float]] = []
    mismatches = 0
    sent = 0
    attempted = 0
    started = time.perf_counter()
    deadline = started + seconds if seconds is not None else None
    while True:
        for _ in ROUND:
            index = sent % len(requests)
            kind, path, body, expect = requests[index]
            ops = operations(kind, expect)
            t0 = time.perf_counter()
            server.conn.request("POST", path, body=body, headers=HEADERS)
            response = server.conn.getresponse()
            payload = response.read()
            t1 = time.perf_counter()
            sent += 1
            attempted += ops
            intervals.append((t0, t1))
            latencies["post" if kind == "post" else "hard"].append(t1 - t0)
            if response.status != 200:
                bench.fail(f"{path}: HTTP {response.status} "
                           f"{payload[:200]!r}", count=ops)
                continue
            sends[index] += 1
            first = firsts.setdefault((path, body), payload)
            if payload != first:
                mismatches += ops
        if count is not None and sent >= count:
            break
        if deadline is not None and time.perf_counter() >= deadline:
            break
    wall = time.perf_counter() - started
    bench.attempted += attempted
    if mismatches:
        bench.fail(f"{mismatches} operations got an answer that differs "
                   "from the answer to an identical earlier request",
                   count=mismatches,
                   wrong_output=True)
    vertex_failures, vertex_example = 0, None
    for index, (kind, path, body, expect) in enumerate(requests):
        if not sends[index]:
            continue
        try:
            wrong, vertex = answer_problems(kind, firsts[(path, body)],
                                            expect, rows)
        except (KeyError, TypeError, ValueError) as exc:
            wrong, vertex = [f"malformed answer: {exc!r}"], []
        if wrong:
            bench.fail(f"{path}: " + "; ".join(wrong[:3]),
                       count=sends[index] * operations(kind, expect),
                       wrong_output=True)
        elif vertex:
            vertex_failures += sends[index] * len(vertex)
            vertex_example = (f"{len(vertex)} of {len(expect[0][1])} rows, "
                              f"e.g. " + "; ".join(vertex[:2]))
    if vertex_failures:
        bench.fail(f"{vertex_failures} dictionary-fault rows "
                   f"({vertex_example})", count=vertex_failures)
    return {"sent": sent, "wall": wall, "latencies": latencies,
            "intervals": intervals, "started": started}


def _percentile(values: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def run(bench: harness.Run) -> Dict[str, tuple]:
    cpu = min(os.sched_getaffinity(0))  # run.py pinned us (and children)
    rng = random.Random(bench.seed)
    if not bench.trace:
        setups, servers = [], []
        for _ in range(SERVER_SPAWNS):
            if servers:
                servers[-1].stop()
            server, seconds, vectors = setup(bench)
            setups.append(seconds)
            servers.append(server)
        rows = {c: CircuitRows(c, vectors[c], rng) for c in CIRCUITS}
        requests = build_requests(rows, bench.seed)
        phase = drive(bench, server, requests, rows, seconds=bench.seconds)
        server.stop()
        hard, post = phase["latencies"]["hard"], phase["latencies"]["post"]
        every = hard + post
        print(f"perfbench: serve_mixed on CPU {cpu}: {phase['sent']} "
              f"requests in {phase['wall']:.3f} s; hard p50 "
              f"{_percentile(hard, 50) * 1e3:.3f} ms p99 "
              f"{_percentile(hard, 99) * 1e3:.3f} ms (n={len(hard)}); "
              f"posterior p50 {_percentile(post, 50) * 1e3:.3f} ms p99 "
              f"{_percentile(post, 99) * 1e3:.3f} ms (n={len(post)}); "
              f"setups {', '.join(f'{s:.3f}' for s in setups)} s")
        return {
            "setup_s": (harness.median(setups), "s"),
            "peak_rss_mb": (server.rusage.ru_maxrss / 1024.0, "MiB"),
            "throughput_per_s": (phase["sent"] / phase["wall"], "1/s"),
            "latency_p50_ms": (harness.median(every) * 1e3, "ms"),
        }

    # Traced run: a plain server, then a traced one answering exactly
    # as many requests; overhead = traced minus plain wall time.
    server, plain_setup, vectors = setup(bench)
    rows = {c: CircuitRows(c, vectors[c], rng) for c in CIRCUITS}
    requests = build_requests(rows, bench.seed)
    plain = drive(bench, server, requests, rows, seconds=bench.seconds)
    server.stop()
    trace_file = str(bench.tmp / "server_spans.json")
    server, traced_setup, _ = setup(bench, trace_out=trace_file)
    traced = drive(bench, server, requests, rows, count=plain["sent"])
    server.stop()
    with open(trace_file) as handle:
        trace = json.load(handle)
    spans = trace["spans"]
    window = (traced["started"], traced["started"] + traced["wall"])

    def in_window(span: list) -> bool:
        return window[0] <= span[1] <= window[1]

    client_s = sum(end - start for start, end in traced["intervals"])
    http_self = client_s - layers.union_seconds(
        [(span[1], span[2]) for span in spans if in_window(span)])
    overhead = (traced_setup + traced["wall"]) - (plain_setup + plain["wall"])
    values = layers.layer_metrics(spans, trace["counts"], http_self,
                                  overhead)
    trace.update(workload=bench.workload, seed=bench.seed,
                 client_intervals=traced["intervals"],
                 plain_wall_s=plain_setup + plain["wall"],
                 traced_wall_s=traced_setup + traced["wall"])
    path = harness.OUT_DIR / f"trace_{bench.workload}_s{bench.seed}.json"
    path.write_text(json.dumps(trace))
    print(f"perfbench: trace written to {path.relative_to(harness.ROOT)} "
          f"({len(spans)} server spans, {traced['sent']} requests)")
    print(f"perfbench: plain {plain_setup:.3f} + {plain['wall']:.3f} s, "
          f"traced {traced_setup:.3f} + {traced['wall']:.3f} s, overhead "
          f"{overhead:+.3f} s")
    print(f"perfbench: set-up, {traced_setup:.3f} s (self seconds; warm-up "
          f"and posterior builds run on executor threads while the "
          f"request waits in runtime.front):")
    for line in layers.layer_table(spans, traced_setup,
                                   lambda span: span[1] < window[0]):
        print(line)
    print(f"perfbench: timed phase, client-observed {client_s:.4f} s "
          f"(runtime.http_self_s {http_self:.4f} s outside server spans):")
    for line in layers.layer_table(spans, client_s, in_window):
        print(line)
    return {name: (value, layers.PER_LAYER_UNITS[name])
            for name, value in values.items()}
