"""Shared plumbing for one benchmark run: paths, a private scratch
directory, child-process bookkeeping, leak checks and the result line.
"""

from __future__ import annotations

import json
import os
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
#: Bytecode cache of every process of every run, so set-up times imports
#: of compiled bytecode even where PYTHONDONTWRITEBYTECODE is set (there
#: every probe compiled the program's sources, about 30 % slower); the
#: first run in a checkout fills it.
PYCACHE = OUT_DIR / "pycache"
SHM_DIR = Path("/dev/shm")

#: "About zero" for signature-space distances and points (dB units).
POINT_ATOL = 1e-7

#: One BLAS/OpenMP thread per process (the command sets these too; a
#: child must not fan out even when the parent was started without).
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def median(values: List[float]) -> float:
    return float(statistics.median(values))


class Run:
    """Per-run state: a fresh scratch directory under ``out/`` that is
    removed at the end, the child processes started, and the
    ``/dev/shm`` entries present at the start."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        OUT_DIR.mkdir(exist_ok=True)
        self.tmp = OUT_DIR / f"tmp-{workload}-{os.getpid()}"
        if self.tmp.exists():
            shutil.rmtree(self.tmp)
        self.tmp.mkdir()
        self.children: List[subprocess.Popen] = []
        self.shm_before = self._shm_entries()
        self.attempted = 0
        self.failed = 0
        self.incorrect = False
        self.problems: List[str] = []

    # ------------------------------------------------------------------
    def child_env(self) -> Dict[str, str]:
        env = dict(os.environ)
        env.update(THREAD_PINS)
        env["PYTHONPATH"] = str(SRC)
        env["TMPDIR"] = str(self.tmp)
        env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env.pop("PYTHONSTARTUP", None)
        return env

    def spawn(self, argv: List[str], **kwargs) -> subprocess.Popen:
        proc = subprocess.Popen(argv, env=self.child_env(), cwd=str(ROOT),
                                **kwargs)
        self.children.append(proc)
        return proc

    def fail(self, message: str, count: int = 1,
             wrong_output: bool = False) -> None:
        """Record ``count`` failed operations (already attempted);
        ``wrong_output`` marks an answer that failed a check."""
        self.failed += count
        self.incorrect = self.incorrect or wrong_output
        if len(self.problems) < 20:
            self.problems.append(message)

    # ------------------------------------------------------------------
    @staticmethod
    def _shm_entries() -> set:
        try:
            return set(os.listdir(SHM_DIR))
        except OSError:
            return set()

    def finish(self) -> None:
        """Stop leftover children and count them, and any ``/dev/shm``
        segment the run left behind, as failed operations."""
        for proc in self.children:
            if proc.poll() is None:
                self.attempted += 1
                self.fail(f"child process {proc.pid} still running at exit")
                proc.kill()
                proc.wait()
        leaked = sorted(self._shm_entries() - self.shm_before)
        if leaked:
            self.attempted += len(leaked)
            self.fail(f"/dev/shm segments left behind: {leaked}",
                      count=len(leaked))
        shutil.rmtree(self.tmp, ignore_errors=True)

    def emit(self, metrics: Dict[str, tuple]) -> None:
        """Print problems to stderr and the result JSON as the last
        stdout line. ``metrics`` maps name -> (value, unit)."""
        for problem in self.problems:
            print(f"perfbench: FAILED: {problem}", file=sys.stderr)
        result = {
            "correct": not self.incorrect,
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": {name: {"value": float(value), "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }
        print(json.dumps(result), flush=True)


def wait_line(proc: subprocess.Popen, prefix: str, timeout: float) -> str:
    """Read ``proc``'s stdout until a line starting with ``prefix``.

    Reads the pipe's descriptor directly, a byte at a time, so the
    timeout holds even when the child stops writing mid-line.
    """
    deadline = time.monotonic() + timeout
    descriptor = proc.stdout.fileno()
    line = b""
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0 or \
                not select.select([descriptor], [], [], remaining)[0]:
            raise RuntimeError(f"timed out waiting for {prefix!r}")
        byte = os.read(descriptor, 1)
        if not byte:
            raise RuntimeError(f"process {proc.pid} exited before "
                               f"printing {prefix!r}")
        if byte != b"\n":
            line += byte
            continue
        text, line = line.decode(), b""
        if text.startswith(prefix):
            return text.strip()


def to_elements(circuit) -> list:
    """Translate a ``repro`` circuit into the reference solver's
    neutral element tuples (see ``refsolver``)."""
    elements = []
    for component in circuit:
        kind = type(component).__name__
        if kind == "Resistor":
            elements.append(("R", component.name, component.positive,
                             component.negative, component.value))
        elif kind == "Capacitor":
            elements.append(("C", component.name, component.positive,
                             component.negative, component.value))
        elif kind == "Inductor":
            elements.append(("L", component.name, component.positive,
                             component.negative, component.value))
        elif kind == "VoltageSource":
            elements.append(("V", component.name, component.positive,
                             component.negative, component.ac_magnitude,
                             component.ac_phase_deg))
        elif kind == "IdealOpAmp":
            elements.append(("OPAMP", component.name,
                             component.in_positive, component.in_negative,
                             component.output))
        else:
            raise ValueError(f"{circuit.name}: the reference solver has no "
                             f"model for {kind} {component.name}")
    return elements


def reference_row(info, component, deviation: float, freqs):
    """dB magnitude response of ``info``'s circuit at ``freqs`` from the
    independent solver, with ``component`` scaled by ``1 + deviation``
    (``component=None``: the golden circuit)."""
    import refsolver
    elements = to_elements(info.circuit)
    if component is not None:
        elements = refsolver.scaled(elements, component, 1.0 + deviation)
    return refsolver.magnitude_db(refsolver.ac_transfer(
        elements, info.output_node, info.input_source, freqs))


def relative_error(actual, expected) -> float:
    # numpy is imported late: run.py sets the BLAS thread pins after
    # importing this module and before numpy's first import.
    import numpy as np
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    return float(np.max(np.abs(actual - expected) /
                        np.maximum(np.abs(expected), 1e-300)))


def peak_rss_mb_self() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_probe_seconds(run: Run, workload: str, samples: int) -> float:
    """Median seconds from spawning a fresh interpreter to the moment
    it is ready to start the first operation of ``workload``."""
    probe = str(BENCH_DIR / "probe.py")
    times = []
    for _ in range(samples):
        started = time.perf_counter()
        proc = run.spawn([sys.executable, probe, workload],
                         stdout=subprocess.PIPE)
        wait_line(proc, "READY", timeout=120.0)
        times.append(time.perf_counter() - started)
        proc.stdout.close()
        proc.wait(timeout=60)
    return median(times)
