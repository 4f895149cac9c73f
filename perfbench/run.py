"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Prints progress lines, then the result as one JSON object on the last
line of standard output. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` records spans around every layer and reports the
per-layer metrics instead (see README.md).
"""

import argparse
import os
import sys

import harness

WORKLOADS = ("corpus_baseline", "corpus_paper", "serve_mixed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (harness.SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {harness.SRC}",
              file=sys.stderr)
        return 2
    for name, value in harness.THREAD_PINS.items():
        os.environ.setdefault(name, value)
    sys.path.insert(0, str(harness.SRC))
    sys.pycache_prefix = str(harness.PYCACHE)
    sys.dont_write_bytecode = False

    # One CPU for the whole run, children included: the two vCPUs of the
    # measuring machine ran the same work ~5% apart, and serve_mixed's
    # client and server must share a CPU (see README).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    bench = harness.Run(args.workload, args.seed, args.seconds,
                        bool(args.trace))
    try:
        if args.workload == "serve_mixed":
            import serve_workload
            metrics = serve_workload.run(bench)
        else:
            import corpus_workloads
            metrics = corpus_workloads.run(bench)
    finally:
        bench.finish()
    bench.emit(metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
