"""Rerun one workload under several seeds and print the spread of every
metric: median, first and third quartile, and the quartile distance as
a share of the median, next to the metric's bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload serve_mixed --runs 10 [--seed0 1]

This is the evidence behind the bounds: a bound should be at least
three times the spread it guards.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(prog="perfbench/spread.py")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in config["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    args = parser.parse_args(argv)

    seconds = config["run_seconds"]
    runs = []
    for seed in range(args.seed0, args.seed0 + args.runs):
        command = config["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=900)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            print(f"seed {seed}: exit code {done.returncode}",
                  file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append(result)
        values = ", ".join(f"{name}={metric['value']:.6g}"
                           for name, metric in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {values}",
              flush=True)

    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    print(f"\n{args.workload}, {len(runs)} runs, {seconds} s each")
    print(f"{'metric':<28}{'median':>14}{'q1':>14}{'q3':>14}"
          f"{'spread':>9}{'bound':>8}")
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        q1, middle, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / middle if middle else float("nan")
        print(f"{name:<28}{middle:>14.6g}{q1:>14.6g}{q3:>14.6g}"
              f"{spread:>9.2%}{bounds[name]:>8.2f}")
    shares = sorted({(run["failed"], run["attempted"]) for run in runs})
    exact = len({run["failed"] / run["attempted"] for run in runs}) == 1
    print(f"failed/attempted per run: "
          f"{', '.join(f'{f}/{a}' for f, a in shares)} "
          f"({'one share' if exact else 'shares DIFFER'})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
