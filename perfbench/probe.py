"""Set-up probe for the corpus workloads: a fresh interpreter imports
the program and builds the workload's corpus spec, then prints READY --
the point where the runner would start its first circuit.

    python3 perfbench/probe.py corpus_baseline
"""

import sys

import corpus_workloads

if __name__ == "__main__":
    from repro.corpus import runner  # noqa: F401 -- part of set-up
    corpus_workloads.spec_for(sys.argv[1])
    print("READY", flush=True)
