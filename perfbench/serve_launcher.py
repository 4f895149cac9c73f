"""Run the ``repro-serve`` entry point in this process.

    python3 perfbench/serve_launcher.py [--trace-out FILE] -- <repro-serve args>

With ``--trace-out`` the benchmark's span wrappers (``layers.py``) are
installed before the server starts, and the recorded spans are written
to FILE when the server exits (on SIGINT).
"""

import sys


def main(argv):
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    recorder = None
    if trace_out is not None:
        import layers
        recorder = layers.Recorder()
        layers.install(recorder)
    from repro.runtime import cli
    code = cli.main(argv)
    if recorder is not None:
        recorder.dump(trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
