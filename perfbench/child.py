"""One benchmark child process: import primeshift, run commands, report.

Usage (run.py starts it; the command list arrives as JSON on stdin):

    python3 perfbench/child.py SRC_DIR TRACE

Prints one JSON object: the monotonic time at which primeshift.cli was
imported and ready, one record per command (exit code, wall ms, captured
stdout and stderr), the process's peak RSS and, with TRACE=1, the
per-layer aggregates from tracer.Tracer.
"""

import sys
import time

SRC, TRACE = sys.argv[1], sys.argv[2] == "1"
sys.path.insert(0, SRC)

import primeshift.cli as cli  # noqa: E402

READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402


def main() -> None:
    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"primeshift imported from {cli.__file__}, not from {SRC}")
    commands = json.load(sys.stdin)
    tracer = None
    if TRACE:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    records = []
    try:
        for argv in commands:
            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = cli.run(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # reported to the parent as a failed command
                rc = None
                err.write(traceback.format_exc())
            ms = (time.perf_counter() - t0) * 1e3
            if tracemalloc.is_tracing():
                tracemalloc.stop()
            records.append({"rc": rc, "ms": ms, "out": out.getvalue(), "err": err.getvalue()[-2000:]})
    finally:
        if tracer is not None:
            tracer.uninstall()
    report = {
        "ready": READY,
        "records": records,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.snapshot() if tracer else None,
    }
    sys.stdout.write(json.dumps(report))


if __name__ == "__main__":
    main()
