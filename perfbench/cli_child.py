"""One fresh process: import sfode.cli, optionally run one CLI command, report.

    python3 cli_child.py T0_NS SRC_DIR [CLI ARGS...]

T0_NS is the parent's time.monotonic_ns() just before it started this
process (CLOCK_MONOTONIC is shared by all processes on Linux), so setup_s
covers interpreter start and the import of sfode.cli.  With no CLI arguments
the process only measures set-up and reports the machine's Python, numpy and
BLAS build.  The last stdout line is one JSON object.
"""

import json
import platform
import resource
import sys
import time


def _numpy_record() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older numpy: no dict mode
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
    }


def main() -> None:
    t0_ns = int(sys.argv[1])
    sys.path.insert(0, sys.argv[2])
    import sfode.cli

    record = {"setup_s": (time.monotonic_ns() - t0_ns) / 1e9}
    argv = sys.argv[3:]
    if not argv:
        record.update(_numpy_record())
        print(json.dumps(record))
        return
    start = time.perf_counter()
    try:
        code = sfode.cli.main(argv)  # returns once the output file is closed
    except Exception as exc:  # an uncaught error is the CLI's exit 1: a failed run
        code = 1
        record["error"] = repr(exc)
    wall = time.perf_counter() - start
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)  # reaped pool workers
    record.update(
        exit_code=code,
        wall_s=wall,
        cpu_s=own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime,
        peak_rss_mb=max(own.ru_maxrss, kids.ru_maxrss) / 1024.0,
    )
    print(json.dumps(record))


if __name__ == "__main__":
    main()
