"""One battery in a fresh process: time it, optionally trace it, report as JSON.

    python3 perfbench/child.py --battery suites.mc_suite --result r.json \
        [--trace] [--stop-at-battery] -- verify-mc --seed 3 --out o

Runs `defaultlab.cli.main` on the arguments after `--` and writes the
CLOCK_MONOTONIC times of: start of the package import, its end, the first
call into the battery function and the return of the CLI entry, plus the
exit code and the process's peak RSS.  With `--trace` every layer's public
functions are wrapped first (see tracer.py) and the span summary is added.
With `--stop-at-battery` the process stops at the battery's first call, so
only set-up is paid.

The package is imported before numpy so that the CLI's DEFAULTLAB_THREADS
handling still reaches the BLAS thread pools.
"""

import json
import os
import sys

import tracer


THREAD_VARS = ("DEFAULTLAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class _StopAtBattery(BaseException):
    # BaseException, so the CLI's own `except Exception` does not swallow it
    pass


def main(argv) -> int:
    split = argv.index("--")
    own, cli_args = argv[:split], argv[split + 1 :]
    battery = own[own.index("--battery") + 1]
    result_path = own[own.index("--result") + 1]
    traced = "--trace" in own
    stop = "--stop-at-battery" in own

    marks = {"import_start": tracer.now()}
    from defaultlab import cli

    marks["import_end"] = tracer.now()
    tr = None
    if traced:
        tr = tracer.Tracer()
        tr.install()
    tracer.mark_first_call(battery, marks, _StopAtBattery if stop else None)
    try:
        code = cli.main(cli_args)
    except _StopAtBattery:
        code = 0
    marks["end"] = tracer.now()
    out = {
        "marks": marks,
        "exit_code": code,
        "maxrss_mb": tracer.maxrss_mb(),
        # the thread settings the CLI left in effect for the BLAS pools
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
    }
    if tr is not None:
        out["trace"] = tr.summary()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
