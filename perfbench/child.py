"""One benchmark process: import the program, then run one CLI command.

Usage: python3 child.py REPORT MODE [CLI ARGS...]

MODE is ``run`` (run the command) or ``trace`` (run it under the span
tracer).  Both wrap the three model-fit functions with an outcome counter
that reads no clock.  REPORT receives a JSON object with the time the import
finished, the environment and the fit counts; in trace mode it also gets the
per-layer metrics named in BENCHMARK.json.
"""
import functools
import json
import os
import sys
import time

import wavefeat.cli  # the first statement with a cost: set-up ends here

IMPORTED_AT = time.monotonic()

FIT_FUNCTIONS = ("lda_fit", "lr_fit", "hac_fit")


def blas_threads():
    """Thread count of the OpenBLAS bundled with numpy, or None."""
    import ctypes
    import glob

    import numpy
    libs = os.path.dirname(numpy.__file__) + ".libs"
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy
    return {
        "wavefeat_file": wavefeat.cli.__file__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def count_fits(models, fits: dict) -> None:
    """A fit fails when it raises or returns converged=False."""
    def counted(fn):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            fits["attempted"] += 1
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                fits["failed"] += 1
                raise
            if getattr(result, "converged", True) is False:
                fits["failed"] += 1
            return result
        return call

    for name in FIT_FUNCTIONS:
        setattr(models, name, counted(getattr(models, name)))


def main(argv) -> int:
    report_path, mode, cli_args = argv[0], argv[1], argv[2:]
    report = {"imported_at": IMPORTED_AT, "environment": environment()}
    fits = {"attempted": 0, "failed": 0}
    report["fits"] = fits
    count_fits(wavefeat.models, fits)
    try:
        if mode == "trace":
            sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
            import tracing
            root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
            with open(os.path.join(root, "BENCHMARK.json")) as fh:
                names = [m["name"] for m in json.load(fh)["per_layer"]]
            tracer = tracing.Tracer()
            with tracing.installed(tracer):
                code = wavefeat.cli.main(cli_args)
            report["layers"] = tracing.layer_metrics(
                tracer, [n for n in names if not n.startswith(tracing.RUN_LEVEL)])
        else:
            code = wavefeat.cli.main(cli_args)
        return code
    finally:
        _write(report_path, report)


def _write(path, report) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
