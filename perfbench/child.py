"""One benchmark run of the public CLI, optionally traced.

Usage::

    python perfbench/child.py STAMPS TRACE [AUTOPILOT ARG ...]

Writes ``time.monotonic()`` stamps -- process start, ``import repro.cli``
returned, CLI returned, trace written -- as JSON to STAMPS.
CLOCK_MONOTONIC is system-wide on Linux, so the parent can subtract its
own spawn stamp.
With TRACE other than ``-``, the layer entry points in
``spans.TARGETS`` are wrapped after the import and the spans, plus host
facts, are written to TRACE as Chrome trace-event JSON.  Without
AUTOPILOT arguments only the import is timed.
"""

import sys
import time

START = time.monotonic()
# The program must not see the benchmark's own modules on its path.
BENCH_DIR = sys.path.pop(0)


def _blas_threads():
    """Threads of the loaded OpenBLAS, or None when it cannot be asked."""
    import ctypes

    with open("/proc/self/maps") as maps:
        libraries = {line.split()[-1] for line in maps
                     if "openblas" in line.lower()}
    for library in sorted(libraries):
        try:
            handle = ctypes.CDLL(library)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            function = getattr(handle, symbol, None)
            if function is not None:
                function.argtypes = []
                function.restype = ctypes.c_int
                return function()
    return None


def host_facts() -> dict:
    """Interpreter, NumPy/SciPy and BLAS facts of this process."""
    import importlib.metadata
    import platform

    import numpy

    facts = {"python": platform.python_version(),
             "numpy": numpy.__version__, "scipy": None,
             "blas": None, "blas_threads": None}
    try:
        facts["scipy"] = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    try:
        facts["blas_threads"] = _blas_threads()
    except OSError:
        pass
    return facts


def main() -> int:
    stamps_path, trace_path, cli_args = sys.argv[1], sys.argv[2], sys.argv[3:]
    import repro.cli

    imported = time.monotonic()
    tracer = None
    if trace_path != "-":
        sys.path.insert(0, BENCH_DIR)
        import spans
        sys.path.remove(BENCH_DIR)
        tracer = spans.Tracer()
        tracer.add_span(spans.IMPORT_SPAN, START, imported)
        tracer.install(spans.TARGETS)
    status = repro.cli.main(cli_args) if cli_args else 0
    finished = time.monotonic()

    import json

    if tracer is not None:
        tracer.write(trace_path, START, {"host": host_facts()})
    with open(stamps_path, "w") as handle:
        json.dump({"start": START, "imported": imported,
                   "finished": finished, "written": time.monotonic()},
                  handle)
    return status


if __name__ == "__main__":
    sys.exit(main())
