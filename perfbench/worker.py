"""One workload repetition in a fresh interpreter.

Usage: python3 worker.py '<json spec>'
spec: {"commands": [[argv...], ...], "outs": [dir, ...], "trace": bool,
       "machine": bool}

Times the import of `trotterbench.cli` plus building its parser (setup),
then runs each command through `trotterbench.cli.main` one after the other,
and prints one JSON object: setup time, per-command exit code and wall
time, peak RSS, optionally the machine record and, when traced, the spans.
The CLI's own stdout is captured so that it does not mix with that object.
"""

import sys
import time


def _blas_threads():
    """Threads OpenBLAS runs with in this process, asked from the library."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine() -> dict:
    import importlib.util
    import os
    import platform

    import numpy as np

    import trotterbench

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "backend": trotterbench.active_backend(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "trotterbench_file": trotterbench.__file__,
    }


def main() -> None:
    # Only sys and time are loaded before this import, so the setup time
    # includes every module the CLI pulls in.
    start = time.perf_counter()
    import trotterbench.cli as cli

    cli.build_parser()
    setup_s = time.perf_counter() - start

    import contextlib
    import io
    import json
    import resource

    spec = json.loads(sys.argv[1])
    tracer = None
    if spec.get("trace"):
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    results = []
    for argv, out in zip(spec["commands"], spec["outs"]):
        argv = [*argv, "--out", out]
        entry = tracer.span(f"cli.{argv[0]}", cli.main) if tracer else cli.main
        captured = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(captured):
            try:
                code = entry(argv)
            except SystemExit as e:  # argparse rejects the command line
                code = e.code if isinstance(e.code, int) else 2
        results.append({"argv": argv, "code": code,
                        "wall_s": time.perf_counter() - start,
                        "stdout": captured.getvalue()})
    record = {
        "setup_s": setup_s,
        "commands": results,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.spans if tracer else None,
    }
    if spec.get("machine"):
        record["machine"] = machine()
    print(json.dumps(record))


if __name__ == "__main__":
    main()
