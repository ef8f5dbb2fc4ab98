"""
One benchmark pass in a fresh process, so that fpblab's module caches start
cold.

    python3 worker.py SRC_DIR CONFIG_JSON

CONFIG_JSON is {"ops": [argv, ...], "trace": bool, "machine": bool,
"reference": [kernel name, ...]}; with no ops the worker only sets up. The
worker samples the host's speed while it runs `import fpblab` and
`cli.load_verify_defaults()`, and then writes "ready" on stdout with the
time its sampling took and the speed factor it measured (reference seconds
per second of work, see speed.py). It runs every op as
`fpblab.cli.main(argv)` with stdout and stderr captured, and then writes
one JSON line with the outputs, exit codes and timings. With reference
kernels named, a `speed.Sampler` runs during the ops and the line also
holds the pass time in reference seconds (see speed.py).
"""
from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import speed

# set-up is imports (module bodies run by the interpreter, unmarshalling,
# loading extension modules), so it is sampled with the interpreter-bound kernel
SETUP_REFERENCE = ("python",)


def blas_info() -> dict:
    """Python, numpy and OpenBLAS versions and the OpenBLAS thread count in effect."""
    import ctypes
    import platform

    import numpy as np

    info = {"python": platform.python_version(), "numpy": np.__version__}
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*.so"))
    if libs:
        lib = ctypes.CDLL(str(libs[0]))
        get_threads = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        if get_threads is not None:
            get_threads.restype = ctypes.c_int
            info["blas_threads"] = get_threads()
    return info


def run_ops(cli, ops: list[list[str]]) -> tuple[list[dict], float, float]:
    """Run each op, capturing its output; return per-op results and the start and end of the pass."""
    results = []
    first = None
    for argv in ops:
        out, err = io.StringIO(), io.StringIO()
        exc = None
        start = perf_counter()
        first = start if first is None else first
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as stop:  # argparse refusals exit 2
                rc = stop.code
            except Exception:  # a raising op is a failed op; the pass goes on
                rc, exc = None, traceback.format_exc()
        end = perf_counter()
        results.append({"rc": rc, "out": out.getvalue(), "err": err.getvalue()[-2000:],
                        "exc": exc, "seconds": end - start})
    return results, first, end


def main() -> int:
    src = Path(sys.argv[1]).resolve()
    config = json.loads(sys.argv[2])
    setup = speed.Sampler(SETUP_REFERENCE)
    setup.start()
    start = perf_counter()
    import fpblab
    from fpblab import cli

    cli.load_verify_defaults()
    end = perf_counter()
    setup.stop()
    if Path(fpblab.__file__).resolve().parent.parent != src:
        print(f"fpblab imported from {fpblab.__file__}, not from {src}", file=sys.stderr)
        return 3
    handler = setup.handler_s(start, end)
    info = {"handler_s": handler, "factor": setup.scaled(start, end) / (end - start - handler)}
    real_out = sys.stdout
    real_out.write("ready " + json.dumps(info) + "\n")
    real_out.flush()
    if not config["ops"]:
        return 0
    tracer = None
    if config["trace"]:
        import layertrace

        tracer = layertrace.Tracer()
        layertrace.install(tracer)
    sampler = speed.Sampler(tuple(config["reference"])) if config["reference"] else None
    if sampler is not None:
        sampler.start()
    results, first, end = run_ops(cli, config["ops"])
    if sampler is not None:
        sampler.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    payload = {"ops": results, "wall_s": end - first, "peak_rss_mb": peak_rss_mb}
    if sampler is not None:
        payload["wall_ref_s"] = sampler.scaled(first, end)
        payload["handler_s"] = sampler.handler_s(first, end)
        payload["samples"] = len(sampler.samples)
    if tracer is not None:
        payload["layers"] = layertrace.summarize(tracer.spans)
        payload["counts"] = tracer.counts
    if config["machine"]:
        payload["machine"] = blas_info()
    real_out.write(json.dumps(payload) + "\n")
    real_out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
