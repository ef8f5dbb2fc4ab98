"""
The fpblab benchmark: real `fpblab` commands, timed end to end and checked.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 30 --trace 0

Closed loop, one client: one worker process per pass, passes one after
another, each op `fpblab.cli.main(argv)` in the worker (see worker.py).
Passes repeat until --seconds is used up, at least one of each kind. With
--trace 0 the run reports the end-to-end metrics (medians over passes);
with --trace 1 it alternates untraced and traced passes and reports the
per-layer metrics of the traced ones. Untraced passes sample the host's
speed while they run and report their time in reference seconds as well
(see speed.py). Every op's output is checked after the passes, outside the
timed region. The last stdout line is the result as JSON; the line before
it describes the machine.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import check
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# set-up-only workers in an untraced run, so that setup_s is a median of
# many set-ups spread over the run: this many before each pass, topped up
# after the last pass to at least MIN_SETUPS in all
SETUPS_PER_PASS = 2
MIN_SETUPS = 12
PASS_TIMEOUT_S = 150.0

END_TO_END = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metric "<span name>.<field>" -> unit; fields come from layertrace.summarize
LAYER_FIELDS = {
    "series.avoider_series.self_s": "s",
    "series.avoider_series.calls": "count",
    "series.factorial_moment_coefficient.self_s": "s",
    "series.factorial_moment_coefficient.calls": "count",
    "series.avoider_polynomials.self_s": "s",
    "series.avoider_polynomials.max_n": "count",
    "series.scaled_weight_rows.self_s": "s",
    "series.scaled_weight_rows.cells": "count",
    "series.unrestricted_weights.self_s": "s",
    "sampling.uniform_avoider_fp_batch.self_s": "s",
    "sampling.uniform_avoider_fp_batch.samples": "count",
    "sampling.sample_biased_unrestricted_batch.self_s": "s",
    "sampling.sample_biased_unrestricted_batch.samples": "count",
    "sampling.uniform_avoider.self_s": "s",
    "sampling.uniform_avoider.calls": "count",
    "sampling.biased_avoider_permutation.self_s": "s",
    "sampling.biased_avoider_permutation.calls": "count",
    "sampling.biased_avoider_permutation.attempts": "count",
    "sampling.sample_fp_count_batch.self_s": "s",
    "dist.fp_pmf.exact.self_s": "s",
    "dist.fp_pmf.scaled-float.self_s": "s",
    "dist.fp_pmf.monte-carlo.self_s": "s",
    "dist.tv_distance.self_s": "s",
    "dist.kolmogorov_distance.self_s": "s",
    "dist.pmf_to_json.self_s": "s",
    "asymptotics.convergence_table.self_s": "s",
    "perms.fixed_point_counts.self_s": "s",
    "special.log_of_fraction.self_s": "s",
    "cli.main.self_s": "s",
}
# metrics derived from the above, from the pass outputs, or from both kinds of pass
DERIVED_UNITS = {
    "pass.wall_s": "s",
    "sampling.dyck_us_per_sample": "us",
    "sampling.biased_avoider_permutation.accept_ratio": "ratio",
    "special.normal_cdf.calls": "count",
    "cli.out_bytes": "bytes",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark could not run (no program, a worker that died or hung)."""


def _run_worker(config: dict) -> tuple[str, float]:
    """
    Run one worker to its end; return what it wrote after "ready" and its
    set-up time: the seconds from spawning it until it reported ready, less
    the worker's host sampling, in reference seconds at the speed factor the
    worker measured during its imports.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(SRC), json.dumps(config)],
                            stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        line = proc.stdout.readline()
        setup = perf_counter() - start
        if not line.startswith("ready "):
            raise BenchError("worker did not start")
        info = json.loads(line[len("ready "):])
        setup = (setup - info["handler_s"]) * info["factor"]
        out, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"a pass took longer than {PASS_TIMEOUT_S} s")
    finally:  # also on SIGTERM (see main): never leave a worker behind
        if proc.poll() is None:
            proc.kill()
        proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    return out, setup


def setup_only() -> float:
    return _run_worker({"ops": [], "trace": False, "machine": False, "reference": []})[1]


def run_pass(argvs: list[list[str]], traced: bool, machine: bool,
             reference: tuple[str, ...]) -> tuple[dict, float]:
    """One pass; an untraced one samples the host's speed with the `reference` kernels."""
    out, setup = _run_worker({"ops": argvs, "trace": traced, "machine": machine,
                              "reference": [] if traced else list(reference)})
    return json.loads(out), setup


def run_passes(argvs, seconds: float, trace: bool,
               reference: tuple[str, ...]) -> tuple[list[tuple[bool, dict]], list[float]]:
    """
    Passes until `seconds` is used up: a new pass starts only while at
    least half a pass fits. With tracing, untraced and traced passes
    alternate and the run has at least one of each.
    """
    setups = []
    passes = []
    start = perf_counter()
    while True:
        if not trace:
            setups += [setup_only() for _ in range(SETUPS_PER_PASS)]
        traced = trace and len(passes) % 2 == 1
        t0 = perf_counter()
        payload, setup = run_pass(argvs, traced, not passes, reference)
        last = perf_counter() - t0
        setups.append(setup)
        passes.append((traced, payload))
        ref = "" if traced else f" ({payload['wall_ref_s']:.3f} reference s, {payload['samples']} samples)"
        print(f"pass {len(passes)}{' traced' if traced else ''}: wall {payload['wall_s']:.3f} s{ref}, "
              f"setup {setup:.3f} s, ops " + " ".join(f"{r['seconds']:.2f}" for r in payload["ops"]),
              file=sys.stderr)
        have_both = not trace or len(passes) >= 2
        if have_both and perf_counter() - start + 0.5 * last > seconds:
            break
    if not trace:
        setups += [setup_only() for _ in range(MIN_SETUPS - len(setups))]
    return passes, setups


def check_passes(ops: list[dict], passes) -> tuple[int, int]:
    """Check every op of every pass; return (attempted, failed)."""
    verdicts: dict = {}  # (op index, rc, output digest) -> problems
    first_digest: dict[int, str] = {}
    attempted = failed = 0
    for _, payload in passes:
        for i, (op, res) in enumerate(zip(ops, payload["ops"])):
            attempted += 1
            digest = hashlib.sha256(res["out"].encode()).hexdigest()
            if res["exc"] is not None:
                problems = [res["exc"].strip().splitlines()[-1]]
            else:
                key = (i, res["rc"], digest)
                if key not in verdicts:
                    verdicts[key] = check.check_op(op, res["rc"], res["out"])
                problems = list(verdicts[key])
            if op["seeded"] and first_digest.setdefault(i, digest) != digest:
                problems.append("seeded output differs from the first pass")
            if problems:
                failed += 1
                print(f"FAILED {' '.join(op['argv'])}: {'; '.join(problems)[:500]}", file=sys.stderr)
    return attempted, failed


def end_to_end_metrics(passes, setups) -> dict:
    plain = [p for traced, p in passes if not traced]
    return {
        "wall_ref_s": statistics.median(p["wall_ref_s"] for p in plain),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }


def layer_values(payload: dict) -> dict:
    """Per-layer values of one traced pass."""
    layers = payload["layers"]
    values = {}
    for name in LAYER_FIELDS:
        span, _, field = name.rpartition(".")
        values[name] = layers.get(span, {}).get(field, 0)
    batch = layers.get("sampling.uniform_avoider_fp_batch", {})
    values["sampling.dyck_us_per_sample"] = (
        1e6 * batch["self_s"] / batch["samples"] if batch.get("samples") else 0.0)
    biased = layers.get("sampling.biased_avoider_permutation", {})
    values["sampling.biased_avoider_permutation.accept_ratio"] = (
        biased["calls"] / biased["attempts"] if biased.get("attempts") else 0.0)
    values["special.normal_cdf.calls"] = payload["counts"]["special.normal_cdf"]
    values["cli.out_bytes"] = sum(len(r["out"].encode()) for r in payload["ops"])
    values["trace.unattributed_s"] = payload["wall_s"] - sum(a["self_s"] for a in layers.values())
    return values


def per_layer_metrics(passes) -> dict:
    traced = [layer_values(p) for t, p in passes if t]
    out = {name: statistics.median(v[name] for v in traced) for name in traced[0]}
    # untraced wall times less the time spent sampling the host
    plain = [p["wall_s"] - p["handler_s"] for t, p in passes if not t]
    out["pass.wall_s"] = statistics.median(plain)
    out["trace.overhead_s"] = statistics.median(p["wall_s"] for t, p in passes if t) - out["pass.wall_s"]
    return out


def units() -> dict:
    return {**END_TO_END, **LAYER_FIELDS, **DERIVED_UNITS}


def machine_line(load: tuple, payload: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, **payload.get("machine", {}),
            "loadavg_at_start": list(load)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    load = os.getloadavg()
    if not (SRC / "fpblab" / "__init__.py").is_file():
        print(f"no fpblab sources under {SRC}", file=sys.stderr)
        return 2
    ops = workloads.ops_for(args.workload, args.seed)
    try:
        passes, setups = run_passes([op["argv"] for op in ops], args.seconds, bool(args.trace),
                                    workloads.REFERENCE[args.workload])
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    attempted, failed = check_passes(ops, passes)
    values = per_layer_metrics(passes) if args.trace else end_to_end_metrics(passes, setups)
    unit = units()
    print("machine " + json.dumps(machine_line(load, passes[0][1])))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit[name]} for name, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
