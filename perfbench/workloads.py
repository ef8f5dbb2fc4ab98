"""
The benchmark's workloads: one pass is a list of `fpblab` commands, each
run as `fpblab.cli.main(argv)` in one worker process whose module caches
start cold.

- exact: the big-integer `series` engines. q = 3 is shared by five ops, so
  the caches hit; the off-critical q values are used once each.
- montecarlo: the vectorized Dyck kernel behind the Bernoulli-pair check,
  the batch unrestricted sampler and a 4 MB permutation dump.
- mixed: the same layers through other routes: the scaled-float engine,
  per-call scalar samplers, enumeration, distances and the erf.

Every workload ends with the same tail of tiny ops, one per traced function.
Each op carries the name of its output check (see check.py) and what that
check needs. `seeded` ops take the workload seed as --seed; their output
must be byte-identical in every pass of a run.
"""
from __future__ import annotations

import random

WORKLOADS = ("exact", "montecarlo", "mixed")

# the reference kernels (speed.KERNELS) that resemble each workload's own work
REFERENCE = {
    "exact": ("bigint",),
    "montecarlo": ("numpy",),
    "mixed": ("bigint", "python", "numpy"),
}

# off-critical biases for `exact`: every member has denominator 3, so the
# big-integer sizes, and with them the cost, do not drift with the seed
Q_BELOW = ("4/3", "5/3", "7/3", "8/3")
Q_ABOVE = ("10/3", "11/3")

GROWTH_TOL = {"subcritical": 0.01, "critical": 0.05, "supercritical": 0.01}


def _op(argv: str, check: str, seeded: bool = False, **params) -> dict:
    return {"argv": argv.split(), "check": check, "seeded": seeded, "params": params}


def _exact(seed: int) -> list[dict]:
    rng = random.Random(seed)
    q_lo, q_hi = rng.choice(Q_BELOW), rng.choice(Q_ABOVE)
    ops = [_op(f"zn --q {q_lo} --tau 321 --n-max 1000 --format json", "zn", q=q_lo, n_max=1000)]
    grid = [400, 800, 1200]
    for m in (1, 2, 3):
        ops.append(_op(f"asym --kind moments --q 3 --n-grid 400,800,1200 --m {m}", "moments",
                       q="3", m=m, n_grid=grid))
    # q_hi stops at n = 800: its 3^n-scaled integers make it cost what q = 4 costs at 1200
    for q, regime, n in (("2", "subcritical", 1200), ("3", "critical", 1200), (q_hi, "supercritical", 800)):
        ops.append(_op(f"verify --growth --q {q} --n {n}", "growth",
                       q=q, n=n, verdict="PASS", tol=GROWTH_TOL[regime]))
    ops.append(_op("count --tau 321 --n 300", "count", n=300, qs=["1", "3", q_lo], moment_q="3"))
    ops.append(_op("pmf --n 300 --q 3 --tau 321 --format json", "pmf_exact", n=300, q="3"))
    return ops


def _montecarlo(seed: int) -> list[dict]:
    s = seed
    return [
        # the verdict of a sampled check depends on the seed; the checker
        # holds it to its own value, and the value to a plausible bound
        _op(f"verify --law 2 --q 2 --n 1000 --samples 50000 --seed {s}", "verify", True,
            n_grid=[1000], metric="max-cell", tol=0.005, verdicts=["SEEDED"], max_value=0.02),
        _op(f"pmf --n 1000 --q 1 --tau 321 --mode monte-carlo --samples 20000 --seed {s} --format json",
            "pmf_montecarlo", True, n=1000, tau="321", samples=20000, seed=s),
        _op(f"sample --n 6 --q 1/2 --count 200000 --emit perm --seed {s}", "dump_perm", True,
            n=6, q="1/2", count=200000, seed=s),
        _op(f"sample --n 200 --q 2 --count 20000 --seed {s}", "dump_fp", True,
            n=200, q="2", count=20000, seed=s),
    ]


def _mixed(seed: int) -> list[dict]:
    s = seed
    return [
        _op("verify --law 1 --q 2 --n-grid 25,50,100,200", "verify", n_grid=[25, 50, 100, 200],
            metric="tv", tol=0.01, verdicts=["PASS"] * 4, poisson_q="2"),
        # n = 100 is an honest FAIL (tv 0.01087 > 0.01): the op exits 1 by design
        _op("verify --law 3 --q 2 --n-grid 100,300,1000", "verify", n_grid=[100, 300, 1000],
            metric="tv", tol=0.01, verdicts=["FAIL", "PASS", "PASS"]),
        _op("verify --law 4 --q 3 --n-grid 250,1000", "verify", n_grid=[250, 1000],
            metric="kolmogorov", tol=0.08, verdicts=["PASS", "PASS"]),
        _op("verify --law 5 --q 4 --n 2000", "verify", n_grid=[2000],
            metric="kolmogorov", tol=0.05, verdicts=["PASS"]),
        _op("asym --kind distance --q 5 --law 5 --n-grid 250,500,1000", "distance_table",
            n_grid=[250, 500, 1000], max_value=0.1),
        _op("pmf --n 2000 --q 3 --tau 321 --mode scaled-float", "pmf_float", n=2000, q="3"),
        _op(f"sample --n 200 --q 3 --tau 321 --count 20000 --fp-mode scaled-float --seed {s}",
            "dump_fp", True, n=200, q="3", tau="321", count=20000, seed=s),
        _op(f"sample --n 100 --q 1 --tau 132 --count 600 --emit perm --seed {s}", "dump_perm", True,
            n=100, q="1", tau="132", count=600, seed=s),
        _op(f"sample --n 100 --q 1 --tau 213 --count 600 --emit perm --seed {s}", "dump_perm", True,
            n=100, q="1", tau="213", count=600, seed=s),
        _op(f"sample --n 60 --q 1/2 --tau 321 --count 2000 --emit perm --seed {s}", "dump_perm", True,
            n=60, q="1/2", tau="321", count=2000, seed=s),
        _op(f"sample --n 60 --q 1/2 --tau 123 --count 2000 --emit perm --seed {s}", "dump_perm", True,
            n=60, q="1/2", tau="123", count=2000, seed=s),
        _op("explore --tau 231 --n-max 10 --q-grid 1/2,2,4", "explore",
            tau="231", n_max=10, qs=["1/2", "2", "4"]),
        _op("pmf --n 11 --q 2 --tau 312", "pmf_enum", n=11, q="2", tau="312"),
    ]


def _layer_tail(seed: int) -> list[dict]:
    """
    One tiny op per traced function (about 0.1 s per pass in all), run at
    the end of every workload, so that each per-layer metric is a measured
    time on every workload instead of a constant 0.
    """
    s = seed
    return [
        _op("verify --growth --q 5/2 --n 40", "growth", q="5/2", n=40, verdict="FAIL", tol=0.01),
        _op("asym --kind moments --q 3 --n-grid 20,40 --m 1", "moments", q="3", m=1, n_grid=[20, 40]),
        _op("pmf --n 12 --q 5/2 --tau 321 --format json", "pmf_exact", n=12, q="5/2"),
        _op("verify --law 3 --q 1 --n 60", "verify", n_grid=[60], metric="tv", tol=0.01, verdicts=["PASS"]),
        _op("verify --law 5 --q 4 --n 60", "verify", n_grid=[60], metric="kolmogorov", tol=0.05,
            verdicts=["FAIL"]),
        _op("verify --law 1 --q 2 --n 10", "verify", n_grid=[10], metric="tv", tol=0.01,
            verdicts=["PASS"], poisson_q="2"),
        _op(f"pmf --n 1000 --q 1 --tau 321 --mode monte-carlo --samples 64 --seed {s} --format json",
            "pmf_montecarlo", True, n=1000, tau="321", samples=64, seed=s),
        _op(f"sample --n 8 --q 2 --count 20 --seed {s}", "dump_fp", True, n=8, q="2", count=20, seed=s),
        _op(f"sample --n 10 --q 1/2 --tau 321 --count 8 --emit perm --seed {s}", "dump_perm", True,
            n=10, q="1/2", tau="321", count=8, seed=s),
        _op(f"sample --n 10 --q 5/2 --tau 321 --count 20 --seed {s}", "dump_fp", True,
            n=10, q="5/2", tau="321", count=20, seed=s),
        _op("explore --tau 231 --n-max 6", "explore", tau="231", n_max=6, qs=["1"]),
    ]


def ops_for(workload: str, seed: int) -> list[dict]:
    """The ops of one pass of `workload` under the workload seed."""
    seed %= 2**32  # the samplers key Philox with an unsigned seed
    main = {"exact": _exact, "montecarlo": _montecarlo, "mixed": _mixed}[workload]
    return main(seed) + _layer_tail(seed)
