"""
Tests of the benchmark itself (not part of the tier-1 suite):

    PYTHONPATH=src python3 -m pytest -q perfbench
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import layertrace  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402


def _cli(argv: str) -> str:
    from fpblab import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv.split()) == 0
    return buf.getvalue()


def _fp(s) -> int:
    return sum(v == i for i, v in enumerate(s, 1))


def test_self_time_arithmetic():
    spans = [
        ("cli.main", 0.0, 10.0, -1, {}),
        ("series.avoider_series", 1.0, 4.0, 0, {}),
        ("special.log_of_fraction", 2.0, 3.0, 1, {}),
        ("series.avoider_series", 5.0, 6.0, 0, {}),
        ("series.avoider_polynomials", 7.0, 7.5, 0, {"max_n": 40}),
        ("series.avoider_polynomials", 8.0, 8.5, 0, {"max_n": 30}),
        ("sampling.uniform_avoider_fp_batch", 11.0, 12.0, -1, {"samples": 5}),
        ("sampling.uniform_avoider_fp_batch", 12.0, 14.0, -1, {"samples": 7}),
    ]
    agg = layertrace.summarize(spans)
    assert agg["cli.main"] == {"self_s": 10.0 - 3.0 - 1.0 - 0.5 - 0.5, "calls": 1}
    assert agg["series.avoider_series"] == {"self_s": (3.0 - 1.0) + 1.0, "calls": 2}
    assert agg["special.log_of_fraction"]["self_s"] == 1.0
    assert agg["series.avoider_polynomials"]["max_n"] == 40
    assert agg["sampling.uniform_avoider_fp_batch"]["samples"] == 12
    # self times add up to the duration of the root spans
    assert sum(a["self_s"] for a in agg.values()) == pytest.approx(10.0 + 3.0)


def test_reference_seconds_arithmetic():
    sampler = speed.Sampler(("bigint",))
    sampler.nominal_s = 1.0
    # handlers of 2 s every 10 s: 8 s of work per stretch at kernel time 2 (half speed)
    sampler.samples = [(10.0 * i, 10.0 * i + 2.0) for i in range(1, 6)]
    assert sampler.handler_s(0.0, 60.0) == 10.0
    assert sampler.scaled(0.0, 60.0) == pytest.approx((60.0 - 10.0) / 2.0)
    # one preempted sample does not rescale its stretch: the local time is a median of SPAN
    sampler.samples[2] = (30.0, 38.0)
    assert sampler.scaled(0.0, 60.0) == pytest.approx((60.0 - 16.0) / 2.0)
    assert speed.Sampler(("bigint",)).scaled(1.0, 4.0) == 3.0  # no samples: real time


def test_perturbed_exact_value_counts_as_failed_op():
    op = {"argv": "zn --q 7/3 --tau 321 --n-max 40 --format json".split(), "check": "zn",
          "seeded": False, "params": {"q": "7/3", "n_max": 40}}
    good = _cli(" ".join(op["argv"]))
    data = json.loads(good)
    num, den = data["rows"][17][1].split("/")
    data["rows"][17][1] = f"{int(num) + 1}/{den}"
    bad = json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"

    def pass_with(out):
        return (False, {"ops": [{"rc": 0, "out": out, "exc": None}]})

    assert run.check_passes([op], [pass_with(good)]) == (1, 0)
    assert run.check_passes([op], [pass_with(good), pass_with(bad)]) == (2, 1)


def test_seeded_output_must_repeat_across_passes():
    op = {"argv": [], "check": "explore", "seeded": True,
          "params": {"tau": "231", "n_max": 4, "qs": ["2"]}}
    out = _cli("explore --tau 231 --n-max 4 --q-grid 2")
    passes = [(False, {"ops": [{"rc": 0, "out": o, "exc": None}]}) for o in (out, out + "\n")]
    assert run.check_passes([op], passes[:1]) == (1, 0)
    assert run.check_passes([op], passes) == (2, 1)


def test_verify_fail_is_correct_only_when_expected():
    argv = "verify --law 3 --q 2 --n-grid 100,300"
    from fpblab import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv.split())
    op = {"check": "verify", "params": {"n_grid": [100, 300], "metric": "tv", "tol": 0.01,
                                        "verdicts": ["FAIL", "PASS"]}}
    assert rc == 1 and check.check_op(op, rc, buf.getvalue()) == []
    assert check.check_op(op, 0, buf.getvalue())  # a FAIL line must exit 1
    op["params"]["verdicts"] = ["PASS", "PASS"]
    assert check.check_op(op, rc, buf.getvalue())


def _brute_rows(n: int) -> list[int]:
    counts = [0] * (n + 1)
    for s in itertools.permutations(range(1, n + 1)):
        if not oracle.contains(s, "321"):
            counts[_fp(s)] += 1
    return counts


def _falling(k: int, m: int) -> int:
    out = 1
    for i in range(m):
        out *= k - i
    return out


@pytest.mark.parametrize("q", [Fraction(3), Fraction(7, 3), Fraction(1, 2), Fraction(4), Fraction(2)])
def test_oracle_normalization_and_moments_match_enumeration(q):
    for n in range(0, 8):
        row = _brute_rows(n)
        assert oracle.normalization(q, n)[n] == sum(c * q**k for k, c in enumerate(row))
        if q != 2:
            for m in (1, 2, 3):
                want = sum(_falling(k, m) * c * q**k for k, c in enumerate(row))
                assert oracle.factorial_moment_coefficient(m, q, n) == want


def test_contains_matches_brute_force():
    for n in range(1, 7):
        for s in itertools.permutations(range(1, n + 1)):
            for tau in oracle.PATTERNS:
                pat = tuple(int(c) for c in tau)
                brute = any(
                    all((s[a] < s[b]) == (pat[x] < pat[y]) for (x, a), (y, b) in itertools.combinations(enumerate(idx), 2))
                    for idx in itertools.combinations(range(n), 3))
                assert oracle.contains(s, tau) == brute, (s, tau)


@pytest.mark.parametrize("tau", ["231", "312"])
def test_avoider_class_is_the_whole_class(tau):
    for n in range(0, 8):
        got = oracle.avoider_class(n, tau)
        assert len(got) == len(set(got)) == oracle.catalan(n)[n]
        assert not any(oracle.contains(s, tau) for s in got)


def test_traced_outputs_match_and_self_times_account_for_the_op():
    from fpblab import cli

    argvs = [["zn", "--q", "5/3", "--tau", "321", "--n-max", "60"],
             ["verify", "--law", "5", "--q", "4", "--n", "300"],
             ["sample", "--n", "12", "--q", "1/2", "--tau", "321", "--count", "50", "--emit", "perm"]]
    plain, _ = _run_ops(argvs)
    tracer = layertrace.Tracer()
    restore = layertrace.install(tracer)
    try:
        # the name cli imported from dist is rebound along with dist's own
        assert cli.fp_pmf is cli.dist.fp_pmf and cli.fp_pmf.__name__ == "wrapper"
        traced, wall = _run_ops(argvs)
    finally:
        restore()
    assert [r["out"] for r in traced] == [r["out"] for r in plain]
    agg = layertrace.summarize(tracer.spans)
    assert agg["cli.main"]["calls"] == 3
    assert agg["dist.fp_pmf.scaled-float"]["calls"] == 1
    assert tracer.counts["special.normal_cdf"] > 0
    assert agg["sampling.biased_avoider_permutation"]["attempts"] >= 50
    assert sum(a["self_s"] for a in agg.values()) <= wall
    assert sum(a["self_s"] for a in agg.values()) == pytest.approx(wall, rel=0.05)


def _run_ops(argvs):
    import worker
    from fpblab import cli

    results, first, end = worker.run_ops(cli, argvs)
    return results, end - first


def test_benchmark_json_lists_every_reported_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    units = run.units()
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert end_to_end == run.END_TO_END
    assert per_layer == {k: v for k, v in units.items() if k not in run.END_TO_END}
    assert [w["name"] for w in bench["workloads"]] == list(run.workloads.WORKLOADS)
