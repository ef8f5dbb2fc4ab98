"""CLI surface: outputs, determinism, exit codes, round trips."""
import contextlib
import hashlib
import json
import os
import tracemalloc
from fractions import Fraction

import pytest

from fpblab import cli, dist, sampling, series
from fpblab.cli import main
from fpblab.perms import fixed_points


def format_perm(sigma):
    """A permutation as the dumps print it: its values joined by spaces, e.g. "3 1 2 4 5"."""
    return " ".join(map(str, sigma))


def parse_perm(text):
    """Inverse of `format_perm`, checking that the text holds a permutation of 1..n."""
    sigma = tuple(map(int, text.split()))
    assert sorted(sigma) == list(range(1, len(sigma) + 1)), f"not a permutation: {text!r}"
    return sigma


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_examples(capsys):
    code, out, _ = run_cli(capsys, "count", "--tau", "321", "--n", "4")
    assert code == 0
    rows = [line for line in out.splitlines() if not line.startswith("#")]
    assert rows == ["k,count", "0,6", "1,4", "2,3", "3,0", "4,1"]
    code, out, _ = run_cli(capsys, "count", "--tau", "321", "--n", "1")
    assert [l for l in out.splitlines() if not l.startswith("#")] == ["k,count", "0,0", "1,1"]
    # oracle-recomputed counts for a pattern outside the series class
    code, out, _ = run_cli(capsys, "count", "--tau", "231", "--n", "3")
    assert [l for l in out.splitlines() if not l.startswith("#")] == [
        "k,count", "0,1", "1,3", "2,0", "3,1",
    ]


def test_pmf_examples(capsys):
    code, out, _ = run_cli(capsys, "pmf", "--n", "3", "--q", "2", "--tau", "321")
    assert code == 0
    assert [l for l in out.splitlines() if not l.startswith("#")] == [
        "k,probability", "0,1/7", "1,2/7", "3,4/7",
    ]
    code, out, _ = run_cli(capsys, "pmf", "--n", "2", "--q", "1")
    assert [l for l in out.splitlines() if not l.startswith("#")] == [
        "k,probability", "0,1/2", "2,1/2",
    ]


def test_pmf_scaled_float_sums_to_one(capsys):
    code, out, _ = run_cli(
        capsys, "pmf", "--n", "400", "--q", "3", "--tau", "321", "--mode", "scaled-float"
    )
    assert code == 0
    total = sum(
        float(line.split(",")[1])
        for line in out.splitlines()
        if not line.startswith("#") and not line.startswith("k,")
    )
    assert abs(total - 1.0) < 1e-12


@pytest.mark.parametrize("q", [2, 3, 4])
def test_pmf_scaled_float_matches_exact_moments_at_n2000(capsys, q):
    # and at n = 10 000, the eval cap of the exact moments, at and above the phase point
    for n in (2000,) if q == 2 else (2000, 10_000):
        code, out, _ = run_cli(capsys, "pmf", "--n", str(n), "--q", str(q), "--tau", "321",
                               "--mode", "scaled-float")
        assert code == 0
        law = {int(k): float(p) for k, p in
               (l.split(",") for l in out.splitlines() if not l.startswith(("#", "k,")))}
        z = series.avoider_normalization(q, n)
        moments = (sum(k * p for k, p in law.items()), sum(k * (k - 1) * p for k, p in law.items()))
        for m, got in enumerate(moments, 1):
            want = float(series.factorial_moment_coefficient(m, q, n) / z)
            assert abs(got - want) <= 1e-9 * want, (n, m, got, want)


def test_pmf_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "pmf", "--n", "5", "--q", "1/3", "--tau", "132",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n" == out
    assert data["q"] == "1/3" and data["tau"] == "132"


def test_pmf_prints_numbers_past_the_digit_limit(capsys):
    # its probabilities have 4900-digit denominators, which str() refuses
    q = "1/1" + "0" * 49
    want = dist.fp_pmf(dist.MeasureSpec(100, Fraction(q), "321"))
    code, out, err = run_cli(capsys, "pmf", "--n", "100", "--q", q, "--tau", "321")
    assert code == 0 and err == ""
    rows = [line.split(",") for line in out.splitlines() if not line.startswith("#")][1:]
    assert {int(k): series._text_to_rational(p) for k, p in rows} == want.weights
    assert max(len(p) for _, p in rows) > 4300
    code, out, err = run_cli(capsys, "pmf", "--n", "100", "--q", q, "--tau", "321",
                             "--format", "json")
    assert code == 0 and err == ""
    assert out == dist.pmf_to_json(want)
    assert dist.pmf_to_json(dist.pmf_from_json(out)) == out


# sha256 of stdout: exact values and canonical JSON must stay byte-identical
# through any rework of the engines, the number formatter or the table writer
CANONICAL_STDOUT = {
    "count --tau 321 --n 300": "0fdc9402cad0ce611032d05e056d66c0c9e0bd625c5469f6959b60e74601a301",
    "zn --q 7/3 --tau 321 --n-max 1000 --format json":
        "bcc486e343c1f1356a039c8c189da240cb4fef93d14d54d45d3d9b1a01e30862",
    "pmf --n 300 --q 3 --tau 321 --format json":
        "9acc1fd49f5e8238d9b0d8db5950e96d9d37ff60dc20805748d74fa4777ed8ee",
    "asym --kind moments --q 3 --n-grid 400,800,1200 --m 2":
        "71e0669a9fe11e38a145907abb7c1cca258fce6006a7d27234c967f662c8c664",
    "verify --growth --q 2 --n 1200": "916ee26448c784076c55e96642ad435367c8a1f674fbdaaaf3d82d391e192516",
    "explore --tau 231 --n-max 10 --q-grid 1/2,2,4":
        "09f4891e05405d28647da2786762c07f142dcb28c54e50ab452698e413ff6a57",
    "pmf --n 11 --q 2 --tau 312": "872dfd7efccbbed31df8e2354f72075493ffcca4fb0116d48f9bf2294d5935d2",
    "count --tau 231 --n 12": "8bf179c8d5858629c86531a6f2793514e8fd0dcfc01d3e2bb78f1432b986a341",
    "zn --q 7/3 --n-max 200": "6b931dad0d474ad7578abd8894c23ff69af4fcc67bd78b0e9cd24993762b5f48",
    "explore --tau 123 --n-max 10 --q-grid 1/2,2 --emit pmf":
        "79f5df7b61b9a78f1953bfd78620c815dd259d79d7e3a512c6582f1956efb9d7",
    # the tables read off one recurrence pass: a denominator 3^n, the n = 0 row
    # printed "1" at q = 1/2, the q = 2 branch, and moments at n < m (exactly 0)
    "verify --growth --q 10/3 --n 800": "c4b1fda71d45d73dd3c38a46578947d5f6aa60b6dbed18a969faef33db4bf401",
    "zn --q 1/2 --tau 321 --n-max 50": "73bdb17d38c42a4a9c85fa8a108169e9b69fe66606d3fc682213ec4bf57aa113",
    "zn --q 2 --tau 132 --n-max 40": "773561fc0f7dc7157d8d01144cb46be9193541c468bd65e90afdc52cbd4226ba",
    "asym --kind moments --q 3 --n-grid 1,2,400 --m 3":
        "2c79ec60db52dfdda62c1c1138bb700a89032cdfc62e0f6c80e4bd3394b19a7a",
    # seeded dumps: the rejection route (q < 1), whose rounds of at most _block_rows(16 n)
    # rows set the stream (re-taken when a dump became one call), and the unrestricted batch
    "sample --n 60 --q 1/2 --tau 321 --count 2000 --emit perm --seed 7":
        "a4dcce46530f6d138625c18b7a93b28edeb60e5ea39d19eeebe6afe3c5a00316",
    "sample --n 60 --q 1/2 --tau 123 --count 2000 --emit perm --seed 7":
        "b580740db8e7964c9a5ee14078d6d59ef5e78199e240b2e8ba81448eade89a16",
    "sample --n 12 --q 1/2 --tau 132 --count 50 --emit perm --seed 7":
        "cbd08c224e21f734143ffdcc1cf15059919c14299ea746259a9fe4d4a5e80432",
    "sample --n 6 --q 1/2 --count 20000 --emit perm --seed 7":
        "2637cdfd60ef8192e9f2280212f3f3834999f26ccfc8909cc1c7c97859132055",
}


@pytest.mark.parametrize("argv", list(CANONICAL_STDOUT))
def test_canonical_exact_outputs_are_pinned(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == CANONICAL_STDOUT[argv]


def test_table_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "count", "--tau", "132", "--n", "5", "--format", "json")
    data = json.loads(out)
    assert json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n" == out


def test_zn_unrestricted_and_avoiding(capsys):
    code, out, _ = run_cli(capsys, "zn", "--q", "2", "--n-max", "4")
    assert [l for l in out.splitlines() if not l.startswith("#")] == [
        "n,value", "0,1", "1,2", "2,5", "3,16", "4,65",
    ]  # closed form: q^4+6q^2+8q+9 at q=2 is 65
    code, out, _ = run_cli(capsys, "zn", "--q", "3", "--tau", "321", "--n-max", "3")
    assert out.splitlines()[-1] == "3,35"
    code, _, err = run_cli(capsys, "zn", "--q", "2", "--tau", "231", "--n-max", "3")
    assert code == 2 and "explore" in err


def test_sample_determinism_and_header(capsys):
    code, out1, _ = run_cli(capsys, "sample", "--n", "30", "--q", "2", "--count", "10",
                            "--seed", "7")
    code, out2, _ = run_cli(capsys, "sample", "--n", "30", "--q", "2", "--count", "10",
                            "--seed", "7")
    assert code == 0 and out1 == out2
    assert "# seed=7" in out1 and "# n=30" in out1
    code, out3, _ = run_cli(capsys, "sample", "--n", "30", "--q", "2", "--count", "10",
                            "--seed", "7", "--stream", "1")
    assert out3 != out1


def test_sample_perm_emission_avoids(capsys):
    from fpblab.perms import avoids

    # q = 1/2 draws by rejection, q = 1 keeps every uniform avoider it draws
    for q, tau in (("1/2", "321"), ("1", "321"), ("1", "123"), ("1", "132"), ("1", "213")):
        code, out, _ = run_cli(capsys, "sample", "--n", "12", "--q", q, "--tau", tau,
                               "--count", "6", "--seed", "3", "--emit", "perm")
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith(("#", "sample_index"))]
        assert len(lines) == 6, (q, tau)
        for line in lines:
            _, fp, perm_text = line.split(",")
            sigma = parse_perm(perm_text)
            assert avoids(sigma, tau), (q, tau)
            assert sum(1 for i, v in enumerate(sigma, 1) if v == i) == int(fp)


def test_sample_perm_emission_at_n0(capsys):
    # the empty permutation, once per sample, for every Dyck pattern as for S_0
    for q in ("1/2", "1"):
        for argv in (["--tau", "321"], ["--tau", "123"], ["--tau", "132"], ["--tau", "213"], []):
            code, out, err = run_cli(capsys, "sample", "--n", "0", "--q", q, "--count", "2",
                                     "--emit", "perm", *argv)
            assert code == 0 and err == "", (q, argv)
            assert [l for l in out.splitlines() if not l.startswith("#")] == [
                "sample_index,fp,perm", "0,0,", "1,0,"], (q, argv)
            code, out, err = run_cli(capsys, "sample", "--n", "0", "--q", q, "--count", "2",
                                     "--emit", "perm", "--format", "json", *argv)
            assert code == 0 and err == "" and out.endswith('"rows":[[0,0,""],[1,0,""]]}\n'), (q, argv)


def _reference_dump(columns, meta, rows):
    """A dump as CSV and canonical JSON, formatted row by row with `str` and `json.dumps`."""
    csv = [f"# {k}={v}" for k, v in meta.items()] + [",".join(columns)]
    csv += [",".join(str(v) for v in row) for row in rows]
    payload = {"columns": columns, "meta": meta, "rows": rows}
    return {"csv": "\n".join(csv) + "\n",
            "json": json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"}


def _check_dump(capsys, tmp_path, argv, want):
    """`sample argv` writes `want`, as CSV and JSON, on stdout and in the --out file."""
    for fmt, text in want.items():
        code, out, _ = run_cli(capsys, "sample", *argv, "--format", fmt)
        assert code == 0 and out == text, (argv, fmt)
        target = tmp_path / f"dump.{fmt}"
        code, out, _ = run_cli(capsys, "sample", *argv, "--format", fmt, "--out", str(target))
        assert code == 0 and out == "" and target.read_text() == text, (argv, fmt, "--out")


def _check_dumps_of(capsys, tmp_path, n, q, tau, count, seed=5):
    """The perm dump (and, without tau, the fp dump) against the sampler's own rows."""
    if tau is None:
        arr = sampling.sample_biased_unrestricted_batch(n, q, sampling.RandomSource(seed), count)
    else:
        arr, _ = sampling.biased_avoider_permutation(n, q, tau, sampling.RandomSource(seed), count)
    sigmas = [tuple(int(v) for v in row) for row in arr]
    meta = {"seed": str(seed), "stream_id": "0", "n": str(n), "q": q, "tau": tau or ""}
    for emit in ("fp", "perm") if tau is None else ("perm",):
        columns = ["sample_index", "fp"] + (["perm"] if emit == "perm" else [])
        rows = [[i, fixed_points(s)] + ([format_perm(s)] if emit == "perm" else [])
                for i, s in enumerate(sigmas)]
        argv = ["--n", str(n), "--q", q, "--count", str(count), "--seed", str(seed),
                "--emit", emit] + (["--tau", tau] if tau else [])
        _check_dump(capsys, tmp_path, argv, _reference_dump(columns, meta, rows))


@pytest.mark.parametrize("n", [0, 1, 6, 12])
@pytest.mark.parametrize("count", [0, 1, 2, 3, 4, 5, 7])
@pytest.mark.parametrize("tau, q", [(None, "3/2"), ("321", "1"), ("132", "1"), ("321", "1/2"), ("231", "2")],
                         ids=["None", "321", "132", "321-rejection", "231-enumeration"])
def test_sample_dumps_match_per_row_reference(capsys, monkeypatch, tmp_path, n, count, tau, q):
    # the dump formatted row by row from the sampler's own output, as CSV and JSON, on
    # stdout and in the --out file; three rows per streamed block, so blocks split the table
    monkeypatch.setattr(cli, "_BLOCK", 3)
    _check_dumps_of(capsys, tmp_path, n, q, tau, count)


@pytest.mark.parametrize("block", [7, 10, 4096], ids=["inside-blocks", "at-block-borders", "one-block"])
def test_dump_index_widths_match_per_row_reference(capsys, monkeypatch, tmp_path, block):
    # the sample index grows a digit at rows 10, 100 and 1000: inside a block of 7 rows
    # (7-13, 98-104, 994-1000), as a block of 10 rows starts, or in one block
    monkeypatch.setattr(cli, "_BLOCK", block)
    _check_dumps_of(capsys, tmp_path, 2, "1/2", None, 1001)
    _check_dumps_of(capsys, tmp_path, 3, "1", "321", 1001)


@pytest.mark.parametrize("n", [0, 1, 9, 10, 99, 100])
@pytest.mark.parametrize("count", [0, 1, 5])
def test_dump_entry_widths_match_per_row_reference(capsys, tmp_path, n, count):
    # permutation entries and fixed-point counts of one digit (n = 9) and of two (n = 10),
    # up to 99 and up to 100; the empty permutation at n = 0
    _check_dumps_of(capsys, tmp_path, n, "5", None, count)
    _check_dumps_of(capsys, tmp_path, n, "1", "321", count)


def test_wide_dump_blocks_match_per_row_reference(capsys, tmp_path):
    # 1002 integers a row: a block holds 65 rows of n = 1000, so 70 rows take two blocks
    assert cli._BLOCK_CELLS // 1002 < 70
    _check_dumps_of(capsys, tmp_path, 1000, "1", "321", 70)


@pytest.mark.parametrize("tau, mode", [(None, "exact"), ("321", "exact"), ("321", "scaled-float")])
def test_fp_dumps_match_per_row_reference(capsys, monkeypatch, tmp_path, tau, mode):
    # the counts alone, by each of their routes: at q = 5 the counts at n = 100 run past
    # one digit; 7 rows a block, so the index crosses its digit widths inside blocks
    monkeypatch.setattr(cli, "_BLOCK", 7)
    q, seed = "5", 11
    for n, count in ((0, 1), (1, 0), (9, 1), (10, 5), (100, 1001)):
        ks = sampling.sample_fp_count_batch(n, q, tau, sampling.RandomSource(seed), count, mode=mode)
        meta = {"seed": str(seed), "stream_id": "0", "n": str(n), "q": q, "tau": tau or ""}
        rows = [[i, int(k)] for i, k in enumerate(ks)]
        argv = ["--n", str(n), "--q", q, "--count", str(count), "--seed", str(seed),
                "--fp-mode", mode] + (["--tau", tau] if tau else [])
        _check_dump(capsys, tmp_path, argv, _reference_dump(["sample_index", "fp"], meta, rows))
    assert max(k for _, k in rows) >= 10


def test_sample_dump_memory_is_bounded():
    # the 200 000-row dump streams: past what the sampler itself peaks at, formatting
    # holds one block of rows, not the table (numpy reports its arrays to tracemalloc)
    n, count, seed = 6, 200_000, 4242
    tracemalloc.start()
    try:
        sampling.sample_biased_unrestricted_batch(n, "1/2", sampling.RandomSource(seed), count)
        sampler_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            code = main(["sample", "--n", str(n), "--q", "1/2", "--count", str(count),
                         "--emit", "perm", "--seed", str(seed)])
        dump_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert dump_peak - sampler_peak < 8 * 2**20, (dump_peak, sampler_peak)


def test_wide_dump_memory_is_bounded():
    # a block is capped in integers as well as rows, so a dump of long permutations
    # holds a few of them at a time, as the 200 000-row dump of n = 6 does
    n, count, seed = 1000, 2000, 4242
    tracemalloc.start()
    try:
        sampling.biased_avoider_permutation(n, "1", "321", sampling.RandomSource(seed), count)
        sampler_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            code = main(["sample", "--n", str(n), "--q", "1", "--tau", "321", "--count",
                         str(count), "--emit", "perm", "--seed", str(seed)])
        dump_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert dump_peak - sampler_peak < 8 * 2**20, (dump_peak, sampler_peak)


@pytest.mark.parametrize("n", [0, 1, 6, 200])
@pytest.mark.parametrize("q", ["1/2", "2"])
def test_unrestricted_fp_dump_is_the_perm_dump_fp_column(capsys, n, q):
    # the counts alone are the K that the whole-permutation sampler draws first
    argv = ["sample", "--n", str(n), "--q", q, "--count", "300", "--seed", "13"]
    code, fp_out, _ = run_cli(capsys, *argv)
    assert code == 0
    code, perm_out, _ = run_cli(capsys, *argv, "--emit", "perm")
    assert code == 0
    fp_rows = fp_out.splitlines()[6:]
    perm_rows = perm_out.splitlines()[6:]
    assert len(fp_rows) == len(perm_rows) == 300
    assert fp_rows == [row.rsplit(",", 1)[0] for row in perm_rows]


def test_sample_refuses_negative_sizes(capsys):
    for argv, why in ((["--n", "-1", "--q", "2", "--tau", "321", "--count", "2"], "n must be >= 0"),
                      (["--n", "3", "--q", "2", "--count", "-3"], "count must be >= 0"),
                      (["--n", "-1", "--q", "2", "--count", "2"], "n must be >= 0"),
                      (["--n", "3", "--q", "1/2", "--tau", "321", "--count", "-1", "--emit", "perm"],
                       "count must be >= 0"),
                      (["--n", "3", "--q", "1", "--tau", "321", "--count", "-1", "--emit", "perm"],
                       "count must be >= 0"),
                      (["--n", "-1", "--q", "2", "--tau", "231", "--count", "2", "--emit", "perm"],
                       "n must be >= 0")):
        code, out, err = run_cli(capsys, "sample", *argv)
        assert code == 2 and out == "", argv
        assert err == f"error: {why}\n", argv


@pytest.mark.parametrize("argv", [
    ["count", "--tau", "321", "--n", "-1"],
    ["count", "--tau", "231", "--n", "-1"],
    ["asym", "--kind", "moments", "--q", "3", "--n-grid=-5,10", "--m", "1"],
    ["asym", "--kind", "distance", "--q", "5", "--law", "5", "--n-grid=-5,10"],
    ["zn", "--q", "2", "--n-max", "-1"],
    ["zn", "--q", "2", "--tau", "321", "--n", "-1"],
    ["explore", "--tau", "231", "--n-max", "-1"],
])
def test_negative_sizes_are_refused(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", "error: n must be >= 0\n")


def test_sample_refusal_exit_code(capsys):
    code, _, err = run_cli(capsys, "sample", "--n", "20", "--q", "4", "--tau", "321",
                           "--count", "3", "--emit", "perm")
    assert code == 2
    assert "unsupported" in err
    # past the enumeration cap 231 has no route at any q; the reason names the pattern
    code, _, err = run_cli(capsys, "sample", "--n", "20", "--q", "1", "--tau", "231",
                           "--count", "3", "--emit", "perm")
    assert code == 2
    assert "unsupported" in err and "pattern 231" in err and "> 1" not in err
    # a 123-avoider has at most 2 fixed points: its q > 1 refusal does not call rejection slow
    code, out, err = run_cli(capsys, "sample", "--n", "30", "--q", "2", "--tau", "123",
                             "--count", "3", "--emit", "perm")
    assert code == 2 and out == ""
    assert "unsupported" in err and "pattern 123" in err and "slow" not in err


def test_sample_refuses_nonpositive_bias(capsys):
    for argv in (["--q", "-1", "--count", "4"],
                 ["--q", "-1", "--tau", "321", "--count", "4"],
                 ["--q", "-1", "--tau", "132", "--count", "3", "--emit", "perm"],
                 ["--q", "0", "--tau", "132", "--count", "3", "--emit", "perm"]):
        code, out, err = run_cli(capsys, "sample", "--n", "5", *argv)
        assert code == 2 and out == "", argv
        assert "bias parameter q must be positive" in err


@pytest.mark.parametrize("command", [
    ["sample", "--n", "5", "--count", "2"],
    ["pmf", "--n", "5", "--q", "1", "--tau", "321", "--mode", "monte-carlo", "--samples", "10"],
    ["verify", "--law", "2", "--q", "1", "--n", "20", "--samples", "10"],
], ids=["sample", "pmf", "verify"])
def test_seed_or_stream_out_of_range_is_refused(capsys, command):
    # each is one uint64 word of the Philox key: out of range it is a refused value (exit 2), not a crash
    for flag, value, name in (("--seed", "-1", "seed"), ("--stream", "-3", "stream id"),
                              ("--seed", str(2**64), "seed"), ("--stream", str(2**64), "stream id")):
        code, out, err = run_cli(capsys, *command, flag, value)
        assert (code, out, err) == (2, "", f"error: {name} must be in [0, 2^64), got {value}\n"), flag
    code, out, _ = run_cli(capsys, *command, "--seed", str(2**64 - 1), "--stream", str(2**64 - 1))
    assert code in (0, 1) and out


def test_verify_n_zero_is_checked_at_zero(capsys):
    # --n 0 is checked at n = 0, as --n-grid 0 is, and never replaced by the default n
    code, out, err = run_cli(capsys, "verify", "--growth", "--q", "3", "--n", "0")
    assert (code, out, err) == (2, "", "error: n must be >= 1\n")
    code, out, err = run_cli(capsys, "verify", "--law", "1", "--q", "2", "--n", "0")
    assert code == 1 and err == ""
    assert out.startswith("FAIL check=poisson q=2 n=0 ") and "\n0,2,,poisson," in out
    assert run_cli(capsys, "verify", "--law", "1", "--q", "2", "--n-grid", "0") == (code, out, err)


@pytest.mark.parametrize("argv", [
    ["--q", "0"],
    ["--q-grid", "0"],
    ["--q", "-1"],
    ["--q-grid", "-1", "--emit", "pmf"],
    ["--q-grid", "1/2,2,-1"],
])
def test_explore_refuses_nonpositive_bias(capsys, argv):
    # as pmf does: q = 0 used to end in a ZeroDivisionError, q < 0 printed negative "probabilities"
    code, out, err = run_cli(capsys, "explore", "--tau", "321", "--n-max", "3", *argv)
    assert (code, out, err) == (2, "", "error: bias parameter q must be positive\n")


@pytest.mark.parametrize("grid, bad", [("1/0", "1/0"), ("1,x", "x")])
def test_explore_refuses_unreadable_bias_grid(capsys, grid, bad):
    # each grid entry is read as --q is: a usage error (exit 2) with --q's message, no traceback
    with pytest.raises(SystemExit) as exc:
        main(["explore", "--tau", "321", "--n-max", "3", "--q-grid", grid])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    message = err.splitlines()[-1].partition("argument --q-grid: ")[2]
    with pytest.raises(SystemExit):
        main(["explore", "--tau", "321", "--n-max", "3", "--q", bad])
    assert message and capsys.readouterr().err.splitlines()[-1].endswith("argument --q: " + message)


@pytest.mark.parametrize("q", ["0", "-1"])
def test_growth_table_refuses_nonpositive_bias_before_the_pass(capsys, monkeypatch, q):
    # as `verify --growth` does; it used to fail after the whole pass, on log(U_1 <= 0)
    def no_pass(*args):
        raise AssertionError("the normalization recurrence ran")

    monkeypatch.setattr(series, "_scaled_normalizations", no_pass)
    for grid in ("1,2,3", ","):
        code, out, err = run_cli(capsys, "asym", "--kind", "growth", "--q", q, "--n-grid", grid)
        assert (code, out, err) == (2, "", "error: bias parameter q must be positive\n"), grid


@pytest.mark.parametrize("kind", [["growth", "--q", "2"], ["moments", "--q", "3", "--m", "1"],
                                  ["distance", "--q", "2", "--law", "1"]], ids=lambda k: k[0])
def test_asym_empty_grid_prints_an_empty_table(capsys, kind):
    code, out, err = run_cli(capsys, "asym", "--kind", *kind, "--n-grid", ",")
    assert (code, err) == (0, "")
    assert out == f"# kind={kind[0]}\n# q={kind[2]}\n# ratio_monotone=True\nn,exact,predicted,ratio\n"


def test_moments_table_names_the_first_n_past_the_budget(capsys):
    # the budget is checked along the grid in ascending order, so the first n past it is named
    code, out, err = run_cli(capsys, "asym", "--kind", "moments", "--q", "3",
                             "--n-grid", "5,20000,30000", "--m", "1")
    assert (code, out, err) == (2, "", "error: requested eval size 20000 exceeds budget 10000\n")


def test_cached_parser_leaks_nothing_between_calls(capsys):
    assert cli.build_parser() is cli.build_parser()
    _, seeded, _ = run_cli(capsys, "sample", "--n", "30", "--q", "2", "--count", "10", "--seed", "5")
    _, plain, _ = run_cli(capsys, "sample", "--n", "30", "--q", "2", "--count", "10")
    _, zero, _ = run_cli(capsys, "sample", "--n", "30", "--q", "2", "--count", "10", "--seed", "0")
    assert "# seed=5" in seeded and plain == zero != seeded and "# seed=0" in plain
    # an option given once is back at its default on the next call
    assert run_cli(capsys, "asym", "--kind", "moments", "--q", "3", "--n-grid", "5", "--m", "1")[0] == 0
    code, out, err = run_cli(capsys, "asym", "--kind", "moments", "--q", "3", "--n-grid", "5")
    assert (code, out, err) == (2, "", "error: kind='moments' needs the order m\n")
    assert run_cli(capsys, "zn", "--q", "2", "--n", "3", "--format", "json")[1].startswith("{")
    assert run_cli(capsys, "zn", "--q", "2", "--n", "3")[1].startswith("# q=2\n")


@pytest.mark.parametrize("q", ["1" + "0" * 400, "1/1" + "0" * 400], ids=["1e400", "1e-400"])
def test_scaled_float_refuses_q_outside_float_range(capsys, q):
    # q is positive but has no double: refused, not a traceback; the exact mode serves it
    for argv in (["pmf", "--n", "10", "--q", q, "--tau", "321", "--mode", "scaled-float"],
                 ["sample", "--n", "10", "--q", q, "--tau", "321", "--count", "5",
                  "--fp-mode", "scaled-float"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: q = ") and "Traceback" not in err, argv
        assert "outside the float range [2.2250738585072014e-308, 1.7976931348623157e+308]" in err
        assert "--mode exact" in err
    code, out, err = run_cli(capsys, "pmf", "--n", "10", "--q", q, "--tau", "321", "--mode", "exact")
    assert code == 0 and err == ""


def test_monte_carlo_refuses_nonpositive_samples(capsys):
    for argv in (["verify", "--law", "2", "--q", "1", "--n", "10", "--samples", "0"],
                 ["pmf", "--n", "10", "--q", "1", "--tau", "321", "--mode", "monte-carlo",
                  "--samples", "0"],
                 ["pmf", "--n", "10", "--q", "2", "--tau", "123", "--mode", "monte-carlo",
                  "--samples", "-3"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert "samples must be positive" in err


def test_verify_pass_and_fail_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--law", "1", "--q", "2", "--n", "100")
    assert code == 0 and out.startswith("PASS check=poisson")
    code, out, _ = run_cli(capsys, "verify", "--law", "3", "--q", "2", "--n", "60",
                           "--tol", "1e-9")
    assert code == 1 and out.startswith("FAIL check=neg-binomial")
    code, _, err = run_cli(capsys, "verify", "--law", "4", "--q", "2", "--n", "100")
    assert code == 2 and "q = 3" in err
    code, _, err = run_cli(capsys, "verify", "--q", "2")
    assert code == 2


@pytest.mark.parametrize("law, q, n", [("1", "2", 50), ("3", "2", 100), ("4", "3", 400), ("5", "4", 400)])
def test_verify_and_distance_table_agree(capsys, law, q, n):
    # one route per law: the measure and the distance of `asym --kind distance` are verify's
    code, out, _ = run_cli(capsys, "verify", "--law", law, "--q", q, "--n", str(n))
    assert code in (0, 1)
    verdict = out.splitlines()[0]
    verified = verdict.split()[-2].partition("=")[2]
    code, out, _ = run_cli(capsys, "asym", "--kind", "distance", "--q", q, "--n-grid", str(n),
                           "--law", law)
    assert code == 0
    assert out.splitlines()[-1].split(",")[:2] == [str(n), verified]


def test_verify_growth(capsys):
    code, out, _ = run_cli(capsys, "verify", "--growth", "--q", "4", "--n", "300")
    assert code == 0
    assert "PASS check=growth" in out
    assert "regime=supercritical" in out


def test_verify_law_name_alias(capsys):
    code, out, _ = run_cli(capsys, "verify", "--law", "poisson", "--q", "1", "--n", "50")
    assert code == 0 and "check=poisson" in out


def test_asym_table(capsys):
    code, out, _ = run_cli(capsys, "asym", "--kind", "growth", "--q", "2",
                           "--n-grid", "100,400")
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "n,exact,predicted,ratio"
    assert len(lines) == 3
    ratio = float(lines[-1].split(",")[-1])
    assert abs(ratio - 1) < 0.05


def test_explore_means_increase(capsys):
    code, out, _ = run_cli(capsys, "explore", "--tau", "231", "--n-max", "10", "--q", "2")
    assert code == 0
    means = [float(l.split(",")[2]) for l in out.splitlines()
             if not l.startswith("#") and not l.startswith("n,")]
    assert all(m > 0 for m in means)
    assert all(b > a for a, b in zip(means, means[1:]))


def test_explore_pmf_emission(capsys):
    code, out, _ = run_cli(capsys, "explore", "--tau", "312", "--n-max", "3", "--q", "1",
                           "--emit", "pmf")
    rows = [l for l in out.splitlines() if not l.startswith("#")]
    assert rows[0] == "n,q,k,probability"
    assert "3,1,0,1/5" in rows  # one fixed-point-free 312-avoider of length 3... weight 1/5


def test_out_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = run_cli(capsys, "count", "--tau", "321", "--n", "3", "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text().splitlines()[-1] == "3,1"


def test_budget_env_cli(capsys, monkeypatch):
    monkeypatch.setenv("FPBL_BUDGET", "poly=3")
    code, _, err = run_cli(capsys, "count", "--tau", "321", "--n", "10")
    assert code == 2 and "budget" in err


def test_zn_unrestricted_is_within_the_eval_budget(capsys, monkeypatch):
    # both measures' zn tables come from one recurrence pass, refused past eval before any output
    code, out, err = run_cli(capsys, "zn", "--q", "2", "--n-max", "20000")
    assert (code, out, err) == (2, "", "error: requested eval size 20000 exceeds budget 10000\n")
    monkeypatch.setenv("FPBL_BUDGET", "eval=50")
    code, out, err = run_cli(capsys, "zn", "--q", "2", "--n-max", "60")
    assert (code, out, err) == (2, "", "error: requested eval size 60 exceeds budget 50\n")
    code, out, _ = run_cli(capsys, "zn", "--q", "2", "--n-max", "50")
    assert code == 0 and out.splitlines()[-1].startswith("50,")


def test_sample_past_poly_budget_names_scaled_float(capsys):
    # the exact count takes its weights where the exact law does, and so its refusal
    code, out, err = run_cli(capsys, "sample", "--n", "2000", "--q", "2", "--tau", "321", "--count", "3")
    assert code == 2 and out == ""
    assert err.startswith("error: no exact route for bias 2 on 321-avoiders of length 2000: ")
    assert "scaled-float" in err
    code, out, _ = run_cli(capsys, "sample", "--n", "2000", "--q", "2", "--tau", "321", "--count", "3",
                           "--fp-mode", "scaled-float")
    assert code == 0 and len(out.splitlines()) == 3 + 6


@pytest.mark.parametrize("law, q, route", [("1", "2", "closed-form"), ("2", "1", "monte-carlo"),
                                           ("3", "2", "series"), ("4", "3", "series"),
                                           ("5", "4", "series")])
def test_verify_table_names_the_route(capsys, law, q, route):
    # the last column is where the law came from, not its number type
    code, out, _ = run_cli(capsys, "verify", "--law", law, "--q", q, "--n", "60", "--samples", "200")
    assert code in (0, 1)
    table = [l for l in out.splitlines() if not l.startswith(("PASS ", "FAIL "))]
    assert table[0] == "n,q,tau,law,distance,route"
    assert table[1].split(",")[-1] == route


def test_enum_budget_cli(capsys, monkeypatch):
    monkeypatch.setenv("FPBL_BUDGET", "enum=5")
    code, _, err = run_cli(capsys, "explore", "--tau", "231", "--n-max", "6")
    assert code == 2 and "capped at n=5" in err
    code, _, err = run_cli(capsys, "pmf", "--n", "6", "--q", "2", "--tau", "312")
    assert code == 2 and "capped at n=5" in err
    code, _, _ = run_cli(capsys, "explore", "--tau", "231", "--n-max", "5")
    assert code == 0
