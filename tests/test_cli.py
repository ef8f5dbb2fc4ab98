"""CLI surface: outputs, determinism, exit codes, round trips."""
import json

from fpblab.cli import main


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


def test_pmf_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "pmf", "--n", "5", "--q", "1/3", "--tau", "132",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n" == out
    assert data["q"] == "1/3" and data["tau"] == "132"


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
    from fpblab.perms import avoids, parse_perm

    code, out, _ = run_cli(capsys, "sample", "--n", "12", "--q", "1/2", "--tau", "321",
                           "--count", "6", "--seed", "3", "--emit", "perm")
    assert code == 0
    for line in out.splitlines():
        if line.startswith("#") or line.startswith("sample_index"):
            continue
        _, fp, perm_text = line.split(",")
        sigma = parse_perm(perm_text)
        assert avoids(sigma, "321")
        assert sum(1 for i, v in enumerate(sigma, 1) if v == i) == int(fp)


def test_sample_refusal_exit_code(capsys):
    code, _, err = run_cli(capsys, "sample", "--n", "20", "--q", "4", "--tau", "321",
                           "--count", "3", "--emit", "perm")
    assert code == 2
    assert "unsupported" in err


def test_sample_refuses_nonpositive_bias(capsys):
    for argv in (["--q", "-1", "--count", "4"],
                 ["--q", "-1", "--tau", "321", "--count", "4"],
                 ["--q", "-1", "--tau", "132", "--count", "3", "--emit", "perm"],
                 ["--q", "0", "--tau", "132", "--count", "3", "--emit", "perm"]):
        code, out, err = run_cli(capsys, "sample", "--n", "5", *argv)
        assert code == 2 and out == "", argv
        assert "bias parameter q must be positive" in err


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


def test_enum_budget_cli(capsys, monkeypatch):
    monkeypatch.setenv("FPBL_BUDGET", "enum=5")
    code, _, err = run_cli(capsys, "explore", "--tau", "231", "--n-max", "6")
    assert code == 2 and "capped at n=5" in err
    code, _, err = run_cli(capsys, "pmf", "--n", "6", "--q", "2", "--tau", "312")
    assert code == 2 and "capped at n=5" in err
    code, _, _ = run_cli(capsys, "explore", "--tau", "231", "--n-max", "5")
    assert code == 0
