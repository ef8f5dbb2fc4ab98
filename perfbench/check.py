"""
Output checks for the benchmark's ops, run outside the timed region.

`check_op(op, rc, out)` returns a list of problems; an empty list means the
op's output is correct. Each op names its check in `op["check"]` and carries
what the check needs in `op["params"]`. Expected verdicts are part of the op:
a verify line that honestly prints FAIL is correct when FAIL is expected.
"""
from __future__ import annotations

import json
import math
import sys
from collections import Counter
from fractions import Fraction

import oracle

Z = 6.0  # sampled frequencies must lie within Z standard errors of the exact law


def parse_table(out: str) -> dict:
    """Split CLI text into preamble (# key=value), verdict lines, header and rows."""
    meta, verdicts, rows, header = {}, [], [], None
    for line in out.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif line.startswith(("PASS ", "FAIL ")):
            verdicts.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return {"meta": meta, "verdicts": verdicts, "header": header, "rows": rows}


def parse_verdict(line: str) -> dict:
    word, *fields = line.split()
    out = {"verdict": word}
    for f in fields:
        key, _, value = f.partition("=")
        out[key] = value
    return out


def _rat_text(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _close(a: float, b: float, rel: float) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)


def _frequency_problems(counts: Counter, total: int, law: dict, slack: float = 0.0) -> list[str]:
    """Every cell of an empirical law within Z standard errors (+ slack) of `law`."""
    problems = []
    for k in set(counts) | set(law):
        p = float(law.get(k, 0.0))
        f = counts.get(k, 0) / total
        se = math.sqrt(max(p * (1 - p), 1.0 / total) / total)
        if abs(f - p) > Z * se + slack:
            problems.append(f"k={k}: frequency {f:.5f} vs exact {p:.5f} (se {se:.5f})")
    return problems


def _mean_problem(values: list[int], mean: float, var: float) -> list[str]:
    got = sum(values) / len(values)
    se = math.sqrt(var / len(values))
    if abs(got - mean) > Z * se:
        return [f"sample mean {got:.5f} vs exact {mean:.5f} (se {se:.5f})"]
    return []


def _law_moments(q: Fraction, n: int) -> tuple[float, float]:
    """Mean and variance of the fixed-point count of a q-biased 321-avoider."""
    m1, m2 = oracle.avoider_moments(q, n)
    return float(m1), float(m2 + m1 - m1 * m1)


# ---------------------------------------------------------------------------
# Exact outputs
# ---------------------------------------------------------------------------


def check_zn(p, out):
    q, n_max = Fraction(p["q"]), p["n_max"]
    data = json.loads(out)
    if data["columns"] != ["n", "value"] or data["meta"] != {"q": str(q), "tau": "321"}:
        return [f"unexpected columns/meta {data['columns']} {data['meta']}"]
    if len(data["rows"]) != n_max + 1:
        return [f"{len(data['rows'])} rows, expected {n_max + 1}"]
    want = [[n, _rat_text(g)] for n, g in enumerate(oracle.normalization(q, n_max))]
    bad = [row[0] for row, w in zip(data["rows"], want) if row != w]
    return [f"values differ from the recurrence at n={bad[:5]}"] if bad else []


def check_moments(p, out):
    m, q = p["m"], Fraction(p["q"])
    t = parse_table(out)
    problems = []
    if [int(r[0]) for r in t["rows"]] != p["n_grid"]:
        return [f"grid {[r[0] for r in t['rows']]} != {p['n_grid']}"]
    ratios = []
    for n_text, exact, predicted, ratio in t["rows"]:
        n = int(n_text)
        g = oracle.normalization(q, n)[n]
        want = float(oracle.factorial_moment_coefficient(m, q, n) / g)
        if exact != repr(want):
            problems.append(f"n={n}: exact {exact} != {want!r}")
        pred = 3.0**m * math.gamma(m / 2 + 1) * n ** (m / 2)
        if not _close(float(predicted), pred, 1e-12):
            problems.append(f"n={n}: predicted {predicted} != {pred!r}")
        if ratio != repr(float(exact) / float(predicted)):
            problems.append(f"n={n}: ratio {ratio} inconsistent")
        ratios.append(float(ratio))
    monotone = all(abs(b - 1) <= abs(a - 1) for a, b in zip(ratios, ratios[1:]))
    if t["meta"].get("ratio_monotone") != str(monotone):
        problems.append(f"ratio_monotone={t['meta'].get('ratio_monotone')}, expected {monotone}")
    return problems


def _log_growth_prediction(q: Fraction, n: int) -> float:
    if q < 3:
        pref, power, base = 4 / (float(3 - q) ** 2 * math.sqrt(math.pi)), -1.5, 4.0
    elif q == 3:
        pref, power, base = 2 / math.sqrt(math.pi), -0.5, 4.0
    else:
        pref, power, base = float((q - 1) * (q - 3) / (q - 2) ** 2), 0.0, float((q - 1) ** 2 / (q - 2))
    return math.log(pref) + power * math.log(n) + n * math.log(base)


def check_growth(p, out):
    q, n = Fraction(p["q"]), p["n"]
    t = parse_table(out)
    if len(t["rows"]) != 1 or len(t["verdicts"]) != 1:
        return ["expected one table row and one verdict line"]
    n_text, exact, predicted, ratio = t["rows"][0]
    g = oracle.normalization(q, n)[n]
    want_log = math.log(g.numerator) - math.log(g.denominator)
    problems = []
    if int(n_text) != n or not _close(float(exact), want_log, 1e-12):
        problems.append(f"log g_{n} {exact} != {want_log!r}")
    if not _close(float(predicted), _log_growth_prediction(q, n), 1e-12):
        problems.append(f"predicted {predicted} != {_log_growth_prediction(q, n)!r}")
    if not _close(float(ratio), math.exp(float(exact) - float(predicted)), 1e-12):
        problems.append(f"ratio {ratio} inconsistent")
    v = parse_verdict(t["verdicts"][0])
    tol = float(v["tol"])
    honest = "PASS" if abs(float(ratio) - 1.0) <= tol else "FAIL"
    if (v["verdict"], tol) != (p["verdict"], p["tol"]) or honest != v["verdict"]:
        problems.append(f"verdict {v['verdict']} tol={tol}, expected {p['verdict']} tol={p['tol']}")
    return problems


def check_count(p, out):
    n = p["n"]
    t = parse_table(out)
    if t["header"] != ["k", "count"] or len(t["rows"]) != n + 1:
        return ["malformed count table"]
    c = [int(x) for _, x in t["rows"]]
    problems = []
    if any(x < 0 for x in c) or c[n - 1] != 0 or c[n] != 1:
        problems.append("counts must be nonnegative, zero at k = n-1 and one at k = n")
    if sum(c) != oracle.catalan(n)[n]:
        problems.append("row does not sum to Cat(n)")
    for q_text in p["qs"]:
        q = Fraction(q_text)
        if sum(x * q**k for k, x in enumerate(c)) != oracle.normalization(q, n)[n]:
            problems.append(f"row at q={q} differs from g_n")
    q = Fraction(p["moment_q"])
    for m in (1, 2):
        got = sum(math.perm(k, m) * x * q**k for k, x in enumerate(c))
        if got != oracle.factorial_moment_coefficient(m, q, n):
            problems.append(f"factorial moment m={m} at q={q} differs")
    return problems


def check_pmf_exact(p, out):
    n, q = p["n"], Fraction(p["q"])
    data = json.loads(out)
    w = {int(k): Fraction(v) for k, v in data["weights"]}
    problems = []
    head = (data["n"], data["q"], data["tau"], data["mode"], data["provenance"])
    if head != (n, str(q), "321", "exact", "series"):
        problems.append(f"header {head}")
    if sum(w.values()) != 1 or w.get(n - 1, 0) != 0:
        problems.append("weights must sum to 1 with no mass at n-1")
    m1, m2 = oracle.avoider_moments(q, n)
    if sum(k * v for k, v in w.items()) != m1 or sum(k * (k - 1) * v for k, v in w.items()) != m2:
        problems.append("first or second factorial moment differs from the recurrence")
    return problems


def check_pmf_float(p, out):
    n, q = p["n"], Fraction(p["q"])
    t = parse_table(out)
    w = {int(k): float(v) for k, v in t["rows"]}
    problems = []
    if t["meta"].get("mode") != "float" or any(v < 0 for v in w.values()) or w.get(n - 1, 0.0):
        problems.append("expected a float law with nonnegative weights and no mass at n-1")
    if not math.isclose(sum(w.values()), 1.0, abs_tol=1e-9):
        problems.append(f"weights sum to {sum(w.values())}")
    m1, m2 = (float(x) for x in oracle.avoider_moments(q, n))
    got1 = sum(k * v for k, v in w.items())
    got2 = sum(k * (k - 1) * v for k, v in w.items())
    if not (_close(got1, m1, 1e-9) and _close(got2, m2, 1e-9)):
        problems.append(f"moments {got1!r}, {got2!r} vs exact {m1!r}, {m2!r}")
    return problems


def check_pmf_enum(p, out):
    n, q, tau = p["n"], Fraction(p["q"]), p["tau"]
    hist = Counter(sum(v == i for i, v in enumerate(s, 1)) for s in oracle.avoider_class(n, tau))
    z = sum(c * q**k for k, c in hist.items())
    want = [[str(k), _rat_text(c * q**k / z)] for k, c in sorted(hist.items())]
    t = parse_table(out)
    if t["rows"] != want or t["meta"].get("mode") != "exact":
        return ["law differs from enumeration"]
    return []


def check_explore(p, out):
    qs = [Fraction(x) for x in p["qs"]]
    want = []
    for n in range(1, p["n_max"] + 1):
        hist = Counter(sum(v == i for i, v in enumerate(s, 1)) for s in oracle.avoider_class(n, p["tau"]))
        for q in qs:
            z = sum(c * q**k for k, c in hist.items())
            mean = sum(k * c * q**k for k, c in hist.items()) / z
            second = sum(k * k * c * q**k for k, c in hist.items()) / z
            want.append([str(n), str(q), repr(float(mean)), repr(float(second - mean**2))])
    if parse_table(out)["rows"] != want:
        return ["moments differ from enumeration"]
    return []


# ---------------------------------------------------------------------------
# Verify lines
# ---------------------------------------------------------------------------


def check_verify(p, out):
    """
    Each verify line against its expected verdict. `verdicts` lists the
    expected words in grid order; the word "SEEDED" stands for a Monte-Carlo
    line whose verdict depends on the seed and must only agree with its own
    value and tolerance.
    """
    t = parse_table(out)
    lines = [parse_verdict(v) for v in t["verdicts"]]
    problems = []
    if [int(v["n"]) for v in lines] != p["n_grid"] or len(t["rows"]) != len(lines):
        return [f"grid {[v.get('n') for v in lines]} != {p['n_grid']}"]
    metric = p["metric"]
    for v, row, expected in zip(lines, t["rows"], p["verdicts"]):
        value, tol = float(v[metric]), float(v["tol"])
        honest = "PASS" if value <= tol else "FAIL"
        if honest != v["verdict"] or tol != p["tol"] or row[4] != v[metric]:
            problems.append(f"n={v['n']}: line inconsistent with its value {v}")
        if expected != "SEEDED" and v["verdict"] != expected:
            problems.append(f"n={v['n']}: {v['verdict']}, expected {expected}")
    if "poisson_q" in p:  # law 1 has an exact closed form: check the distance itself
        lam = float(Fraction(p["poisson_q"]))
        for v in lines:
            want = oracle.tv_to_poisson(oracle.unrestricted_law(Fraction(p["poisson_q"]), int(v["n"])), lam)
            if abs(float(v[metric]) - want) > 1e-12:
                problems.append(f"n={v['n']}: tv {v[metric]} vs {want!r}")
    if "max_value" in p and any(float(v[metric]) > p["max_value"] for v in lines):
        problems.append(f"a {metric} value exceeds the plausible bound {p['max_value']}")
    return problems


def check_distance_table(p, out):
    t = parse_table(out)
    if [int(r[0]) for r in t["rows"]] != p["n_grid"]:
        return ["unexpected grid"]
    d = [float(r[1]) for r in t["rows"]]
    problems = []
    if any(not 0.0 <= x <= p["max_value"] for x in d) or any(r[2:] != ["nan", "nan"] for r in t["rows"]):
        problems.append(f"distances {d} outside [0, {p['max_value']}] or predicted/ratio not nan")
    monotone = all(b <= a for a, b in zip(d, d[1:]))
    if t["meta"].get("ratio_monotone") != str(monotone):
        problems.append("ratio_monotone flag inconsistent with the distances")
    return problems


# ---------------------------------------------------------------------------
# Sampled outputs
# ---------------------------------------------------------------------------


def check_pmf_montecarlo(p, out):
    n, samples = p["n"], p["samples"]
    data = json.loads(out)
    head = (data["n"], data["q"], data["tau"], data["mode"], data["provenance"], data["samples"], data["seed"])
    if head != (n, "1", p["tau"], "exact", "monte-carlo", samples, p["seed"]):
        return [f"header {head}"]
    w = {int(k): Fraction(v) for k, v in data["weights"]}
    if sum(w.values()) != 1 or any(samples % v.denominator for v in w.values()) or w.get(n - 1):
        return ["weights must be counts over the sample size, summing to 1, none at n-1"]
    counts = Counter({k: int(v * samples) for k, v in w.items()})
    # uniform 321-avoiders: the fixed-point law tends to NegativeBinomial(2, 2/3);
    # at n = 1000 the scaled-float law is within 1e-4 of it in every cell
    law = {k: (k + 1) * (1 / 3) ** k * (2 / 3) ** 2 for k in range(60)}
    return _frequency_problems(counts, samples, law, slack=0.001)


def _dump_rows(p, out, n, count, with_perm):
    t = parse_table(out)
    want_header = ["sample_index", "fp"] + (["perm"] if with_perm else [])
    problems = []
    if t["header"] != want_header or len(t["rows"]) != count:
        return None, [f"expected {count} rows under {want_header}"]
    meta = t["meta"]
    if (meta.get("seed"), meta.get("n"), meta.get("q")) != (str(p["seed"]), str(n), p["q"]):
        problems.append(f"preamble {meta}")
    return t["rows"], problems


def check_dump_fp(p, out):
    """fp-only dumps: range, index order and the law of the counts."""
    n, count = p["n"], p["count"]
    rows, problems = _dump_rows(p, out, n, count, with_perm=False)
    if rows is None:
        return problems
    fps = [int(f) for _, f in rows]
    if [int(i) for i, _ in rows] != list(range(count)):
        problems.append("sample indices out of order")
    if any(f < 0 or f > n or (f == n - 1 and n >= 2) for f in fps):
        problems.append("fixed-point count out of range")
    q = Fraction(p["q"])
    if p.get("tau") is None:
        law = dict(enumerate(oracle.unrestricted_law(q, n)))
        problems += _frequency_problems(Counter(fps), count, law)
    else:
        problems += _mean_problem(fps, *_law_moments(q, n))
    return problems


def check_dump_perm(p, out):
    """Whole-permutation dumps: each row a permutation of 1..n that avoids tau, fp recounted."""
    n, count, tau = p["n"], p["count"], p.get("tau")
    rows, problems = _dump_rows(p, out, n, count, with_perm=True)
    if rows is None:
        return problems
    identity = list(range(1, n + 1))
    fps = []
    bad = 0
    for i, (idx, f, perm_text) in enumerate(rows):
        s = [int(v) for v in perm_text.split(" ")]
        fp = sum(v == j for j, v in enumerate(s, 1))
        if int(idx) != i or int(f) != fp or sorted(s) != identity or (tau and oracle.contains(s, tau)):
            bad += 1
        fps.append(fp)
    if bad:
        problems.append(f"{bad} rows are not valid {tau or 'unrestricted'} permutations with a matching fp")
    q = Fraction(p["q"])
    if tau is None:
        problems += _frequency_problems(Counter(fps), count, dict(enumerate(oracle.unrestricted_law(q, n))))
    elif tau != "123":  # 132/213/321 share the 321 fixed-point law
        problems += _mean_problem(fps, *_law_moments(q, n))
    elif max(fps) > 2:
        problems.append("a 123-avoider has at most two fixed points")
    return problems


CHECKS = {
    "zn": check_zn,
    "moments": check_moments,
    "growth": check_growth,
    "count": check_count,
    "pmf_exact": check_pmf_exact,
    "pmf_float": check_pmf_float,
    "pmf_enum": check_pmf_enum,
    "explore": check_explore,
    "verify": check_verify,
    "distance_table": check_distance_table,
    "pmf_montecarlo": check_pmf_montecarlo,
    "dump_fp": check_dump_fp,
    "dump_perm": check_dump_perm,
}


def check_op(op: dict, rc, out: str) -> list[str]:
    """
    Problems with one op's exit code and output; empty when it is correct.
    An op must exit 1 exactly when one of its verdict lines says FAIL.
    """
    expected_rc = int(any(line.startswith("FAIL ") for line in out.splitlines()))
    if rc != expected_rc:
        return [f"exit code {rc}, expected {expected_rc}"]
    sys.set_int_max_str_digits(0)  # exact outputs have thousands of digits
    try:
        return CHECKS[op["check"]](op["params"], out)
    except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
        return [f"unparsable output: {type(exc).__name__}: {exc}"]
