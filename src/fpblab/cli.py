"""
Command-line surface of the lab.

Subcommands:
    count    per-fixed-point-count table for an avoidance class
    zn       normalization constants along n
    pmf      the fixed-point law of a chosen measure
    sample   seeded sample dumps (whole permutations or fixed-point counts)
    verify   limit-law and growth checks with PASS/FAIL lines
    asym     convergence tables (exact vs predicted)
    explore  brute-force tables for the patterns without a series route

Every subcommand is deterministic given its full flag set (seeds included).
Exit status: 0 when all requested checks pass, 1 when a verify check fails,
2 on usage errors or refused parameter combinations. The environment
variable FPBL_BUDGET overrides the exact-engine budgets.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from importlib import resources

import numpy as np

from . import asymptotics, dist, sampling, series
from .config import BudgetExceededError
from .dist import MeasureSpec, UnsupportedMeasureError, fp_pmf
from .perms import PATTERNS, enumerate_avoiders, fixed_point_counts, fixed_points, format_perm
from .series import TAU_CLASS, as_rational


def _parse_q(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"q must be rational like 2, 1/3 or 0.25: {exc}")


def _parse_grid(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def load_verify_defaults() -> dict:
    with resources.files("fpblab").joinpath("data/verify_defaults.json").open() as fh:
        return json.load(fh)


class Emitter:
    """Writes one table as CSV or canonical JSON (byte-stable round trips)."""

    def __init__(self, fmt: str, out_path: str | None):
        self.fmt = fmt
        self.out_path = out_path

    def emit(self, columns: list[str], rows: list[list], preamble: list[str] = ()):
        if self.fmt == "csv":
            lines = [f"# {line}" for line in preamble]
            lines.append(",".join(columns))
            lines += [",".join(str(v) for v in row) for row in rows]
            text = "\n".join(lines) + "\n"
        else:
            payload = {"columns": columns, "rows": rows}
            for line in preamble:
                key, _, value = line.partition("=")
                payload.setdefault("meta", {})[key] = value
            text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
        if self.out_path:
            with open(self.out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)


def cmd_count(args) -> int:
    tau = args.tau
    if tau in TAU_CLASS:
        poly = series.avoider_polynomials(args.n)[args.n]
        counts = [poly.coefficient(k) for k in range(args.n + 1)]
    else:
        counts = fixed_point_counts(enumerate_avoiders(args.n, tau), args.n)
    Emitter(args.format, args.out).emit(
        ["k", "count"], [[k, str(c)] for k, c in enumerate(counts)],
        preamble=[f"tau={tau}", f"n={args.n}"],
    )
    return 0


def cmd_zn(args) -> int:
    n_max = args.n_max if args.n_max is not None else args.n
    if n_max is None:
        print("zn needs --n or --n-max", file=sys.stderr)
        return 2
    rows = []
    if args.tau is None:
        for n in range(n_max + 1):
            v = series.unrestricted_normalization(args.q, n)
            rows.append([n, series._value_to_text(v)])
    else:
        if args.tau not in TAU_CLASS:
            print(f"zn: no series for tau={args.tau} (only {TAU_CLASS}); use explore", file=sys.stderr)
            return 2
        table = series.avoider_series(args.q, n_max)
        rows = [[n, series._value_to_text(table[n])] for n in range(n_max + 1)]
    Emitter(args.format, args.out).emit(
        ["n", "value"], rows, preamble=[f"q={args.q}", f"tau={args.tau or ''}"]
    )
    return 0


def cmd_pmf(args) -> int:
    spec = MeasureSpec(args.n, args.q, args.tau)
    rng = sampling.RandomSource(args.seed, args.stream) if args.mode == "monte-carlo" else None
    pmf = fp_pmf(spec, mode=args.mode, rng=rng, samples=args.samples)
    if args.format == "json":
        text = dist.pmf_to_json(pmf)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0
    rows = [[k, dist._rat_text(v)] for k, v in pmf.weights.items()]
    Emitter(args.format, args.out).emit(
        ["k", "probability"], rows,
        preamble=[f"n={args.n}", f"q={args.q}", f"tau={args.tau or ''}", f"mode={pmf.mode}"],
    )
    return 0


def cmd_sample(args) -> int:
    rng = sampling.RandomSource(args.seed, args.stream)
    emit_perm = args.emit == "perm"
    rows = []
    perms_arr = None
    if args.tau is None:
        perms_arr = sampling.sample_biased_unrestricted_batch(args.n, args.q, rng, args.count)
    elif not emit_perm:
        ks = sampling.sample_fp_count_batch(args.n, args.q, args.tau, rng, args.count, mode=args.fp_mode)
        rows = [[i, int(k)] for i, k in enumerate(ks)]
    elif args.tau in sampling.DYCK_PATTERNS and as_rational(args.q) == 1:
        # the uniform measure: the batch sampler keeps every row it draws
        perms_arr, _ = sampling.biased_avoider_batch(args.n, 1, rng, args.count, args.tau)
    else:
        for i in range(args.count):
            sigma, _ = sampling.biased_avoider_permutation(args.n, args.q, args.tau, rng)
            rows.append([i, fixed_points(sigma), format_perm(sigma)])
    if perms_arr is not None:
        identity = 1 + np.arange(args.n)
        for i, row in enumerate(perms_arr):
            f = int((row == identity).sum())
            rows.append([i, f, format_perm(row)] if emit_perm else [i, f])
    columns = ["sample_index", "fp"] + (["perm"] if emit_perm else [])
    Emitter(args.format, args.out).emit(
        columns, rows,
        preamble=[f"seed={args.seed}", f"stream_id={args.stream}", f"n={args.n}",
                  f"q={args.q}", f"tau={args.tau or ''}"],
    )
    return 0


def _verify_growth(args, emitter) -> int:
    defaults = load_verify_defaults()["growth"]
    grid = args.n_grid or [args.n or defaults["n"]]
    table = asymptotics.convergence_table("growth", args.q, grid)
    regime = asymptotics.regime_of(args.q)
    tol = args.tol if args.tol is not None else defaults["tolerance"][regime]
    rows = [[r.n, repr(r.exact), repr(r.predicted), repr(r.ratio)] for r in table.rows]
    emitter.emit(["n", "exact", "predicted", "ratio"], rows,
                 preamble=[f"q={args.q}", f"regime={regime}", "check=growth"])
    final = table.rows[-1]
    ok = abs(final.ratio - 1.0) <= tol
    print(f"{'PASS' if ok else 'FAIL'} check=growth q={args.q} n={final.n} "
          f"ratio={final.ratio!r} tol={tol}")
    return 0 if ok else 1


def _verify_law(args, emitter) -> int:
    spec_law = asymptotics.limit_law(args.law, args.q)
    defaults = load_verify_defaults()[spec_law.name]
    grid = args.n_grid or [args.n or defaults["n"]]
    tol = args.tol if args.tol is not None else defaults["tolerance"]
    rows = []
    ok = True
    for n in sorted(grid):
        if spec_law.law_id == 2:
            samples = defaults["samples"] if args.samples is None else args.samples
            rng = sampling.RandomSource(args.seed, args.stream)
            pmf = fp_pmf(MeasureSpec(n, args.q, "123"), mode="monte-carlo", rng=rng, samples=samples)
            value = max(abs(float(pmf.pmf(k)) - float(spec_law.law.pmf(k))) for k in range(3))
            metric = "max-cell"
        else:
            tau = None if spec_law.law_id == 1 else "321"
            mode = "exact" if tau is None else "scaled-float"
            pmf = fp_pmf(MeasureSpec(n, args.q, tau), mode=mode)
            if tau is None:
                pmf = pmf.as_float()
            if getattr(spec_law.law, "discrete", False):
                value = dist.tv_distance(pmf, spec_law.law)
                metric = "tv"
            else:
                value = dist.kolmogorov_distance(
                    pmf, spec_law.law, spec_law.centering(n), spec_law.scaling(n))
                metric = "kolmogorov"
        passed = value <= tol
        ok = ok and passed
        tau_label = {1: "", 2: "123"}.get(spec_law.law_id, "321")
        rows.append([n, str(args.q), tau_label, spec_law.name, repr(value), pmf.mode])
        print(f"{'PASS' if passed else 'FAIL'} check={spec_law.name} q={args.q} n={n} "
              f"{metric}={value!r} tol={tol}")
    emitter.emit(["n", "q", "tau", "law", "distance", "mode"], rows)
    return 0 if ok else 1


def cmd_verify(args) -> int:
    emitter = Emitter(args.format, args.out)
    if args.growth:
        return _verify_growth(args, emitter)
    if args.law is None:
        print("verify needs --law or --growth", file=sys.stderr)
        return 2
    return _verify_law(args, emitter)


def cmd_asym(args) -> int:
    table = asymptotics.convergence_table(
        args.kind, args.q, args.n_grid, m=args.m, law_id=args.law)
    rows = [[r.n, repr(r.exact), repr(r.predicted), repr(r.ratio)] for r in table.rows]
    Emitter(args.format, args.out).emit(
        ["n", "exact", "predicted", "ratio"], rows,
        preamble=[f"kind={args.kind}", f"q={args.q}", f"ratio_monotone={table.ratio_monotone}"],
    )
    return 0


def cmd_explore(args) -> int:
    qs = [Fraction(t) for t in args.q_grid.split(",")] if args.q_grid else [args.q]
    rows = []
    for n in range(1, args.n_max + 1):
        counts = fixed_point_counts(enumerate_avoiders(n, args.tau), n)
        for q in qs:
            weights = [c * q**k for k, c in enumerate(counts)]
            z = sum(weights)
            mean = sum(k * w for k, w in enumerate(weights)) / z
            second = sum(k * k * w for k, w in enumerate(weights)) / z
            if args.emit == "pmf":
                for k, w in enumerate(weights):
                    if w:
                        rows.append([n, str(q), k, dist._rat_text(w / z)])
            else:
                rows.append([n, str(q), repr(float(mean)), repr(float(second - mean**2))])
    columns = ["n", "q", "k", "probability"] if args.emit == "pmf" else ["n", "q", "mean", "variance"]
    Emitter(args.format, args.out).emit(columns, rows, preamble=[f"tau={args.tau}"])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fpblab",
        description="exact computation, sampling, and verification for fixed-point-biased "
                    "(pattern-avoiding) random permutations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, rng=False):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="write the table here instead of stdout")
        if rng:
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--stream", type=int, default=0)

    p = sub.add_parser("count", help="counts of avoiders by fixed-point number")
    p.add_argument("--tau", required=True, choices=PATTERNS)
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("zn", help="normalization constants along n")
    p.add_argument("--q", type=_parse_q, required=True)
    p.add_argument("--tau", choices=PATTERNS, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--n-max", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_zn)

    p = sub.add_parser("pmf", help="fixed-point law of a measure")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=_parse_q, required=True)
    p.add_argument("--tau", choices=PATTERNS, default=None)
    p.add_argument("--mode", choices=("exact", "scaled-float", "monte-carlo"), default="exact")
    p.add_argument("--samples", type=int, default=None)
    common(p, rng=True)
    p.set_defaults(func=cmd_pmf)

    p = sub.add_parser("sample", help="seeded sample dumps")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=_parse_q, default=Fraction(1))
    p.add_argument("--tau", choices=PATTERNS, default=None)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--emit", choices=("fp", "perm"), default="fp")
    p.add_argument("--fp-mode", choices=("exact", "scaled-float"), default="exact")
    common(p, rng=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("verify", help="limit-law and growth checks")
    p.add_argument("--law", default=None,
                   help="1..5 or poisson|bernoulli-pair|neg-binomial|rayleigh|normal")
    p.add_argument("--growth", action="store_true", help="check the normalization growth regimes")
    p.add_argument("--q", type=_parse_q, required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--n-grid", type=_parse_grid, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    common(p, rng=True)
    p.set_defaults(func=cmd_verify, tau=None)

    p = sub.add_parser("asym", help="convergence tables, exact vs predicted")
    p.add_argument("--kind", choices=("growth", "moments", "distance"), required=True)
    p.add_argument("--q", type=_parse_q, required=True)
    p.add_argument("--n-grid", type=_parse_grid, required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--law", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_asym)

    p = sub.add_parser("explore", help="brute-force tables (patterns without a series route)")
    p.add_argument("--tau", required=True, choices=PATTERNS)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--q", type=_parse_q, default=Fraction(1))
    p.add_argument("--q-grid", default=None, help="comma-separated rational biases")
    p.add_argument("--emit", choices=("moments", "pmf"), default="moments")
    common(p)
    p.set_defaults(func=cmd_explore)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "law", None) is not None:
        try:
            args.law = int(args.law)
        except ValueError:
            pass
    try:
        return args.func(args)
    except (UnsupportedMeasureError, BudgetExceededError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
