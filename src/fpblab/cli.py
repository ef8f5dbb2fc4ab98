"""
Command-line surface of the lab.

Subcommands:
    count    per-fixed-point-count table for an avoidance class
    zn       normalization constants along n
    pmf      the fixed-point law of a chosen measure
    sample   seeded sample dumps (whole permutations or fixed-point counts)
    verify   limit-law and growth checks with PASS/FAIL lines
    asym     convergence tables (exact vs predicted)
    explore  exact mean/variance or law tables along n, for any pattern

Every subcommand is deterministic given its full flag set (seeds included).
Exit status: 0 when all requested checks pass, 1 when a verify check fails,
2 on usage errors or refused parameter combinations. The environment
variable FPBL_BUDGET overrides the exact-engine budgets.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from contextlib import nullcontext
from fractions import Fraction
from importlib import resources
from itertools import chain, islice

import numpy as np

from . import asymptotics, dist, sampling, series
from .config import BudgetExceededError
from .dist import MeasureSpec, UnsupportedMeasureError, fp_pmf
from .perms import PATTERNS, format_perms
from .series import TAU_CLASS


def _parse_q(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"q must be rational like 2, 1/3 or 0.25: {exc}")


def _parse_grid(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _check_n(n: int):
    if n < 0:
        raise ValueError("n must be >= 0")


def load_verify_defaults() -> dict:
    with resources.files("fpblab").joinpath("data/verify_defaults.json").open() as fh:
        return json.load(fh)


_BLOCK = 4096  # rows per block of a streamed table


class Emitter:
    """
    Writes one table as CSV or canonical JSON (byte-stable round trips) to
    stdout or the --out file, a block of rows at a time: the table's text
    is never held whole, so a table takes the memory of one block beyond
    what the caller holds.

    Canonical JSON is `json.dumps(payload, sort_keys=True, separators=(",",
    ":"))` of {"columns": ..., "meta": ..., "rows": [...]}. Its keys are
    sorted, so "rows" comes last and the text streams: the head up to
    `"rows":[`, the rows' dumps joined by ",", then `]}`.
    """

    def __init__(self, fmt: str, out_path: str | None):
        self.fmt = fmt
        self.out_path = out_path

    def emit(self, columns: list[str], rows, preamble: list[str] = ()):
        """`rows` is any iterable of sequences of len(columns) values, written _BLOCK at a time."""
        rows = iter(rows)
        self.emit_blocks(columns, iter(lambda: list(islice(rows, _BLOCK)), []), preamble)

    def emit_blocks(self, columns: list[str], blocks, preamble: list[str] = ()):
        """
        `blocks` is an iterable of blocks, each an iterable of rows, read
        once; each block is formatted and written before the next is read.
        CSV fills one "%s,...,%s" line template per row with a single `%`
        over the flattened rows of a block, which prints each value as
        `str` does.
        """
        target = open(self.out_path, "w", encoding="utf-8") if self.out_path else nullcontext(sys.stdout)
        with target as fh:
            if self.fmt == "csv":
                fh.write("".join(f"# {line}\n" for line in preamble) + ",".join(columns) + "\n")
                template = ",".join(["%s"] * len(columns)) + "\n"
                for block in blocks:
                    flat = tuple(chain.from_iterable(block))
                    fh.write(template * (len(flat) // len(columns)) % flat)
                return
            head = {"columns": columns}
            if preamble:
                head["meta"] = dict(line.partition("=")[::2] for line in preamble)
            fh.write(json.dumps(head, sort_keys=True, separators=(",", ":"))[:-1] + ',"rows":[')
            sep = ""
            for block in blocks:
                text = json.dumps(list(block), sort_keys=True, separators=(",", ":"))[1:-1]
                if text:
                    fh.write(sep + text)
                    sep = ","
            fh.write("]}\n")


def _fp_blocks(ks: np.ndarray):
    """The rows (sample index, fixed points) of a dump of counts, _BLOCK at a time."""
    for i in range(0, len(ks), _BLOCK):
        yield zip(range(i, i + _BLOCK), ks[i : i + _BLOCK].tolist())


def _perm_blocks(perms: np.ndarray):
    """
    The rows (sample index, fixed points, permutation) of a dump of a
    (count, n) array of permutations, _BLOCK at a time.
    """
    ident = np.arange(1, perms.shape[1] + 1)
    for i in range(0, len(perms), _BLOCK):
        block = perms[i : i + _BLOCK]
        yield zip(range(i, i + _BLOCK), (block == ident).sum(axis=1).tolist(), format_perms(block))


def cmd_count(args) -> int:
    tau = args.tau
    _check_n(args.n)
    counts = dist.fixed_point_row(args.n, tau)
    Emitter(args.format, args.out).emit(
        ["k", "count"], [[k, series._value_to_text(c)] for k, c in enumerate(counts)],
        preamble=[f"tau={tau}", f"n={args.n}"],
    )
    return 0


def cmd_zn(args) -> int:
    n_max = args.n_max if args.n_max is not None else args.n
    if n_max is None:
        print("zn needs --n or --n-max", file=sys.stderr)
        return 2
    _check_n(n_max)
    rows = []
    if args.tau is None:
        for n in range(n_max + 1):
            v = series.unrestricted_normalization(args.q, n)
            rows.append([n, series._value_to_text(v)])
    else:
        if args.tau not in TAU_CLASS:
            print(f"zn: no series for tau={args.tau} (only {TAU_CLASS}); use explore", file=sys.stderr)
            return 2
        rows = enumerate(series._avoider_series_text(args.q, n_max))
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
    rows = [[k, series._value_to_text(v)] for k, v in pmf.weights.items()]
    Emitter(args.format, args.out).emit(
        ["k", "probability"], rows,
        preamble=[f"n={args.n}", f"q={args.q}", f"tau={args.tau or ''}", f"mode={pmf.mode}"],
    )
    return 0


def cmd_sample(args) -> int:
    # every draw is made before the first byte is written, so a refusal prints nothing
    rng = sampling.RandomSource(args.seed, args.stream)
    emit_perm = args.emit == "perm"
    if not emit_perm:
        # the counts alone: without --tau the law is exact, whatever --fp-mode says
        mode = args.fp_mode if args.tau else "exact"
        blocks = _fp_blocks(sampling.sample_fp_count_batch(args.n, args.q, args.tau, rng, args.count,
                                                           mode=mode))
    elif args.tau is None:
        blocks = _perm_blocks(sampling.sample_biased_unrestricted_batch(args.n, args.q, rng, args.count))
    else:
        blocks = _perm_blocks(sampling.biased_avoider_permutation(args.n, args.q, args.tau, rng,
                                                                  args.count)[0])
    columns = ["sample_index", "fp"] + (["perm"] if emit_perm else [])
    Emitter(args.format, args.out).emit_blocks(
        columns, blocks,
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
    _check_n(args.n_max)
    qs = [Fraction(t) for t in args.q_grid.split(",")] if args.q_grid else [args.q]
    if min(qs) <= 0:
        raise ValueError("bias parameter q must be positive")
    rows = []
    for n in range(1, args.n_max + 1):
        counts = dist.fixed_point_row(n, args.tau)
        for q in qs:
            weights = series.bias_weights(counts, q)
            z = sum(weights)
            mean = Fraction(sum(k * w for k, w in enumerate(weights)), z)
            second = Fraction(sum(k * k * w for k, w in enumerate(weights)), z)
            if args.emit == "pmf":
                for k, w in enumerate(weights):
                    if w:
                        rows.append([n, str(q), k, series._value_to_text(Fraction(w, z))])
            else:
                rows.append([n, str(q), repr(float(mean)), repr(float(second - mean**2))])
    columns = ["n", "q", "k", "probability"] if args.emit == "pmf" else ["n", "q", "mean", "variance"]
    Emitter(args.format, args.out).emit(columns, rows, preamble=[f"tau={args.tau}"])
    return 0


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: `parse_args` fills a fresh Namespace each call."""
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

    p = sub.add_parser("explore", help="exact mean/variance or law tables along n, for any pattern")
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
