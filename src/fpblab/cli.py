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
from .perms import PATTERNS
from .series import TAU_CLASS


def _parse_q(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"q must be rational like 2, 1/3 or 0.25: {exc}")


def _parse_q_grid(text: str) -> list[Fraction]:
    # an empty grid falls back to --q
    return [_parse_q(tok) for tok in text.split(",")] if text else []


def _parse_grid(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _check_n(n: int):
    if n < 0:
        raise ValueError("n must be >= 0")


def load_verify_defaults() -> dict:
    with resources.files("fpblab").joinpath("data/verify_defaults.json").open() as fh:
        return json.load(fh)


_BLOCK = 4096  # rows per block of a streamed table
_BLOCK_CELLS = 2**16  # integer cells per block of a sample dump, so that wide rows stream too

# a sample dump's row by format and --emit: the bytes that open it and those that follow
# each of its column groups (the sample index, the fixed points and, for perm, the
# permutation's entries), then the bytes that join two rows
_DUMP_LAYOUT = {
    ("csv", "fp"): ((b"", b",", b"\n"), b""),
    ("json", "fp"): ((b"[", b",", b"]"), b","),
    ("csv", "perm"): ((b"", b",", b",", b"\n"), b""),
    ("json", "perm"): ((b"[", b",", b',"', b'"]'), b","),
}


class Emitter:
    """
    Writes one table as CSV or canonical JSON (byte-stable round trips) to
    stdout or the --out file, a block of rows at a time: the table's text
    is never held whole, so a table takes the memory of one block beyond
    what the caller holds.

    Canonical JSON is `json.dumps(payload, sort_keys=True, separators=(",",
    ":"))` of {"columns": ..., "meta": ..., "rows": [...]}. Its keys are
    sorted, so "rows" comes last and the text streams: the head up to
    `"rows":[`, the blocks' rows joined by ",", then `]}`.
    """

    def __init__(self, fmt: str, out_path: str | None):
        self.fmt = fmt
        self.out_path = out_path

    def emit(self, columns: list[str], rows, preamble: list[str] = ()):
        """
        `rows` is any iterable of sequences of len(columns) values, of any
        type, formatted and written _BLOCK at a time. CSV fills one
        "%s,...,%s" line template per row with a single `%` over the
        flattened rows of a block, which prints each value as `str` does.
        """
        rows = iter(rows)
        blocks = iter(lambda: list(islice(rows, _BLOCK)), [])
        if self.fmt == "csv":
            template = ",".join(["%s"] * len(columns)) + "\n"
            texts = (template * len(block) % tuple(chain.from_iterable(block)) for block in blocks)
        else:
            texts = (json.dumps(block, sort_keys=True, separators=(",", ":"))[1:-1] for block in blocks)
        self.emit_blocks(columns, texts, preamble)

    def emit_blocks(self, columns: list[str], texts, preamble: list[str] = ()):
        """
        `texts` is an iterable of the text of blocks of rows, read once;
        each block is written before the next is read. A CSV block is its
        rows, each ending in a newline; a JSON block is its rows' dumps
        joined by ",", and may be empty.
        """
        target = open(self.out_path, "w", encoding="utf-8") if self.out_path else nullcontext(sys.stdout)
        with target as fh:
            if self.fmt == "csv":
                fh.write("".join(f"# {line}\n" for line in preamble) + ",".join(columns) + "\n")
                for text in texts:
                    fh.write(text)
                return
            head = {"columns": columns}
            if preamble:
                head["meta"] = dict(line.partition("=")[::2] for line in preamble)
            fh.write(json.dumps(head, sort_keys=True, separators=(",", ":"))[:-1] + ',"rows":[')
            sep = ""
            for text in texts:
                if text:
                    fh.write(sep + text)
                    sep = ","
            fh.write("]}\n")


def _render_rows(groups: list[np.ndarray], literals: tuple[bytes, ...], joiner: bytes) -> str:
    """
    The text of a block of rows of non-negative integers. Each column group
    is a (rows, k) integer array, k >= 0, whose k cells are joined by a
    space and printed in decimal. literals[0] opens each row,
    literals[g + 1] follows group g and is not empty, and `joiner` comes
    between two rows.

    The block is one uint8 matrix, a row of bytes per row, filled in a few
    numpy calls: the literals from one line template, then each group's
    digits, right-aligned in the width of the group's largest value, by
    repeated unsigned division by 10, with the unused leading digits left
    0. One boolean compaction drops those 0 pads, so no Python object is
    made per value.

    >>> groups = [np.array([[9], [10]]), np.array([[0], [2]]), np.array([[2, 1, 3], [1, 2, 13]])]
    >>> _render_rows(groups, (b"", b",", b",", b"\\n"), b"")
    '9,0,2 1 3\\n10,2,1 2 13\\n'
    >>> _render_rows(groups, (b"[", b",", b',"', b'"]'), b",")
    '[9,0,"2 1 3"],[10,2,"1 2 13"]'
    """
    rows = len(groups[0])
    ends = list(literals[1:])
    ends[-1] += joiner
    widths = [len(str(int(g.max()))) if g.size else 0 for g in groups]
    spans = [b" ".join([bytes(w)] * g.shape[1]) for g, w in zip(groups, widths)]
    line = literals[0] + b"".join(span + end for span, end in zip(spans, ends))
    out = np.empty((rows, len(line)), dtype=np.uint8)
    out[:] = np.frombuffer(line, dtype=np.uint8)
    at = len(literals[0])
    for g, w, span, end in zip(groups, widths, spans, ends):
        if g.size:
            # each cell's digits and the byte after them (for the last cell, the first of `end`)
            cells = out[:, at : at + len(span) + 1].reshape(rows, -1, w + 1)
            x = g.astype(np.uint32 if w < 10 else np.uint64)
            cells[..., w - 1] = x % 10 + 48
            for d in range(w - 2, -1, -1):
                x //= 10
                cells[..., d] = np.where(x, x % 10 + 48, 0)
        at += len(span) + len(end)
    text = out[out != 0].tobytes().decode("ascii")
    return text[: len(text) - len(joiner)]


def _fp_blocks(ks: np.ndarray, fmt: str):
    """The text of the rows (sample index, fixed points) of a dump of counts, _BLOCK at a time."""
    literals, joiner = _DUMP_LAYOUT[fmt, "fp"]
    for i in range(0, len(ks), _BLOCK):
        block = ks[i : i + _BLOCK, None]
        yield _render_rows([np.arange(i, i + len(block))[:, None], block], literals, joiner)


def _perm_blocks(perms: np.ndarray, fmt: str):
    """
    The text of the rows (sample index, fixed points, permutation) of a
    dump of a (count, n) array of permutations, a block at a time: at most
    _BLOCK rows and _BLOCK_CELLS integers, so that a block's memory does
    not grow with n.
    """
    count, n = perms.shape
    literals, joiner = _DUMP_LAYOUT[fmt, "perm"]
    step = max(1, min(_BLOCK, _BLOCK_CELLS // (n + 2)))
    ident = np.arange(1, n + 1)
    for i in range(0, count, step):
        block = perms[i : i + step]
        fps = np.count_nonzero(block == ident, axis=1)[:, None]
        yield _render_rows([np.arange(i, i + len(block))[:, None], fps, block], literals, joiner)


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
    if args.tau is not None and args.tau not in TAU_CLASS:
        print(f"zn: no series for tau={args.tau} (only {TAU_CLASS}); use explore", file=sys.stderr)
        return 2
    rows = enumerate(series._normalization_texts(args.q, n_max, args.tau))
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
    rows = list(pmf.texts().items())
    Emitter(args.format, args.out).emit(
        ["k", "probability"], rows,
        preamble=[f"n={args.n}", f"q={args.q}", f"tau={args.tau or ''}", f"mode={pmf.mode}"],
    )
    return 0


def cmd_sample(args) -> int:
    # every draw is made before the first byte is written, so a refusal prints nothing
    rng = sampling.RandomSource(args.seed, args.stream)
    emit_perm = args.emit == "perm"
    if emit_perm:
        blocks = _perm_blocks(sampling.biased_avoider_permutation(args.n, args.q, args.tau, rng,
                                                                  args.count)[0], args.format)
    else:
        blocks = _fp_blocks(sampling.sample_fp_count_batch(args.n, args.q, args.tau, rng, args.count,
                                                           mode=args.fp_mode), args.format)
    columns = ["sample_index", "fp"] + (["perm"] if emit_perm else [])
    Emitter(args.format, args.out).emit_blocks(
        columns, blocks,
        preamble=[f"seed={args.seed}", f"stream_id={args.stream}", f"n={args.n}",
                  f"q={args.q}", f"tau={args.tau or ''}"],
    )
    return 0


def _verify_growth(args, emitter) -> int:
    defaults = load_verify_defaults()["growth"]
    grid = args.n_grid or [defaults["n"] if args.n is None else args.n]
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
    grid = args.n_grid or [defaults["n"] if args.n is None else args.n]
    tol = args.tol if args.tol is not None else defaults["tolerance"]
    rows = []
    ok = True
    for n in sorted(grid):
        spec = MeasureSpec(n, args.q, spec_law.tau)
        if spec_law.law_id == 2:
            samples = defaults["samples"] if args.samples is None else args.samples
            rng = sampling.RandomSource(args.seed, args.stream)
            pmf = fp_pmf(spec, mode="monte-carlo", rng=rng, samples=samples)
            value = max(abs(float(pmf.pmf(k)) - float(spec_law.law.pmf(k))) for k in range(3))
            metric = "max-cell"
        else:
            pmf = fp_pmf(spec, mode="scaled-float")
            value = spec_law.distance(pmf, n)
            metric = "tv" if spec_law.law.discrete else "kolmogorov"
        passed = value <= tol
        ok = ok and passed
        rows.append([n, str(args.q), spec_law.tau or "", spec_law.name, repr(value), pmf.provenance.kind])
        print(f"{'PASS' if passed else 'FAIL'} check={spec_law.name} q={args.q} n={n} "
              f"{metric}={value!r} tol={tol}")
    emitter.emit(["n", "q", "tau", "law", "distance", "route"], rows)
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
    # MeasureSpec refuses a q <= 0 before any row is made
    qs = [MeasureSpec(args.n_max, q).q for q in args.q_grid or [args.q]]
    route = dist.Provenance("enumeration" if args.tau == "123" else "series")
    rows = []
    for n in range(1, args.n_max + 1):
        counts = dist.fixed_point_row(n, args.tau)
        for q in qs:
            law = dist.FixedPointPMF(n, dict(enumerate(series.bias_weights(counts, q))), "exact", route)
            if args.emit == "pmf":
                rows += [[n, str(q), k, text] for k, text in law.texts().items()]
            else:
                mean = dist.pmf_moment(law, 1)
                rows.append([n, str(q), repr(float(mean)), repr(float(dist.pmf_moment(law, 2) - mean**2))])
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
    p.add_argument("--q-grid", type=_parse_q_grid, default=None, help="comma-separated rational biases")
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
