"""
Desk-scale budgets for the exact engines.

Budgets are configuration, not constants. The environment variable
FPBL_BUDGET is their one source besides the defaults below: it raises or
lowers them for every engine and command, e.g.

    FPBL_BUDGET="poly=3000,eval=20000"

Keys: poly (132/321/213 rows of counts by fixed-point number), eval
(fixed-q exact series: the normalizations of both measures, on the
132/321/213 avoiders and on all of S_n, and the factorial moments), enum
(cap of the exact tables outside 132/321/213: the 231/312 series rows, 123
enumeration, and the enumerated tables of whole avoiders).

These are the only budgets, and no engine call takes a cap of its own:
the avoider enumerator in `perms` reads enum from here. No command
enumerates all of S_n, so `perms.enumerate_permutations`, an oracle of
the tests, is capped by the constant `perms._PLAIN_ENUM_CAP`.
"""
from __future__ import annotations

import os

DEFAULT_BUDGETS = {
    "poly": 1500,
    "eval": 10_000,
    "enum": 12,  # Catalan(12) = 208 012 avoiders stay tractable
}


class BudgetExceededError(ValueError):
    """An exact-computation request exceeds the configured budget."""


def budgets() -> dict[str, int]:
    """Current budgets: defaults overlaid with FPBL_BUDGET (read each call)."""
    out = dict(DEFAULT_BUDGETS)
    raw = os.environ.get("FPBL_BUDGET", "")
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in out:
            raise ValueError(f"unknown FPBL_BUDGET key {key!r} (known: {sorted(out)})")
        out[key] = int(value)
    return out


def check_budget(kind: str, requested: int) -> None:
    limit = budgets()[kind]
    if requested > limit:
        raise BudgetExceededError(f"requested {kind} size {requested} exceeds budget {limit}")
