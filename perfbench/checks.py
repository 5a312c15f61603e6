"""Output checks: every number a workload produces is checked before it counts.

Each check returns a list of failure messages (empty when the output is
right), so a caller can both count failed operations and say why.  The
tolerances are the project's contracts and are not tuned per workload:

- a Monte Carlo value sits on the bound side of its Gauss-Chebyshev value:
  fixed cluster sizes give upper bounds (MC <= GC + 4 sigma) and Poisson
  sizes lower bounds (MC >= GC - 4 sigma), with the spread taken from the
  GC value q, because the MC standard error is 0 when no trial is covered;
- Monte Carlo coverage never increases along the threshold grid;
- Gauss-Chebyshev and exact-integral values agree within 1e-3;
- every CSV row has a coverage in [0, 1] and the bound side its scenario's
  size model implies.
"""

from __future__ import annotations

import csv
import io
import math

from scipy.special import bdtr, bdtrc

FALSE_ALARM = 0.5 * math.erfc(4.0 / math.sqrt(2.0))  # one-sided 4 sigma, about 3.2e-5
GC_EXACT_TOL = 1e-3


def bound_side(scenario: str, method: str) -> str:
    """The bound side a row of this scenario label and method must carry."""
    if method == "mc":
        return "estimate"
    if "/fixed-n" in scenario:
        return "upper-bound"
    if "/poisson-nbar" in scenario:
        return "lower-bound"
    raise ValueError(f"unknown size model in scenario label {scenario!r}")


def check_mc_bound(mc: float, gc: float, trials: int, fixed_size: bool) -> list[str]:
    """MC on the bound side of GC, at the false-alarm rate of a 4-sigma test.

    The covered count k = mc * trials is Binomial(trials, q) with q the GC
    value when the bound is tight.  The check fails when k is at least as
    unlikely on the wrong side as a 4-sigma normal deviation, judged by the
    exact binomial tail: the normal form with sigma = sqrt(q (1 - q) / n)
    is the same test for large n q, but when n q << 1 it rejects a single
    covered trial, which happens with probability about n q.
    """
    q = min(1.0, max(0.0, gc))
    k = round(mc * trials)
    sigma = math.sqrt(q * (1.0 - q) / trials)
    if fixed_size and bdtrc(k - 1, trials, q) < FALSE_ALARM:
        return [f"fixed-size MC {mc:.6g} above GC upper bound {gc:.6g} "
                f"(z = {(mc - q) / sigma if sigma else math.inf:.2f})"]
    if not fixed_size and bdtr(k, trials, q) < FALSE_ALARM:
        return [f"Poisson-size MC {mc:.6g} below GC lower bound {gc:.6g} "
                f"(z = {(mc - q) / sigma if sigma else -math.inf:.2f})"]
    return []


def check_monotone(values: list[float]) -> list[str]:
    """Coverage along an ascending threshold grid must not increase."""
    return [
        f"coverage rises from {a:.6g} to {b:.6g} at grid index {i + 1}"
        for i, (a, b) in enumerate(zip(values, values[1:]))
        if b > a
    ]


def check_gc_exact(gc: float, exact: float) -> list[str]:
    gap = abs(gc - exact)
    if not gap <= GC_EXACT_TOL:
        return [f"|GC - exact| = {gap:.3g} exceeds {GC_EXACT_TOL:g} (GC {gc:.6g}, exact {exact:.6g})"]
    return []


def check_row(row: dict) -> list[str]:
    """Coverage in [0, 1] and the bound side the size model implies."""
    problems = []
    value = float(row["coverage"])
    if not 0.0 <= value <= 1.0:
        problems.append(f"coverage {value!r} outside [0, 1]")
    want = bound_side(row["scenario"], row["method"])
    if row["bound_side"] != want:
        problems.append(f"bound_side {row['bound_side']!r}, expected {want!r}")
    return problems


def parse_rows(csv_bytes: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(csv_bytes.decode("utf-8"))))


def check_sweep(rows: list[dict], trials: int) -> dict[int, list[str]]:
    """Failures of one sweep's rows, keyed by row index.

    Rows are matched across methods by (axis value, scenario label): every
    MC row is checked against the GC row of its point and every exact row
    against it too; a gap between GC and exact is charged to the GC row.
    """
    failures: dict[int, list[str]] = {}
    by_method: dict[str, dict[tuple, int]] = {}
    for index, row in enumerate(rows):
        by_method.setdefault(row["method"], {})[(row["axis_value"], row["scenario"])] = index
        problems = check_row(row)
        if problems:
            failures[index] = problems
    gc_rows = by_method.get("gc", {})
    for method in ("mc", "exact"):
        for key, index in by_method.get(method, {}).items():
            if key not in gc_rows:
                failures.setdefault(index, []).append("no GC row at this point to check against")
            elif method == "mc":
                problems = check_mc_bound(
                    float(rows[index]["coverage"]), float(rows[gc_rows[key]]["coverage"]),
                    trials, bound_side(key[1], "gc") == "upper-bound",
                )
                if problems:
                    failures.setdefault(index, []).extend(problems)
            else:
                problems = check_gc_exact(
                    float(rows[gc_rows[key]]["coverage"]), float(rows[index]["coverage"])
                )
                if problems:
                    failures.setdefault(gc_rows[key], []).extend(problems)
    return failures
