"""Optimal and ranked k-best solutions of rectangular assignment problems.

The problems solved here are *partial*: any row (track) and any column
(measurement) may stay unassigned at zero marginal cost, and individual
entries may be excluded outright (FORBIDDEN).  Only selected entries
contribute to the total cost, so an optimal solution picks exactly the
entries worth their (typically negative) price.

Rows with no admissible entry and columns that no row admits are dropped
first.  The rest is squared up by giving every row a private zero-cost slack
column; a full row assignment of the augmented matrix then corresponds
one-to-one to a partial assignment of the original.  The augmented matrix is
solved with scipy's Hungarian-family solver, and ranked enumeration
partitions the solution space around each emitted assignment (Murty's
scheme) with a lazy priority queue of subproblems, so k-best costs O(k)
subproblem rounds beyond the root.  A node is partitioned only on the rows
its ancestors left unpinned, and an exact feasibility pretest skips every
child that has no assignment at all, so every solve yields a subproblem.

Ties are broken deterministically: with ``resolve_ties`` equal-cost
assignments are ordered lexicographically by their row-to-column mapping,
with "unassigned" sorting before column 0; without it they keep the order
in which the queue discovered them.
"""
from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import InputError

#: Marker for an excluded row/column pair (a gated-out association).
FORBIDDEN = float("inf")

# Costs within this relative slack of the k-th best are treated as tied and
# kept for deterministic lexicographic resolution.
_TIE_RTOL = 1e-9


@dataclass(frozen=True)
class Assignment:
    """A partial injective assignment and the sum of its selected entries."""

    row_to_col: dict[int, int]
    total_cost: float = 0.0

    def pairs(self) -> tuple[tuple[int, int], ...]:
        """Selected (row, column) pairs in row order."""
        return tuple(sorted(self.row_to_col.items()))


def _lex_key(row_to_col: dict[int, int], rows: list[int]) -> tuple[int, ...]:
    # -1 encodes "unassigned", which must sort before column 0.
    return tuple(row_to_col.get(r, -1) for r in rows)


def k_best(costs, k: int, resolve_ties: bool = True) -> list[Assignment]:
    """The k lowest-cost partial assignments in nondecreasing cost order.

    Returns min(k, number of feasible assignments) results.  The empty
    assignment (cost 0) is always feasible, so the result is never empty.

    Rows with no admissible entry and columns that no row admits take no
    part in any assignment, so they are dropped before the augmented matrix
    is built; the returned maps use the caller's indices.

    With ``resolve_ties`` (the default), exact cost ties across the k-th
    position are resolved by the lexicographic rule, which requires
    expanding one extra subproblem per call and sorting the results.  With
    ``resolve_ties=False`` enumeration stops at exactly k solutions, returned
    in the order they leave the queue: nondecreasing cost, ties in discovery
    order.  The filter uses this fast path since its costs are continuous
    and ties have probability zero.
    """
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k < 1:
        raise InputError("k must be a positive integer")
    costs = np.asarray(costs, dtype=float)
    if costs.ndim != 2:
        raise InputError(f"cost matrix must be two-dimensional, got shape {costs.shape}")
    if np.isnan(costs).any():
        raise InputError("cost matrix contains NaN entries")
    if np.isneginf(costs).any():
        raise InputError("cost matrix entries must be finite or FORBIDDEN (+inf)")
    finite = np.isfinite(costs)
    row_ids = finite.any(axis=1).nonzero()[0]
    if row_ids.size == 0:
        return [Assignment({}, 0.0)]
    col_ids = finite[row_ids].any(axis=0).nonzero()[0]
    n_rows, n_cols = row_ids.size, col_ids.size

    # Sentinel for excluded entries.  It is big enough that any solution
    # forced onto one is strictly worse than every all-finite solution, so a
    # selected entry equal to `large` marks the subproblem infeasible.  The
    # root and every child that passes the pretest below are feasible, so
    # `solve` checks this only for consistency.
    scale = float(np.abs(costs[finite]).max())
    large = (2.0 * (n_rows + n_cols) + 1.0) * max(1.0, scale) + 1.0

    aug = np.full((n_rows, n_cols + n_rows), large)
    aug[:, :n_cols] = np.minimum(costs[row_ids][:, col_ids], large)
    rows = np.arange(n_rows)
    aug[rows, n_cols + rows] = 0.0

    def solve(node: np.ndarray):
        cols = linear_sum_assignment(node)[1]
        selected = node[rows, cols].tolist()
        total = 0.0
        for c, value in zip(cols.tolist(), selected):
            if value >= large:
                return None, 0.0
            if c < n_cols:
                total += value
        return cols, total

    counter = itertools.count()
    root_sol, root_cost = solve(aug)
    # Entries: (cost, discovery, first free row, node, solution).
    heap = [(root_cost, next(counter), 0, aug, root_sol)]
    emitted: list[tuple[float, np.ndarray]] = []

    while heap:
        if len(emitted) >= k:
            if not resolve_ties:
                break
            kth = emitted[k - 1][0]
            if heap[0][0] > kth + _TIE_RTOL * max(1.0, abs(kth)):
                break
        cost, _, first, node, sol = heapq.heappop(heap)
        emitted.append((cost, sol))
        if not resolve_ties and len(emitted) >= k:
            break

        # Partition the node around its solution: child t pins rows < t to
        # their pairs and excludes row t's pair.  The node's exclusions all
        # lie in rows <= first, so rows < first are pinned already (their
        # children are empty) and every row > t keeps its zero-cost slack.
        # Child t is therefore feasible exactly when row t admits a column
        # held by no row <= t, and only those children are solved.
        holder = np.full(n_cols + n_rows, n_rows)
        holder[sol] = rows
        feasible = ((node[first:] < large) & (holder > rows[first:, None])).any(axis=1)
        pinned = np.full_like(node, large)
        pinned[rows, sol] = node[rows, sol]
        for t in (feasible.nonzero()[0] + first).tolist():
            child = node.copy()
            child[:t] = pinned[:t]
            child[t, sol[t]] = large
            child_sol, child_cost = solve(child)
            if child_sol is not None:
                heapq.heappush(heap, (child_cost, next(counter), t, child, child_sol))

    row_ids, col_ids = row_ids.tolist(), col_ids.tolist()
    results = [
        Assignment({row_ids[r]: col_ids[c] for r, c in enumerate(sol.tolist()) if c < n_cols}, cost)
        for cost, sol in emitted
    ]
    if resolve_ties:
        results.sort(key=lambda a: (a.total_cost, _lex_key(a.row_to_col, row_ids)))
    return results[:k]


def solve_optimal(costs) -> Assignment:
    """The minimum-cost partial assignment (lexicographically first on ties)."""
    return k_best(costs, 1)[0]


def parse_cost_matrix(text: str) -> np.ndarray:
    """Parse a whitespace/line separated cost matrix; token ``inf`` = FORBIDDEN."""
    rows = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        try:
            rows.append([float(tok) for tok in tokens])
        except ValueError as exc:
            raise InputError(f"bad cost entry on line {line_no}: {exc}") from exc
    if not rows:
        return np.zeros((0, 0))
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise InputError("cost matrix rows have inconsistent lengths")
    return np.asarray(rows, dtype=float)
