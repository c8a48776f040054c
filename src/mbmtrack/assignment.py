"""Optimal and ranked k-best solutions of rectangular assignment problems.

The problems solved here are *partial*: any row (track) and any column
(measurement) may stay unassigned at zero marginal cost, and individual
entries may be excluded outright (FORBIDDEN).  Only selected entries
contribute to the total cost, so an optimal solution picks exactly the
entries worth their (typically negative) price.

Rows with no admissible entry and columns that no row admits are dropped
first.  The rest is squared up by giving every row a private zero-cost slack
column; a full row assignment of the augmented matrix then corresponds
one-to-one to a partial assignment of the original.  A stack of matrices
shares this setup: it is computed for many matrices at once.  Each augmented
matrix is solved with scipy's Hungarian-family solver, and ranked enumeration
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

# Matrices per shared setup in a stacked ``k_best``: the augmented block of a
# whole filter step would raise peak memory for no gain in speed.
_CHUNK = 32


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


def k_best(costs, k, resolve_ties: bool = True) -> list[Assignment] | list[list[Assignment]]:
    """The k lowest-cost partial assignments in nondecreasing cost order.

    ``costs`` is one (R, C) matrix or a stack (G, R, C) of them; ``k`` is one
    positive integer, or a list or tuple of one per matrix.  A matrix gives
    a list of min(k, number of feasible assignments) results, and a stack
    gives one such list per matrix.  The empty assignment (cost 0) is always
    feasible, so no list is empty.  A single matrix is a stack of one: both
    take the same path, and each matrix of a stack gets bitwise the result
    it gets alone.

    Rows with no admissible entry and columns that no row admits take no
    part in any assignment, so they are dropped before the augmented matrix
    is built; the returned maps use the caller's indices.  The validation,
    this reduction and the augmented matrices are computed for a whole
    stack at once, in chunks of ``_CHUNK`` matrices.

    With ``resolve_ties`` (the default), exact cost ties across the k-th
    position are resolved by the lexicographic rule, which requires
    expanding one extra subproblem per call and sorting the results.  With
    ``resolve_ties=False`` enumeration stops at exactly k solutions, returned
    in the order they leave the queue: nondecreasing cost, ties in discovery
    order.  The filter uses this fast path since its costs are continuous
    and ties have probability zero.
    """
    costs = np.asarray(costs, dtype=float)
    if costs.ndim not in (2, 3):
        raise InputError(f"costs must be a matrix or a stack of matrices, got shape {costs.shape}")
    stack = costs if costs.ndim == 3 else costs[None]
    n_mats = stack.shape[0]
    ks = list(k) if isinstance(k, (list, tuple)) else [k] * n_mats
    if len(ks) != n_mats or not all(map(_is_rank, ks)):
        raise InputError("k must be a positive integer, or one per cost matrix")
    # Entries are finite or FORBIDDEN: the minimum is NaN if any entry is,
    # and -inf if any entry is.
    if not np.minimum.reduce(stack, axis=None, initial=np.inf) > -np.inf:
        if np.isnan(stack).any():
            raise InputError("cost matrix contains NaN entries")
        raise InputError("cost matrix entries must be finite or FORBIDDEN (+inf)")
    results = []
    for start in range(0, n_mats, _CHUNK):
        results += _rank_chunk(stack[start:start + _CHUNK], ks[start:start + _CHUNK], resolve_ties)
    return results if costs.ndim == 3 else results[0]


def _is_rank(k) -> bool:
    return isinstance(k, (int, np.integer)) and not isinstance(k, bool) and k >= 1


def _rank_chunk(costs: np.ndarray, ks: list, resolve_ties: bool) -> list[list[Assignment]]:
    """``k_best`` of each matrix of a (G, R, C) stack, from one shared setup.

    Stable sorts of the kept-row and kept-column masks move every matrix's
    kept rows to its top and its kept columns to the right end of its C
    columns, each in their original order.  The slack column of row i sits
    at C + i for every matrix, so matrix g's augmented problem is the view
    ``aug[g, :n_rows, C - n_cols:C + n_rows]``, bitwise the matrix a
    single-matrix setup would build.
    """
    n_mats, n_r, n_c = costs.shape
    finite = np.isfinite(costs)
    kept_rows = np.logical_or.reduce(finite, axis=2)
    kept_cols = np.logical_or.reduce(finite, axis=1)
    n_rows = np.add.reduce(kept_rows, axis=1).tolist()
    n_cols = np.add.reduce(kept_cols, axis=1).tolist()
    row_ids = (~kept_rows).argsort(axis=1, kind="stable")
    col_ids = kept_cols.argsort(axis=1, kind="stable")

    # Sentinel for excluded entries.  It is big enough that any solution
    # forced onto one is strictly worse than every all-finite solution, so a
    # selected entry equal to `large` marks the subproblem infeasible.  The
    # root and every child that passes the pretest in `_murty` are feasible,
    # so `solve` checks this only for consistency.  The reduction starts at
    # 1, so it gives max(1, largest finite magnitude).  A few scalars per
    # matrix cost less as Python floats than as numpy operations.
    scale = np.maximum.reduce(np.abs(costs), axis=(1, 2), where=finite, initial=1.0)
    large = [
        (2.0 * (n_row + n_col) + 1.0) * s + 1.0
        for n_row, n_col, s in zip(n_rows, n_cols, scale.tolist())
    ]

    rows = np.arange(n_r)
    fill = np.array(large)[:, None, None]
    aug = np.empty((n_mats, n_r, n_c + n_r))
    aug[:, :, n_c:] = fill
    # Row i's slack, at column C + i, is flat entry C + i (C + R + 1) of its matrix.
    aug.reshape(n_mats, -1)[:, n_c::n_c + n_r + 1] = 0.0
    np.minimum(
        costs[np.arange(n_mats)[:, None, None], row_ids[:, :, None], col_ids[:, None, :]],
        fill,
        out=aug[:, :, :n_c],
    )

    results = []
    for g, (n_row, n_col, big, k) in enumerate(zip(n_rows, n_cols, large, ks)):
        if n_row == 0:
            results.append([Assignment({}, 0.0)])
            continue
        node = aug[g, :n_row, n_c - n_col:n_c + n_row]
        emitted = _murty(node, n_col, big, k, resolve_ties, rows[:n_row])
        row_map, col_map = row_ids[g, :n_row].tolist(), col_ids[g, n_c - n_col:].tolist()
        ranked = [
            Assignment(
                {row_map[r]: col_map[c] for r, c in enumerate(sol.tolist()) if c < n_col}, cost
            )
            for cost, sol in emitted
        ]
        if resolve_ties:
            ranked.sort(key=lambda a: (a.total_cost, _lex_key(a.row_to_col, row_map)))
        results.append(ranked[:k])
    return results


def _murty(aug: np.ndarray, n_cols: int, large: float, k: int, resolve_ties: bool,
           rows: np.ndarray) -> list[tuple[float, np.ndarray]]:
    """(cost, slot per row) of the ranked solutions of one augmented matrix."""

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

    n_rows = rows.size
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
    return emitted


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
