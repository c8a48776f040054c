"""Optimal and ranked k-best solutions of rectangular assignment problems.

The problems solved here are *partial*: any row (track) and any column
(measurement) may stay unassigned at zero marginal cost, and individual
entries may be excluded outright (FORBIDDEN).  Only selected entries
contribute to the total cost, so an optimal solution picks exactly the
entries worth their (typically negative) price.

Rows with no admissible entry and columns that no row admits are dropped
first.  The rest is squared up by giving every row a private zero-cost slack
column; a full row assignment of the augmented matrix then corresponds
one-to-one to a partial assignment of the original.  Its other entries stay
FORBIDDEN, as do those a Murty node pins or excludes: one marker from the
caller to the solver, which never selects +inf.  A stack of matrices shares
this setup: it is computed for many matrices at once.  Each augmented matrix
is solved with scipy's compiled Hungarian-family solver (loaded on its own,
without the rest of ``scipy.optimize``), and ranked enumeration partitions
the solution space around each emitted assignment (Murty's scheme).  A node
is partitioned only on the rows its ancestors left unpinned, and an exact
feasibility pretest skips every child that has no finite assignment, on
which the solver would raise.  The others wait in the queue under a cheap
lower bound on their cost and are solved only on reaching its top: one
solve for the root and one per child popped, and the output of solving
every child at once.

Ties are broken deterministically: with ``resolve_ties`` equal-cost
assignments are ordered lexicographically by their row-to-column mapping,
with "unassigned" sorting before column 0; without it they keep the order
in which the queue discovered them.
"""
from __future__ import annotations

import heapq
import importlib.machinery
import importlib.util
import itertools
import os
from dataclasses import dataclass

import numpy as np

from .errors import InputError, is_int, real_array


def _load_lsap():
    """scipy's compiled ``linear_sum_assignment``, without scipy's package inits.

    ``import scipy.optimize`` also loads linprog, sparse and ``scipy.linalg``,
    which take most of a process's set-up; the solver is one extension
    module that needs only numpy.  A later ``import scipy.optimize`` returns
    this same function.
    """
    scipy = importlib.util.find_spec("scipy")  # locates the package, runs nothing
    if scipy is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    dirs = [os.path.join(path, "optimize") for path in scipy.submodule_search_locations]
    spec = importlib.machinery.PathFinder.find_spec("scipy.optimize._lsap", dirs)
    if spec is None or not isinstance(spec.loader, importlib.machinery.ExtensionFileLoader):
        from importlib.metadata import version

        raise ImportError(f"scipy {version('scipy')} has no compiled scipy.optimize._lsap")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.linear_sum_assignment


linear_sum_assignment = _load_lsap()

#: Marker for an excluded row/column pair (a gated-out association).
FORBIDDEN = float("inf")

# With ``resolve_ties``, queue entries within this relative slack of the k-th
# best cost are still expanded.  An LSAP optimum's row-order float sum can
# land an ulp above an exactly tied assignment in its own subtree, which only
# expanding that subtree finds.  Ties are still broken on the exact float
# cost, not within the window.
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
    stack at once, in chunks of ``_CHUNK`` matrices.  A matrix costs one
    solve plus one per Murty child whose lower bound reaches the queue's top.

    With ``resolve_ties`` (the default), exact cost ties across the k-th
    position are resolved by the lexicographic rule, which requires
    expanding one extra subproblem per call and sorting the results.  With
    ``resolve_ties=False`` enumeration stops at exactly k solutions, returned
    in the order they leave the queue: nondecreasing cost, ties in discovery
    order.  The filter uses this fast path since its costs are continuous
    and ties have probability zero.
    """
    costs = real_array(costs, "cost matrix entries")
    if costs.ndim not in (2, 3):
        raise InputError(f"costs must be a matrix or a stack of matrices, got shape {costs.shape}")
    stack = costs if costs.ndim == 3 else costs[None]
    n_mats = stack.shape[0]
    ks = list(k) if isinstance(k, (list, tuple)) else [k] * n_mats
    if len(ks) != n_mats or not all(is_int(rank) and rank >= 1 for rank in ks):
        raise InputError("k must be a positive integer, or one per cost matrix")
    counts, totals, cols = _ranked_columns(stack, ks, resolve_ties)
    solutions = zip(cols.tolist(), totals.tolist())
    results = [
        [
            Assignment({r: c for r, c in enumerate(row) if c >= 0}, cost)
            for row, cost in itertools.islice(solutions, count)
        ]
        for count in counts
    ]
    return results if costs.ndim == 3 else results[0]


def _ranked_columns(costs: np.ndarray, ks: list, resolve_ties: bool):
    """``k_best`` of a (G, R, C) stack as arrays: (counts, totals, columns).

    ``counts[g]`` is the number of solutions of matrix g, and they are the
    next ``counts[g]`` rows of ``totals`` (S,) and ``columns`` (S, R), which
    hold each solution's total cost and the caller column of every row, -1
    where it is unassigned.  ``k_best`` builds its ``Assignment`` lists from
    these, and the filter turns them into child keys directly.
    """
    # Entries are finite or FORBIDDEN: the minimum is NaN if any entry is,
    # and -inf if any entry is.
    if not np.minimum.reduce(costs, axis=None, initial=np.inf) > -np.inf:
        if np.isnan(costs).any():
            raise InputError("cost matrix contains NaN entries")
        raise InputError("cost matrix entries must be finite or FORBIDDEN (+inf)")
    counts, totals, cols = [], [], []
    for start in range(0, len(costs), _CHUNK):
        chunk = _rank_chunk(costs[start:start + _CHUNK], ks[start:start + _CHUNK], resolve_ties)
        counts += chunk[0]
        totals += chunk[1]
        cols += chunk[2]
    cols = np.fromiter(cols, np.intp, len(cols)).reshape(len(totals), costs.shape[1])
    return counts, np.array(totals), cols


def _rank_chunk(costs: np.ndarray, ks: list, resolve_ties: bool):
    """``_ranked_columns`` of a (G, R, C) stack from one shared setup, as lists.

    The columns come as one flat list, solution after solution.

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

    rows = np.arange(n_r)
    aug = np.full((n_mats, n_r, n_c + n_r), FORBIDDEN)
    # Row i's slack, at column C + i, is flat entry C + i (C + R + 1) of its matrix.
    aug.reshape(n_mats, -1)[:, n_c::n_c + n_r + 1] = 0.0
    aug[:, :, :n_c] = costs[np.arange(n_mats)[:, None, None], row_ids[..., None], col_ids[:, None]]
    # The columns outside a matrix's view are FORBIDDEN, above its row's zero
    # slack, so these are the row minima of each view.  Numpy reduces in
    # memory order, so a short last axis is slow; a column-major copy makes
    # it the leading one.
    row_mins = np.minimum.reduce(
        np.ascontiguousarray(aug.transpose(2, 0, 1)), axis=0, initial=np.inf
    ).tolist()
    row_maps, col_maps = row_ids.tolist(), col_ids.tolist()

    counts, totals, cols = [], [], []
    for g, (n_row, n_col, k) in enumerate(zip(n_rows, n_cols, ks)):
        row_map = row_maps[g][:n_row]
        # Caller column of each slot of the view; slack slots are -1.
        slot_col = col_maps[g][n_c - n_col:] + [-1] * n_row
        ranked = []
        if n_row == 0:
            ranked.append((0.0, [-1] * n_r))
        else:
            node = aug[g, :n_row, n_c - n_col:n_c + n_row]
            emitted = _murty(node, n_col, k, resolve_ties, rows[:n_row], row_mins[g][:n_row])
            for cost, sol in emitted:
                row = [-1] * n_r
                for r, c in zip(row_map, sol.tolist()):
                    row[r] = slot_col[c]
                ranked.append((cost, row))
        if resolve_ties:
            # Lexicographic on the caller columns, unassigned (-1) first;
            # rows no entry admits are -1 in every solution.
            ranked.sort()
            del ranked[k:]
        counts.append(len(ranked))
        for cost, row in ranked:
            totals.append(cost)
            cols += row
    return counts, totals, cols


def _murty(aug: np.ndarray, n_cols: int, k: int, resolve_ties: bool,
           rows: np.ndarray, row_min: list[float]) -> list[tuple[float, np.ndarray]]:
    """(cost, slot per row) of the ranked solutions of one augmented matrix.

    ``row_min`` holds the row minima of ``aug``.  A node of the search is a
    copy of ``aug`` with its rows before some row ``first`` pinned and row
    ``first`` short of some entries, so its rows after ``first`` are the
    root's and share these minima.  Every node solved has a finite full
    assignment.  Each solve also keeps the entries it selected,
    ``node[rows, sol]``: a node's children take their pinned values from
    them.
    """

    def solve(node: np.ndarray):
        cols = linear_sum_assignment(node)[1]
        selected = node[rows, cols].tolist()
        # The slack entries selected are their rows' own, exactly +0.0, and
        # a row-order sum from +0.0 is never -0.0: adding them leaves the
        # sum of the assigned entries bitwise as it is.
        total = 0.0
        for value in selected:
            total += value
        return cols, total, selected

    n_rows = rows.size
    counter = itertools.count()
    root_sol, root_cost, root_values = solve(aug)
    # Entries: (cost, discovery, first free row, node, solution, selected
    # entries, exact).  An inexact entry is child `first` of `node`,
    # unsolved, under a lower bound.
    heap = [(root_cost, next(counter), 0, aug, root_sol, root_values, True)]
    emitted: list[tuple[float, np.ndarray]] = []

    while heap:
        if len(emitted) >= k:
            if not resolve_ties:
                break
            kth = emitted[k - 1][0]
            if heap[0][0] > kth + _TIE_RTOL * max(1.0, abs(kth)):
                break
        cost, order, first, node, sol, values, exact = heapq.heappop(heap)
        if not exact:
            # Solve the child now.  Its exact cost is >= the bound and it keeps
            # its discovery number, so exact entries leave in eager order.
            child = node.copy()
            child[:first] = FORBIDDEN
            child[rows[:first], sol[:first]] = values[:first]
            child[first, sol[first]] = FORBIDDEN
            child_sol, child_cost, child_values = solve(child)
            heapq.heappush(heap, (child_cost, order, first, child, child_sol, child_values, True))
            continue
        emitted.append((cost, sol))
        if not resolve_ties and len(emitted) >= k:
            break

        # Partition the node around its solution: child t pins rows < t to
        # their pairs and excludes row t's pair.  The node's exclusions all
        # lie in rows <= first, so rows < first are pinned already (their
        # children are empty) and every row > t keeps its zero-cost slack.
        # Child t is therefore feasible exactly when row t admits a column
        # held by no row <= t.  Its cost is then at least the pinned values
        # of rows < t, plus row t's least such entry, plus the minimum of
        # each row > t; added in `solve`'s row order, the float sum stays a
        # lower bound, since rounding is monotone.  The pinned sum is carried
        # from child to child, which keeps that order.
        holder = np.full(n_cols + n_rows, n_rows)
        holder[sol] = rows
        free = holder > rows[first:, None]
        free_min = np.minimum.reduce(node[first:], axis=1, where=free, initial=FORBIDDEN).tolist()
        pinned = 0.0
        for value in values[:first]:
            pinned += value
        for t, row_t in enumerate(free_min, first):
            if row_t < FORBIDDEN:
                bound = pinned + row_t
                for value in row_min[t + 1:]:
                    bound += value
                heapq.heappush(heap, (bound, next(counter), t, node, sol, values, False))
            pinned += values[t]
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
