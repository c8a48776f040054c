"""Optimal and ranked k-best solutions of rectangular assignment problems.

The problems solved here are *partial*: any row (track) and any column
(measurement) may stay unassigned at zero marginal cost, and individual
entries may be excluded outright (FORBIDDEN).  Only selected entries
contribute to the total cost, so an optimal solution picks exactly the
entries worth their (typically negative) price.

Each matrix is squared up as the caller gives it, by giving every row a
private zero-cost slack column; a full row assignment of the augmented matrix
then corresponds one-to-one to a partial assignment of the original.  Its
other entries are FORBIDDEN, as are those a Murty node pins or excludes: one
marker from the caller to the solver, which never selects +inf.  A matrix
with no admissible entry has only the empty assignment and takes no solve.
Each is solved with scipy's compiled Hungarian-family solver (loaded on its
own, without the rest of ``scipy.optimize``), and ranked enumeration
partitions the solution space around each emitted assignment (Murty's
scheme).  A node is partitioned only on the rows its ancestors left
unpinned, and an exact feasibility pretest skips every child that has no
finite assignment, on which the solver would raise.  The others wait in the
queue under a cheap lower bound on their cost and are solved only on
reaching its top: one solve for the root and one per child popped, and the
output of solving every child at once.

The private ``_ranked_columns`` ranks a stack of matrices, one k each, into
arrays; the filter's update and GOSPA scoring each rank a stack with it, and
``k_best`` ranks one matrix as a stack of one.

Ties are broken deterministically: ``k_best``, and ``_ranked_columns`` with
``resolve_ties``, order equal-cost assignments lexicographically by their
row-to-column mapping, "unassigned" first.  Without it (the filter's continuous
costs) ranking stops at exactly k solutions, ties in discovery order.
"""
from __future__ import annotations

import heapq
import importlib.machinery
import importlib.util
import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import InputError, integer, real_array


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

# Matrices per shared setup in ``_ranked_columns``: the augmented block of a
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


def k_best(costs, k: int) -> list[Assignment]:
    """The k lowest-cost partial assignments of an (R, C) matrix, by nondecreasing cost.

    ``k`` is a positive integer, and the list holds min(k, number of feasible
    assignments) results; the empty assignment (cost 0) is always feasible.
    A matrix with an admissible entry costs one solve plus one per Murty
    child whose lower bound reaches the queue's top; one without costs none.
    Exact ties, across the k-th position too, follow the lexicographic rule,
    at the price of one extra subproblem expanded and a sort per call.
    """
    costs = real_array(costs, "cost matrix entries")
    if costs.ndim != 2:
        raise InputError(f"costs must be a matrix, got shape {costs.shape}")
    _, totals, cols = _ranked_columns(costs[None], [integer(k, "k", 1)], True)
    return [
        Assignment({r: c for r, c in enumerate(row) if c >= 0}, cost)
        for row, cost in zip(cols.tolist(), totals.tolist())
    ]


def _ranked_columns(costs: np.ndarray, ks: list, resolve_ties: bool):
    """``k_best`` of each matrix g of a (G, R, C) float stack, with k = ``ks[g]``,
    as arrays: (counts, totals, columns).

    ``counts[g]`` is the number of solutions of matrix g, and they are the
    next ``counts[g]`` rows of ``totals`` (S,) and ``columns`` (S, R), which
    hold each solution's total cost and the caller column of every row, -1
    where it is unassigned.  Each matrix gets bitwise the result it gets
    alone.  Only NaN and -inf entries are checked for; ``ks`` must hold ints.

    The augmented matrices of ``_CHUNK`` matrices are built as one block:
    matrix g's is ``aug[g]``, its C columns and then the zero slack of row i
    at column C + i, every other entry FORBIDDEN.  The block's roots are
    solved in one pass, one LSAP call per matrix that admits an entry (one
    that admits none keeps every row on its slack: the empty assignment),
    and their costs are summed together.  Only a matrix that needs more than
    its root enters ``_murty``.
    """
    n_mats, n_r, n_c = costs.shape
    # Entries are finite or FORBIDDEN: a matrix's minimum is NaN if any entry
    # is, -inf if any entry is, and FORBIDDEN if it admits no entry.
    mins = np.minimum.reduce(costs.reshape(n_mats, n_r * n_c), axis=1, initial=np.inf).tolist()
    if not all(low > -math.inf for low in mins):
        if any(math.isnan(low) for low in mins):
            raise InputError("cost matrix contains NaN entries")
        raise InputError("cost matrix entries must be finite or FORBIDDEN (+inf)")
    admits = [low < FORBIDDEN for low in mins]
    width = n_c + n_r
    slacks = np.arange(n_c, width)
    # Flat index of each row's column 0, matrix by matrix, in a chunk's block.
    n_block = min(n_mats, _CHUNK)
    row_starts = np.arange(0, n_block * n_r * width, width or 1).reshape(n_block, n_r)
    counts, sol_parts, total_parts = [1] * n_mats, [], []
    # An empty stack still makes one (empty) pass, so that the parts are never empty.
    for start in range(0, n_mats or 1, _CHUNK):
        block = costs[start:start + _CHUNK]
        n = len(block)
        aug = np.full((n, n_r, width), FORBIDDEN)
        aug[:, :, :n_c] = block
        # Row i's slack, at column C + i, is flat entry C + i (C + R + 1) of its matrix.
        aug.reshape(n, n_r * width)[:, n_c::width + 1] = 0.0
        sols = np.empty((n, n_r), np.intp)
        for g in range(n):
            sols[g] = linear_sum_assignment(aug[g])[1] if admits[start + g] else slacks
        # Each root's selected entries after a +0.0, so that the running sum
        # adds them in ``_murty``'s order, from +0.0: accumulate adds strictly
        # left to right.  The slacks selected are exactly +0.0 and leave the
        # sum of the assigned entries bitwise as it is.
        selected = np.zeros((n, n_r + 1))
        aug.take(row_starts[:n] + sols, out=selected[:, 1:])
        totals = np.add.accumulate(selected, axis=1)[:, -1]
        last, row_mins = 0, None
        for g, k in enumerate(ks[start:start + n]):
            # A root is all a matrix needs when it is the empty assignment, or
            # the one solution asked for without a tie check.
            if not admits[start + g] or (k == 1 and not resolve_ties):
                continue
            if row_mins is None:  # the chunk's first matrix to enter _murty
                # Numpy reduces in memory order, so a short last axis is slow;
                # a column-major copy makes it the leading one.
                row_mins = np.minimum.reduce(
                    np.ascontiguousarray(aug.transpose(2, 0, 1)), axis=0, initial=np.inf
                ).tolist()
                rows = np.arange(n_r)
                layout = (rows, row_starts[0], rows[:, None], np.full(width, n_r))
            ranked = _murty(aug[g], k, resolve_ties, row_mins[g],
                            (totals[g], sols[g], selected[g, 1:]), layout)
            if resolve_ties:
                # Lexicographic on the caller columns, unassigned (-1) first.
                ranked.sort(key=lambda entry: (entry[0], [c if c < n_c else -1
                                                          for c in entry[1].tolist()]))
                del ranked[k:]
            counts[start + g] = len(ranked)
            sol_parts += (sols[last:g], np.array([sol for _, sol in ranked]))
            total_parts += (totals[last:g], [cost for cost, _ in ranked])
            last = g + 1
        sol_parts.append(sols[last:])
        total_parts.append(totals[last:])
    cols = np.concatenate(sol_parts)
    return counts, np.concatenate(total_parts), np.where(cols < n_c, cols, -1)


def _murty(aug: np.ndarray, k: int, resolve_ties: bool, row_min: list[float], root: tuple,
           layout: tuple) -> list[tuple[float, np.ndarray]]:
    """(cost, augmented column per row) of the ranked solutions of ``aug``.

    ``root`` is the solved root: its cost, columns and selected entries.
    ``layout`` holds the row indices, the flat index of each row's column 0,
    the rows as a column, and a holder per column that marks it held by no
    row.  ``row_min`` holds the row minima of ``aug``.  A node of the search
    is a copy of ``aug`` with its rows before some row ``first`` pinned and
    row ``first`` short of some entries, so its rows after ``first`` are the
    root's and share these minima.  Every node solved has a finite full
    assignment.  Each solve also keeps the entries it selected,
    ``node[rows, sol]``, and their flat indices: a node's children take
    their pins from them.  The root leaves the queue first, so it heads the
    result.
    """
    rows, flat_rows, below, unheld = layout
    counter = itertools.count(1)
    root_cost, root_sol, root_values = root
    # Entries: (cost, discovery, first free row, node, solution, its flat
    # indices in the node, selected entries, exact).  An inexact entry is
    # child `first` of `node`, unsolved, under a lower bound.
    heap = [(float(root_cost), 0, 0, aug, root_sol, flat_rows + root_sol, root_values, True)]
    emitted: list[tuple[float, np.ndarray]] = []

    while heap:
        if len(emitted) >= k:
            kth = emitted[k - 1][0]
            if heap[0][0] > kth + _TIE_RTOL * max(1.0, abs(kth)):
                break
        cost, order, first, node, sol, flat, values, exact = heapq.heappop(heap)
        if not exact:
            # Solve the child now.  Its exact cost is >= the bound and it keeps
            # its discovery number, so exact entries leave in eager order.
            child = node.copy()
            child[:first] = FORBIDDEN
            child.put(flat[:first], values[:first])
            child[first, sol[first]] = FORBIDDEN
            child_sol = linear_sum_assignment(child)[1]
            child_flat = flat_rows + child_sol
            child_values = child.take(child_flat)
            # The slack entries selected are their rows' own, exactly +0.0, and
            # a row-order sum from +0.0 is never -0.0: adding them leaves the
            # sum of the assigned entries bitwise as it is.
            child_cost = 0.0
            for value in child_values.tolist():
                child_cost += value
            heapq.heappush(
                heap, (child_cost, order, first, child, child_sol, child_flat, child_values, True)
            )
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
        # each row > t; added in the solves' row order, the float sum stays a
        # lower bound, since rounding is monotone.  The pinned sum is carried
        # from child to child, which keeps that order.
        holder = unheld.copy()
        holder[sol] = rows
        free = holder > below[first:]
        free_min = np.minimum.reduce(node[first:], axis=1, where=free, initial=FORBIDDEN).tolist()
        picked = values.tolist()
        pinned = 0.0
        for value in picked[:first]:
            pinned += value
        for t, row_t in enumerate(free_min, first):
            if row_t < FORBIDDEN:
                bound = pinned + row_t
                for value in row_min[t + 1:]:
                    bound += value
                heapq.heappush(heap, (bound, next(counter), t, node, sol, flat, values, False))
            pinned += picked[t]
    return emitted

