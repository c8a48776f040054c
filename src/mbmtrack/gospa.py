"""GOSPA metric (alpha = 2) with localisation/missed/false decomposition.

The metric between a ground-truth set and an estimate set is the minimum
over partial injective matchings of

    (sum of d^p over matched pairs + (c^p / 2) * (#missed + #false)) ^ (1/p)

Only pairs with d^p < c^p can appear in an optimal matching (matching a
farther pair never beats leaving both unmatched), so the minimization
reduces to a partial assignment problem with entries d^p - c^p.

``gospa_run`` scores a whole run, given as a block of points per side and
each step's two set sizes, as one stack of assignment problems; ``gospa``
scores one pair.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assignment import FORBIDDEN, _ranked_columns
from .errors import InputError, real_array, real_number


@dataclass(frozen=True)
class GospaParams:
    """Cutoff c > 0 and order 1 <= p < inf, with c**p in (0, 1e100].

    The bound keeps a step's total over N points below c**p * N, so RMS-GOSPA
    squares it without overflow."""

    cutoff: float = 10.0
    order: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "cutoff", real_number(self.cutoff, "GOSPA cutoff c", "(0, inf)"))
        object.__setattr__(self, "order", real_number(self.order, "GOSPA order p", "[1, inf)"))
        try:
            c_p = self.cutoff**self.order
        except OverflowError:
            c_p = math.inf
        if not 0.0 < c_p <= 1e100:
            raise InputError(
                f"GOSPA c**p must be in (0, 1e100], got c={self.cutoff!r}, p={self.order!r}"
            )


@dataclass(frozen=True)
class GospaResult:
    total: float
    localisation_p: float
    missed_p: float
    false_p: float
    n_missed: int
    n_false: int
    matching: tuple[tuple[int, int], ...]


def gospa_run(truth, estimate, sizes, params: GospaParams = GospaParams()) -> list[GospaResult]:
    """GOSPA of each step's (truth, estimate) pair of finite sets of points.

    ``truth`` and ``estimate`` each hold one side's points of every step, in
    step order, as one (points, dim) real block, and row k of ``sizes`` is
    step k's truth and estimate counts; a side with no points may be any
    empty array.  A non-finite point is refused naming its step.  The cost
    matrices of the steps whose sets are both non-empty, padded with
    FORBIDDEN to one stack, are ranked in one ``_ranked_columns`` call:
    padding rows take only their zero slacks, padding columns are never taken
    and ties go to the lexicographically first matching, so each step's
    matching is bitwise the one it gets alone.
    """
    counts, dtype = real_array(sizes, "GOSPA sizes"), np.asarray(sizes).dtype
    if dtype.kind == "f" or counts.ndim != 2 or counts.shape[1] != 2 or (counts < 0).any():
        raise InputError(f"GOSPA sizes must be non-negative integers of shape (steps, 2), "
                         f"got {dtype} of shape {counts.shape}")
    sizes = counts.astype(np.intp)
    ends = np.cumsum(sizes, axis=0)  # per side, the row after each step's last point
    totals, blocks = sizes.sum(axis=0), []
    for points, what, n_rows in zip((truth, estimate), ("truth", "estimate"), totals.tolist()):
        block = real_array(points, f"GOSPA {what} points")
        if (block.size or n_rows) and (block.ndim != 2 or len(block) != n_rows):
            raise InputError(f"GOSPA {what} points must be a ({n_rows}, dim) block, "
                             f"got shape {block.shape}")
        blocks.append(block)
    truth, estimate = blocks
    if totals.all() and truth.shape[1] != estimate.shape[1]:
        raise InputError(f"GOSPA truth and estimate points have different dimensions, "
                         f"{truth.shape[1]} and {estimate.shape[1]}")
    # The step of each side's first non-finite point; the earlier one is named.
    bad = [int(np.searchsorted(ends[:, side], np.isfinite(b).all(axis=1).argmin(), "right"))
           for side, b in enumerate(blocks) if not np.isfinite(b).all()]
    if bad:
        raise InputError(f"step {min(bad) + 1}: set elements must be finite")
    n_steps = len(sizes)
    matchings = [()] * n_steps
    localisation = [0.0] * n_steps  # each step's sum of d^p, added in matching order
    scored = np.flatnonzero(sizes.all(axis=1))
    c_p = params.cutoff**params.order
    if len(scored):
        # Row of each scored step's first truth and first estimate in its block.
        starts = (ends - sizes)[scored]
        n_t, n_e = sizes[scored, 0], sizes[scored, 1]
        rows, cols = np.arange(n_t.max()), np.arange(n_e.max())
        has_row, has_col = rows < n_t[:, None], cols < n_e[:, None]
        # Padding reads its side's first point; its entries are FORBIDDEN below.
        xs = truth[np.where(has_row, starts[:, :1] + rows, 0)]
        ys = estimate[np.where(has_col, starts[:, 1:] + cols, 0)]
        # Coordinates near the float limit overflow to a distance of inf.
        # That is the right value: such a pair lies beyond the finite cutoff
        # either way, so it is never matched.
        with np.errstate(over="ignore"):
            diffs = xs[:, :, None, :] - ys[:, None, :, :]
            dist_p = np.sqrt(np.add.reduce(diffs * diffs, axis=3)) ** params.order
        admissible = has_row[:, :, None] & has_col[:, None, :] & (dist_p < c_p)
        costs = np.where(admissible, dist_p - c_p, FORBIDDEN)
        taken = _ranked_columns(costs, [1] * len(scored), True)[2]
        # Each matched (step, truth, estimate), by step and then truth.
        step_of, row = (taken >= 0).nonzero()
        col = taken[step_of, row]
        values = dist_p[step_of, row, col].tolist()
        for k, i, j, value in zip(scored[step_of].tolist(), row.tolist(), col.tolist(), values):
            matchings[k] += ((i, j),)
            localisation[k] += value

    half_cp = 0.5 * c_p
    results = []
    for (n_truth, n_est), matching, localisation_p in zip(sizes.tolist(), matchings, localisation):
        n_missed, n_false = n_truth - len(matching), n_est - len(matching)
        missed_p, false_p = half_cp * n_missed, half_cp * n_false
        total = (localisation_p + missed_p + false_p) ** (1.0 / params.order)
        results.append(
            GospaResult(total, localisation_p, missed_p, false_p, n_missed, n_false, matching)
        )
    return results


def gospa(truth, estimate, params: GospaParams = GospaParams()) -> GospaResult:
    """GOSPA distance between two finite sets of points: a run of one step."""
    truth, estimate = real_array(truth, "truth set"), real_array(estimate, "estimate set")
    return gospa_run(truth, estimate, [[len(truth), len(estimate)]], params)[0]


def run_summary(results, order: float) -> tuple[float, float, float, float]:
    """A run's RMS-GOSPA (of its per-step totals), then its localisation, missed and false
    terms, each as (its mean over steps)^(1/order); zeros for a run of no steps."""
    if not results:
        return (0.0, 0.0, 0.0, 0.0)
    rms = float(np.sqrt(np.mean(np.array([r.total for r in results]) ** 2)))
    terms = zip(*((r.localisation_p, r.missed_p, r.false_p) for r in results))
    return (rms, *(float(np.mean(t)) ** (1.0 / order) for t in terms))
