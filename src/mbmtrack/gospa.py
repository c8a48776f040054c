"""GOSPA metric (alpha = 2) with localisation/missed/false decomposition.

The metric between a ground-truth set and an estimate set is the minimum
over partial injective matchings of

    (sum of d^p over matched pairs + (c^p / 2) * (#missed + #false)) ^ (1/p)

Only pairs with d^p < c^p can appear in an optimal matching (matching a
farther pair never beats leaving both unmatched), so the minimization
reduces to a partial assignment problem with entries d^p - c^p.

``gospa_run`` scores a whole run, one (truth, estimate) pair per step, as one
block of points and one stack of assignment problems; ``gospa`` scores one pair.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assignment import FORBIDDEN, _ranked_columns
from .errors import InputError, real_array, real_number


@dataclass(frozen=True)
class GospaParams:
    """Cutoff c > 0 and order 1 <= p < inf; c**p must be a positive finite float."""

    cutoff: float = 10.0
    order: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "cutoff", real_number(self.cutoff, "GOSPA cutoff c", "(0, inf)"))
        object.__setattr__(self, "order", real_number(self.order, "GOSPA order p", "[1, inf)"))
        try:
            c_p = self.cutoff**self.order
        except OverflowError:
            c_p = math.inf
        if not 0.0 < c_p < math.inf:
            raise InputError(
                f"GOSPA c**p must be a positive finite float, got c={self.cutoff!r}, p={self.order!r}"
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


def _check_points(points, ends) -> None:
    """InputError naming the step of the first set of ``points`` with a non-finite
    element.  Set i of the rows (a truth and then an estimate set per step) ends
    before row ``ends[i]``."""
    if not np.isfinite(points).all():
        row = int(np.isfinite(points).all(axis=1).argmin())  # the first non-finite row
        first = int(np.searchsorted(ends, row, side="right"))
        raise InputError(f"step {first // 2 + 1}: set elements must be finite")


def _walk(truths, estimates) -> np.ndarray:
    """The points of a run that is not one block of flat vectors, else InputError for its
    first faulty step.  A number is a 1-vector, and each set passes ``_check_points``."""
    parts, first = [], None  # first: (step, dimension) of the first step with elements
    for k, pair in enumerate(zip(truths, estimates), start=1):
        dims = []
        for side, vectors in enumerate(pair):
            try:
                pts = [np.atleast_1d(real_array(v, "set element")) for v in vectors]
            except InputError as exc:
                raise InputError(f"step {k}: set elements must be vectors of real numbers: {exc}")
            if any(p.ndim > 1 for p in pts):
                raise InputError(f"step {k}: set elements must be flat vectors")
            if len({p.size for p in pts}) > 1:
                raise InputError(f"step {k}: set elements have inconsistent dimensions")
            if pts:
                parts.append(np.stack(pts))
                dims.append(pts[0].size)
                _check_points(parts[-1], [0] * (2 * k - 2 + side) + [len(pts)])
        if len(set(dims)) > 1:
            raise InputError(f"step {k}: truth and estimate vectors have different dimensions")
        first = (first or (k, dims[0])) if dims else first
        if dims and dims[0] != first[1]:
            raise InputError(f"step {k}: vectors have dimension {dims[0]}, "
                             f"step {first[0]} has {first[1]}")
    return np.concatenate(parts)


def gospa_run(truths, estimates, params: GospaParams = GospaParams()) -> list[GospaResult]:
    """GOSPA of each step's (truth, estimate) pair of finite sets of vectors.

    ``truths`` and ``estimates`` hold one set per step; a set is a sequence of
    vectors or an (n, dim) array, and every vector of the run has one dimension.
    The points are converted and checked as one block; only a run that
    does not convert is walked.  The cost matrices of the steps whose sets are
    both non-empty, padded with FORBIDDEN to one stack, are ranked in one
    ``_ranked_columns`` call: padding rows take only their zero slacks, padding
    columns are never taken and ties go to the lexicographically first matching,
    so each step's matching is bitwise the one it gets alone.
    """
    truths, estimates = list(truths), list(estimates)
    if len(truths) != len(estimates):
        raise InputError(f"GOSPA needs one estimate set per truth set, "
                         f"got {len(truths)} and {len(estimates)}")
    n_steps = len(truths)
    # Set sizes in step order, truth then estimate: (steps, 2).
    sizes = np.array([[len(t), len(e)] for t, e in zip(truths, estimates)], np.intp).reshape(-1, 2)
    n_points = int(sizes.sum())
    matchings = [()] * n_steps
    localisation = [0.0] * n_steps  # each step's sum of d^p, added in matching order
    scored = np.flatnonzero(sizes.all(axis=1))
    c_p = params.cutoff**params.order
    if n_points:
        try:  # a ragged, non-real or nested run (of arrays of vectors, say) is walked
            block = real_array(
                [v for t, e in zip(truths, estimates) for s in (t, e) for v in s], "set elements"
            )
            block = block.reshape(n_points, -1) if block.ndim <= 2 else None
        except InputError:
            block = None
        block = _walk(truths, estimates) if block is None else block
        _check_points(block, np.cumsum(sizes.ravel()))
    if len(scored):
        # Row of each scored step's first truth and first estimate in ``block``.
        starts = (np.cumsum(sizes.ravel()) - sizes.ravel()).reshape(n_steps, 2)[scored]
        n_t, n_e = sizes[scored, 0], sizes[scored, 1]
        rows, cols = np.arange(n_t.max()), np.arange(n_e.max())
        has_row, has_col = rows < n_t[:, None], cols < n_e[:, None]
        # Padding reads the run's first point; its entries are FORBIDDEN below.
        xs = block[np.where(has_row, starts[:, :1] + rows, 0)]
        ys = block[np.where(has_col, starts[:, 1:] + cols, 0)]
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
    """GOSPA distance between two finite sets of vectors: a run of one step."""
    return gospa_run([truth], [estimate], params)[0]


def run_summary(results, order: float) -> tuple[float, float, float, float]:
    """A run's RMS-GOSPA (of its per-step totals), then its localisation, missed and false
    terms, each as (its mean over steps)^(1/order); zeros for a run of no steps."""
    if not results:
        return (0.0, 0.0, 0.0, 0.0)
    rms = float(np.sqrt(np.mean(np.array([r.total for r in results]) ** 2)))
    terms = zip(*((r.localisation_p, r.missed_p, r.false_p) for r in results))
    return (rms, *(float(np.mean(t)) ** (1.0 / order) for t in terms))
