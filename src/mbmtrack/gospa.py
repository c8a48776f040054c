"""GOSPA metric (alpha = 2) with localisation/missed/false decomposition.

The metric between a ground-truth set and an estimate set is the minimum
over partial injective matchings of

    (sum of d^p over matched pairs + (c^p / 2) * (#missed + #false)) ^ (1/p)

Only pairs with d^p < c^p can appear in an optimal matching (matching a
farther pair never beats leaving both unmatched), so the minimization
reduces to a partial assignment problem with entries d^p - c^p.

``gospa_run`` scores a whole run, one (truth, estimate) pair per step: it
validates all the points as one block and ranks the assignment problems of
every step in one stacked ``k_best`` call.  ``gospa`` scores one pair as a
run of one step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assignment import FORBIDDEN, k_best
from .errors import InputError, integer, real_array, real_number

#: Euclidean distance on the planar position slots of a
#: [px, vx, py, vy] state vector.
POSITION_PROJECTION = (0, 2)


@dataclass(frozen=True)
class GospaParams:
    """Cutoff c > 0, order 1 <= p < inf, and an optional state projection.

    c**p must be a positive finite float.  ``projection`` is a tuple or list
    of the vector indices (at least one, each >= 0) the base Euclidean
    distance acts on, stored as a tuple; None uses the full vectors.
    """

    cutoff: float = 10.0
    order: float = 2.0
    projection: tuple[int, ...] | None = None

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
        if self.projection is not None:
            if not isinstance(self.projection, (tuple, list)) or not self.projection:
                raise InputError(
                    f"GOSPA projection must list one or more indices >= 0, got {self.projection!r}"
                )
            indices = tuple(integer(i, "GOSPA projection index", 0) for i in self.projection)
            object.__setattr__(self, "projection", indices)


@dataclass(frozen=True)
class GospaResult:
    total: float
    localisation_p: float
    missed_p: float
    false_p: float
    n_missed: int
    n_false: int
    matching: tuple[tuple[int, int], ...]


def _fault(truths, estimates, projection) -> str:
    """Why the first faulty step of a run fails its checks (the caller knows one does).

    Each step is checked as a lone pair of sets: each set's elements must
    share one dimension, be finite and be in range of the projection, and the
    two sets must share their dimension.  Then that dimension must be the one
    of the run's first step with elements.
    """
    first = None  # (step, dimension)
    for k, pair in enumerate(zip(truths, estimates), start=1):
        dims = []
        for vectors in pair:
            try:
                pts = [np.atleast_1d(real_array(v, "set element")) for v in vectors]
            except InputError as exc:
                return f"step {k}: set elements must be vectors of real numbers: {exc}"
            if not pts:
                continue
            dim = pts[0].size
            if any(p.size != dim for p in pts):
                return f"step {k}: set elements have inconsistent dimensions"
            if not all(np.isfinite(p).all() for p in pts):
                return f"step {k}: set elements must be finite"
            if projection is not None and max(projection) >= dim:
                return f"step {k}: projection {projection} out of range for dimension {dim}"
            dims.append(dim)
        if len(dims) == 2 and dims[0] != dims[1]:
            return f"step {k}: truth and estimate vectors have different dimensions"
        if first is None and dims:
            first = (k, dims[0])
        elif dims and dims[0] != first[1]:
            return f"step {k}: vectors have dimension {dims[0]}, step {first[0]} has {first[1]}"
    return "set elements must be flat vectors"


def gospa_run(truths, estimates, params: GospaParams = GospaParams()) -> list[GospaResult]:
    """GOSPA of each step's (truth, estimate) pair of finite sets of vectors.

    ``truths`` and ``estimates`` hold one set per step; a set is a sequence
    of vectors or an (n, dim) array.  Every vector of the run has one
    dimension.  The points are validated and projected as one block, and
    the cost matrices of the steps whose sets are both non-empty are padded
    with FORBIDDEN to one (steps, n_max, m_max) stack that one ``k_best``
    call ranks.  Padding rows take only their zero slacks, padding columns
    are never taken and ties go to the lexicographically first matching, so
    each step's matching is bitwise the one it gets alone.
    """
    truths, estimates = list(truths), list(estimates)
    if len(truths) != len(estimates):
        raise InputError(
            f"GOSPA needs one estimate set per truth set, got {len(truths)} and {len(estimates)}"
        )
    n_steps = len(truths)
    # Set sizes in step order, truth then estimate: (steps, 2).
    sizes = np.array([[len(t), len(e)] for t, e in zip(truths, estimates)], dtype=np.intp)
    sizes = sizes.reshape(n_steps, 2)
    n_points = int(sizes.sum())
    matchings = [()] * n_steps
    matched = [()] * n_steps  # d^p of each step's matched pairs, in matching order
    n_matched = np.zeros(n_steps, dtype=np.intp)
    scored = np.flatnonzero(sizes.all(axis=1))
    c_p = params.cutoff**params.order
    if n_points:
        try:
            block = real_array(
                [v for t, e in zip(truths, estimates) for s in (t, e) for v in s], "set elements"
            ).reshape(n_points, -1)
        except InputError:
            block = None  # ragged, or not real numbers
        if (
            block is None
            or not np.isfinite(block).all()
            or (params.projection is not None and max(params.projection) >= block.shape[1])
        ):
            raise InputError(_fault(truths, estimates, params.projection))
        if params.projection is not None:
            block = block[:, list(params.projection)]
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
        ranked = k_best(np.where(admissible, dist_p - c_p, FORBIDDEN), 1)
        pairs = [solutions[0].pairs() for solutions in ranked]
        counts = [len(matching) for matching in pairs]
        flat = np.array([pair for matching in pairs for pair in matching], dtype=np.intp)
        flat = flat.reshape(-1, 2)
        values = dist_p[np.repeat(np.arange(len(scored)), counts), flat[:, 0], flat[:, 1]]
        values, bounds = values.tolist(), np.cumsum([0] + counts).tolist()
        for k, matching, lo, hi in zip(scored.tolist(), pairs, bounds, bounds[1:]):
            matchings[k], matched[k] = matching, values[lo:hi]
        n_matched[scored] = counts

    half_cp = 0.5 * c_p
    results = []
    unmatched = (sizes - n_matched[:, None]).tolist()
    for (n_missed, n_false), matching, distances in zip(unmatched, matchings, matched):
        localisation_p = 0.0
        for value in distances:
            localisation_p += value
        missed_p = half_cp * n_missed
        false_p = half_cp * n_false
        total = (localisation_p + missed_p + false_p) ** (1.0 / params.order)
        results.append(
            GospaResult(total, localisation_p, missed_p, false_p, n_missed, n_false, matching)
        )
    return results


def gospa(truth, estimate, params: GospaParams = GospaParams()) -> GospaResult:
    """GOSPA distance between two finite sets of vectors: a run of one step."""
    return gospa_run([truth], [estimate], params)[0]


def rms(values) -> float:
    """Root mean square of a sequence of per-step totals."""
    values = real_array(list(values), "GOSPA totals")
    if values.size == 0:
        return 0.0
    return float(np.sqrt(np.mean(values**2)))


def component_rms(results, name: str, order: float) -> float:
    """Run-level aggregate of a decomposition term: (its mean over steps)^(1/order)."""
    values = [getattr(r, name) for r in results]
    return float(np.mean(values)) ** (1.0 / order) if values else 0.0
