"""GOSPA metric (alpha = 2) with localisation/missed/false decomposition.

The metric between a ground-truth set and an estimate set is the minimum
over partial injective matchings of

    (sum of d^p over matched pairs + (c^p / 2) * (#missed + #false)) ^ (1/p)

Only pairs with d^p < c^p can appear in an optimal matching (matching a
farther pair never beats leaving both unmatched), so the minimization
reduces to a partial assignment problem with entries d^p - c^p.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assignment import FORBIDDEN, solve_optimal
from .errors import InputError

#: Euclidean distance on the planar position slots of a
#: [px, vx, py, vy] state vector.
POSITION_PROJECTION = (0, 2)


@dataclass(frozen=True)
class GospaParams:
    """Cutoff c > 0, order 1 <= p < inf, and an optional state projection.

    ``projection`` selects the vector indices the base Euclidean distance
    acts on; None uses the full vectors.
    """

    cutoff: float = 10.0
    order: float = 2.0
    projection: tuple[int, ...] | None = None

    def __post_init__(self):
        if not self.cutoff > 0.0:
            raise InputError("GOSPA cutoff c must be positive")
        if not (1.0 <= self.order < math.inf):
            raise InputError("GOSPA order p must lie in [1, inf)")


@dataclass(frozen=True)
class GospaResult:
    total: float
    localisation_p: float
    missed_p: float
    false_p: float
    n_missed: int
    n_false: int
    matching: tuple[tuple[int, int], ...]


def _as_points(vectors, projection) -> np.ndarray:
    pts = [np.atleast_1d(np.asarray(v, dtype=float)) for v in vectors]
    if not pts:
        return np.zeros((0, 0))
    dim = pts[0].size
    if any(p.size != dim for p in pts):
        raise InputError("set elements have inconsistent dimensions")
    block = np.vstack(pts)
    if not np.isfinite(block).all():
        raise InputError("set elements must be finite")
    if projection is not None:
        if max(projection) >= dim:
            raise InputError(f"projection {projection} out of range for dimension {dim}")
        block = block[:, list(projection)]
    return block


def gospa(truth, estimate, params: GospaParams = GospaParams()) -> GospaResult:
    """GOSPA distance between two finite sets of vectors."""
    xs = _as_points(truth, params.projection)
    ys = _as_points(estimate, params.projection)
    n_truth, n_est = xs.shape[0], ys.shape[0]
    if n_truth and n_est and xs.shape[1] != ys.shape[1]:
        raise InputError("truth and estimate vectors have different dimensions")

    c_p = params.cutoff**params.order
    half_cp = 0.5 * c_p
    if n_truth and n_est:
        diffs = xs[:, None, :] - ys[None, :, :]
        dist_p = np.linalg.norm(diffs, axis=2) ** params.order
        costs = np.where(dist_p < c_p, dist_p - c_p, FORBIDDEN)
        matching = solve_optimal(costs).pairs()
    else:
        dist_p = np.zeros((n_truth, n_est))
        matching = ()

    localisation_p = 0.0
    for i, j in matching:
        assert dist_p[i, j] < c_p
        localisation_p += float(dist_p[i, j])
    n_missed = n_truth - len(matching)
    n_false = n_est - len(matching)
    missed_p = half_cp * n_missed
    false_p = half_cp * n_false
    total = (localisation_p + missed_p + false_p) ** (1.0 / params.order)
    return GospaResult(total, localisation_p, missed_p, false_p, n_missed, n_false, matching)


def rms(values) -> float:
    """Root mean square of a sequence of per-step totals."""
    values = np.asarray(list(values), dtype=float)
    if values.size == 0:
        return 0.0
    return float(np.sqrt(np.mean(values**2)))
