"""Multi-Bernoulli mixture filtering recursion.

State representation, prediction with multi-Bernoulli birth, measurement
update with per-global-hypothesis ranked assignment selection, pruning and
merging, and multi-target state estimation.

Every operation is a pure function from one MbmState value to another, so
states can be shared freely across threads.  All weights live in the log
domain; global-hypothesis log-weights are normalized so their logsumexp is
zero, while single-target hypothesis weights stay unnormalized.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .assignment import FORBIDDEN, k_best
from .errors import InputError, NumericalError
from .gaussian import (
    GaussianDensity,
    LinearGaussianModel,
    PreparedMeasurementUpdate,
    floor_log,
    gate_statistics,
    kalman_predict,
)


@dataclass(frozen=True)
class HypothesisMeta:
    """Bookkeeping for one association history; never read by the numerics.

    ``association_history`` holds one entry per update step since birth:
    0 for a misdetection, j >= 1 for the j-th measurement of that scan.
    The (birth_time, birth_index) pair is the track label.
    """

    birth_time: int
    birth_index: int
    association_history: tuple[int, ...] = ()

    @property
    def label(self) -> tuple[int, int]:
        return (self.birth_time, self.birth_index)


@dataclass(frozen=True)
class SingleTargetHypothesis:
    """One association history for a Bernoulli component."""

    log_weight: float
    existence: float
    density: GaussianDensity
    meta: HypothesisMeta


@dataclass(frozen=True)
class BernoulliComponent:
    """All single-target hypotheses of one potential target."""

    hypotheses: tuple[SingleTargetHypothesis, ...]


@dataclass(frozen=True)
class GlobalHypothesis:
    """A weight plus one hypothesis index per Bernoulli component."""

    log_weight: float
    assignment_vector: tuple[int, ...]


@dataclass(frozen=True)
class MbmState:
    components: tuple[BernoulliComponent, ...]
    global_hypotheses: tuple[GlobalHypothesis, ...]
    time: int


@dataclass(frozen=True)
class BirthComponent:
    existence: float
    density: GaussianDensity

    def __post_init__(self):
        if not 0.0 <= self.existence <= 1.0:
            raise InputError("birth existence probability must lie in [0, 1]")


@dataclass(frozen=True)
class BirthModel:
    components: tuple[BirthComponent, ...] = ()


EMPTY_BIRTH = BirthModel()


@dataclass(frozen=True)
class FilterParams:
    """Hypothesis-management thresholds, checked on construction.

    An infinite ``gate_threshold`` disables gating.
    """

    max_globals: int = 200
    gate_threshold: float = 20.0
    prune_global_weight: float = 1e-5
    prune_existence: float = 1e-3
    estimate_existence: float = 0.4

    def __post_init__(self):
        if not _is_int(self.max_globals) or self.max_globals < 1:
            raise InputError(f"max_globals must be an integer >= 1, got {self.max_globals!r}")
        if not self.gate_threshold > 0.0:
            raise InputError(f"gate_threshold must be positive, got {self.gate_threshold!r}")
        for name in ("prune_global_weight", "prune_existence"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise InputError(f"{name} must lie in [0, 1), got {getattr(self, name)!r}")
        if not 0.0 <= self.estimate_existence <= 1.0:
            raise InputError(
                f"estimate_existence must lie in [0, 1], got {self.estimate_existence!r}"
            )


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class TargetEstimate:
    label: tuple[int, int]
    state: np.ndarray


def init_empty() -> MbmState:
    """A state with no targets: one empty global hypothesis of weight 1."""
    return MbmState((), (GlobalHypothesis(0.0, ()),), 0)


def predict(
    state: MbmState,
    model: LinearGaussianModel,
    birth: BirthModel,
    label_births: bool = True,
) -> MbmState:
    """Survival/dynamics prediction plus appended multi-Bernoulli birth.

    The number of global hypotheses is unchanged; each assignment vector is
    extended to point at the single hypothesis of every new birth component.
    ``label_births=False`` leaves the birth metadata blank (all numerics are
    identical either way).
    """
    new_time = state.time + 1
    components = []
    for comp in state.components:
        components.append(
            BernoulliComponent(
                tuple(
                    SingleTargetHypothesis(
                        h.log_weight,
                        h.existence * model.survival_prob,
                        kalman_predict(h.density, model),
                        h.meta,
                    )
                    for h in comp.hypotheses
                )
            )
        )
    for index, b in enumerate(birth.components, start=1):
        meta = HypothesisMeta(new_time, index) if label_births else HypothesisMeta(0, 0)
        components.append(
            BernoulliComponent((SingleTargetHypothesis(0.0, b.existence, b.density, meta),))
        )
    extension = (0,) * len(birth.components)
    new_globals = tuple(
        GlobalHypothesis(g.log_weight, g.assignment_vector + extension)
        for g in state.global_hypotheses
    )
    return MbmState(tuple(components), new_globals, new_time)


def _extend_history(meta: HypothesisMeta, association: int) -> HypothesisMeta:
    return HypothesisMeta(
        meta.birth_time, meta.birth_index, meta.association_history + (association,)
    )


def _misdetection_weight(
    parent: SingleTargetHypothesis, model: LinearGaussianModel
) -> tuple[float, float]:
    """Log-weight and existence of the misdetection child of ``parent``."""
    r = parent.existence
    denom = 1.0 - r * model.detection_prob
    if denom > 0.0:
        return (
            parent.log_weight + math.log(denom),
            min(max(r * (1.0 - model.detection_prob) / denom, 0.0), 1.0),
        )
    # Misdetection is impossible (r = p_D = 1); keep the hypothesis with the
    # floored log-zero weight so downstream arithmetic stays finite
    # (normalization pushes it to weight 0 regardless).
    return parent.log_weight + floor_log(0.0), 1.0


def _logsumexp(values) -> float:
    """``scipy.special.logsumexp`` of a 1-D sequence, without its dispatch cost.

    Performs scipy's operations in scipy's order (split out the terms equal
    to the maximum, sum the shifted exponentials of the rest, divide by the
    tie count, then log1p), so the results agree bitwise.
    """
    a = np.asarray(values, dtype=float)
    if a.size == 0:
        return -math.inf
    a_max = a.max()
    if not np.isfinite(a_max):
        return float(a_max)
    at_max = a == a_max
    count = np.float64(np.count_nonzero(at_max))
    s = np.exp(np.where(at_max, -np.inf, a) - a_max).sum() / count
    return float(np.log1p(s) + np.log(count) + a_max)


def _normalized(globals_: tuple[GlobalHypothesis, ...]) -> tuple[GlobalHypothesis, ...]:
    total = _logsumexp([g.log_weight for g in globals_])
    if not math.isfinite(total):
        raise NumericalError("total global-hypothesis weight vanished or diverged")
    return tuple(GlobalHypothesis(g.log_weight - total, g.assignment_vector) for g in globals_)


def _merge_duplicates(globals_: tuple[GlobalHypothesis, ...]) -> tuple[GlobalHypothesis, ...]:
    """Sum the weights of global hypotheses with identical assignment vectors."""
    order: list[tuple[int, ...]] = []
    merged: dict[tuple[int, ...], float] = {}
    for g in globals_:
        key = g.assignment_vector
        if key in merged:
            merged[key] = float(np.logaddexp(merged[key], g.log_weight))
        else:
            merged[key] = g.log_weight
            order.append(key)
    return tuple(GlobalHypothesis(merged[key], key) for key in order)


def update(
    state: MbmState,
    measurements,
    model: LinearGaussianModel,
    params: FilterParams,
) -> MbmState:
    """Measurement update with ranked-assignment hypothesis selection.

    The parents (every hypothesis of every component, in order) are gated
    against all m measurements in one ``gate_statistics`` call, which fills
    (parents, m) tables of detection log-weights and of assignment costs
    (misdetection/detection log-ratios).  Each prior global takes the rows
    of its parents as its cost matrix and spawns its ceil(max_globals *
    weight) best children via k-best assignment; weights are renormalized.
    A child is keyed ``parent * (m + 1) + association`` (0 misdetection,
    j + 1 measurement j), which sorts by parent, misdetection first.  Only
    the children some new global selects are built, in key order, and a
    parent's posterior update is prepared once, if a selected child needs it.
    """
    zs = _as_measurement_block(measurements, model.meas_dim)
    m = len(zs)
    parents = [h for comp in state.components for h in comp.hypotheses]
    sizes = np.array([len(comp.hypotheses) for comp in state.components], dtype=np.intp)
    offsets = np.cumsum(sizes) - sizes
    log_pd = floor_log(model.detection_prob)
    log_kappa = model.log_clutter_intensity

    misdetections = [_misdetection_weight(parent, model) for parent in parents]
    mis_increment = [w - parent.log_weight for (w, _), parent in zip(misdetections, parents)]
    cost = np.full((len(parents), m), FORBIDDEN)
    det_log_weight = np.full((len(parents), m), -math.inf)
    detectable = [p for p, h in enumerate(parents) if h.existence > 0.0]
    if m > 0 and model.detection_prob > 0.0 and detectable:
        gated = [parents[p] for p in detectable]
        maha, logliks = gate_statistics(
            np.array([h.density.mean for h in gated]),
            np.array([h.density.covariance for h in gated]),
            zs,
            model,
        )
        log_w = np.array([[h.log_weight] for h in gated])
        log_r = np.array([[math.log(h.existence)] for h in gated])
        log_mis_factor = np.array(
            [[floor_log(1.0 - h.existence * model.detection_prob)] for h in gated]
        )
        det_log_weight[detectable] = log_w + log_r + log_pd + logliks - log_kappa
        # -ln(detection weight / misdetection weight); the parent weight
        # cancels, and zero misdetection factors are floored so the cost
        # stays finite.
        cost[detectable] = np.where(
            maha > params.gate_threshold,
            FORBIDDEN,
            log_mis_factor - (log_r + log_pd + logliks - log_kappa),
        )

    # A new global's weight is the prior weight, plus every component's
    # misdetection factor, minus the selected assignment's cost (each cost
    # entry being exactly the misdetection/detection log-ratio).
    weights: list[float] = []
    vectors: list[list[int]] = []
    for g in state.global_hypotheses:
        rows = offsets + np.array(g.assignment_vector, dtype=np.intp)
        base_log_weight = g.log_weight
        base_keys = []
        for row in rows.tolist():
            base_log_weight += mis_increment[row]
            base_keys.append(row * (m + 1))
        for assigned, assigned_cost in _ranked_assignments(cost[rows], g.log_weight, params):
            keys = base_keys.copy()
            for i, j in assigned.items():
                keys[i] += j + 1
            weights.append(base_log_weight - assigned_cost)
            vectors.append(keys)

    # Build the selected children in key order and renumber the vectors to
    # match: the hypotheses keep their relative order, so pruning and
    # estimation give the same result as if every child were built.  The key
    # lists are dropped first; at N_h = 200 they would otherwise raise the
    # step's peak memory by about a quarter.
    shape = (len(vectors), len(sizes))
    used, local = np.unique(np.array(vectors, dtype=np.intp), return_inverse=True)
    del vectors
    starts = np.searchsorted(used, offsets * (m + 1))
    local = local.reshape(shape) - starts
    prepared: dict[int, PreparedMeasurementUpdate] = {}
    children = []
    for key in used.tolist():
        p, association = divmod(key, m + 1)
        parent = parents[p]
        if association == 0:
            log_weight, existence = misdetections[p]
            density = parent.density
        else:
            if p not in prepared:
                prepared[p] = PreparedMeasurementUpdate(parent.density, model)
            log_weight, existence = det_log_weight[p, association - 1], 1.0
            density = prepared[p].posterior(zs[association - 1])
        children.append(
            SingleTargetHypothesis(
                log_weight, existence, density, _extend_history(parent.meta, association)
            )
        )
    bounds = starts.tolist() + [len(children)]
    components = tuple(
        BernoulliComponent(tuple(children[a:b])) for a, b in zip(bounds, bounds[1:])
    )
    new_globals = tuple(
        GlobalHypothesis(weight, tuple(vector.tolist())) for weight, vector in zip(weights, local)
    )
    return MbmState(components, _normalized(new_globals), state.time)


def _ranked_assignments(
    cost: np.ndarray, log_weight: float, params: FilterParams
) -> list[tuple[dict[int, int], float]]:
    """(row->measurement map, cost) for the k_u best assignments of one global.

    ``log_weight`` sets k_u.  A global with no gated pair has only the empty
    assignment and skips ``k_best``; otherwise ``k_best`` drops the rows with
    no gated measurement and the columns gated by no row itself.
    """
    if not np.isfinite(cost).any():
        return [({}, 0.0)]
    k_u = max(1, math.ceil(params.max_globals * math.exp(min(log_weight, 0.0))))
    return [(a.row_to_col, a.total_cost) for a in k_best(cost, k_u, resolve_ties=False)]


def _as_measurement_block(measurements, meas_dim: int) -> np.ndarray:
    if measurements is None:
        return np.zeros((0, meas_dim))
    try:
        block = np.asarray(measurements, dtype=float)
    except ValueError as exc:
        raise InputError(f"malformed measurement set: {exc}") from exc
    if block.size == 0:
        return np.zeros((0, meas_dim))
    block = np.atleast_2d(block)
    if block.ndim != 2 or block.shape[1] != meas_dim:
        raise InputError(f"measurements must be vectors of dimension {meas_dim}")
    if not np.isfinite(block).all():
        raise InputError("measurements must be finite")
    return block


def prune(state: MbmState, params: FilterParams) -> MbmState:
    """Cap/threshold global hypotheses, drop dead wood, merge duplicates.

    The weight threshold applies to normalized weights after duplicate
    merging; if every global falls below it the single best survives.
    Components whose existence is below the pruning threshold in all
    surviving hypotheses are removed and every assignment vector shrinks
    consistently.
    """
    merged = _normalized(_merge_duplicates(state.global_hypotheses))
    kept = [g for g in merged if math.exp(g.log_weight) >= params.prune_global_weight]
    if not kept:
        kept = [_best_global(merged)]
    if len(kept) > params.max_globals:
        ranked = sorted(range(len(kept)), key=lambda i: (-kept[i].log_weight, i))
        keep_set = set(ranked[: params.max_globals])
        kept = [g for i, g in enumerate(kept) if i in keep_set]

    surviving_hyps: list[list[SingleTargetHypothesis]] = []
    index_maps: list[dict[int, int]] = []
    for i, comp in enumerate(state.components):
        used = sorted({g.assignment_vector[i] for g in kept})
        index_maps.append({old: new for new, old in enumerate(used)})
        surviving_hyps.append([comp.hypotheses[old] for old in used])

    keep_components = [
        i
        for i, hyps in enumerate(surviving_hyps)
        if any(h.existence >= params.prune_existence for h in hyps)
    ]
    components = tuple(BernoulliComponent(tuple(surviving_hyps[i])) for i in keep_components)
    rebuilt = tuple(
        GlobalHypothesis(
            g.log_weight,
            tuple(index_maps[i][g.assignment_vector[i]] for i in keep_components),
        )
        for g in kept
    )
    return MbmState(components, _normalized(_merge_duplicates(rebuilt)), state.time)


def _best_global(globals_: tuple[GlobalHypothesis, ...]) -> GlobalHypothesis:
    best = globals_[0]
    for g in globals_[1:]:
        if g.log_weight > best.log_weight:
            best = g
    return best


def estimate(state: MbmState, params: FilterParams) -> list[TargetEstimate]:
    """Means of the best global's hypotheses with existence above threshold."""
    if not state.global_hypotheses:
        raise InputError("state has no global hypotheses")
    best = _best_global(state.global_hypotheses)
    out = []
    for comp, idx in zip(state.components, best.assignment_vector):
        h = comp.hypotheses[idx]
        if h.existence > params.estimate_existence:
            out.append(TargetEstimate(h.meta.label, h.density.mean))
    return out


def step(
    state: MbmState,
    measurements,
    model: LinearGaussianModel,
    birth: BirthModel,
    params: FilterParams,
    label_births: bool = True,
) -> tuple[MbmState, list[TargetEstimate]]:
    """One full cycle: predict, update, estimate, then prune."""
    predicted = predict(state, model, birth, label_births=label_births)
    updated = update(predicted, measurements, model, params)
    estimates = estimate(updated, params)
    return prune(updated, params), estimates
