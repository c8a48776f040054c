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

    ``history_limit`` optionally bounds the per-hypothesis association
    history (a metadata ring); None keeps it unbounded.  An infinite
    ``gate_threshold`` disables gating.
    """

    max_globals: int = 200
    gate_threshold: float = 20.0
    prune_global_weight: float = 1e-5
    prune_existence: float = 1e-3
    estimate_existence: float = 0.4
    history_limit: int | None = None

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
        if self.history_limit is not None and (
            not _is_int(self.history_limit) or self.history_limit < 1
        ):
            raise InputError(
                f"history_limit must be None or an integer >= 1, got {self.history_limit!r}"
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


def _extend_history(meta: HypothesisMeta, association: int, params: FilterParams) -> HypothesisMeta:
    history = meta.association_history + (association,)
    if params.history_limit is not None and len(history) > params.history_limit:
        history = history[-params.history_limit :]
    return HypothesisMeta(meta.birth_time, meta.birth_index, history)


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


# A child hypothesis not yet built: (parent, association, log-weight,
# existence, prepared update).  Association 0 is the misdetection (prepared
# update None); j >= 1 is the detection of measurement j.
_Slot = tuple[SingleTargetHypothesis, int, float, float, PreparedMeasurementUpdate | None]


def update(
    state: MbmState,
    measurements,
    model: LinearGaussianModel,
    params: FilterParams,
) -> MbmState:
    """Measurement update with ranked-assignment hypothesis selection.

    Every parent hypothesis of every component has one child slot
    for its misdetection and one per gated measurement; the slots carry the
    child weights, and their log-ratios fill the assignment cost rows.  Each
    prior global hypothesis then spawns its ceil(max_globals * weight) best
    children via k-best assignment, and global weights are renormalized.
    Only the slots some new global selects are built into hypotheses (so
    every returned hypothesis is referenced), in slot order.
    """
    zs = _as_measurement_block(measurements, model.meas_dim)
    m = len(zs)
    n = len(state.components)
    log_pd = floor_log(model.detection_prob)
    log_kappa = model.log_clutter_intensity

    slots: list[list[_Slot]] = []
    mis_index: list[list[int]] = []
    mis_increment: list[list[float]] = []
    det_index: list[dict[tuple[int, int], int]] = []
    cost_rows: list[list[np.ndarray]] = []
    for comp in state.components:
        comp_slots: list[_Slot] = []
        comp_mis: list[int] = []
        comp_mis_incr: list[float] = []
        comp_det: dict[tuple[int, int], int] = {}
        comp_cost: list[np.ndarray] = []
        for p_idx, parent in enumerate(comp.hypotheses):
            mis_log_weight, mis_existence = _misdetection_weight(parent, model)
            comp_mis.append(len(comp_slots))
            comp_mis_incr.append(mis_log_weight - parent.log_weight)
            comp_slots.append((parent, 0, mis_log_weight, mis_existence, None))
            row = np.full(m, FORBIDDEN)
            if m > 0 and parent.existence > 0.0 and model.detection_prob > 0.0:
                prepared = PreparedMeasurementUpdate(parent.density, model)
                maha, logliks = prepared.batch_statistics(zs)
                log_r = math.log(parent.existence)
                log_mis_factor = floor_log(1.0 - parent.existence * model.detection_prob)
                for j in range(m):
                    if maha[j] > params.gate_threshold:
                        continue
                    loglik = logliks[j]
                    det_log_weight = parent.log_weight + log_r + log_pd + loglik - log_kappa
                    comp_det[(p_idx, j)] = len(comp_slots)
                    comp_slots.append((parent, j + 1, det_log_weight, 1.0, prepared))
                    # -ln(detection weight / misdetection weight); the parent
                    # weight cancels, and zero misdetection factors are
                    # floored so the cost stays finite.
                    row[j] = log_mis_factor - (log_r + log_pd + loglik - log_kappa)
            comp_cost.append(row)
        slots.append(comp_slots)
        mis_index.append(comp_mis)
        mis_increment.append(comp_mis_incr)
        det_index.append(comp_det)
        cost_rows.append(comp_cost)

    # A new global's weight is the prior weight, plus every component's
    # misdetection factor, minus the selected assignment's cost (each cost
    # entry being exactly the misdetection/detection log-ratio).
    weights: list[float] = []
    vectors: list[list[int]] = []
    for g in state.global_hypotheses:
        vec = g.assignment_vector
        base_vector = [mis_index[i][vec[i]] for i in range(n)]
        base_log_weight = g.log_weight
        for i in range(n):
            base_log_weight += mis_increment[i][vec[i]]
        for assigned, cost in _ranked_assignments(g, state, cost_rows, m, params):
            child_vector = base_vector.copy()
            for i, j in assigned.items():
                child_vector[i] = det_index[i][(vec[i], j)]
            weights.append(base_log_weight - cost)
            vectors.append(child_vector)

    # Build the selected slots in slot order and renumber the vectors to
    # match: the hypotheses keep their relative order, so pruning and
    # estimation give the same result as if every slot were built.
    components = []
    for i, comp_slots in enumerate(slots):
        used = sorted({vector[i] for vector in vectors})
        renumber = {old: new for new, old in enumerate(used)}
        for vector in vectors:
            vector[i] = renumber[vector[i]]
        components.append(
            BernoulliComponent(tuple(_child(comp_slots[k], zs, params) for k in used))
        )
    new_globals = tuple(
        GlobalHypothesis(weight, tuple(vector)) for weight, vector in zip(weights, vectors)
    )
    return MbmState(tuple(components), _normalized(new_globals), state.time)


def _child(slot: _Slot, zs: np.ndarray, params: FilterParams) -> SingleTargetHypothesis:
    parent, association, log_weight, existence, prepared = slot
    density = parent.density if prepared is None else prepared.posterior(zs[association - 1])
    return SingleTargetHypothesis(
        log_weight, existence, density, _extend_history(parent.meta, association, params)
    )


def _ranked_assignments(
    g: GlobalHypothesis,
    state: MbmState,
    cost_rows: list[list[np.ndarray]],
    m: int,
    params: FilterParams,
) -> list[tuple[dict[int, int], float]]:
    """(row->measurement map, cost) for the k_u best assignments of one global.

    Rows with no gated measurement always misdetect and columns gated by no
    row are always clutter, so both are dropped before enumeration.
    """
    n = len(state.components)
    if m == 0 or n == 0:
        return [({}, 0.0)]
    cost = np.empty((n, m))
    for i in range(n):
        cost[i] = cost_rows[i][g.assignment_vector[i]]
    k_u = max(1, math.ceil(params.max_globals * math.exp(min(g.log_weight, 0.0))))
    finite = np.isfinite(cost)
    active_rows = np.flatnonzero(finite.any(axis=1))
    if active_rows.size == 0:
        return [({}, 0.0)]
    active_cols = np.flatnonzero(finite[active_rows].any(axis=0))
    reduced = cost[np.ix_(active_rows, active_cols)]
    solutions = k_best(reduced, k_u, resolve_ties=False)
    return [
        (
            {int(active_rows[r]): int(active_cols[c]) for r, c in sol.row_to_col.items()},
            sol.total_cost,
        )
        for sol in solutions
    ]


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
