"""Multi-Bernoulli mixture filtering recursion.

State representation, prediction with multi-Bernoulli birth, measurement
update with per-global-hypothesis ranked assignment selection, pruning and
merging, and multi-target state estimation.  A state holds its hypotheses
and global hypotheses as arrays, so predict, the posterior update and prune
are stacked numpy operations; its dataclass views are built on first access.

Every operation is a pure function from one MbmState value to another, so
states can be shared freely across threads.  All weights live in the log
domain; global-hypothesis log-weights are normalized so their logsumexp is
zero, while single-target hypothesis weights stay unnormalized.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# k_best, kalman_predict and PreparedMeasurementUpdate stay module attributes
# here: perfbench/tracing.py rebinds them.
from .assignment import FORBIDDEN, _ranked_columns, k_best  # noqa: F401
from .errors import InputError, NumericalError, integer, real_number
from .gaussian import (  # noqa: F401
    GaussianDensity, LinearGaussianModel, PreparedMeasurementUpdate, _as_measurement_block,
    floor_log, gate, innovation_factors, kalman_gains, kalman_predict, posterior_means,
    predict_stack,
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


class MbmState:
    """Stacked single-target hypotheses plus global hypotheses.

    Rows ``offsets[i]:offsets[i + 1]`` of ``means`` (H, n_x), ``covariances``
    (H, n_x, n_x), ``existences``, ``log_weights``, ``labels`` and
    ``histories`` are the hypotheses of component i.  ``labels`` (H, 2) holds
    each hypothesis's (birth_time, birth_index) and ``histories`` (H, width)
    its association history, left-padded with -1.  Global hypothesis g has
    log-weight ``global_log_weights[g]`` and picks hypothesis
    ``vectors[g, i]`` of component i.  The arrays are never written, so states
    share them.  ``MbmState(components, global_hypotheses, time)`` builds a
    state from the dataclass form that ``components`` and
    ``global_hypotheses`` give back; ``HypothesisMeta`` exists only in that form.
    """

    def __init__(self, components, global_hypotheses, time: int):
        hyps = [h for comp in components for h in comp.hypotheses]
        n_x = hyps[0].density.dim if hyps else 0
        histories = [h.meta.association_history for h in hyps]
        width = max(map(len, histories), default=0)
        self._set(
            time,
            np.array([h.density.mean for h in hyps]).reshape(len(hyps), n_x),
            np.array([h.density.covariance for h in hyps]).reshape(len(hyps), n_x, n_x),
            np.array([h.existence for h in hyps], dtype=float),
            np.array([h.log_weight for h in hyps], dtype=float),
            np.array([h.meta.label for h in hyps], dtype=np.intp).reshape(len(hyps), 2),
            np.array(
                [(-1,) * (width - len(history)) + tuple(history) for history in histories],
                dtype=np.intp,
            ).reshape(len(hyps), width),
            np.cumsum([0] + [len(comp.hypotheses) for comp in components], dtype=np.intp),
            np.array([g.assignment_vector for g in global_hypotheses], dtype=np.intp).reshape(
                len(global_hypotheses), len(components)
            ),
            np.array([g.log_weight for g in global_hypotheses], dtype=float),
        )
        self.components, self.global_hypotheses = tuple(components), tuple(global_hypotheses)

    def _set(self, time, means, covariances, existences, log_weights, labels, histories, offsets,
             vectors, global_log_weights) -> MbmState:
        self.time, self.means, self.covariances = time, means, covariances
        self.existences, self.log_weights = existences, log_weights
        self.labels, self.histories = labels, histories
        self.offsets, self.vectors, self.global_log_weights = offsets, vectors, global_log_weights
        return self

    @classmethod
    def _stacked(cls, *arrays) -> MbmState:
        """A state holding ``_set``'s arguments as they are."""
        return cls.__new__(cls)._set(*arrays)

    @cached_property
    def components(self) -> tuple[BernoulliComponent, ...]:
        pads = np.count_nonzero(self.histories < 0, axis=1).tolist()
        hyps = [
            SingleTargetHypothesis(
                w, r, GaussianDensity(mean, cov), HypothesisMeta(*label, tuple(history[pad:]))
            )
            for w, r, mean, cov, label, history, pad in zip(
                self.log_weights.tolist(), self.existences.tolist(), self.means,
                self.covariances, self.labels.tolist(), self.histories.tolist(), pads,
            )
        ]
        bounds = self.offsets.tolist()
        return tuple(BernoulliComponent(tuple(hyps[a:b])) for a, b in zip(bounds, bounds[1:]))

    @cached_property
    def global_hypotheses(self) -> tuple[GlobalHypothesis, ...]:
        return tuple(
            GlobalHypothesis(w, tuple(v))
            for w, v in zip(self.global_log_weights.tolist(), self.vectors.tolist())
        )


@dataclass(frozen=True)
class BirthComponent:
    existence: float
    density: GaussianDensity

    def __post_init__(self):
        existence = real_number(self.existence, "birth existence probability", "[0, 1]")
        object.__setattr__(self, "existence", existence)


@dataclass(frozen=True)
class BirthModel:
    components: tuple[BirthComponent, ...] = ()

    def __post_init__(self):
        if len({c.density.dim for c in self.components}) > 1:
            raise InputError("birth components must share one state dimension")

    @cached_property
    def stacked(self) -> tuple[np.ndarray, ...]:
        """The block ``predict`` appends, built on first use and never written.

        Means and covariances (flat when there are no components), existences,
        zero log-weights, and a (1, index) label template per component.
        """
        comps, n_b = self.components, len(self.components)
        return (
            np.array([c.density.mean for c in comps]),
            np.array([c.density.covariance for c in comps]),
            np.array([c.existence for c in comps], dtype=float),
            np.zeros(n_b),
            np.column_stack((np.ones(n_b, dtype=np.intp), np.arange(1, n_b + 1))),
        )


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
        object.__setattr__(self, "max_globals", integer(self.max_globals, "max_globals", 1))
        real_number(self.max_globals, "max_globals", "[1, inf)")  # it scales float weights
        for name, interval in (("gate_threshold", "(0, inf]"), ("prune_global_weight", "[0, 1)"),
                               ("prune_existence", "[0, 1)"), ("estimate_existence", "[0, 1]")):
            object.__setattr__(self, name, real_number(getattr(self, name), name, interval))


@dataclass(frozen=True)
class TargetEstimate:
    label: tuple[int, int]
    state: np.ndarray


def init_empty() -> MbmState:
    """A state with no targets: one empty global hypothesis of weight 1."""
    return MbmState((), (GlobalHypothesis(0.0, ()),), 0)


def predict(state: MbmState, model: LinearGaussianModel, birth: BirthModel) -> MbmState:
    """Survival/dynamics prediction plus appended multi-Bernoulli birth.

    The number of global hypotheses is unchanged; each assignment vector is
    extended to point at the single hypothesis of every new birth component,
    labelled (new time, index).
    """
    new_time, n_x = state.time + 1, model.state_dim
    b_means, b_covariances, b_existences, b_log_weights, b_labels = birth.stacked
    n_h, n_b = len(state.means), len(b_existences)
    if b_means.size != n_b * n_x:
        raise InputError(f"birth components must have dimension {n_x}")
    _check_state(state, n_x)
    means, covariances = predict_stack(
        state.means.reshape(n_h, n_x), state.covariances.reshape(n_h, n_x, n_x), model
    )
    return MbmState._stacked(
        new_time,
        np.concatenate((means, b_means.reshape(n_b, n_x))),
        np.concatenate((covariances, b_covariances.reshape(n_b, n_x, n_x))),
        np.concatenate((state.existences * model.survival_prob, b_existences)),
        np.concatenate((state.log_weights, b_log_weights)),
        np.concatenate((state.labels, b_labels * (new_time, 1))),
        np.concatenate((state.histories, np.full((n_b, state.histories.shape[1]), -1))),
        np.concatenate((state.offsets, state.offsets[-1] + b_labels[:, 1])),
        np.concatenate((state.vectors, np.zeros((len(state.vectors), n_b), dtype=np.intp)), axis=1),
        state.global_log_weights,
    )


def _check_state(state: MbmState, n_x: int | None = None) -> None:
    if not len(state.global_log_weights):
        raise InputError("state has no global hypotheses")
    if n_x is not None and len(state.means) and state.means.shape[1] != n_x:
        raise InputError(f"state hypotheses must have dimension {n_x}, not {state.means.shape[1]}")


def _logsumexp(values) -> float:
    """``scipy.special.logsumexp`` of a 1-D sequence, without its dispatch cost.

    Performs scipy's operations in scipy's order (split out the terms equal
    to the maximum, sum the shifted exponentials of the rest, divide by the
    tie count, then log1p), so the results agree bitwise.  For a lone term a
    that formula is log1p(0) + log(1) + a, so a comes back as it is; adding
    +0.0 turns -0.0 into scipy's +0.0.
    """
    a = np.asarray(values, dtype=float)
    if a.size == 1:
        return a.item() + 0.0
    if a.size == 0:
        return -math.inf
    a_max = a.max()
    if not math.isfinite(a_max):
        return float(a_max)
    at_max = a == a_max
    count = np.count_nonzero(at_max)
    s = np.add.reduce(np.exp(np.where(at_max, -np.inf, a) - a_max)) / count
    return float(np.log1p(s) + np.log(count) + a_max)


def _normalized(log_weights: np.ndarray) -> np.ndarray:
    total = _logsumexp(log_weights)
    if not math.isfinite(total):
        raise NumericalError("total global-hypothesis weight vanished or diverged")
    return log_weights - total


def _merge_duplicates(
    vectors: np.ndarray, log_weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sum the weights of global hypotheses with identical assignment vectors.

    Each group takes the place of its first member, and its log-weights are
    folded with ``np.logaddexp`` in order of appearance.  One sort finds
    whether any vector repeats; if none does, the inputs come back as they are.
    """
    if len(vectors) < 2:
        return vectors, log_weights
    if vectors.shape[1]:
        ordered = vectors[np.lexsort(vectors.T)]
        if not (ordered[1:] == ordered[:-1]).all(axis=1).any():
            return vectors, log_weights
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, key in enumerate(map(tuple, vectors.tolist())):
        groups.setdefault(key, []).append(i)
    first = [members[0] for members in groups.values()]
    merged = log_weights[first]
    for g, members in enumerate(groups.values()):
        for i in members[1:]:
            merged[g] = np.logaddexp(merged[g], log_weights[i])
    return vectors[first], merged


def update(
    state: MbmState,
    measurements,
    model: LinearGaussianModel,
    params: FilterParams,
) -> MbmState:
    """Measurement update with ranked-assignment hypothesis selection.

    The parents (every hypothesis of every component, in order) are gated
    against all m measurements in one stacked computation, which fills
    (parents, m) tables of detection log-weights and of assignment costs
    (misdetection/detection log-ratios).  Each prior global takes the rows
    of its parents as its cost matrix and spawns its ceil(max_globals *
    weight) best children; one ranking call orders the whole stack of these
    matrices.  Only the gated block is ranked: the components with a parent
    that some measurement gates, and the measurements that some parent
    gates.  Every other row and column is FORBIDDEN in every matrix, so no
    ranked solution and no LSAP count changes, and every other component
    takes misdetection.  Weights are renormalized.
    A child is keyed ``parent * (m + 1) + association`` (0 misdetection,
    j + 1 measurement j), which sorts by parent, misdetection first.  The
    ranking gives the block column each block row takes (-1 for none) as one
    (solutions, live components) array; the keys are its globals'
    misdetection keys repeated per solution, plus j + 1 in each live
    component's place wherever it takes measurement j.
    Only the children some new global selects are built, in key order: they
    gather their parents' rows, labels included, and append their
    association to the parents' histories.  One gain call on the gate's
    factors of S serves every detected child.
    """
    _check_state(state, model.state_dim)
    zs = _as_measurement_block(measurements, model.meas_dim)
    m, p_d = len(zs), model.detection_prob
    offsets = state.offsets[:-1]
    existences, log_weights = state.existences, state.log_weights
    log_pd, log_kappa = floor_log(p_d), model.log_clutter_intensity

    # Misdetection factor 1 - r p_D, floored to log(0) where r = p_D = 1
    # (normalization then pushes that child to weight 0).
    denom = 1.0 - existences * p_d
    log_mis_factor = np.array([floor_log(d) for d in denom.tolist()])
    mis_existence = np.divide(
        existences * (1.0 - p_d), denom, out=np.ones(len(denom)), where=denom > 0.0
    )
    mis_existence = np.minimum(np.maximum(mis_existence, 0.0), 1.0)
    # Log-weights of the children, indexed by key: column 0 misdetection,
    # column j + 1 detection by measurement j.
    child_log_weight = np.full((len(existences), m + 1), -math.inf)
    child_log_weight[:, 0] = log_weights + log_mis_factor
    mis_increment = child_log_weight[:, 0] - log_weights
    cost = np.full((len(existences), m), FORBIDDEN)
    detectable = (existences > 0.0).nonzero()[0]
    if m > 0 and p_d > 0.0 and len(detectable):
        factors = innovation_factors(state.means[detectable], state.covariances[detectable], model)
        maha, logliks = gate(factors, zs)
        log_r = np.array([math.log(r) for r in existences[detectable].tolist()])[:, None]
        child_log_weight[detectable, 1:] = (
            log_weights[detectable, None] + log_r + log_pd + logliks - log_kappa
        )
        # -ln(detection weight / misdetection weight); the parent weight
        # cancels, and zero misdetection factors are floored so the cost
        # stays finite.
        cost[detectable] = np.where(
            maha > params.gate_threshold,
            FORBIDDEN,
            log_mis_factor[detectable, None] - (log_r + log_pd + logliks - log_kappa),
        )

    # A new global's weight is the prior weight, plus every component's
    # misdetection factor, minus the selected assignment's cost (each cost
    # entry being exactly the misdetection/detection log-ratio); accumulate
    # adds the factors left to right, in component order.
    rows = state.vectors + offsets
    base_log_weight = np.add.accumulate(
        np.concatenate((state.global_log_weights[:, None], mis_increment[rows]), axis=1), axis=1
    )[:, -1]
    # Global g spawns its k_u = ceil(max_globals * weight) best children.
    k_us = [
        max(1, math.ceil(params.max_globals * math.exp(min(w, 0.0))))
        for w in state.global_log_weights.tolist()
    ]
    # The gated block: a row or column left out is FORBIDDEN in every matrix,
    # so no assignment uses it and Murty's search spawns no child on it.
    gated = cost < FORBIDDEN
    live_meas = np.logical_or.reduce(gated, axis=0).nonzero()[0]
    live_comps = np.logical_or.reduceat(np.logical_or.reduce(gated, axis=1), offsets).nonzero()[0]
    counts, totals, cols = _ranked_columns(
        cost.take(live_meas, axis=1).take(rows.take(live_comps, axis=1), axis=0), k_us, False
    )
    weights = base_log_weight.repeat(counts) - totals
    # Each child is its global's misdetection keys, plus j + 1 wherever its
    # assignment gives measurement j: ranked column c is measurement
    # ``live_meas[c]``, and -1 (unassigned) picks the closing 0.
    association = np.zeros(len(live_meas) + 1, np.intp)
    association[:-1] = live_meas + 1
    keys = (rows * (m + 1)).repeat(counts, axis=0)
    keys[:, live_comps] += association.take(cols)

    # Build the selected children in key order and renumber the vectors to
    # match: the hypotheses keep their relative order, so pruning and
    # estimation give the same result as if every child were built.
    selected = np.zeros(child_log_weight.size, dtype=bool)
    selected[keys] = True
    used = selected.nonzero()[0]
    bounds = used.searchsorted(state.offsets * (m + 1))
    parent, association = np.divmod(used, m + 1)
    means, covariances = state.means[parent], state.covariances[parent]
    detected = association > 0
    if np.logical_or.reduce(detected):  # then ``factors`` holds the detectable parents' S
        gains, posterior_covs = kalman_gains(state.covariances[detectable], factors[1], model)
        pair = detectable.searchsorted(parent[detected])
        covariances[detected] = posterior_covs[pair]
        means[detected] = posterior_means(
            means[detected], factors[0][pair], gains[pair], zs[association[detected] - 1]
        )
    return MbmState._stacked(
        state.time,
        means,
        covariances,
        np.where(detected, 1.0, mis_existence[parent]),
        child_log_weight.ravel()[used],
        state.labels[parent],
        np.concatenate((state.histories[parent], association[:, None]), axis=1),
        bounds,
        used.searchsorted(keys) - bounds[:-1],
        _normalized(weights),
    )


def prune(state: MbmState, params: FilterParams) -> MbmState:
    """Cap/threshold global hypotheses, drop dead wood, merge duplicates.

    The weight threshold applies to normalized weights after duplicate
    merging; if every global falls below it the single best survives.
    Components whose existence is below the pruning threshold in all
    surviving hypotheses are removed and every assignment vector shrinks
    consistently.
    """
    _check_state(state)
    vectors, weights = _merge_duplicates(state.vectors, state.global_log_weights)
    weights = _normalized(weights)
    kept = [g for g, w in enumerate(weights.tolist()) if math.exp(w) >= params.prune_global_weight]
    kept = np.array(kept) if kept else np.argmax(weights)[None]
    if len(kept) > params.max_globals:
        # Highest weights first, ties to the lower index.
        kept = np.sort(kept[np.argsort(-weights[kept], kind="stable")[: params.max_globals]])
    # Keep the referenced hypotheses of components that some kept global
    # gives enough existence, and renumber the vectors to match.
    rows = vectors[kept] + state.offsets[:-1]
    alive = np.logical_or.reduce(state.existences[rows] >= params.prune_existence, axis=0)
    used = np.zeros(len(state.existences), dtype=bool)
    used[rows[:, alive]] = True
    used = used.nonzero()[0]
    # A kept component's rows end where its old rows end; the first starts at 0.
    offsets = np.concatenate(([0], used.searchsorted(state.offsets[1:][alive])))
    vectors = used.searchsorted(rows[:, alive]) - offsets[:-1]
    vectors, weights = _merge_duplicates(vectors, weights[kept])
    # Left padding makes the columns that every kept history leaves at -1 a
    # prefix; dropping them bounds the width by the oldest kept history.
    histories = state.histories[used]
    histories = histories[:, np.count_nonzero(np.logical_and.reduce(histories < 0, axis=0)):]
    return MbmState._stacked(
        state.time,
        state.means[used],
        state.covariances[used],
        state.existences[used],
        state.log_weights[used],
        state.labels[used],
        histories,
        offsets,
        vectors,
        _normalized(weights),
    )


def estimate(state: MbmState, params: FilterParams) -> list[TargetEstimate]:
    """Means of the best global's hypotheses with existence above threshold."""
    _check_state(state)
    rows = state.vectors[state.global_log_weights.argmax()] + state.offsets[:-1]
    rows = rows[state.existences[rows] > params.estimate_existence]
    return [
        TargetEstimate(tuple(label), mean)
        for label, mean in zip(state.labels[rows].tolist(), state.means[rows])
    ]


def step(
    state: MbmState,
    measurements,
    model: LinearGaussianModel,
    birth: BirthModel,
    params: FilterParams,
) -> tuple[MbmState, list[TargetEstimate]]:
    """One full cycle: predict, update, estimate, then prune."""
    predicted = predict(state, model, birth)
    updated = update(predicted, measurements, model, params)
    estimates = estimate(updated, params)
    return prune(updated, params), estimates
