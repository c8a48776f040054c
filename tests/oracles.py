"""Independent brute-force references used by the tests.

Everything here is deliberately written against the definitions rather than
the library's algorithms: assignments by exhaustive enumeration, Bayes
updates by gridding or information-form products, the multi-target update
by enumerating association maps in the linear domain with scipy's density
evaluations.  The exceptions are plain forms of library loops, kept so the
library can be checked against them bitwise: ``murty_reference``, the Murty
loop that solves every child; ``gospa_reference``, GOSPA scored one step at a
time; ``predict_reference``, predict with the birth block built on every
call; ``update_reference``, the measurement update ranked one matrix at a
time by ``ranked_alone``, turning its ``Assignment`` maps into child keys.
``ranked_alone`` and ``ranked_stack`` rank through the private
``_ranked_columns`` under an explicit tie rule, which ``k_best`` fixes.
``check_state`` asserts the invariants every filter state must satisfy, and
``label_scrambled_run`` that a hypothesis's label never reaches the numerics.
"""
from __future__ import annotations

import heapq
import itertools
import math
from itertools import chain

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.special import logsumexp
from scipy.stats import multivariate_normal

import mbmtrack.assignment as assignment
import mbmtrack.mbm as mbm
from mbmtrack.assignment import FORBIDDEN, Assignment, k_best
from mbmtrack.errors import InputError, NumericalError
from mbmtrack.gaussian import (
    LinearGaussianModel, floor_log, gate, innovation_factors, kalman_gains, posterior_means,
    predict_stack,
)
from mbmtrack.gospa import GospaResult
from mbmtrack.mbm import FilterParams, MbmState, _as_measurement_block


# -- assignment ---------------------------------------------------------------


def enumerate_partial_assignments(costs):
    """All injective partial assignments as (mapping, cost) pairs.

    Cost is the sequential row-order sum of the selected finite entries;
    forbidden (non-finite) entries are never selected.
    """
    costs = np.asarray(costs, dtype=float)
    n_rows, n_cols = costs.shape
    out = []

    def recurse(row, used, mapping):
        if row == n_rows:
            total = 0.0
            for r in sorted(mapping):
                total += float(costs[r, mapping[r]])
            out.append((dict(mapping), total))
            return
        recurse(row + 1, used, mapping)
        for col in range(n_cols):
            if col in used or not np.isfinite(costs[row, col]):
                continue
            mapping[row] = col
            recurse(row + 1, used | {col}, mapping)
            del mapping[row]

    recurse(0, frozenset(), {})
    return out


def lex_key(mapping, n_rows):
    return tuple(mapping.get(r, -1) for r in range(n_rows))


def k_best_oracle(costs, k):
    """The k best partial assignments under the (cost, lexicographic) order."""
    costs = np.asarray(costs, dtype=float)
    every = enumerate_partial_assignments(costs)
    every.sort(key=lambda mc: (mc[1], lex_key(mc[0], costs.shape[0])))
    return every[:k]


_MURTY_TIE_RTOL = 1e-9


def murty_reference(costs, k, resolve_ties=True):
    """Murty's ranked assignment on the full augmented matrix, child by child.

    Every row of every popped node spawns a child that is solved, feasible or
    not, and the result is sorted by (cost, lexicographic map) on both paths.
    ``mbmtrack.assignment.k_best`` must match it bitwise on tie-free costs:
    maps, costs and order.  LSAP is looked up as this module's
    ``linear_sum_assignment`` so a test can count its calls.
    """
    costs = np.asarray(costs, dtype=float)
    n_rows, n_cols = costs.shape
    finite = np.isfinite(costs)
    if n_rows == 0 or n_cols == 0 or not finite.any():
        return [Assignment({}, 0.0)]

    scale = float(np.abs(costs[finite]).max())
    large = (2.0 * (n_rows + n_cols) + 1.0) * max(1.0, scale) + 1.0

    aug = np.full((n_rows, n_cols + n_rows), large)
    aug[:, :n_cols] = np.where(finite, costs, large)
    aug[np.arange(n_rows), n_cols + np.arange(n_rows)] = 0.0

    def solve(node):
        rows, cols = linear_sum_assignment(node)
        selected = node[rows, cols].tolist()
        total = 0.0
        for c, value in zip(cols.tolist(), selected):
            if value >= large:
                return None, 0.0
            if c < n_cols:
                total += value
        return cols, total

    counter = itertools.count()
    root_sol, root_cost = solve(aug)
    heap = [(root_cost, next(counter), aug, root_sol)]
    emitted = []

    while heap:
        if len(emitted) >= k:
            if not resolve_ties:
                break
            kth = emitted[k - 1][0]
            if heap[0][0] > kth + _MURTY_TIE_RTOL * max(1.0, abs(kth)):
                break
        cost, _, node, sol = heapq.heappop(heap)
        emitted.append((cost, sol))
        if not resolve_ties and len(emitted) >= k:
            break

        work = node
        for t in range(n_rows):
            c_t = sol[t]
            child = work.copy()
            child[t, c_t] = large
            child_sol, child_cost = solve(child)
            if child_sol is not None:
                heapq.heappush(heap, (child_cost, next(counter), child, child_sol))
            if t < n_rows - 1:
                if work is node:
                    work = node.copy()
                keep = work[t, c_t]
                work[t, :] = large
                work[t, c_t] = keep

    results = [
        Assignment({r: int(c) for r, c in enumerate(sol) if c < n_cols}, cost)
        for cost, sol in emitted
    ]
    results.sort(key=lambda a: (a.total_cost, lex_key(a.row_to_col, n_rows)))
    return results[:k]


def ranked_stack(costs, ks, resolve_ties):
    """``_ranked_columns`` of a (G, R, C) stack, as one list of (map, hex
    cost) pairs per matrix."""
    counts, totals, cols = assignment._ranked_columns(costs, ks, resolve_ties)
    solutions = zip(cols.tolist(), totals.tolist())
    return [
        [({r: c for r, c in enumerate(row) if c >= 0}, total.hex())
         for row, total in itertools.islice(solutions, count)]
        for count in counts
    ]


def ranked_alone(costs, k, resolve_ties):
    """``k_best(costs, k)`` under an explicit tie rule: one (R, C) matrix
    ranked by ``_ranked_columns`` as a stack of one."""
    ranked = ranked_stack(np.asarray(costs, dtype=float)[None], [k], resolve_ties)[0]
    return [Assignment(row_to_col, float.fromhex(total)) for row_to_col, total in ranked]


# -- GOSPA --------------------------------------------------------------------


def gospa_oracle(truth, estimate, c, p):
    """Direct minimization over every partial matching (no cutoff shortcut)."""
    truth = [np.asarray(x, dtype=float) for x in truth]
    estimate = [np.asarray(x, dtype=float) for x in estimate]
    n, m = len(truth), len(estimate)
    best = math.inf
    indices = range(m)
    for size in range(0, min(n, m) + 1):
        for rows in itertools.combinations(range(n), size):
            for cols in itertools.permutations(indices, size):
                loc = sum(
                    np.linalg.norm(truth[i] - estimate[j]) ** p for i, j in zip(rows, cols)
                )
                value = loc + (c**p / 2.0) * (n + m - 2 * size)
                best = min(best, value)
    return best ** (1.0 / p)


def gospa_reference(truth, estimate, params):
    """The one-step scorer that ``gospa_run`` stacks: each pair of sets
    validated and matched on its own, with ``k_best(costs, 1)``.
    Kept so the stacked scorer can be checked against it bitwise."""

    def as_points(vectors):
        pts = [np.atleast_1d(np.asarray(v, dtype=float)) for v in vectors]
        if not pts:
            return np.zeros((0, 0))
        dim = pts[0].size
        if any(p.size != dim for p in pts):
            raise InputError("set elements have inconsistent dimensions")
        block = np.vstack(pts)
        if not np.isfinite(block).all():
            raise InputError("set elements must be finite")
        return block

    xs = as_points(truth)
    ys = as_points(estimate)
    n_truth, n_est = xs.shape[0], ys.shape[0]
    if n_truth and n_est and xs.shape[1] != ys.shape[1]:
        raise InputError("truth and estimate vectors have different dimensions")
    c_p = params.cutoff**params.order
    half_cp = 0.5 * c_p
    if n_truth and n_est:
        with np.errstate(over="ignore"):
            diffs = xs[:, None, :] - ys[None, :, :]
            dist_p = np.linalg.norm(diffs, axis=2) ** params.order
        costs = np.where(dist_p < c_p, dist_p - c_p, FORBIDDEN)
        matching = k_best(costs, 1)[0].pairs()
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


# -- Kalman -------------------------------------------------------------------


def grid_posterior_1d(prior_mean, prior_var, h, r, z, n_points=200001, width=14.0):
    """Pointwise product of prior and likelihood on a grid, renormalized.

    Returns (mean, variance, log_evidence).
    """
    sigma = math.sqrt(prior_var)
    lo = min(prior_mean - width * sigma, (z / h) - width * math.sqrt(r) / abs(h))
    hi = max(prior_mean + width * sigma, (z / h) + width * math.sqrt(r) / abs(h))
    xs = np.linspace(lo, hi, n_points)
    log_prior = -0.5 * ((xs - prior_mean) ** 2 / prior_var) - 0.5 * math.log(
        2 * math.pi * prior_var
    )
    log_lik = -0.5 * ((z - h * xs) ** 2 / r) - 0.5 * math.log(2 * math.pi * r)
    joint = np.exp(log_prior + log_lik)
    dx = xs[1] - xs[0]
    evidence = np.trapezoid(joint, dx=dx)
    post = joint / evidence
    mean = np.trapezoid(xs * post, dx=dx)
    var = np.trapezoid((xs - mean) ** 2 * post, dx=dx)
    return float(mean), float(var), float(np.log(evidence))


def info_form_posterior(prior_mean, prior_cov, h_mat, r_mat, z):
    """Information-form Gaussian product: independent of the gain-form path."""
    prior_mean = np.asarray(prior_mean, dtype=float)
    prior_cov = np.asarray(prior_cov, dtype=float)
    h_mat = np.atleast_2d(np.asarray(h_mat, dtype=float))
    r_mat = np.atleast_2d(np.asarray(r_mat, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=float))
    info = np.linalg.inv(prior_cov) + h_mat.T @ np.linalg.inv(r_mat) @ h_mat
    cov = np.linalg.inv(info)
    mean = cov @ (
        np.linalg.inv(prior_cov) @ prior_mean + h_mat.T @ np.linalg.inv(r_mat) @ z
    )
    s_mat = h_mat @ prior_cov @ h_mat.T + r_mat
    log_evidence = multivariate_normal.logpdf(z, mean=h_mat @ prior_mean, cov=s_mat)
    return mean, 0.5 * (cov + cov.T), float(log_evidence)


# -- exhaustive multi-Bernoulli mixture recursion -----------------------------


class ExhaustiveMbm:
    """Linear-domain reference recursion over explicit association maps.

    Components are tracked by their full history; a global hypothesis is a
    tuple holding one history per component.  No gating, no pruning, no
    ranked selection: every valid association map is enumerated.
    """

    def __init__(self, model):
        self.model = model
        self.time = 0
        self.births = []  # (birth_time, birth_index, existence, mean, cov) per component
        self.params = {}  # (comp, history) -> dict(r, mean, cov)
        self.globals = {(): 1.0}  # tuple of per-component histories -> weight

    def predict(self, birth_components):
        self.time += 1
        model = self.model
        for key in list(self.params):
            p = self.params[key]
            self.params[key] = {
                "r": p["r"] * model.survival_prob,
                "mean": model.transition @ p["mean"],
                "cov": model.transition @ p["cov"] @ model.transition.T + model.process_noise,
            }
        for index, b in enumerate(birth_components, start=1):
            comp = len(self.births)
            self.births.append((self.time, index))
            self.params[(comp, ())] = {
                "r": b.existence,
                "mean": b.density.mean.copy(),
                "cov": b.density.covariance.copy(),
            }
        n_new = len(birth_components)
        self.globals = {
            key + ((),) * n_new: w for key, w in self.globals.items()
        }

    def _child_params(self, comp, history, assoc, zs):
        key = (comp, history + (assoc,))
        if key in self.params:
            return self.params[key]
        p = self.params[(comp, history)]
        model = self.model
        pd = model.detection_prob
        if assoc == 0:
            denom = 1.0 - p["r"] * pd
            child = {
                "r": p["r"] * (1.0 - pd) / denom,
                "mean": p["mean"],
                "cov": p["cov"],
            }
        else:
            z = zs[assoc - 1]
            mean, cov, _ = info_form_posterior(
                p["mean"], p["cov"], model.observation, model.measurement_noise, z
            )
            child = {"r": 1.0, "mean": mean, "cov": cov}
        self.params[key] = child
        return child

    def _factor(self, comp, history, assoc, zs):
        p = self.params[(comp, history)]
        model = self.model
        pd = model.detection_prob
        if assoc == 0:
            return 1.0 - p["r"] * pd
        z = zs[assoc - 1]
        s_mat = (
            model.observation @ p["cov"] @ model.observation.T + model.measurement_noise
        )
        lik = multivariate_normal.pdf(z, mean=model.observation @ p["mean"], cov=s_mat)
        return p["r"] * pd * lik / model.clutter_intensity

    def update(self, zs):
        zs = [np.asarray(z, dtype=float) for z in zs]
        m = len(zs)
        n = len(self.births)
        new_globals = {}
        for key, weight in self.globals.items():
            for assoc_map in self._association_maps(n, m):
                child_weight = weight
                child_key = []
                for comp in range(n):
                    assoc = assoc_map[comp]
                    child_weight *= self._factor(comp, key[comp], assoc, zs)
                    self._child_params(comp, key[comp], assoc, zs)
                    child_key.append(key[comp] + (assoc,))
                child_key = tuple(child_key)
                new_globals[child_key] = new_globals.get(child_key, 0.0) + child_weight
        total = sum(new_globals.values())
        self.globals = {key: w / total for key, w in new_globals.items()}

    @staticmethod
    def _association_maps(n_components, n_measurements):
        """Every map component -> {0 (miss), 1..m}, measurements used at most once."""
        options = range(0, n_measurements + 1)
        for combo in itertools.product(options, repeat=n_components):
            chosen = [a for a in combo if a > 0]
            if len(chosen) == len(set(chosen)):
                yield combo

    def global_table(self):
        """Mapping from per-component history tuples to normalized weight."""
        return dict(self.globals)

    def component_params(self, comp, history):
        return self.params[(comp, history)]


# -- filter prediction --------------------------------------------------------


def predict_reference(state, model, birth):
    """``mbm.predict`` with its birth block built from the components on every
    call, kept so the cached block can be checked against it bitwise."""
    new_time, n_x, births = state.time + 1, model.state_dim, birth.components
    n_h, n_b = len(state.means), len(births)
    means, covariances = predict_stack(
        state.means.reshape(n_h, n_x), state.covariances.reshape(n_h, n_x, n_x), model
    )
    return MbmState._stacked(
        new_time,
        np.concatenate([means] + [b.density.mean[None] for b in births]),
        np.concatenate([covariances] + [b.density.covariance[None] for b in births]),
        np.concatenate((state.existences * model.survival_prob, [b.existence for b in births])),
        np.concatenate((state.log_weights, np.zeros(n_b))),
        np.concatenate((
            state.labels,
            np.array(
                [(new_time, index) for index in range(1, n_b + 1)], dtype=np.intp
            ).reshape(n_b, 2),
        )),
        np.concatenate((state.histories, np.full((n_b, state.histories.shape[1]), -1))),
        np.concatenate((state.offsets, state.offsets[-1] + np.arange(1, n_b + 1))),
        np.hstack((state.vectors, np.zeros((len(state.vectors), n_b), dtype=np.intp))),
        state.global_log_weights,
    )


# -- filter update ------------------------------------------------------------


def _logsumexp_reference(values) -> float:
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


def _normalized_reference(log_weights: np.ndarray) -> np.ndarray:
    total = _logsumexp_reference(log_weights)
    if not math.isfinite(total):
        raise NumericalError("total global-hypothesis weight vanished or diverged")
    return log_weights - total


def update_reference(
    state: MbmState,
    measurements,
    model: LinearGaussianModel,
    params: FilterParams,
) -> MbmState:
    """The measurement update ranked one matrix at a time by ``ranked_alone``.

    It turns each ranked ``Assignment`` map back into child keys, and
    ``mbm.update`` must match it bitwise.  Measurement update with
    ranked-assignment hypothesis selection.

    The parents (every hypothesis of every component, in order) are gated
    against all m measurements in one stacked computation, which fills
    (parents, m) tables of detection log-weights and of assignment costs
    (misdetection/detection log-ratios).  Each prior global takes the rows
    of its parents as its cost matrix and spawns its ceil(max_globals *
    weight) best children, ranked by one ``ranked_alone`` call per global,
    without the tie rule, as the filter ranks.
    Weights are renormalized.
    A child is keyed ``parent * (m + 1) + association`` (0 misdetection,
    j + 1 measurement j), which sorts by parent, misdetection first.  The
    (solutions, components) key array is its globals' misdetection keys plus
    one scatter of the ranked assignments' (solution, row, j + 1) triples.
    Only the children some new global selects are built, in key order: they
    gather their parents' rows, labels included, and append their
    association to the parents' histories.  One gain call on the gate's
    factors of S serves every detected child.
    """
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
        existences * (1.0 - p_d), denom, out=np.ones_like(denom), where=denom > 0.0
    )
    mis_existence = np.minimum(np.maximum(mis_existence, 0.0), 1.0)
    # Log-weights of the children, indexed by key: column 0 misdetection,
    # column j + 1 detection by measurement j.
    child_log_weight = np.full((len(existences), m + 1), -math.inf)
    child_log_weight[:, 0] = log_weights + log_mis_factor
    mis_increment = child_log_weight[:, 0] - log_weights
    cost = np.full((len(existences), m), FORBIDDEN)
    detectable = np.flatnonzero(existences > 0.0)
    if m > 0 and p_d > 0.0 and len(detectable):
        factors = innovation_factors(state.means[detectable], state.covariances[detectable], model)
        maha, logliks = gate(factors, zs)
        log_r = np.array([[math.log(r)] for r in existences[detectable].tolist()])
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
    # entry being exactly the misdetection/detection log-ratio); cumsum adds
    # the factors left to right, in component order.
    rows = state.vectors + offsets
    base_log_weight = np.cumsum(
        np.column_stack((state.global_log_weights, mis_increment[rows])), axis=1
    )[:, -1]
    # Global g spawns its k_u = ceil(max_globals * weight) best children.
    k_us = [
        max(1, math.ceil(params.max_globals * math.exp(min(w, 0.0))))
        for w in state.global_log_weights.tolist()
    ]
    ranked = [ranked_alone(matrix, k_u, False) for matrix, k_u in zip(cost[rows], k_us)]
    counts = [len(assignments) for assignments in ranked]
    solutions = list(chain.from_iterable(ranked))
    maps = [solution.row_to_col for solution in solutions]
    sizes = [len(row_to_col) for row_to_col in maps]
    n_pairs = sum(sizes)
    weights = np.repeat(base_log_weight, counts) - np.array(
        [solution.total_cost for solution in solutions]
    )
    # Each child starts from its global's misdetection keys; one scatter adds
    # j + 1 at every (solution, row) that an assignment gives measurement j.
    keys = np.repeat(rows * (m + 1), counts, axis=0)
    keys[
        np.repeat(np.arange(len(maps)), sizes),
        np.fromiter(chain.from_iterable(maps), np.intp, n_pairs),
    ] += np.fromiter(chain.from_iterable(map(dict.values, maps)), np.intp, n_pairs) + 1

    # Build the selected children in key order and renumber the vectors to
    # match: the hypotheses keep their relative order, so pruning and
    # estimation give the same result as if every child were built.
    used = np.unique(keys)
    starts = np.searchsorted(used, offsets * (m + 1))
    parent, association = np.divmod(used, m + 1)
    means, covariances = state.means[parent], state.covariances[parent]
    detected = association > 0
    if detected.any():  # then the gate ran: ``factors`` holds the detectable parents' S
        gains, posterior_covs = kalman_gains(state.covariances[detectable], factors[1], model)
        pair = np.searchsorted(detectable, parent[detected])
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
        np.column_stack((state.histories[parent], association)),
        np.append(starts, len(used)),
        np.searchsorted(used, keys) - starts,
        _normalized_reference(weights),
    )


# -- filter state invariants --------------------------------------------------


def check_state(state):
    """Assert the invariants of a filter state after predict, update or prune.

    Global weights are normalized; every vector holds one in-range index per
    component and every hypothesis is referenced by some vector; existences
    lie in [0, 1]; covariances are exactly symmetric and PSD; no global uses
    a measurement of the latest scan twice.
    """
    assert abs(logsumexp([g.log_weight for g in state.global_hypotheses])) < 1e-9
    for comp in state.components:
        for h in comp.hypotheses:
            assert 0.0 <= h.existence <= 1.0
            assert np.array_equal(h.density.covariance, h.density.covariance.T)
            assert np.linalg.eigvalsh(h.density.covariance).min() >= -1e-9
    for g in state.global_hypotheses:
        assert len(g.assignment_vector) == len(state.components)
        for comp, idx in zip(state.components, g.assignment_vector):
            assert 0 <= idx < len(comp.hypotheses)
        latest = [
            comp.hypotheses[idx].meta.association_history[-1]
            for comp, idx in zip(state.components, g.assignment_vector)
            if comp.hypotheses[idx].meta.association_history
        ]
        detections = [a for a in latest if a > 0]
        assert len(detections) == len(set(detections))
    for i, comp in enumerate(state.components):
        referenced = {g.assignment_vector[i] for g in state.global_hypotheses}
        assert referenced == set(range(len(comp.hypotheses)))


NUMERIC_ARRAYS = (
    "means", "covariances", "existences", "log_weights", "histories", "offsets", "vectors",
    "global_log_weights",
)


def label_scrambled_run(scans, models, birth, params, seed):
    """Filter ``scans`` twice and assert that labels never reach the numerics.

    The first run calls ``mbm.step``.  The second runs its stages (predict,
    update, estimate, prune) but replaces every predicted hypothesis's label
    with a seeded random int pair before each ``update``.  At every step the
    two runs' ``NUMERIC_ARRAYS`` and estimate states must be bitwise equal,
    while their labels differ.  Returns the first run's states.
    """
    rng = np.random.default_rng(seed)
    plain = scrambled = mbm.init_empty()
    states = []
    for k, (zs, model) in enumerate(zip(scans, models), start=1):
        plain, plain_estimates = mbm.step(plain, zs, model, birth, params)
        predicted = mbm.predict(scrambled, model, birth)
        labels = rng.integers(0, 2**31, size=predicted.labels.shape).astype(np.intp)
        predicted = MbmState._stacked(
            predicted.time, predicted.means, predicted.covariances, predicted.existences,
            predicted.log_weights, labels, predicted.histories, predicted.offsets,
            predicted.vectors, predicted.global_log_weights,
        )
        updated = mbm.update(predicted, zs, model, params)
        estimates = mbm.estimate(updated, params)
        scrambled = mbm.prune(updated, params)
        for name in NUMERIC_ARRAYS:
            got, want = getattr(scrambled, name), getattr(plain, name)
            assert (got.dtype, got.shape, got.tobytes()) == (
                want.dtype, want.shape, want.tobytes()
            ), f"step {k}: {name} depends on the labels"
        assert [e.state.tobytes() for e in estimates] == [
            e.state.tobytes() for e in plain_estimates
        ], f"step {k}: estimates depend on the labels"
        assert not len(plain.labels) or (scrambled.labels != plain.labels).any()
        states.append(plain)
    return states
