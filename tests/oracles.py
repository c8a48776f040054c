"""Independent brute-force references used by the tests.

Everything here is deliberately written against the definitions rather than
the library's algorithms: assignments by exhaustive enumeration, Bayes
updates by gridding or information-form products, the multi-target update
by enumerating association maps in the linear domain with scipy's density
evaluations.  The one exception is ``murty_reference``: the plain Murty loop
that solves every child, kept so the pruned loop in the library can be
checked against it bitwise.
"""
from __future__ import annotations

import heapq
import itertools
import math

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.stats import multivariate_normal

from mbmtrack.assignment import Assignment


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
