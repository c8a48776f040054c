"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""
import dataclasses
import math
import os
import time

import numpy as np
import pytest
from oracles import (
    ExhaustiveMbm,
    check_state,
    grid_posterior_1d,
    gospa_oracle,
    info_form_posterior,
    k_best_oracle,
    label_scrambled_run,
)
from scipy import stats

import mbmtrack.mbm as mbm
from mbmtrack.assignment import FORBIDDEN, k_best
from mbmtrack.cli import main
from mbmtrack.gaussian import (
    GaussianDensity,
    LinearGaussianModel,
    kalman_predict,
    kalman_update,
)
from mbmtrack.gospa import GospaParams, gospa
from mbmtrack.mbm import BirthComponent, BirthModel, FilterParams
from mbmtrack.sim import (
    builtin_scenario,
    constant_velocity_model,
    generate_run_measurements,
    generate_truth,
    run_monte_carlo,
)


def test_criterion_1_assignment_oracle_equivalence():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    for _ in range(200):
        n_rows = rng.integers(1, 5)
        n_cols = rng.integers(1, 6)
        costs = rng.uniform(-5.0, 5.0, size=(n_rows, n_cols))
        costs[rng.random(size=costs.shape) < 0.3] = FORBIDDEN
        expected = k_best_oracle(costs, 10)
        got = k_best(costs, 10)
        assert len(got) == len(expected)
        for a, (e_map, e_cost) in zip(got, expected):
            assert abs(a.total_cost - e_cost) <= 1e-12
            assert a.row_to_col == e_map
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"\nACCEPTANCE PASS: criterion 1: k-best matches brute force on 200 matrices "
          f"({elapsed:.2f}s < 5s)")


def test_criterion_2_kalman_correctness():
    rng = np.random.default_rng(1002)
    for _ in range(50):
        mean = rng.normal(scale=3.0)
        var = rng.uniform(0.3, 4.0)
        h = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
        r = rng.uniform(0.3, 4.0)
        z = h * mean + rng.normal(scale=math.sqrt(h * h * var + r))
        model = LinearGaussianModel([[1.0]], [[0.0]], [[h]], [[r]], 0.99, 0.9, 1e-4)
        prior = GaussianDensity([mean], [[var]])
        post, loglik = kalman_update(prior, [z], model)
        g_mean, g_var, g_log_ev = grid_posterior_1d(mean, var, h, r, z)
        assert abs(post.mean[0] - g_mean) < 1e-6
        assert abs(post.covariance[0, 0] - g_var) < 1e-6
        assert abs(loglik - g_log_ev) < 1e-6
        gap = prior.covariance - post.covariance
        assert np.linalg.eigvalsh(gap).min() >= -1e-9

    for _ in range(50):
        a = rng.normal(size=(2, 2))
        prior_cov = a @ a.T + np.eye(2)
        prior_mean = rng.normal(size=2)
        h_mat = rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2))
        r_mat = b @ b.T + 0.5 * np.eye(2)
        z = rng.normal(size=2)
        model = LinearGaussianModel(np.eye(2), np.zeros((2, 2)), h_mat, r_mat, 0.99, 0.9, 1e-4)
        prior = GaussianDensity(prior_mean, prior_cov)
        post, loglik = kalman_update(prior, z, model)
        o_mean, o_cov, o_log_ev = info_form_posterior(prior_mean, prior_cov, h_mat, r_mat, z)
        np.testing.assert_allclose(post.mean, o_mean, atol=1e-10)
        np.testing.assert_allclose(post.covariance, o_cov, atol=1e-10)
        assert abs(loglik - o_log_ev) < 1e-10
        gap = prior_cov - post.covariance
        assert np.linalg.eigvalsh(gap).min() >= -1e-9
    print("\nACCEPTANCE PASS: criterion 2: Kalman update matches grid (1e-6) and "
          "information-form (1e-10) oracles; posterior PSD-dominated by prior")


def test_criterion_3_exhaustive_update_equivalence():
    # Overlapping broad births and balanced likelihood/clutter factors keep
    # every prior global's weight far above children/N_h, so N_h = 1e6 fully
    # enumerates; full enumeration is asserted via the count equality.
    F = np.kron(np.eye(2), [[1.0, 1.0], [0.0, 1.0]])
    Q = 0.01 * np.kron(np.eye(2), [[1.0 / 3.0, 0.5], [0.5, 1.0]])
    H = np.kron(np.eye(2), [[1.0, 0.0]])
    model = LinearGaussianModel(F, Q, H, 25.0 * np.eye(2), 0.99, 0.6, 5e-4)
    broad = GaussianDensity([12.0, 0.0, 12.0, 0.0], np.diag([100.0, 1.0, 100.0, 1.0]))
    birth = BirthModel((BirthComponent(0.45, broad), BirthComponent(0.40, broad)))
    steps = [
        (birth, [np.array([12.0, 12.0]), np.array([16.0, 9.0])]),
        (BirthModel(), [np.array([13.0, 12.5]), np.array([17.0, 9.5])]),
        (BirthModel(), [np.array([14.0, 13.0]), np.array([18.0, 10.0])]),
    ]
    params = FilterParams(max_globals=10**6, gate_threshold=float("inf"))
    state = mbm.init_empty()
    oracle = ExhaustiveMbm(model)
    for birth_k, zs in steps:
        state = mbm.predict(state, model, birth_k)
        state = mbm.update(state, zs, model, params)
        oracle.predict(birth_k.components)
        oracle.update(zs)

    table = oracle.global_table()
    assert len(state.global_hypotheses) == len(table)
    for g in state.global_hypotheses:
        key = tuple(
            state.components[i].hypotheses[g.assignment_vector[i]].meta.association_history
            for i in range(len(state.components))
        )
        assert key in table
        assert abs(math.exp(g.log_weight) - table[key]) <= 1e-9
        for i in range(len(state.components)):
            h = state.components[i].hypotheses[g.assignment_vector[i]]
            ref = oracle.component_params(i, h.meta.association_history)
            assert abs(h.existence - ref["r"]) <= 1e-9
            assert np.abs(h.density.mean - ref["mean"]).max() <= 1e-9
            assert np.abs(h.density.covariance - ref["cov"]).max() <= 1e-9
    print(f"\nACCEPTANCE PASS: criterion 3: N_h=1e6 no-gating update reproduces all "
          f"{len(table)} exhaustive global hypotheses within 1e-9")


def test_criterion_4_kalman_reduction():
    rng = np.random.default_rng(1004)
    model = constant_velocity_model(detection_prob=1.0, clutter_intensity=0.0)
    prior = GaussianDensity([0.0, 1.0, 0.0, -1.0], np.diag([4.0, 1.0, 4.0, 1.0]))
    birth = BirthModel((BirthComponent(1.0, prior),))
    params = FilterParams(max_globals=50, gate_threshold=float("inf"))
    chol_q = np.linalg.cholesky(model.process_noise)

    truth = np.array([0.0, 1.0, 0.0, -1.0])
    state = mbm.init_empty()
    reference = prior
    worst = 0.0
    for k in range(50):
        truth = model.transition @ truth + chol_q @ rng.standard_normal(4)
        z = model.observation @ truth + rng.standard_normal(2)
        if k > 0:
            reference = kalman_predict(reference, model)
        state, estimates = mbm.step(state, [z], model, birth if k == 0 else BirthModel(), params)
        reference, _ = kalman_update(reference, z, model)
        assert len(estimates) == 1
        worst = max(worst, float(np.abs(estimates[0].state - reference.mean).max()))
        assert worst <= 1e-8
    print(f"\nACCEPTANCE PASS: criterion 4: filter equals a standalone Kalman filter over "
          f"50 steps (max deviation {worst:.2e} <= 1e-8)")


def test_criterion_5_gospa_correctness():
    rng = np.random.default_rng(1005)
    params = GospaParams(cutoff=10.0, order=2.0)
    for _ in range(150):
        truth = [rng.uniform(-12, 12, size=2) for _ in range(rng.integers(0, 5))]
        estimate = [rng.uniform(-12, 12, size=2) for _ in range(rng.integers(0, 5))]
        expected = gospa_oracle(truth, estimate, 10.0, 2.0)
        assert abs(gospa(truth, estimate, params).total - expected) <= 1e-10
    for _ in range(1000):
        truth = [rng.uniform(-12, 12, size=2) for _ in range(rng.integers(0, 5))]
        estimate = [rng.uniform(-12, 12, size=2) for _ in range(rng.integers(0, 5))]
        result = gospa(truth, estimate, params)
        assert abs(result.total**2 - (result.localisation_p + result.missed_p + result.false_p)) <= 1e-9
    for n in range(1, 5):
        result = gospa([np.zeros(2)] * n, [], params)
        assert result.total == (50.0 * n) ** 0.5
        assert result.n_missed == n
    print("\nACCEPTANCE PASS: criterion 5: GOSPA matches brute force (1e-10), "
          "decomposition identity holds (1e-9), missed-only case exact")


def test_criterion_6_label_invariance():
    scenario = generate_truth(builtin_scenario("scenario1"), 31)
    short = dataclasses.replace(scenario, duration=15)
    scans = generate_run_measurements(short, 32)
    models = [short.model_at(k) for k in range(1, short.duration + 1)]
    states = label_scrambled_run(scans, models, short.birth, FilterParams(max_globals=100), 33)
    for state in states:
        check_state(state)
        # Each component's label is unique in the unscrambled run.
        component_labels = [tuple(state.labels[row]) for row in state.offsets[:-1]]
        assert len(component_labels) == len(set(component_labels))
    print("\nACCEPTANCE PASS: criterion 6: runs whose labels differ coincide bit for bit "
          "in means, covariances, existences, weights, histories, vectors and estimates")


@pytest.mark.slow
def test_criterion_7_scenario1_desk_scale():
    scenario = builtin_scenario("scenario1")
    params = FilterParams(max_globals=200)
    workers = min(4, os.cpu_count() or 1)
    start = time.perf_counter()
    report = run_monte_carlo(scenario, params, 20, 2026, workers=workers)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0

    cardinalities = []
    for record in report.records:
        for k in range(45, 82):
            cardinalities.append(len(record.estimates[k - 1]))
    mean_card = float(np.mean(cardinalities))
    assert abs(mean_card - 3.0) <= 0.5

    assert math.isfinite(report.mean_summary[0])
    loc = np.zeros(81)
    missed = np.zeros(81)
    for record in report.records:
        for k in range(81):
            loc[k] += record.gospa[k].localisation_p
            missed[k] += record.gospa[k].missed_p
    # birth transient: missed cost dominates; converged tail: it does not
    assert missed[:2].mean() > loc[:2].mean()
    assert loc[60:].mean() > missed[60:].mean()
    print(f"\nACCEPTANCE PASS: criterion 7: 20 runs in {elapsed:.1f}s (<60s, {workers} workers), "
          f"mean cardinality {mean_card:.2f} in 3±0.5, RMS-GOSPA {report.mean_summary[0]:.2f} finite, "
          f"missed dominates only during the birth transient")


@pytest.mark.slow
def test_criterion_8_benchmark_determinism(tmp_path):
    out_a = tmp_path / "first"
    out_b = tmp_path / "second"
    for out in (out_a, out_b):
        code = main(
            ["benchmark", "--scenario", "scenario1", "--seed", "7", "--runs", "3",
             "--out", str(out)]
        )
        assert code == 0
    bytes_a = (out_a / "summary.csv").read_bytes()
    bytes_b = (out_b / "summary.csv").read_bytes()
    assert bytes_a == bytes_b
    assert (out_a / "runs_nh200.csv").read_bytes() == (out_b / "runs_nh200.csv").read_bytes()
    print("\nACCEPTANCE PASS: criterion 8: benchmark --seed 7 --runs 3 twice gives "
          "byte-identical summary CSV")


def test_criterion_9_clutter_chi_square():
    # No targets, so every point of the 10^4 scans of run seed 1009 is clutter.
    clutter_only = dataclasses.replace(builtin_scenario("scenario1"), truth=(), duration=10_000)
    counts = np.array([len(scan) for scan in generate_run_measurements(clutter_only, 1009)])
    max_count = counts.max()
    observed = np.bincount(counts, minlength=max_count + 1).astype(float)
    expected = stats.poisson.pmf(np.arange(max_count + 1), 10.0) * len(counts)
    expected[-1] += (1.0 - stats.poisson.cdf(max_count, 10.0)) * len(counts)
    while expected[0] < 5:
        expected[1] += expected[0]
        observed[1] += observed[0]
        expected, observed = expected[1:], observed[1:]
    while expected[-1] < 5:
        expected[-2] += expected[-1]
        observed[-2] += observed[-1]
        expected, observed = expected[:-1], observed[:-1]
    _, p_value = stats.chisquare(observed, expected * observed.sum() / expected.sum())
    assert p_value > 0.01
    print(f"\nACCEPTANCE PASS: criterion 9: clutter counts fit Poisson(10) "
          f"(chi-square p = {p_value:.3f} > 0.01 over 10^4 scans)")
