import math

import numpy as np
import pytest
from oracles import grid_posterior_1d, info_form_posterior
from scipy import linalg
from scipy.stats import multivariate_normal

from mbmtrack.errors import InputError, NumericalError
from mbmtrack.gaussian import (
    GaussianDensity,
    LinearGaussianModel,
    PreparedMeasurementUpdate,
    gate,
    innovation_factors,
    kalman_gains,
    kalman_predict,
    kalman_update,
    posterior_means,
    predict_stack,
)


def model_1d(q=0.0, r=1.0, h=1.0, f=1.0):
    return LinearGaussianModel([[f]], [[q]], [[h]], [[r]], 0.99, 0.9, 1e-4)


def random_spd(rng, dim, scale=1.0):
    a = rng.normal(size=(dim, dim))
    return a @ a.T + scale * np.eye(dim)


class TestKalmanPredict:
    def test_identity_dynamics_is_noop(self):
        prior = GaussianDensity([1.0, -2.0], [[2.0, 0.3], [0.3, 1.0]])
        model = LinearGaussianModel(
            np.eye(2), np.zeros((2, 2)), np.eye(2), np.eye(2), 1.0, 1.0, 1e-4
        )
        out = kalman_predict(prior, model)
        np.testing.assert_allclose(out.mean, prior.mean)
        np.testing.assert_allclose(out.covariance, prior.covariance)

    def test_constant_velocity_block(self):
        prior = GaussianDensity([0.0, 1.0], np.eye(2))
        model = LinearGaussianModel(
            [[1.0, 1.0], [0.0, 1.0]], np.zeros((2, 2)), np.eye(2), np.eye(2), 1.0, 1.0, 1e-4
        )
        out = kalman_predict(prior, model)
        np.testing.assert_allclose(out.mean, [1.0, 1.0])
        np.testing.assert_allclose(out.covariance, [[2.0, 1.0], [1.0, 1.0]])

    def test_matches_direct_matrix_arithmetic(self):
        # Benchmark dynamics (T = 1, q = 0.01) against an explicit F P F' + Q.
        T, q = 1.0, 0.01
        F = np.kron(np.eye(2), [[1.0, T], [0.0, 1.0]])
        Q = q * np.kron(np.eye(2), [[T**3 / 3, T**2 / 2], [T**2 / 2, T]])
        model = LinearGaussianModel(F, Q, np.kron(np.eye(2), [[1.0, 0.0]]), np.eye(2), 0.99, 0.9, 1e-4)
        prior = GaussianDensity(np.zeros(4), np.eye(4))
        out = kalman_predict(prior, model)
        np.testing.assert_allclose(out.mean, np.zeros(4))
        np.testing.assert_allclose(out.covariance, F @ np.eye(4) @ F.T + Q, atol=1e-15)

    def test_dimension_mismatch_is_input_error(self):
        with pytest.raises(InputError):
            kalman_predict(GaussianDensity([0.0, 1.0], np.eye(2)), model_1d())


def test_model_validation_errors():
    with pytest.raises(InputError):
        LinearGaussianModel([[1.0]], [[0.0]], [[1.0]], [[1.0]], 1.5, 0.9, 1e-4)
    with pytest.raises(InputError):
        LinearGaussianModel([[1.0]], [[0.0]], [[1.0]], [[1.0]], 0.9, -0.1, 1e-4)
    with pytest.raises(InputError):
        LinearGaussianModel([[1.0]], [[0.0]], [[1.0]], [[1.0]], 0.9, 0.9, -1.0)
    with pytest.raises(InputError):
        LinearGaussianModel([[1.0, 0.0]], [[0.0]], [[1.0]], [[1.0]], 0.9, 0.9, 1e-4)
    for observation in ([[1.0, 0.0, 0.0]], [1.0, 0.0]):
        with pytest.raises(InputError, match="observation matrix must have 2 columns"):
            LinearGaussianModel(np.eye(2), np.eye(2), observation, [[1.0]], 0.9, 0.9, 1e-4)
    for intensity in (np.nan, np.inf):
        with pytest.raises(InputError, match="clutter_intensity"):
            LinearGaussianModel([[1.0]], [[0.0]], [[1.0]], [[1.0]], 0.9, 0.9, intensity)
    with pytest.raises(InputError, match="transition"):
        LinearGaussianModel([[np.nan]], [[0.0]], [[1.0]], [[1.0]], 0.9, 0.9, 1e-4)
    with pytest.raises(InputError, match="measurement_noise"):
        LinearGaussianModel([[1.0]], [[0.0]], [[1.0]], [[np.inf]], 0.9, 0.9, 1e-4)
    with pytest.raises(InputError, match="transition"):
        LinearGaussianModel(np.eye(1, dtype=complex), [[0.0]], [[1.0]], [[1.0]], 0.9, 0.9, 1e-4)
    with pytest.raises(InputError, match="measurement_noise"):
        LinearGaussianModel(
            [[1.0]], [[0.0]], [[1.0]], [[np.complex128(1.0 + 2.0j)]], 0.9, 0.9, 1e-4
        )


def test_noise_covariances_must_be_psd():
    """Q and R are checked at construction, so no step can fail on them later."""
    rank_one = np.ones((2, 2))  # PSD, singular; its eigvalsh may dip below 0 by rounding
    tiny = np.diag([1.0, -1e-18])  # Joseph-form rounding leaves values like this
    for good in (np.zeros((2, 2)), rank_one, tiny, 1e-300 * rank_one):
        model = LinearGaussianModel(np.eye(2), good, np.eye(2), good + np.eye(2), 0.9, 0.9, 1e-4)
        assert np.array_equal(model.process_noise, good)
    bad_matrices = (-np.eye(2), np.diag([1.0, -1e-6]), [[1.0, 2.0], [2.0, 1.0]])
    for bad in bad_matrices:
        with pytest.raises(InputError, match="process_noise must be positive semi-definite"):
            LinearGaussianModel(np.eye(2), bad, np.eye(2), np.eye(2), 0.9, 0.9, 1e-4)
        with pytest.raises(InputError, match="measurement_noise must be positive semi-definite"):
            LinearGaussianModel(np.eye(2), np.eye(2), np.eye(2), bad, 0.9, 0.9, 1e-4)
    # Q + Q' overflows: an InputError, not a RuntimeWarning or an inf in Q.
    with pytest.raises(InputError, match="process_noise overflows"):
        LinearGaussianModel([[1.0]], [[1e308]], [[1.0]], [[1.0]], 0.9, 0.9, 1e-4)


class TestKalmanUpdate:
    def test_uninformative_measurement_keeps_prior(self):
        prior = GaussianDensity([1.0, 2.0], [[2.0, 0.1], [0.1, 0.5]])
        model = LinearGaussianModel(
            np.eye(2), np.zeros((2, 2)), np.eye(2), 1e12 * np.eye(2), 1.0, 1.0, 1e-4
        )
        post, _ = kalman_update(prior, [100.0, -50.0], model)
        np.testing.assert_allclose(post.mean, prior.mean, rtol=1e-6)
        np.testing.assert_allclose(post.covariance, prior.covariance, rtol=1e-6)

    def test_scalar_bayes_product(self):
        post, loglik = kalman_update(GaussianDensity([0.0], [[1.0]]), [2.0], model_1d())
        np.testing.assert_allclose(post.mean, [1.0])
        np.testing.assert_allclose(post.covariance, [[0.5]])
        # predictive likelihood is N(2; 0, 2)
        expected = -0.5 * (np.log(2 * np.pi * 2.0) + 4.0 / 2.0)
        np.testing.assert_allclose(loglik, expected)

    def test_matches_grid_product_oracle_1d(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            mean = rng.normal(scale=3.0)
            var = rng.uniform(0.3, 4.0)
            h = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
            r = rng.uniform(0.3, 4.0)
            z = h * mean + rng.normal(scale=np.sqrt(h * h * var + r))
            model = model_1d(r=r, h=h)
            post, loglik = kalman_update(GaussianDensity([mean], [[var]]), [z], model)
            g_mean, g_var, g_log_ev = grid_posterior_1d(mean, var, h, r, z)
            assert abs(post.mean[0] - g_mean) < 1e-6
            assert abs(post.covariance[0, 0] - g_var) < 1e-6
            assert abs(loglik - g_log_ev) < 1e-6

    def test_matches_information_form_2d(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            prior_cov = random_spd(rng, 2)
            prior_mean = rng.normal(size=2)
            h_mat = rng.normal(size=(2, 2))
            r_mat = random_spd(rng, 2, scale=0.5)
            z = rng.normal(size=2)
            model = LinearGaussianModel(
                np.eye(2), np.zeros((2, 2)), h_mat, r_mat, 0.99, 0.9, 1e-4
            )
            post, loglik = kalman_update(GaussianDensity(prior_mean, prior_cov), z, model)
            o_mean, o_cov, o_log_ev = info_form_posterior(prior_mean, prior_cov, h_mat, r_mat, z)
            np.testing.assert_allclose(post.mean, o_mean, atol=1e-10)
            np.testing.assert_allclose(post.covariance, o_cov, atol=1e-10)
            np.testing.assert_allclose(loglik, o_log_ev, atol=1e-10)

    def test_posterior_covariance_dominated_by_prior(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            dim = rng.integers(1, 5)
            prior_cov = random_spd(rng, dim)
            h_mat = rng.normal(size=(dim, dim))
            model = LinearGaussianModel(
                np.eye(dim),
                np.zeros((dim, dim)),
                h_mat,
                random_spd(rng, dim, scale=0.3),
                0.99,
                0.9,
                1e-4,
            )
            post, _ = kalman_update(
                GaussianDensity(rng.normal(size=dim), prior_cov), rng.normal(size=dim), model
            )
            gap = prior_cov - post.covariance
            assert np.linalg.eigvalsh(gap).min() >= -1e-9
            assert np.linalg.eigvalsh(post.covariance).min() >= -1e-9

    def test_predictive_likelihood_integrates_to_one(self):
        model = model_1d(r=0.7, h=1.3)
        prior = GaussianDensity([0.5], [[2.0]])
        zs = np.linspace(-30, 30, 20001)
        liks = [np.exp(kalman_update(prior, [z], model)[1]) for z in zs]
        integral = np.trapezoid(liks, zs)
        assert abs(integral - 1.0) < 1e-4

    def test_singular_innovation_raises(self):
        model = LinearGaussianModel(
            np.eye(2), np.zeros((2, 2)), np.eye(2), np.zeros((2, 2)), 1.0, 1.0, 1e-4
        )
        prior = GaussianDensity([0.0, 0.0], np.zeros((2, 2)))
        with pytest.raises(NumericalError):
            kalman_update(prior, [0.0, 0.0], model)

    def test_measurement_dimension_checked(self):
        prior = GaussianDensity([0.0], [[1.0]])
        with pytest.raises(InputError):
            kalman_update(prior, [1.0, 2.0], model_1d())
        for z in ([np.nan], [np.inf], [-np.inf]):
            with pytest.raises(InputError, match="finite"):
                kalman_update(prior, z, model_1d())

    def test_posterior_takes_exactly_one_measurement(self):
        prepared = PreparedMeasurementUpdate(GaussianDensity([0.0], [[1.0]]), model_1d())
        for scan, got in (([], 0), (None, 0), ([[1.0], [2.0]], 2)):
            message = f"^a posterior needs exactly one measurement, got {got}$"
            with pytest.raises(InputError, match=message):
                prepared.posterior(scan)
        for z in (1.0, [1.0], [[1.0]]):  # one point, however it is written
            assert prepared.posterior(z).mean == pytest.approx([0.5])


def gate_statistic(prior, z, model):
    """(z - H x)' S^-1 (z - H x) of one prior and one measurement, as ``update`` gates."""
    factors = innovation_factors(prior.mean[None], prior.covariance[None], model)
    return float(gate(factors, np.atleast_2d(z))[0][0, 0])


class TestGatingStatistic:
    def test_zero_innovation(self):
        prior = GaussianDensity([1.0, 2.0], np.eye(2))
        model = LinearGaussianModel(
            np.eye(2), np.zeros((2, 2)), np.eye(2), np.eye(2), 1.0, 1.0, 1e-4
        )
        assert gate_statistic(prior, [1.0, 2.0], model) == 0.0

    def test_scalar_case(self):
        prior = GaussianDensity([0.0], [[0.0]])
        assert gate_statistic(prior, [3.0], model_1d()) == pytest.approx(9.0)

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(17)
        prior = GaussianDensity(rng.normal(size=4), random_spd(rng, 4))
        h_mat = rng.normal(size=(2, 4))
        r_mat = random_spd(rng, 2)
        z = rng.normal(size=2)
        base = LinearGaussianModel(np.eye(4), np.zeros((4, 4)), h_mat, r_mat, 0.99, 0.9, 1e-4)
        stat = gate_statistic(prior, z, base)
        for _ in range(20):
            q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
            rotated = LinearGaussianModel(
                np.eye(4), np.zeros((4, 4)), q @ h_mat, q @ r_mat @ q.T, 0.99, 0.9, 1e-4
            )
            assert gate_statistic(prior, q @ z, rotated) == pytest.approx(stat, rel=1e-9)


def scalar_planar_gate(mean, cov, zs, model):
    """One prior's gate with the closed-form planar Cholesky, one measurement at a time."""
    H = model.observation
    predicted = H @ mean
    S = H @ cov @ H.T + model.measurement_noise
    S = 0.5 * (S + S.T)
    a, b, c = S[0, 0], S[1, 0], S[1, 1]
    l11 = math.sqrt(a)
    l21 = b / l11
    pivot2 = c - l21 * l21
    l22 = math.sqrt(pivot2)
    log_det = float(np.sum(np.log(np.array([a, pivot2]))))
    maha, logliks = [], []
    for z in zs:
        w0 = (z[0] - predicted[0]) / l11
        w1 = ((z[1] - predicted[1]) - l21 * w0) / l22
        d2 = max(w0 * w0 + w1 * w1, 0.0)
        maha.append(d2)
        logliks.append(-0.5 * (2 * math.log(2.0 * math.pi) + log_det + d2))
    return np.array(maha), np.array(logliks)


def gate_statistics(means, covs, zs, model):
    return gate(innovation_factors(means, covs, model), zs)


def random_priors(rng, n, n_x):
    means = rng.normal(scale=100.0, size=(n, n_x))
    covs = np.array([random_spd(rng, n_x, scale=0.1) * rng.uniform(0.1, 50.0) for _ in range(n)])
    covs = 0.5 * (covs + covs.swapaxes(1, 2))
    return means, covs


def random_model(rng, n_x, n_z):
    return LinearGaussianModel(
        np.eye(n_x), np.zeros((n_x, n_x)), rng.normal(size=(n_z, n_x)),
        random_spd(rng, n_z, scale=0.3), 0.99, 0.9, 1e-4,
    )


def assert_bitwise(a, b):
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


class TestGateStatistics:
    def test_planar_matches_scalar_closed_form_bitwise(self):
        rng = np.random.default_rng(41)
        cv_observation = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
        for trial in range(40):
            model = random_model(rng, 4, 2)
            if trial % 2:
                model = LinearGaussianModel(
                    np.eye(4), np.zeros((4, 4)), cv_observation,
                    model.measurement_noise, 0.99, 0.9, 1e-4,
                )
            means, covs = random_priors(rng, int(rng.integers(1, 12)), 4)
            zs = rng.normal(scale=100.0, size=(int(rng.integers(1, 15)), 2))
            maha, logliks = gate_statistics(means, covs, zs, model)
            for i in range(len(means)):
                expected_maha, expected_logliks = scalar_planar_gate(means[i], covs[i], zs, model)
                assert_bitwise(maha[i], expected_maha)
                assert_bitwise(logliks[i], expected_logliks)

    @pytest.mark.parametrize("n_z", [1, 2, 3])
    def test_rows_independent_of_stack(self, n_z):
        rng = np.random.default_rng(43 + n_z)
        model = random_model(rng, 4, n_z)
        means, covs = random_priors(rng, 9, 4)
        zs = rng.normal(scale=10.0, size=(7, n_z))
        maha, logliks = gate_statistics(means, covs, zs, model)
        for i in range(len(means)):
            row_maha, row_logliks = gate_statistics(means[i : i + 1], covs[i : i + 1], zs, model)
            assert_bitwise(maha[i : i + 1], row_maha)
            assert_bitwise(logliks[i : i + 1], row_logliks)

    @pytest.mark.parametrize("n_z", [1, 3])
    def test_other_dimensions_match_reference(self, n_z):
        rng = np.random.default_rng(47 + n_z)
        for _ in range(10):
            model = random_model(rng, 4, n_z)
            means, covs = random_priors(rng, 5, 4)
            zs = rng.normal(scale=10.0, size=(6, n_z))
            maha, logliks = gate_statistics(means, covs, zs, model)
            H, R = model.observation, model.measurement_noise
            for i in range(len(means)):
                S = H @ covs[i] @ H.T + R
                diffs = zs - H @ means[i]
                expected = np.einsum("mi,mi->m", diffs, np.linalg.solve(S, diffs.T).T)
                np.testing.assert_allclose(maha[i], expected, rtol=1e-10, atol=1e-10)
                for j, z in enumerate(zs):
                    _, _, log_evidence = info_form_posterior(means[i], covs[i], H, R, z)
                    assert logliks[i, j] == pytest.approx(log_evidence, rel=1e-10, abs=1e-10)
                    assert logliks[i, j] == pytest.approx(
                        multivariate_normal.logpdf(z, mean=H @ means[i], cov=S),
                        rel=1e-10, abs=1e-10,
                    )

    @pytest.mark.parametrize(
        "corner, message",
        [(1.0, "not positive definite"), (1.0 + 1e-13, "numerically singular")],
    )
    def test_planar_second_pivot_checked(self, corner, message):
        # S = [[1, 1], [1, corner]] has a first pivot of 1 and a second of corner - 1.
        model = LinearGaussianModel(
            np.eye(2), np.zeros((2, 2)), np.eye(2), np.zeros((2, 2)), 0.99, 0.9, 1e-4
        )
        covs = np.array([np.eye(2), [[1.0, 1.0], [1.0, corner]]])
        with pytest.raises(NumericalError, match=message):
            innovation_factors(np.zeros((2, 2)), covs, model)

    @pytest.mark.parametrize("n_z", [2, 3])
    def test_overflowing_statistic_is_infinite(self, n_z):
        """A measurement so far that its squared whitened distance overflows is
        gated out with a +inf statistic, not a RuntimeWarning."""
        model = random_model(np.random.default_rng(59), 4, n_z)
        means, covs = random_priors(np.random.default_rng(61), 3, 4)
        zs = np.array([np.full(n_z, 1e200), np.r_[-1e300, np.full(n_z - 1, 5.0)], np.zeros(n_z)])
        maha, logliks = gate_statistics(means, covs, zs, model)
        assert (maha[:, :2] == np.inf).all() and (logliks[:, :2] == -np.inf).all()
        assert np.isfinite(maha[:, 2]).all() and np.isfinite(logliks[:, 2]).all()

    @pytest.mark.parametrize("n_z", [1, 2, 3])
    @pytest.mark.parametrize("bad", [0, 1, 2])
    def test_any_non_positive_definite_innovation_raises(self, n_z, bad):
        rng = np.random.default_rng(53)
        model = LinearGaussianModel(
            np.eye(4), np.zeros((4, 4)), rng.normal(size=(n_z, 4)), np.zeros((n_z, n_z)),
            0.99, 0.9, 1e-4,
        )
        means, covs = random_priors(rng, 3, 4)
        covs[bad] = 0.0
        with pytest.raises(NumericalError):
            gate_statistics(means, covs, np.zeros((2, n_z)), model)
        # the same stack without the degenerate prior gates fine
        keep = [i for i in range(3) if i != bad]
        maha, _ = gate_statistics(means[keep], covs[keep], np.zeros((2, n_z)), model)
        assert np.isfinite(maha).all()


def scalar_predict(mean, cov, model):
    """One prior's prediction, one matrix at a time."""
    F = model.transition
    P = F @ cov @ F.T + model.process_noise
    return F @ mean, 0.5 * (P + P.T)


def scalar_posterior(mean, cov, z, model):
    """One prior's Joseph-form Kalman posterior, one matrix at a time.

    The planar case factors S and inverts it in closed form, squaring the
    factor's entries as numpy scalar powers; other dimensions solve with the
    Cholesky factor and then with its transpose.
    """
    H, R = model.observation, model.measurement_noise
    S = H @ cov @ H.T + R
    S = 0.5 * (S + S.T)
    if len(S) == 2:
        l11 = np.sqrt(S[0, 0])
        l21 = S[1, 0] / l11
        l22 = np.sqrt(S[1, 1] - l21 * l21)
        a, b, c = l11**2, l21 * l11, l22**2 + l21**2
        gain = cov @ H.T @ (np.array([[c, -b], [-b, a]]) / (a * c - b * b))
    else:
        L = np.linalg.cholesky(S)
        gain = np.linalg.solve(L.T, np.linalg.solve(L, H @ cov)).T
    joseph = np.eye(len(mean)) - gain @ H
    P = joseph @ cov @ joseph.T + gain @ R @ gain.T
    return mean + gain @ (z - H @ mean), 0.5 * (P + P.T)


def random_dynamic_model(rng, n_z):
    return LinearGaussianModel(
        np.eye(4) + rng.normal(scale=0.3, size=(4, 4)), 0.01 * random_spd(rng, 4),
        rng.normal(size=(n_z, 4)), random_spd(rng, n_z, scale=0.3), 0.99, 0.9, 1e-4,
    )


class TestStackedKalman:
    @pytest.mark.parametrize("n_z", [1, 2, 3])
    def test_stack_matches_scalar_arithmetic_and_wrappers_bitwise(self, n_z):
        # The wrappers run stacks of one, so equal rows also show that a
        # row does not depend on the rest of its stack.
        # Squares by pow and by x * x differ in about 1 of 1,000 planar
        # factors; the stack of 2,000 makes such a difference show.
        rng = np.random.default_rng(59 + n_z)
        for size in [2000] + rng.integers(1, 12, size=24).tolist():
            model = random_dynamic_model(rng, n_z)
            means, covs = random_priors(rng, size, 4)
            zs = rng.normal(scale=100.0, size=(len(means), n_z))
            pred_means, pred_covs = predict_stack(means, covs, model)
            predicted, chol, _ = innovation_factors(pred_means, pred_covs, model)
            gains, post_covs = kalman_gains(pred_covs, chol, model)
            post_means = posterior_means(pred_means, predicted, gains, zs)
            for i in range(len(means)):
                mean, cov = scalar_predict(means[i], covs[i], model)
                prior = kalman_predict(GaussianDensity(means[i], covs[i]), model)
                for got in ((pred_means[i], pred_covs[i]), (prior.mean, prior.covariance)):
                    assert_bitwise(got[0], mean)
                    assert_bitwise(got[1], cov)
                mean, cov = scalar_posterior(mean, cov, zs[i], model)
                posterior = PreparedMeasurementUpdate(prior, model).posterior(zs[i])
                for got in ((post_means[i], post_covs[i]), (posterior.mean, posterior.covariance)):
                    assert_bitwise(got[0], mean)
                    assert_bitwise(got[1], cov)

    @pytest.mark.parametrize("n_z", [1, 3])
    def test_nonplanar_gains_match_cho_solve(self, n_z):
        rng = np.random.default_rng(83 + n_z)
        model = random_dynamic_model(rng, n_z)
        _, covs = random_priors(rng, 500, 4)
        _, chol, _ = innovation_factors(np.zeros((len(covs), 4)), covs, model)
        gains, _ = kalman_gains(covs, chol, model)
        H = model.observation
        expected = np.array([linalg.cho_solve((L, True), H @ P).T for L, P in zip(chol, covs)])
        np.testing.assert_allclose(gains, expected, rtol=0, atol=1e-12 * np.abs(expected).max())


def test_gaussian_density_symmetrizes_and_validates():
    d = GaussianDensity([0.0, 1.0], [[1.0, 0.2 + 1e-10], [0.2, 1.0]])
    np.testing.assert_allclose(d.covariance, d.covariance.T)
    with pytest.raises(InputError):
        GaussianDensity([0.0, 1.0], np.eye(3))
    with pytest.raises(InputError):
        GaussianDensity([[0.0, 1.0], [1.0, 0.0]], np.eye(2))
    bad_means = ([np.nan, 1.0], [0.0, np.inf], [0.0, 1.0j], np.zeros(2, dtype=complex))
    bad_covs = (
        [[np.nan, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, -np.inf]], [[1.0, 0.0], [0.0, 1.0j]],
        np.eye(2, dtype=complex), [[1e308, 0.0], [0.0, 1.0]],
    )
    for mean, cov in [(m, np.eye(2)) for m in bad_means] + [([0.0, 1.0], c) for c in bad_covs]:
        with pytest.raises(InputError):
            GaussianDensity(mean, cov)


def test_density_and_model_arrays_are_read_only_copies():
    """Each stored array is the checked one: no write reaches it, the caller's included."""
    mean, cov = np.zeros(2), np.eye(2)
    density = GaussianDensity(mean, cov)
    F, Q, H, R = np.eye(2), np.eye(2), np.eye(2)[:1], np.eye(1)
    model = LinearGaussianModel(F, Q, H, R, 0.99, 0.9, 1e-4)
    stored = {"mean": (density, mean), "covariance": (density, cov), "transition": (model, F),
              "process_noise": (model, Q), "observation": (model, H),
              "measurement_noise": (model, R)}
    for name, (owner, given) in stored.items():
        array = getattr(owner, name)
        with pytest.raises(ValueError, match="read-only"):
            array[0] = np.nan
        assert given.flags.writeable and not np.shares_memory(array, given), name
        before = array.copy()
        given[0] = np.nan
        assert_bitwise(getattr(owner, name), before)


def test_gaussian_density_covariance_must_be_psd():
    """A density refuses a non-PSD covariance, so no prediction or update can start from one."""
    with pytest.raises(InputError, match="^covariance must be positive semi-definite$"):
        GaussianDensity(np.zeros(4), -10 * np.eye(4))
    with pytest.raises(InputError, match="^covariance must be positive semi-definite$"):
        GaussianDensity([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
    for good in (np.zeros((2, 2)), np.diag([1.0, -1e-18]), [[1.0, 1.0], [1.0, 1.0]]):
        GaussianDensity([0.0, 0.0], good)
