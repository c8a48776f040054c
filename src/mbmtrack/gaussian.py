"""Linear-Gaussian single-target machinery.

Kalman prediction and update, predictive log-likelihood, and the squared
Mahalanobis gating statistic, each stacked over N densities; the
single-density functions and ``PreparedMeasurementUpdate`` run stacks of one.
All operations are pure functions over immutable inputs; covariances are
re-symmetrized after every operation and the update uses the Joseph form so
posteriors stay positive semi-definite.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError, finite_array, real_array, real_number

_LOG_2PI = math.log(2.0 * math.pi)
# Innovation covariance counts as singular when the smallest Cholesky pivot
# drops below this fraction of the largest.
_PIVOT_RTOL = 1e-12
# Stand-in for log(0) of a probability/intensity; keeps downstream cost
# arithmetic finite while still being astronomically unlikely.
_LOG_TINY = math.log(sys.float_info.min)
# A caller's covariance may have eigenvalues this far below zero, relative to
# its largest magnitude, from rounding alone.
_PSD_RTOL = 1e-10


def _symmetrized(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.swapaxes(-1, -2))


def _covariance(values, what: str, n: int) -> np.ndarray:
    """A caller's finite (n, n) covariance, symmetrized without overflow, then checked
    positive semi-definite (negative eigenvalues within rounding of zero pass); read-only."""
    with np.errstate(over="raise"):
        try:
            cov = _symmetrized(finite_array(values, what, (n, n)))
        except FloatingPointError:
            raise InputError(f"{what} overflows when symmetrized") from None
    eigenvalues = np.linalg.eigvalsh(cov)
    if eigenvalues.size and eigenvalues[0] < -_PSD_RTOL * np.abs(eigenvalues).max():
        raise InputError(f"{what} must be positive semi-definite")
    cov.flags.writeable = False
    return cov


def floor_log(value: float) -> float:
    """log(value) with exact zeros mapped to log(DBL_MIN) instead of -inf."""
    return math.log(value) if value > 0.0 else _LOG_TINY


@dataclass(frozen=True)
class GaussianDensity:
    """Gaussian state density N(mean, covariance).

    The covariance is symmetrized and checked positive semi-definite on
    construction, and both arrays are read-only copies, so every density, a
    filter result or a caller's prior or birth, keeps both invariants.
    """

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(finite_array(self.mean, "mean"))
        if mean.ndim != 1:
            raise InputError("mean must be a one-dimensional vector")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", _covariance(self.covariance, "covariance", mean.size))

    @property
    def dim(self) -> int:
        return self.mean.size


@dataclass(frozen=True)
class LinearGaussianModel:
    """Constant-probability linear dynamic and measurement model.

    ``clutter_intensity`` is the clutter density at any point inside the
    surveillance region, i.e. expected clutter count per scan divided by the
    region area for uniform clutter.  A value of zero is accepted and treated
    as the no-clutter limit.  The process and measurement noise must be
    positive semi-definite.
    """

    transition: np.ndarray
    process_noise: np.ndarray
    observation: np.ndarray
    measurement_noise: np.ndarray
    survival_prob: float
    detection_prob: float
    clutter_intensity: float

    def __post_init__(self):
        F = finite_array(self.transition, "transition")
        if F.ndim != 2 or F.shape[0] != F.shape[1]:
            raise InputError("transition matrix must be square")
        n_x = F.shape[0]
        Q = _covariance(self.process_noise, "process_noise", n_x)
        H = finite_array(self.observation, "observation")
        if H.ndim != 2 or H.shape[1] != n_x:
            raise InputError(f"observation matrix must have {n_x} columns, got {H.shape}")
        R = _covariance(self.measurement_noise, "measurement_noise", H.shape[0])
        for name, interval in (("survival_prob", "[0, 1]"), ("detection_prob", "[0, 1]"),
                               ("clutter_intensity", "[0, inf)")):
            object.__setattr__(self, name, real_number(getattr(self, name), name, interval))
        object.__setattr__(self, "transition", F)
        object.__setattr__(self, "process_noise", Q)
        object.__setattr__(self, "observation", H)
        object.__setattr__(self, "measurement_noise", R)

    @property
    def state_dim(self) -> int:
        return self.transition.shape[0]

    @property
    def meas_dim(self) -> int:
        return self.observation.shape[0]

    @property
    def log_clutter_intensity(self) -> float:
        return floor_log(self.clutter_intensity)


def _as_measurement_block(measurements, meas_dim: int, what: str = "measurements") -> np.ndarray:
    """A scan as a finite (points, meas_dim) block, else InputError naming ``what``: the one
    scan rule, for ``mbm.update``, ``PreparedMeasurementUpdate`` and the measurement-file
    reader.  No scan (None) and an empty one are (0, meas_dim); a flat vector is one point."""
    try:
        block = real_array(() if measurements is None else measurements, what)
    except InputError as exc:  # numpy refuses a ragged scan with a ValueError
        ragged = isinstance(exc.__cause__, ValueError)
        raise InputError(f"{what} have inconsistent dimensions") if ragged else exc
    if block.size == 0:
        return np.zeros((0, meas_dim))
    block = np.atleast_2d(block)
    if block.ndim != 2 or block.shape[1] != meas_dim:
        got = "x".join(map(str, block.shape[1:]))
        raise InputError(f"{what} must have {meas_dim} coordinates, got {got}")
    if not np.logical_and.reduce(np.isfinite(block), axis=None):
        raise InputError(f"{what} must be finite")
    return block


def predict_stack(
    means: np.ndarray, covariances: np.ndarray, model: LinearGaussianModel
) -> tuple[np.ndarray, np.ndarray]:
    """One-step prediction of N densities: means (N, n_x) -> F x, covariances -> F P F' + Q."""
    F = model.transition
    covs = F @ covariances @ F.T + model.process_noise
    return (F @ means[:, :, None])[:, :, 0], _symmetrized(covs)


def innovation_factors(
    means: np.ndarray, covariances: np.ndarray, model: LinearGaussianModel
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Factor S = H P H' + R for N priors: means (N, n_x), covariances (N, n_x, n_x).

    Returns predicted measurements (N, d), lower Cholesky factors (N, d, d)
    and log det S (N,); raises ``NumericalError`` unless every S is
    numerically positive definite.
    """
    H = model.observation
    predicted = (H @ means[:, :, None])[:, :, 0]
    S = _symmetrized(H @ covariances @ H.T + model.measurement_noise)
    # Closed-form Cholesky for the ubiquitous planar case; a general
    # factorization's overhead dominates at this size.  pivots[k] holds the
    # k-th squared diagonal entry of every factor.
    if model.meas_dim == 2:
        a, b, c = S[:, 0, 0], S[:, 1, 0], S[:, 1, 1]
        if np.logical_or.reduce(a <= 0.0):
            raise NumericalError("innovation covariance is not positive definite")
        l11 = np.sqrt(a)
        l21 = b / l11
        pivots = np.array([a, c - l21 * l21])
        if np.logical_or.reduce(pivots[1] <= 0.0):
            raise NumericalError("innovation covariance is not positive definite")
        chol = np.zeros(S.shape)
        chol[:, 0, 0], chol[:, 1, 0], chol[:, 1, 1] = l11, l21, np.sqrt(pivots[1])
    else:
        try:
            chol = np.linalg.cholesky(S)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"innovation covariance is not positive definite: {exc}"
            ) from exc
        pivots = np.diagonal(chol, axis1=1, axis2=2).T ** 2
    if np.logical_or.reduce(np.minimum.reduce(pivots) < _PIVOT_RTOL * np.maximum.reduce(pivots)):
        raise NumericalError("innovation covariance is numerically singular")
    return predicted, chol, np.log(pivots).sum(axis=0)


def gate(factors, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gating statistics and predictive log-likelihoods of N priors for m measurements.

    ``factors`` is what ``innovation_factors`` returns for the priors and
    ``zs`` is (m, d).  Returns two (N, m) arrays: (z - H x)' S^-1 (z - H x)
    and log N(z; H x, S).  Row i depends only on prior i, bitwise.  A
    statistic that overflows is +inf, so its pair is gated out.
    """
    predicted, chol, log_det = factors
    diffs = zs - predicted[:, None, :]
    with np.errstate(over="ignore"):
        if chol.shape[1] == 2:
            w0 = diffs[:, :, 0] / chol[:, 0, 0, None]
            w1 = (diffs[:, :, 1] - chol[:, 1, 0, None] * w0) / chol[:, 1, 1, None]
            maha = w0 * w0 + w1 * w1
        else:
            white = np.linalg.solve(chol, diffs.swapaxes(1, 2))
            maha = np.sum(white * white, axis=1)
    logliks = -0.5 * (chol.shape[1] * _LOG_2PI + log_det[:, None] + maha)
    return maha, logliks


def kalman_gains(
    covariances: np.ndarray, chol: np.ndarray, model: LinearGaussianModel
) -> tuple[np.ndarray, np.ndarray]:
    """Kalman gains (N, n_x, d) and Joseph-form posterior covariances of N priors.

    ``chol`` holds the priors' factors of S from ``innovation_factors``.
    """
    H, R = model.observation, model.measurement_noise
    if model.meas_dim == 2:
        # K = P H' S^-1 with S^-1 in closed form.  float_power squares with
        # the C library's pow, which differs from x * x in the last bit for
        # some x; the filter's outputs are fixed to pow's rounding.
        l11, l21, l22 = chol[:, 0, 0], chol[:, 1, 0], chol[:, 1, 1]
        a, b = np.float_power(l11, 2), l21 * l11
        c = np.float_power(l22, 2) + np.float_power(l21, 2)
        s_inv = np.empty(chol.shape)
        s_inv[:, 0, 0], s_inv[:, 0, 1], s_inv[:, 1, 0], s_inv[:, 1, 1] = c, -b, -b, a
        s_inv /= (a * c - b * b)[:, None, None]
        gains = covariances @ H.T @ s_inv
    else:
        # K = P H' S^-1, via L L' K' = H P: one stacked solve per factor.
        half = np.linalg.solve(chol, H @ covariances)
        gains = np.linalg.solve(chol.swapaxes(1, 2), half).swapaxes(1, 2)
    joseph = np.eye(H.shape[1]) - gains @ H
    covs = joseph @ covariances @ joseph.swapaxes(1, 2) + gains @ R @ gains.swapaxes(1, 2)
    return gains, _symmetrized(covs)


def posterior_means(
    means: np.ndarray, predicted: np.ndarray, gains: np.ndarray, zs: np.ndarray
) -> np.ndarray:
    """x + K (z - H x) for N (prior, measurement) pairs, row by row."""
    return means + (gains @ (zs - predicted)[:, :, None])[:, :, 0]


def _check_prior(prior: GaussianDensity, model: LinearGaussianModel) -> None:
    if prior.dim != model.state_dim:
        raise InputError(
            f"prior dimension {prior.dim} does not match model state dimension {model.state_dim}"
        )


class PreparedMeasurementUpdate:
    """One prior's factor of S = H P H' + R, Kalman gain and posterior covariance.

    The Joseph-form posterior covariance does not depend on the measurement,
    so all three serve any number of measurements.
    """

    def __init__(self, prior: GaussianDensity, model: LinearGaussianModel):
        _check_prior(prior, model)
        self.prior = prior
        self.meas_dim = model.meas_dim
        self._factors = innovation_factors(prior.mean[None], prior.covariance[None], model)
        self._gains, covs = kalman_gains(prior.covariance[None], self._factors[1], model)
        self._posterior_cov = covs[0]

    def posterior(self, z) -> GaussianDensity:
        """Posterior density for a scan of exactly one measurement z."""
        zs = _as_measurement_block(z, self.meas_dim)
        if len(zs) != 1:
            raise InputError(f"a posterior needs exactly one measurement, got {len(zs)}")
        mean = posterior_means(self.prior.mean[None], self._factors[0], self._gains, zs)
        return GaussianDensity(mean[0], self._posterior_cov)

    def batch_statistics(self, zs) -> tuple[np.ndarray, np.ndarray]:
        """Gating statistics and log-likelihoods for a scan of measurements."""
        maha, logliks = gate(self._factors, _as_measurement_block(zs, self.meas_dim))
        return maha[0], logliks[0]


def kalman_predict(prior: GaussianDensity, model: LinearGaussianModel) -> GaussianDensity:
    """One-step prediction: mean -> F mean, covariance -> F P F' + Q."""
    _check_prior(prior, model)
    means, covs = predict_stack(prior.mean[None], prior.covariance[None], model)
    return GaussianDensity(means[0], covs[0])


def kalman_update(
    prior: GaussianDensity, z, model: LinearGaussianModel
) -> tuple[GaussianDensity, float]:
    """Measurement update returning the posterior and log N(z; H x, S)."""
    prepared = PreparedMeasurementUpdate(prior, model)
    return prepared.posterior(z), float(prepared.batch_statistics(z)[1][0])

