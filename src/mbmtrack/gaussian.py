"""Linear-Gaussian single-target machinery.

Kalman prediction and update, predictive log-likelihood, and the squared
Mahalanobis gating statistic.  All operations are pure functions over
immutable inputs; covariances are re-symmetrized after every operation and
the update uses the Joseph form so posteriors stay positive semi-definite.
"""
from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .errors import InputError, NumericalError

_LOG_2PI = math.log(2.0 * math.pi)
# Innovation covariance counts as singular when the smallest Cholesky pivot
# drops below this fraction of the largest.
_PIVOT_RTOL = 1e-12
# Stand-in for log(0) of a probability/intensity; keeps downstream cost
# arithmetic finite while still being astronomically unlikely.
_LOG_TINY = math.log(sys.float_info.min)


def _symmetrized(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.T)


def floor_log(value: float) -> float:
    """log(value) with exact zeros mapped to log(DBL_MIN) instead of -inf."""
    return math.log(value) if value > 0.0 else _LOG_TINY


@dataclass(frozen=True)
class GaussianDensity:
    """Gaussian state density N(mean, covariance).

    The covariance is symmetrized on construction, so every density built
    from arithmetic results satisfies the symmetry invariant by
    construction.
    """

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.asarray(self.covariance, dtype=float)
        if mean.ndim != 1:
            raise InputError("mean must be a one-dimensional vector")
        if cov.shape != (mean.size, mean.size):
            raise InputError(
                f"covariance shape {cov.shape} does not match state dimension {mean.size}"
            )
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", _symmetrized(cov))

    @property
    def dim(self) -> int:
        return self.mean.size


def _check_square(name: str, mat: np.ndarray, size: int) -> np.ndarray:
    mat = np.asarray(mat, dtype=float)
    if mat.shape != (size, size):
        raise InputError(f"{name} must be {size}x{size}, got {mat.shape}")
    return mat


@dataclass(frozen=True)
class LinearGaussianModel:
    """Constant-probability linear dynamic and measurement model.

    ``clutter_intensity`` is the clutter density at any point inside the
    surveillance region, i.e. expected clutter count per scan divided by the
    region area for uniform clutter.  A value of zero is accepted and treated
    as the no-clutter limit.
    """

    transition: np.ndarray
    process_noise: np.ndarray
    observation: np.ndarray
    measurement_noise: np.ndarray
    survival_prob: float
    detection_prob: float
    clutter_intensity: float

    def __post_init__(self):
        F = np.asarray(self.transition, dtype=float)
        if F.ndim != 2 or F.shape[0] != F.shape[1]:
            raise InputError("transition matrix must be square")
        n_x = F.shape[0]
        Q = _check_square("process_noise", self.process_noise, n_x)
        H = np.asarray(self.observation, dtype=float)
        if H.ndim != 2 or H.shape[1] != n_x:
            raise InputError(f"observation matrix must have {n_x} columns, got {H.shape}")
        n_z = H.shape[0]
        R = _check_square("measurement_noise", self.measurement_noise, n_z)
        if not 0.0 <= self.survival_prob <= 1.0:
            raise InputError("survival_prob must lie in [0, 1]")
        if not 0.0 <= self.detection_prob <= 1.0:
            raise InputError("detection_prob must lie in [0, 1]")
        if self.clutter_intensity < 0.0:
            raise InputError("clutter_intensity must be nonnegative")
        object.__setattr__(self, "transition", F)
        object.__setattr__(self, "process_noise", _symmetrized(Q))
        object.__setattr__(self, "observation", H)
        object.__setattr__(self, "measurement_noise", _symmetrized(R))

    @property
    def state_dim(self) -> int:
        return self.transition.shape[0]

    @property
    def meas_dim(self) -> int:
        return self.observation.shape[0]

    @property
    def log_clutter_intensity(self) -> float:
        return floor_log(self.clutter_intensity)

    def with_detection_prob(self, detection_prob: float) -> "LinearGaussianModel":
        return dataclasses.replace(self, detection_prob=detection_prob)


def _innovation_factors(
    means: np.ndarray, covariances: np.ndarray, model: LinearGaussianModel
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Factor S = H P H' + R for N priors.

    Returns predicted measurements (N, d), lower Cholesky factors (N, d, d)
    and log det S (N,); raises ``NumericalError`` unless every S is
    numerically positive definite.
    """
    H = model.observation
    predicted = (H @ means[:, :, None])[:, :, 0]
    S = H @ covariances @ H.T + model.measurement_noise
    S = 0.5 * (S + S.swapaxes(1, 2))
    # Closed-form Cholesky for the ubiquitous planar case; a general
    # factorization's overhead dominates at this size.  pivots[k] holds the
    # k-th squared diagonal entry of every factor.
    if model.meas_dim == 2:
        a, b, c = S[:, 0, 0], S[:, 1, 0], S[:, 1, 1]
        if (a <= 0.0).any():
            raise NumericalError("innovation covariance is not positive definite")
        l11 = np.sqrt(a)
        l21 = b / l11
        pivots = np.array([a, c - l21 * l21])
        if (pivots[1] <= 0.0).any():
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
    if (pivots.min(axis=0) < _PIVOT_RTOL * pivots.max(axis=0)).any():
        raise NumericalError("innovation covariance is numerically singular")
    return predicted, chol, np.log(pivots).sum(axis=0)


def _gate(predicted, chol, log_det, zs) -> tuple[np.ndarray, np.ndarray]:
    """(N, m) squared Mahalanobis distances and log N(z; H x, S) of m measurements."""
    diffs = zs - predicted[:, None, :]
    if chol.shape[1] == 2:
        w0 = diffs[:, :, 0] / chol[:, 0, 0, None]
        w1 = (diffs[:, :, 1] - chol[:, 1, 0, None] * w0) / chol[:, 1, 1, None]
        maha = w0 * w0 + w1 * w1
    else:
        white = np.linalg.solve(chol, diffs.swapaxes(1, 2))
        maha = np.sum(white * white, axis=1)
    maha = np.maximum(maha, 0.0)
    logliks = -0.5 * (chol.shape[1] * _LOG_2PI + log_det[:, None] + maha)
    return maha, logliks


def gate_statistics(
    means: np.ndarray, covariances: np.ndarray, zs: np.ndarray, model: LinearGaussianModel
) -> tuple[np.ndarray, np.ndarray]:
    """Gating statistics and predictive log-likelihoods for N priors and m measurements.

    ``means`` is (N, n_x), ``covariances`` (N, n_x, n_x) and ``zs`` (m, d).
    Returns two (N, m) arrays: (z - H x)' S^-1 (z - H x) and log N(z; H x, S).
    Row i depends only on prior i, bitwise.
    """
    return _gate(*_innovation_factors(means, covariances, model), zs)


class PreparedMeasurementUpdate:
    """Innovation geometry of one prior, factorized once.

    Caches the Cholesky factor of S = H P H' + R, the Kalman gain, and the
    (measurement-independent) Joseph-form posterior covariance so that
    gating, likelihood evaluation, and the mean update can be repeated
    cheaply across many measurements.
    """

    def __init__(self, prior: GaussianDensity, model: LinearGaussianModel):
        if prior.dim != model.state_dim:
            raise InputError(
                f"prior dimension {prior.dim} does not match model state dimension {model.state_dim}"
            )
        self.prior = prior
        self.meas_dim = model.meas_dim
        # Stacks of one, so gating shares ``gate_statistics``' arithmetic.
        self._predicted, self._chol, self._log_det = _innovation_factors(
            prior.mean[None], prior.covariance[None], model
        )
        self.predicted_measurement = self._predicted[0]
        self._observation = model.observation
        self._meas_noise = model.measurement_noise
        self._gain = None
        self._posterior_cov = None

    def _ensure_gain(self) -> None:
        # Gain and the (measurement-independent) Joseph posterior covariance
        # are only needed when an update actually happens.
        if self._gain is None:
            H = self._observation
            P = self.prior.covariance
            L = self._chol[0]
            # K = P H' S^-1, via S K' = H P
            if self.meas_dim == 2:
                a, b, c = L[0, 0] ** 2, L[1, 0] * L[0, 0], L[1, 1] ** 2 + L[1, 0] ** 2
                det = a * c - b * b
                s_inv = np.array([[c, -b], [-b, a]]) / det
                gain = P @ H.T @ s_inv
            else:
                gain = linalg.cho_solve((L, True), H @ P).T
            joseph = np.eye(self.prior.dim) - gain @ H
            self._gain = gain
            self._posterior_cov = _symmetrized(
                joseph @ P @ joseph.T + gain @ self._meas_noise @ gain.T
            )

    def _check_measurement(self, z) -> np.ndarray:
        z = np.atleast_1d(np.asarray(z, dtype=float))
        if z.shape != (self.meas_dim,):
            raise InputError(f"measurement must have dimension {self.meas_dim}, got {z.shape}")
        return z

    def gating_statistic(self, z) -> float:
        """Squared Mahalanobis distance of z from the predicted measurement."""
        return float(self.batch_statistics(self._check_measurement(z))[0][0])

    def update(self, z) -> tuple[GaussianDensity, float]:
        """Posterior density and predictive log-likelihood for measurement z."""
        posterior = self.posterior(z)
        return posterior, float(self.batch_statistics(z)[1][0])

    def posterior(self, z) -> GaussianDensity:
        """Posterior density only (likelihood already known from a batch)."""
        z = self._check_measurement(z)
        self._ensure_gain()
        mean = self.prior.mean + self._gain @ (z - self.predicted_measurement)
        return GaussianDensity(mean, self._posterior_cov)

    def batch_statistics(self, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gating statistics and log-likelihoods for a stack of measurements."""
        zs = np.asarray(zs, dtype=float).reshape(-1, self.meas_dim)
        maha, logliks = _gate(self._predicted, self._chol, self._log_det, zs)
        return maha[0], logliks[0]


def kalman_predict(prior: GaussianDensity, model: LinearGaussianModel) -> GaussianDensity:
    """One-step prediction: mean -> F mean, covariance -> F P F' + Q."""
    if prior.dim != model.state_dim:
        raise InputError(
            f"prior dimension {prior.dim} does not match model state dimension {model.state_dim}"
        )
    F = model.transition
    mean = F @ prior.mean
    cov = F @ prior.covariance @ F.T + model.process_noise
    return GaussianDensity(mean, cov)


def kalman_update(
    prior: GaussianDensity, z, model: LinearGaussianModel
) -> tuple[GaussianDensity, float]:
    """Measurement update returning the posterior and log N(z; H x, S)."""
    return PreparedMeasurementUpdate(prior, model).update(z)


def gating_statistic(prior: GaussianDensity, z, model: LinearGaussianModel) -> float:
    """(z - H x)' S^-1 (z - H x) with S = H P H' + R."""
    return PreparedMeasurementUpdate(prior, model).gating_statistic(z)
