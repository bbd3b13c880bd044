"""Likelihood of weak labels given a candidate nodule box.

Two independent pieces: a truncated half-Gaussian over the reported central
slice, flat within ``mu`` voxels of the box center so that any slice inside
the nodule is equally plausible, and a softmax model over the six lung
lobes driven by the normalized box center.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .synthvol import LOBE_COUNT, NoduleBox, Volume

# normalized center coordinates plus a constant bias term
LOBE_FEATURES = 4

# slice offsets up to the smallest plausible nodule radius are uninformative
DEFAULT_MU = 1.63

DEFAULT_SIGMA_FLOOR = 0.5


@dataclass(frozen=True)
class HalfGaussianParams:
    """Scale and plateau radius of the reported-slice noise model."""

    sigma: float
    mu: float = DEFAULT_MU

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")
        if self.mu < 0:
            raise ValueError("mu must be nonnegative")


@dataclass
class LobeParams:
    """Softmax weights over the six lobes, shape (6, LOBE_FEATURES)."""

    theta: np.ndarray

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=np.float64).copy()
        if self.theta.shape != (LOBE_COUNT, LOBE_FEATURES):
            raise ValueError(f"theta must have shape {(LOBE_COUNT, LOBE_FEATURES)}")
        if not np.all(np.isfinite(self.theta)):
            raise ValueError("theta must be finite")


def init_lobe_params() -> LobeParams:
    """Zero weights: every lobe starts at probability exactly 1/6."""
    return LobeParams(np.zeros((LOBE_COUNT, LOBE_FEATURES)))


def log_slice_likelihood(z_weak: float, box: NoduleBox, hg: HalfGaussianParams) -> float:
    """Log density of a reported slice under the truncated half-Gaussian.

    The offset |z_weak - z_center| is reduced by the plateau radius mu and
    clamped at zero, so every slice within mu of the center scores the
    maximum 2 / sqrt(2 pi sigma^2).
    """
    t = max(abs(float(z_weak) - box.z) - hg.mu, 0.0)
    var = hg.sigma * hg.sigma
    return math.log(2.0) - 0.5 * math.log(2.0 * math.pi * var) - (t * t) / (2.0 * var)


def slice_likelihood(z_weak: float, box: NoduleBox, hg: HalfGaussianParams) -> float:
    return math.exp(log_slice_likelihood(z_weak, box, hg))


def lobe_feature(box: NoduleBox, volume: Volume) -> np.ndarray:
    """Box center relative to the lung box origin, normalized by the lung
    extent per axis, with a trailing 1 for the bias."""
    lo = volume.lung_lo
    dims = volume.lung_dims
    return np.array([
        (box.x - lo[0]) / dims[0],
        (box.y - lo[1]) / dims[1],
        (box.z - lo[2]) / dims[2],
        1.0,
    ], dtype=np.float64)


def lobe_log_probs(box: NoduleBox, volume: Volume, lp: LobeParams) -> np.ndarray:
    """Log probability of each lobe id for one box, shape (6,)."""
    scores = lp.theta @ lobe_feature(box, volume)
    m = float(scores.max())
    return scores - (m + math.log(float(np.exp(scores - m).sum())))


def lobe_likelihood(lobe: int, box: NoduleBox, volume: Volume, lp: LobeParams) -> float:
    """Softmax probability that the box sits in the given lobe (1..6)."""
    if not 1 <= lobe <= LOBE_COUNT:
        raise ValueError(f"lobe must be in 1..{LOBE_COUNT}")
    scores = lp.theta @ lobe_feature(box, volume)
    w = np.exp(scores - scores.max())
    return float(w[lobe - 1] / w.sum())


def fit_sigma(pairs, mu: float = DEFAULT_MU,
              sigma_floor: float = DEFAULT_SIGMA_FLOOR) -> HalfGaussianParams:
    """Maximum-likelihood sigma from (reported slice, true box) pairs.

    With t_i = max(|z_i - z_center_i| - mu, 0) the estimate is
    sigma^2 = mean(t_i^2). Degenerate samples (every slice on its plateau)
    would give sigma = 0, so the result is clamped at ``sigma_floor``.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("need at least one (slice, box) pair")
    if mu < 0 or sigma_floor <= 0:
        raise ValueError("mu must be nonnegative and sigma_floor positive")
    t = np.array([max(abs(float(z) - box.z) - mu, 0.0) for z, box in pairs])
    sigma = float(np.sqrt(np.mean(t * t)))
    return HalfGaussianParams(sigma=max(sigma, sigma_floor), mu=mu)


def lobe_objective(batch, lp: LobeParams):
    """Mean negative log-likelihood of (lobe, box, volume) triples under the
    lobe softmax, and the gradient of the mean log-likelihood with respect
    to ``lp.theta`` (the ascent direction). Returns (nll, gradient)."""
    batch = list(batch)
    if not batch:
        raise ValueError("batch must be nonempty")
    grad = np.zeros_like(lp.theta)
    nll = 0.0
    inv = 1.0 / len(batch)
    for lobe, box, volume in batch:
        if not 1 <= lobe <= LOBE_COUNT:
            raise ValueError(f"lobe must be in 1..{LOBE_COUNT}")
        feats = lobe_feature(box, volume)
        logp = lobe_log_probs(box, volume, lp)
        nll -= float(logp[lobe - 1]) * inv
        resid = -np.exp(logp)
        resid[lobe - 1] += 1.0
        grad += inv * np.outer(resid, feats)
    return nll, grad


def lobe_fit_step(batch, lp: LobeParams, learning_rate: float):
    """One gradient-ascent step of the lobe softmax on (lobe, box, volume)
    triples. Returns (updated params, mean negative log-likelihood of the
    batch under the input params). Pure, the input params are untouched."""
    if learning_rate <= 0:
        raise ValueError("learning rate must be positive")
    nll, grad = lobe_objective(batch, lp)
    return LobeParams(lp.theta + learning_rate * grad), nll
