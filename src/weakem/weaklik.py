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


def _log_slice(z_weak, z_center, hg: HalfGaussianParams):
    # the log_slice_likelihood formula, elementwise over arrays
    t = np.maximum(np.abs(z_weak - z_center) - hg.mu, 0.0)
    var = hg.sigma * hg.sigma
    return math.log(2.0) - 0.5 * math.log(2.0 * math.pi * var) - (t * t) / (2.0 * var)


def log_slice_likelihood(z_weak: float, box: NoduleBox, hg: HalfGaussianParams) -> float:
    """Log density of a reported slice under the truncated half-Gaussian.

    The offset |z_weak - z_center| is reduced by the plateau radius mu and
    clamped at zero, so every slice within mu of the center scores the
    maximum 2 / sqrt(2 pi sigma^2).
    """
    return float(_log_slice(float(z_weak), box.z, hg))


def slice_likelihood(z_weak: float, box: NoduleBox, hg: HalfGaussianParams) -> float:
    return math.exp(log_slice_likelihood(z_weak, box, hg))


def _lobe_rows(centers, lung_lo, lung_dims) -> np.ndarray:
    # lobe_feature of each row of box centers (n, 3)
    rel = (np.asarray(centers, dtype=np.float64) - lung_lo) / lung_dims
    return np.column_stack([rel, np.ones(len(rel))])


def _lobe_log_softmax(rows: np.ndarray, lp: LobeParams) -> np.ndarray:
    # log probability of each lobe for each feature row, shape (n, 6)
    scores = rows @ lp.theta.T
    m = scores.max(axis=1, keepdims=True)
    return scores - (m + np.log(np.exp(scores - m).sum(axis=1, keepdims=True)))


def lobe_feature(box: NoduleBox, volume: Volume) -> np.ndarray:
    """Box center relative to the lung box origin, normalized by the lung
    extent per axis, with a trailing 1 for the bias."""
    return _lobe_rows([box.center], volume.lung_lo, volume.lung_dims)[0]


def lobe_log_probs(box: NoduleBox, volume: Volume, lp: LobeParams) -> np.ndarray:
    """Log probability of each lobe id for one box, shape (6,)."""
    return _lobe_log_softmax(lobe_feature(box, volume)[None], lp)[0]


def weak_log_likelihood(z_weak, lobe, centers, volume: Volume, hg: HalfGaussianParams,
                        lp: LobeParams) -> np.ndarray:
    """Log slice likelihood plus log lobe likelihood, one value per row of
    box ``centers`` (n, 3). ``z_weak`` (reported slices) and ``lobe`` (lobe
    ids 1..6) are scalars or length-n arrays, one weak label per row."""
    centers = np.asarray(centers, dtype=np.float64).reshape(-1, 3)
    logp = _lobe_log_softmax(_lobe_rows(centers, volume.lung_lo, volume.lung_dims), lp)
    lobe_idx = np.broadcast_to(np.asarray(lobe, dtype=np.int64) - 1, (len(centers),))
    return (_log_slice(np.asarray(z_weak, dtype=np.float64), centers[:, 2], hg)
            + logp[np.arange(len(centers)), lobe_idx])


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


def lobe_batch(batch) -> tuple[np.ndarray, np.ndarray]:
    """The (lobe ids, lobe feature rows) of (lobe, box, volume) triples, the
    arrays ``lobe_rows_objective`` reads."""
    batch = list(batch)
    if not batch:
        raise ValueError("batch must be nonempty")
    lobes = np.array([lobe for lobe, _, _ in batch], dtype=np.int64)
    if lobes.min() < 1 or lobes.max() > LOBE_COUNT:
        raise ValueError(f"lobe must be in 1..{LOBE_COUNT}")
    return lobes, _lobe_rows([box.center for _, box, _ in batch],
                             np.array([v.lung_lo for _, _, v in batch], dtype=np.float64),
                             np.array([v.lung_dims for _, _, v in batch], dtype=np.float64))


def lobe_rows_objective(lobes: np.ndarray, rows: np.ndarray, lp: LobeParams):
    """``lobe_objective`` of the triples whose ``lobe_batch`` is (lobes,
    rows), so fixed triples are converted once."""
    logp = _lobe_log_softmax(rows, lp)
    picked = (np.arange(len(rows)), lobes - 1)
    resid = -np.exp(logp)
    resid[picked] += 1.0
    return -float(np.mean(logp[picked])), resid.T @ rows / len(rows)


def lobe_objective(batch, lp: LobeParams):
    """Mean negative log-likelihood of (lobe, box, volume) triples under the
    lobe softmax, and the gradient of the mean log-likelihood with respect
    to ``lp.theta`` (the ascent direction). Returns (nll, gradient)."""
    return lobe_rows_objective(*lobe_batch(batch), lp)


def lobe_fit_step(batch, lp: LobeParams, learning_rate: float):
    """One gradient-ascent step of the lobe softmax on (lobe, box, volume)
    triples. Returns (updated params, mean negative log-likelihood of the
    batch under the input params). Pure, the input params are untouched."""
    if learning_rate <= 0:
        raise ValueError("learning rate must be positive")
    nll, grad = lobe_objective(batch, lp)
    return LobeParams(lp.theta + learning_rate * grad), nll
