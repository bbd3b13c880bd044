"""Anchor-grid nodule proposals scored by a linear model on window statistics.

The scorer replaces a convolutional network at desk scale while keeping the
same external behavior: every anchor box gets a logit, sigmoid(logit) is the
nodule probability, and training is stochastic gradient descent on the
standard positive/negative cross-entropy objective with an exact analytic
gradient.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .synthvol import NoduleBox, Volume

N_FEATURES = 8


def sigmoid(x):
    """Numerically stable logistic function for scalars or arrays."""
    arr = np.asarray(x, dtype=np.float64)
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    ex = np.exp(arr[~pos])
    out[~pos] = ex / (1.0 + ex)
    return float(out) if out.ndim == 0 else out


def log_sigmoid(x):
    return -np.logaddexp(0.0, -np.asarray(x, dtype=np.float64))


@dataclass(frozen=True)
class Proposal:
    """One scored candidate box from the anchor grid."""

    box: NoduleBox
    logit: float
    anchor_id: int

    @property
    def probability(self) -> float:
        return float(sigmoid(self.logit))


@dataclass
class DetectorParams:
    """Linear scorer parameters: N_FEATURES shared feature weights followed
    by one bias per anchor scale. ``scales`` are the anchor diameters."""

    weights: np.ndarray
    scales: tuple[float, ...]

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64).copy()
        self.scales = tuple(float(s) for s in self.scales)
        if not self.scales or any(s <= 0 for s in self.scales):
            raise ValueError("scales must be a nonempty tuple of positive diameters")
        if self.weights.shape != (N_FEATURES + len(self.scales),):
            raise ValueError(
                f"weights must have length {N_FEATURES + len(self.scales)}, "
                f"got {self.weights.shape}")
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("weights must be finite")

    def to_dict(self) -> dict:
        return {"weights": self.weights.tolist(), "scales": list(self.scales)}

    @classmethod
    def from_dict(cls, d: dict) -> "DetectorParams":
        return cls(np.asarray(d["weights"], dtype=np.float64), tuple(d["scales"]))


def init_detector(scales) -> DetectorParams:
    """Zero-initialized scorer: every box starts at probability 0.5."""
    scales = tuple(float(s) for s in scales)
    return DetectorParams(np.zeros(N_FEATURES + len(scales)), scales)


def _tables(voxels: np.ndarray) -> np.ndarray:
    # zero-padded summed-volume tables of value and squared value, stacked
    # as one (2, nx + 1, ny + 1, nz + 1) float64 array: both are written into
    # its interior and summed in place along each axis. Accumulation runs in
    # index order, so each equals the chain v.cumsum(0).cumsum(1).cumsum(2)
    # bit for bit. Built per use and never cached: 4.4 MB at 64^3
    tables = np.zeros((2,) + tuple(n + 1 for n in voxels.shape))
    inner = tables[:, 1:, 1:, 1:]
    inner[0] = voxels
    np.multiply(inner[0], inner[0], out=inner[1])
    for axis in (1, 2, 3):
        np.cumsum(inner, axis=axis, out=inner)
    return tables


def _window_sum(sat, x0, x1, y0, y1, z0, z1):
    # inclusion-exclusion over the padded table(s) ``sat`` (the last three
    # axes); bounds are half-open
    return (sat[..., x1, y1, z1] - sat[..., x0, y1, z1] - sat[..., x1, y0, z1]
            - sat[..., x1, y1, z0] + sat[..., x0, y0, z1] + sat[..., x0, y1, z0]
            + sat[..., x1, y0, z0] - sat[..., x0, y0, z0])


def _axis_bounds(center, half: float, shape) -> tuple:
    # voxel centers within [c - half, c + half] per axis, clipped to the grid
    out = []
    for c, size in zip(center, shape):
        lo = max(int(math.ceil(c - half)), 0)
        hi = min(int(math.floor(c + half)) + 1, size)
        out.append((lo, hi))
    return tuple(out)


def extract_features(volume: Volume, box: NoduleBox) -> np.ndarray:
    """Fixed-length descriptor of one box.

    Components: mean, max, and std of intensity over voxel centers inside
    the cube; ring contrast (inside mean minus the mean over the side-2d
    shell); center coordinates normalized by the grid shape; log diameter.
    Purely a function of (volume, box). Builds the volume's summed-volume
    tables for this one box; ``box_examples`` builds them once for many
    boxes, and anchor boxes have these features precomputed in the anchor
    grid, equal bit for bit.
    """
    return _box_features(volume, _tables(volume.voxels), box)


def _box_features(volume: Volume, tables: np.ndarray, box: NoduleBox) -> np.ndarray:
    # extract_features of one box, from the volume's _tables
    shape = volume.shape
    (x0, x1), (y0, y1), (z0, z1) = _axis_bounds(box.center, box.radius, shape)
    if x0 >= x1 or y0 >= y1 or z0 >= z1:
        raise ValueError("box does not cover any voxel center inside the grid")
    (X0, X1), (Y0, Y1), (Z0, Z1) = _axis_bounds(box.center, box.diameter, shape)
    n_in = (x1 - x0) * (y1 - y0) * (z1 - z0)
    s_in, q_in = _window_sum(tables, x0, x1, y0, y1, z0, z1)
    mean_in = s_in / n_in
    std_in = math.sqrt(max(q_in / n_in - mean_in * mean_in, 0.0))
    max_in = float(volume.voxels[x0:x1, y0:y1, z0:z1].max())
    n_out = (X1 - X0) * (Y1 - Y0) * (Z1 - Z0)
    s_out = _window_sum(tables[0], X0, X1, Y0, Y1, Z0, Z1)
    n_shell = n_out - n_in
    shell_mean = (s_out - s_in) / n_shell if n_shell > 0 else mean_in
    return np.array([
        mean_in,
        max_in,
        std_in,
        mean_in - shell_mean,
        box.x / shape[0],
        box.y / shape[1],
        box.z / shape[2],
        math.log(box.diameter),
    ], dtype=np.float64)


def _lung_axes(lung_lo, lung_hi, stride: int) -> list[np.ndarray]:
    # the anchor lattice of a lung box, one coordinate array per axis
    if stride < 1:
        raise ValueError("stride must be at least 1")
    return [np.arange(lo, hi, stride) for lo, hi in zip(lung_lo, lung_hi)]


def _lung_points(lung_lo, lung_hi, stride: int) -> np.ndarray:
    # anchor_points of a lung box
    grid = np.meshgrid(*_lung_axes(lung_lo, lung_hi, stride), indexing="ij")
    return np.stack([g.ravel() for g in grid], axis=1).astype(np.int64)


def anchor_points(volume: Volume, stride: int) -> np.ndarray:
    """Integer anchor centers on a stride grid over the lung region,
    in ascending (x, y, z) lexicographic order. Shape (n, 3)."""
    return _lung_points(volume.lung_lo, volume.lung_hi, stride)


@functools.lru_cache(maxsize=4)
def anchor_geometry(lung_lo, lung_hi, stride: int, scales) -> tuple[np.ndarray, np.ndarray]:
    """Centers (A, 3) and diameters (A,) of the anchor boxes over a lung box,
    indexed by anchor_id: anchor ``i`` is ``anchor_points`` row
    ``i // n_scales`` at scale ``i % n_scales``. Geometry only, so cached
    per (lung box, stride, scales) as read-only arrays that every anchor
    grid and conflict list over that lung box shares."""
    pts = _lung_points(lung_lo, lung_hi, stride)
    centers = np.repeat(pts, len(scales), axis=0).astype(np.float64)
    diameters = np.tile(np.asarray(scales, dtype=np.float64), len(pts))
    centers.flags.writeable = diameters.flags.writeable = False
    return centers, diameters


def _lattice_max(voxels: np.ndarray, axes, reach: int) -> np.ndarray:
    # max over the cube of side 2 reach + 1 about each point of the lattice
    # axes[0] x axes[1] x axes[2], clipped to the grid, shape (nx, ny, nz):
    # per axis, one gather of each lattice coordinate's window and a max over
    # it. A window index clipped to the grid edge lands on a voxel inside the
    # clipped window, and max is exact, so this equals a full-volume
    # maximum_filter (mode "constant", cval -inf) read on the lattice bit for
    # bit, in the voxels' dtype
    out = voxels
    window = np.arange(-reach, reach + 1)
    for axis, ax in enumerate(axes):
        idx = np.clip(ax[:, None] + window, 0, voxels.shape[axis] - 1)
        out = np.take(out, idx, axis=axis).max(axis=axis + 1)
    return out


def _batch_features(volume: Volume, tables: np.ndarray, axes, pts: np.ndarray, scale: float,
                    out: np.ndarray) -> None:
    # same statistics as extract_features, from the volume's _tables, for
    # all points ``pts`` of the lattice ``axes`` at one scale, written into
    # the (n points, N_FEATURES) array ``out``
    shape = volume.shape
    a_in = int(math.floor(scale / 2.0))
    a_out = int(math.floor(scale))

    def sums(table, reach):
        lo = np.clip(pts - reach, 0, None)
        hi = np.minimum(pts + reach + 1, np.asarray(shape))
        count = np.prod(hi - lo, axis=1)
        total = _window_sum(table, lo[:, 0], hi[:, 0], lo[:, 1], hi[:, 1], lo[:, 2], hi[:, 2])
        return count, total

    n_in, (s_in, q_in) = sums(tables, a_in)
    n_out, s_out = sums(tables[0], a_out)
    mean_in = s_in / n_in
    out[:, 0] = mean_in
    out[:, 1] = _lattice_max(volume.voxels, axes, a_in).ravel()
    out[:, 2] = np.sqrt(np.maximum(q_in / n_in - mean_in * mean_in, 0.0))
    n_shell = n_out - n_in
    shell_mean = np.where(n_shell > 0, (s_out - s_in) / np.maximum(n_shell, 1), mean_in)
    out[:, 3] = mean_in - shell_mean
    out[:, 4] = pts[:, 0] / shape[0]
    out[:, 5] = pts[:, 1] / shape[1]
    out[:, 6] = pts[:, 2] / shape[2]
    out[:, 7] = math.log(scale)


class AnchorGrid(NamedTuple):
    """The anchor boxes of one (volume, stride, scales). Anchor ``i`` is grid
    point ``i // n_scales`` at scale ``i % n_scales``; ``centers`` (A, 3) and
    ``diameters`` (A,) are indexed by anchor_id and shared by every grid over
    the same lung box (``anchor_geometry``); ``features`` is indexed by
    (scale, point), so each scale's (points, N_FEATURES) matrix is
    contiguous."""

    centers: np.ndarray
    diameters: np.ndarray
    features: np.ndarray

    def box(self, anchor_id: int) -> NoduleBox:
        return NoduleBox(*self.centers[anchor_id].tolist(),
                         float(self.diameters[anchor_id]))


def _anchor_grid(volume: Volume, stride: int, scales) -> AnchorGrid:
    # params-independent, so computed once per (volume, stride, scales) and
    # cached on the volume; the summed-volume tables live for the build only
    key = ("grid", stride, scales)
    grid = volume._cache.get(key)
    if grid is None:
        axes = _lung_axes(volume.lung_lo, volume.lung_hi, stride)
        pts = anchor_points(volume, stride)
        tables = _tables(volume.voxels)
        feats = np.empty((len(scales), len(pts), N_FEATURES), dtype=np.float64)
        for j, scale in enumerate(scales):
            _batch_features(volume, tables, axes, pts, scale, feats[j])
        grid = AnchorGrid(*anchor_geometry(volume.lung_lo, volume.lung_hi, stride, scales),
                          feats)
        volume._cache[key] = grid
    return grid


def _scale_logits(features: np.ndarray, weights: np.ndarray) -> np.ndarray:
    # (points, n scales) logits of per-scale feature matrices (n scales,
    # points, N_FEATURES): one matrix-vector product per scale
    logits = np.empty((features.shape[1], len(features)), dtype=np.float64)
    for j in range(len(features)):
        logits[:, j] = features[j] @ weights[:N_FEATURES] + weights[N_FEATURES + j]
    return logits


def grid_logits(volume: Volume, params: DetectorParams, stride: int) -> np.ndarray:
    """Logits of every anchor box as an (n grid points, n scales) array,
    rows in ``anchor_points`` order; row i scale j is anchor_id i*n_scales+j."""
    return _scale_logits(_anchor_grid(volume, stride, params.scales).features, params.weights)


def propose(volume: Volume, params: DetectorParams, stride: int) -> list[Proposal]:
    """Score every anchor box: one proposal per grid point per scale.

    Output order is deterministic, grid points in ascending (x, y, z) order
    with scales innermost, and ``anchor_id`` is the rank in that order.
    """
    grid = _anchor_grid(volume, stride, params.scales)
    logits = grid_logits(volume, params, stride).ravel()
    return [Proposal(grid.box(i), float(logit), i) for i, logit in enumerate(logits)]


def _scale_index(scales, diameter: float) -> int:
    # nearest anchor scale in log space; ties take the lower index
    best, best_gap = 0, float("inf")
    for j, s in enumerate(scales):
        gap = abs(math.log(diameter) - math.log(s))
        if gap < best_gap:
            best, best_gap = j, gap
    return best


class Examples(NamedTuple):
    """Rows of the supervised objective: features (R, N_FEATURES), and the
    scale index, 0/1 target and weight of each row."""

    features: np.ndarray
    scale_ids: np.ndarray
    targets: np.ndarray
    weights: np.ndarray


def _examples(features, scale_ids, sizes) -> Examples:
    # rows that come as (positives, negatives) pairs of groups, one pair per
    # scan, with the group sizes in ``sizes``: each group's mean counts once
    # per scan, and scans are averaged
    sizes = np.asarray(sizes, dtype=np.int64).reshape(-1, 2)
    if not sizes.sum(axis=1).all():
        raise ValueError("need at least one positive or negative box")
    flat = sizes.ravel()
    return Examples(features, scale_ids, np.repeat(np.tile([1.0, 0.0], len(sizes)), flat),
                    np.repeat(1.0 / (len(sizes) * np.maximum(flat, 1)), flat))


def _anchor_examples(features: np.ndarray, groups) -> Examples:
    # Examples of anchors given as one (positive ids, negative ids) pair per
    # scan, the ids indexing the per-scale features as anchor_ids do
    groups = [np.asarray(ids, dtype=np.int64) for pair in groups for ids in pair]
    ids = np.concatenate(groups)
    scale_ids = ids % len(features)
    return _examples(features[scale_ids, ids // len(features)], scale_ids,
                     [len(g) for g in groups])


def examples_loss(examples: Examples, params: DetectorParams):
    """The supervised objective of ``examples`` under ``params``: the
    weighted sum of the rows' cross-entropies, and its exact gradient in
    ``params.weights``. Returns (loss, gradient)."""
    weights = params.weights
    logits = (examples.features @ weights[:N_FEATURES]
              + weights[N_FEATURES:][examples.scale_ids])
    signed = np.where(examples.targets > 0, logits, -logits)
    loss = -float(examples.weights @ log_sigmoid(signed))
    slopes = examples.weights * (sigmoid(logits) - examples.targets)
    bias = np.bincount(examples.scale_ids, weights=slopes,
                       minlength=len(weights) - N_FEATURES)
    return loss, np.concatenate([slopes @ examples.features, bias])


def box_examples(volume: Volume, positives, negatives, scales) -> Examples:
    """Examples of labeled boxes of one volume, as ``supervised_loss``
    scores them: rows from ``extract_features``, from summed-volume tables
    built once for all the boxes, each with the scale nearest its diameter.
    Either list may be empty, but not both."""
    positives, negatives = list(positives), list(negatives)
    boxes = positives + negatives
    if not boxes:
        raise ValueError("need at least one positive or negative box")
    tables = _tables(volume.voxels)
    feats = np.array([_box_features(volume, tables, b) for b in boxes])
    scale_ids = np.array([_scale_index(scales, b.diameter) for b in boxes], dtype=np.int64)
    return _examples(feats, scale_ids, [len(positives), len(negatives)])


def supervised_loss(volume: Volume, positives, negatives, params: DetectorParams):
    """Cross-entropy of labeled boxes with its exact analytic gradient.

    loss = -[ mean over positives of log sigmoid(logit)
            + mean over negatives of log(1 - sigmoid(logit)) ]

    Either list may be empty, but not both. Boxes need not be anchor boxes:
    each is scored from ``extract_features`` with the bias of the scale
    nearest its diameter (``box_examples``). Returns (loss, gradient) where
    the gradient is taken in ``params.weights``.
    """
    return examples_loss(box_examples(volume, positives, negatives, params.scales), params)


def anchor_loss(volume: Volume, positives, negatives, params: DetectorParams, stride: int):
    """``supervised_loss`` of anchor boxes given by anchor_id, scored from
    their rows of the cached anchor features: the one-scan case of the
    stacked supervised pass. Returns (loss, gradient)."""
    features = _anchor_grid(volume, stride, params.scales).features
    return examples_loss(_anchor_examples(features, [(positives, negatives)]), params)


def sgd_step(params: DetectorParams, gradient, learning_rate: float) -> DetectorParams:
    """One descent step; pure, the input params are untouched."""
    if learning_rate <= 0:
        raise ValueError("learning rate must be positive")
    grad = np.asarray(gradient, dtype=np.float64)
    if grad.shape != params.weights.shape:
        raise ValueError("gradient shape does not match the weights")
    if not np.all(np.isfinite(grad)):
        raise ValueError("non-finite gradient")
    return DetectorParams(params.weights - learning_rate * grad, params.scales)


def _anchor_labels(volume: Volume, truths, stride: int, scales):
    # (positive ids truth by truth, each once; ascending ids whose grid point
    # is outside every truth radius), as supervised_examples describes;
    # geometry only, so cached per volume
    key = ("labels", stride, scales, tuple((t.x, t.y, t.z, t.diameter) for t in truths))
    labels = volume._cache.get(key)
    if labels is None:
        pts = anchor_points(volume, stride)
        positives: dict[int, None] = {}
        outside = np.ones(len(pts), dtype=bool)
        for t in truths:
            d2 = ((pts - np.asarray(t.center)) ** 2).sum(axis=1)
            inside = d2 <= t.radius ** 2
            outside &= ~inside
            idx = np.flatnonzero(inside) if inside.any() else [np.argmin(d2)]
            j = _scale_index(scales, t.diameter)
            positives.update(dict.fromkeys(int(i) * len(scales) + j for i in idx))
        labels = (np.fromiter(positives, dtype=np.int64, count=len(positives)),
                  np.flatnonzero(np.repeat(outside, len(scales))))
        volume._cache[key] = labels
    return labels


class AnchorStack(NamedTuple):
    """The training anchors of fully labeled scans. ``features`` holds each
    scan's grid features, scan after scan, so anchor ``i`` of a scan whose
    points start at row ``r`` has stacked id ``r * n_scales + i``; per scan,
    ``positives`` and ``candidates`` hold the stacked ids of its positive
    and (ascending) candidate negative anchors, as ``_anchor_labels``
    gives them."""

    features: np.ndarray
    positives: tuple
    candidates: tuple


def stack_anchors(labeled, stride: int, scales) -> AnchorStack:
    """AnchorStack of (volume, truth boxes) pairs."""
    features, positives, candidates = [], [], []
    first = 0
    for volume, truths in labeled:
        grid = _anchor_grid(volume, stride, scales)
        pos, cand = _anchor_labels(volume, truths, stride, scales)
        positives.append(pos + first)
        candidates.append(cand + first)
        features.append(grid.features)
        first += len(grid.diameters)
    return AnchorStack(np.concatenate(features, axis=1), tuple(positives), tuple(candidates))


def mine_negatives(stack: AnchorStack, params: DetectorParams) -> list[np.ndarray]:
    """Each scan's negatives in stacked ids: its highest-logit candidates,
    capped at twice its positive count and at least 2; ties in logit break
    toward the lower id. All scans are scored by one product per scale."""
    logits = _scale_logits(stack.features, params.weights).ravel()
    # candidates ascend, so a stable order breaks logit ties by id
    return [cand[_stable_smallest(-logits[cand], max(2, 2 * len(pos)))]
            for pos, cand in zip(stack.positives, stack.candidates)]


def _stable_smallest(keys: np.ndarray, k: int) -> np.ndarray:
    # np.argsort(keys, kind="stable")[:k], sorting only the keys at or below
    # the k-th smallest: those hold the first k, ties by position included
    if k < len(keys):
        head = np.flatnonzero(keys <= np.partition(keys, k - 1)[k - 1])
        if len(head) >= k:  # fewer only when NaNs fill the k-th place
            return head[np.argsort(keys[head], kind="stable")[:k]]
    return np.argsort(keys, kind="stable")[:k]


def stacked_examples(stack: AnchorStack, params: DetectorParams) -> Examples:
    """Examples of one supervised pass: each scan's positives and the
    negatives ``mine_negatives`` picks under ``params``."""
    return _anchor_examples(stack.features, zip(stack.positives, mine_negatives(stack, params)))


def supervised_examples(volume: Volume, truths, params: DetectorParams, stride: int):
    """Training anchors of one fully labeled scan: (positive, negative) ids.

    Grid points within a truth radius of its center are positive at the
    scale nearest the truth diameter; a truth with no such point falls back
    to its nearest grid point. Negatives are the highest-logit anchors whose
    grid point is outside every truth radius, capped at twice the positive
    count and at least 2; ties in logit break toward the lower anchor_id.
    This is the one-scan case of ``mine_negatives``.
    """
    stack = stack_anchors([(volume, truths)], stride, params.scales)
    return stack.positives[0], mine_negatives(stack, params)[0]
