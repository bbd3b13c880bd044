"""EM training loop over latent nodule locations.

Weak labels say only which lobe holds a nodule and which slice is central.
The E-step turns the current detector's filtered proposals into a posterior
over which proposal the weak label refers to; the M-step takes one gradient
step on the resulting complete-data objective. Full supervision keeps the
detector anchored through one supervised pass per epoch.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import os
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import froc as froc_mod
# propose and supervised_examples are not called here (see _scan_kept and
# _supervised_pass) but stay importable as em.propose and em.supervised_examples;
# supervised_loss is called by q_value only
from .detector import (DetectorParams, Proposal, _anchor_examples,  # noqa: F401
                       _anchor_grid, anchor_geometry, box_examples, examples_loss,
                       grid_logits, init_detector, log_sigmoid, propose, sgd_step, sigmoid,
                       stack_anchors, stacked_examples, supervised_examples, supervised_loss)
from .froc import Detection, FrocResult
from .synthvol import LabeledScan, NoduleBox, Volume, WeakLabel, lobe_of, require_ints
from .weaklik import (DEFAULT_MU, DEFAULT_SIGMA_FLOOR, HalfGaussianParams, LobeParams,
                      fit_sigma, init_lobe_params, lobe_batch, lobe_fit_step,
                      lobe_rows_objective, weak_log_likelihood)

CHECKPOINT_FORMAT = "weakem-checkpoint-v1"

METRIC_FIELDS = ("epoch", "supervised_loss", "weak_labels_used",
                 "weak_labels_skipped", "froc")


class NoProposalsError(ValueError):
    """Posterior requested over an empty proposal list."""


class NumericError(RuntimeError):
    """Training produced a non-finite quantity."""


class CheckpointError(Exception):
    """Checkpoint file is missing fields or has the wrong format tag."""


@dataclass(frozen=True)
class EmConfig:
    """Training configuration.

    ``neg_slice_margin`` of None resolves to 2 mu + 3 sigma at use time.
    ``inference`` picks how inferred positives come out of the posterior:
    "map" takes the argmax, "sampling" draws ``samples_per_label`` times.
    """

    logit_threshold: float = -3.0
    nms_iou: float = 0.1
    samples_per_label: int = 2
    weak_fraction: float = 1.0 / 16.0
    neg_slice_margin: float | None = None
    inference: str = "map"
    anchor_scales: tuple[float, ...] = (5.0, 8.0)
    stride: int = 4
    init_epochs: int = 2
    epochs: int = 12
    lr_detector: float = 0.5
    lr_lobe: float = 2.0
    mu: float = DEFAULT_MU
    sigma_floor: float = DEFAULT_SIGMA_FLOOR

    def validate(self) -> None:
        for name in ("samples_per_label", "stride", "init_epochs", "epochs"):
            require_ints(name, getattr(self, name))
        if not math.isfinite(self.logit_threshold):
            raise ValueError("logit_threshold must be finite")
        if not 0.0 < self.nms_iou < 1.0:
            raise ValueError("nms_iou must lie strictly between 0 and 1")
        if self.samples_per_label < 1:
            raise ValueError("samples_per_label must be at least 1")
        if not 0.0 < self.weak_fraction <= 1.0:
            raise ValueError("weak_fraction must lie in (0, 1]")
        if self.neg_slice_margin is not None and self.neg_slice_margin < 0:
            raise ValueError("neg_slice_margin must be nonnegative")
        if self.inference not in ("map", "sampling"):
            raise ValueError("inference must be 'map' or 'sampling'")
        if not self.anchor_scales or any(s <= 0 for s in self.anchor_scales):
            raise ValueError("anchor_scales must be positive diameters")
        if self.stride < 1:
            raise ValueError("stride must be at least 1")
        if self.init_epochs < 0 or self.epochs < 0:
            raise ValueError("epoch counts must be nonnegative")
        if self.lr_detector <= 0 or self.lr_lobe <= 0:
            raise ValueError("learning rates must be positive")
        if self.mu < 0:
            raise ValueError("mu must be nonnegative")
        if self.sigma_floor <= 0:
            raise ValueError("sigma_floor must be positive")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["anchor_scales"] = list(self.anchor_scales)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "EmConfig":
        d = dict(d)
        if "anchor_scales" in d:
            d["anchor_scales"] = tuple(d["anchor_scales"])
        return cls(**d)


@dataclass
class ModelParams:
    """Everything the model learns: detector weights, lobe softmax weights,
    and the slice-noise scale (frozen after its initial fit)."""

    detector: DetectorParams
    lobe: LobeParams
    slice_noise: HalfGaussianParams

    def to_dict(self) -> dict:
        return {
            "detector": self.detector.to_dict(),
            "lobe": self.lobe.theta.tolist(),
            "slice_noise": {"sigma": self.slice_noise.sigma, "mu": self.slice_noise.mu},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelParams":
        return cls(
            DetectorParams.from_dict(d["detector"]),
            LobeParams(np.asarray(d["lobe"], dtype=np.float64)),
            HalfGaussianParams(**d["slice_noise"]),
        )


@dataclass
class Posterior:
    """Distribution over which filtered proposal a weak label refers to."""

    support: list
    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if len(self.support) != len(self.weights) or not len(self.support):
            raise ValueError("support and weights must be nonempty and match")
        if not np.all(np.isfinite(self.weights)) or np.any(self.weights < 0):
            raise ValueError("weights must be finite and nonnegative")
        if abs(float(self.weights.sum()) - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")


def iou_3d(a: NoduleBox, b: NoduleBox) -> float:
    """Intersection over union of two axis-aligned cubes."""
    inter = 1.0
    for ca, cb in zip(a.center, b.center):
        overlap = min(ca + a.radius, cb + b.radius) - max(ca - a.radius, cb - b.radius)
        if overlap <= 0.0:
            return 0.0
        inter *= overlap
    union = a.diameter ** 3 + b.diameter ** 3 - inter
    return inter / union


def _conflict_matrix(edges, cubes, a: np.ndarray, b: np.ndarray, nms_iou: float) -> np.ndarray:
    # whether box a[k] and box b[k] overlap with IoU above nms_iou, for each
    # k; the same per-axis arithmetic as iou_3d, so decisions match the
    # scalar form exactly, and symmetric in a and b bit for bit
    lo_edge, hi_edge = edges
    overlap = np.maximum(np.minimum(hi_edge[a], hi_edge[b])
                         - np.maximum(lo_edge[a], lo_edge[b]), 0.0)
    inter = overlap[:, 0] * overlap[:, 1] * overlap[:, 2]
    return inter / (cubes[a] + cubes[b] - inter) > nms_iou


def _box_arrays(centers: np.ndarray, diameters: np.ndarray):
    # per-axis (lo, hi) edges and cube volumes of boxes; cubes use Python's
    # float power, as iou_3d does
    radii = diameters[:, None] / 2.0
    sizes, which = np.unique(diameters, return_inverse=True)
    cubes = np.array([d ** 3 for d in sizes.tolist()], dtype=np.float64)[which]
    return (centers - radii, centers + radii), cubes


# candidate pairs _sweep_pairs expands per batch; bounds its temporaries
_SWEEP_CHUNK = 1 << 16


def _sweep_pairs(edges):
    # candidate pairs of boxes, each unordered pair once: with boxes sorted
    # by their low x edge, row i can overlap only the rows after it that
    # start before it ends in x, a run of ``counts[i]`` rows found by one
    # searchsorted. Runs are expanded into pairs about _SWEEP_CHUNK at a
    # time, and pairs apart in y or z are dropped.
    order = np.argsort(edges[0][:, 0], kind="stable")
    (lx, ly, lz), (hx, hy, hz) = (np.ascontiguousarray(e[order].T) for e in edges)
    rows = np.arange(len(order))
    counts = np.maximum(np.searchsorted(lx, hx) - rows - 1, 0)
    bounds = np.searchsorted(np.cumsum(counts),
                             np.arange(_SWEEP_CHUNK, counts.sum() + _SWEEP_CHUNK, _SWEEP_CHUNK),
                             side="right")
    for start, stop in zip(np.r_[0, bounds[:-1]], bounds):
        n_pairs = counts[start:stop]
        a = np.repeat(rows[start:stop], n_pairs)
        b = a + 1 + np.arange(len(a)) - np.repeat(np.cumsum(n_pairs) - n_pairs, n_pairs)
        near = (ly[b] < hy[a]) & (ly[a] < hy[b]) & (lz[b] < hz[a]) & (lz[a] < hz[b])
        yield order[a[near]], order[b[near]]


def _box_conflicts(centers: np.ndarray, diameters: np.ndarray, nms_iou: float):
    # CSR conflict lists (offsets, neighbours), both int32, of boxes
    # (centers, diameters): neighbours[offsets[i]:offsets[i + 1]] are the
    # boxes whose IoU with box i exceeds nms_iou. Each candidate pair is
    # tested once and listed in both directions.
    edges, cubes = _box_arrays(centers, diameters)
    src, dst = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    for a, b in _sweep_pairs(edges):
        hit = _conflict_matrix(edges, cubes, a, b, nms_iou)
        src += [a[hit], b[hit]]
        dst += [b[hit], a[hit]]
    src, dst = np.concatenate(src), np.concatenate(dst)
    offsets = np.zeros(len(cubes) + 1, dtype=np.int32)
    np.cumsum(np.bincount(src, minlength=len(cubes)), out=offsets[1:])
    neighbours = dst[np.argsort(src, kind="stable")].astype(np.int32)
    offsets.flags.writeable = neighbours.flags.writeable = False
    return offsets, neighbours


@functools.lru_cache(maxsize=4)
def _grid_conflicts(lung_lo, lung_hi, stride: int, scales, nms_iou: float):
    # conflict lists of the anchor grid over a lung box: they depend on the
    # geometry only, so every volume with the same lung box shares one copy,
    # O(anchors x neighbours) in size
    return _box_conflicts(*anchor_geometry(lung_lo, lung_hi, stride, scales), nms_iou)


def _greedy_nms(logits: np.ndarray, ids: np.ndarray, graph, logit_threshold: float) -> np.ndarray:
    # rows kept by the logit threshold and greedy NMS over the conflict lists
    # ``graph``, as int64 in the order kept: by descending logit, ties by
    # ``ids``, a row is kept unless a kept row already suppressed it, and
    # suppresses its neighbours
    offsets, neighbours = (memoryview(a) for a in graph)
    alive = np.flatnonzero(logits >= logit_threshold)
    suppressed = bytearray(len(logits))
    kept = []
    for i in alive[np.lexsort((ids[alive], -logits[alive]))].tolist():
        if not suppressed[i]:
            kept.append(i)
            for j in neighbours[offsets[i]:offsets[i + 1]]:
                suppressed[j] = 1
    return np.array(kept, dtype=np.int64)


def filter_proposals(proposals, cfg: EmConfig) -> list[Proposal]:
    """Drop proposals below the logit threshold, then greedy NMS.

    Proposals are visited in descending logit order (ties by anchor_id) and
    kept only when their IoU with every kept proposal stays at or below
    ``cfg.nms_iou``. Output keeps that descending order.
    """
    proposals = list(proposals)
    graph = _box_conflicts(
        np.array([p.box.center for p in proposals], dtype=np.float64).reshape(-1, 3),
        np.array([p.box.diameter for p in proposals], dtype=np.float64), cfg.nms_iou)
    kept = _greedy_nms(np.array([p.logit for p in proposals], dtype=np.float64),
                       np.array([p.anchor_id for p in proposals], dtype=np.int64),
                       graph, cfg.logit_threshold)
    return [proposals[i] for i in kept.tolist()]


def _scan_filtered(volume: Volume, params: ModelParams, cfg: EmConfig,
                   logits: np.ndarray) -> np.ndarray:
    # the anchor ids filter_proposals(propose(...)) keeps, in its order, given
    # the volume's flat grid logits, over the shared conflict lists of its
    # lung box
    graph = _grid_conflicts(volume.lung_lo, volume.lung_hi, cfg.stride,
                            params.detector.scales, cfg.nms_iou)
    return _greedy_nms(logits, np.arange(len(logits)), graph, cfg.logit_threshold)


def _scan_kept(volume: Volume, params: ModelParams, cfg: EmConfig):
    # (anchor grid, kept anchor ids, flat grid logits) of a volume, from one
    # logit product
    logits = grid_logits(volume, params.detector, cfg.stride).ravel()
    return (_anchor_grid(volume, cfg.stride, params.detector.scales),
            _scan_filtered(volume, params, cfg, logits), logits)


def posterior(proposals, weak: WeakLabel, volume: Volume,
              params: ModelParams) -> Posterior:
    """E-step for one weak label: posterior over the filtered proposals.

    Unnormalized log weight of a proposal is log sigmoid(logit) plus the
    log slice likelihood plus the log lobe likelihood; weights are
    normalized in log space with max subtraction.
    """
    proposals = list(proposals)
    if not proposals:
        raise NoProposalsError("no surviving proposals for this weak label")
    logw = (log_sigmoid(np.array([p.logit for p in proposals], dtype=np.float64))
            + weak_log_likelihood(weak.z, weak.lobe, [p.box.center for p in proposals],
                                  volume, params.slice_noise, params.lobe))
    w = np.exp(logw - logw.max())
    w /= w.sum()
    return Posterior(proposals, w)


def infer_map(post: Posterior) -> Proposal:
    """Highest-posterior proposal; exact ties take the lower anchor_id."""
    return post.support[max(range(len(post.support)),
                            key=lambda i: (post.weights[i], -post.support[i].anchor_id))]


def infer_sampling(post: Posterior, m_hat: int, rng: np.random.Generator) -> list:
    """``m_hat`` independent draws from the posterior, with replacement."""
    if m_hat < 1:
        raise ValueError("m_hat must be at least 1")
    idx = rng.choice(len(post.support), size=m_hat, replace=True, p=post.weights)
    return [post.support[int(i)] for i in idx]


def resolve_neg_margin(cfg: EmConfig, hg: HalfGaussianParams) -> float:
    """Slice distance beyond which a proposal cannot belong to any weak label."""
    if cfg.neg_slice_margin is not None:
        return cfg.neg_slice_margin
    return 2.0 * hg.mu + 3.0 * hg.sigma


def hard_negatives(proposals, weak_labels, cfg: EmConfig,
                   hg: HalfGaussianParams) -> list[Proposal]:
    """High-scoring filtered proposals far from every reported slice.

    A proposal qualifies when its slice distance to each weak label exceeds
    the margin; the top of the logit ordering is kept, capped at twice the
    number of weak labels and at least 2. With no weak labels every
    proposal qualifies.
    """
    margin = resolve_neg_margin(cfg, hg)
    weak_labels = list(weak_labels)
    qualifying = [p for p in proposals
                  if all(abs(p.box.z - w.z) > margin for w in weak_labels)]
    qualifying.sort(key=lambda p: (-p.logit, p.anchor_id))
    cap = max(2, 2 * len(weak_labels))
    return qualifying[:cap]


def weak_m_step(volume: Volume, weak_boxes, negatives, params: ModelParams,
                cfg: EmConfig, lr_scale: float = 1.0) -> ModelParams:
    """One ascent step on the complete-data objective of a weak scan.

    ``weak_boxes`` holds (weak label, inferred box) pairs, flattened over
    labels and posterior draws so the supervised loss averages over all of
    them; ``negatives`` are plain boxes. This is the one-scan case of the
    batch M-step that training runs, scored from ``extract_features`` rows
    instead of anchor-grid rows: the detector and the lobe softmax move one
    step each from the same input params; the slice-noise scale stays
    frozen. ``lr_scale`` multiplies both learning rates so the caller can
    anneal the step size over epochs.
    """
    weak_boxes, negatives = list(weak_boxes), list(negatives)
    examples = (box_examples(volume, [b for _, b in weak_boxes], negatives,
                             params.detector.scales) if weak_boxes or negatives else None)
    return _rows_m_step([(examples, [(w.lobe, b, volume) for w, b in weak_boxes])],
                        params, cfg, lr_scale)


def q_value(volume: Volume, weak_boxes, negatives, params: ModelParams) -> float:
    """Complete-data objective for fixed inferred positives: minus
    ``supervised_loss`` of the inferred boxes and the negatives, plus the
    mean log slice and lobe likelihood of the (weak label, box) pairs. This
    is exactly the quantity ``weak_m_step`` ascends, so a small enough step
    never decreases it.
    """
    weak_boxes = list(weak_boxes)
    total = -supervised_loss(volume, [b for _, b in weak_boxes], negatives,
                             params.detector)[0]
    if weak_boxes:
        total += float(np.mean(weak_log_likelihood(
            [w.z for w, _ in weak_boxes], [w.lobe for w, _ in weak_boxes],
            [b.center for _, b in weak_boxes], volume, params.slice_noise, params.lobe)))
    return total


@dataclass
class EpochMetrics:
    epoch: int
    supervised_loss: float
    weak_labels_used: int
    weak_labels_skipped: int
    froc: float


@dataclass
class TrainResult:
    params: ModelParams
    history: list[EpochMetrics] = field(default_factory=list)


def scan_detections(volume: Volume, params: ModelParams, cfg: EmConfig,
                    scan_id: int = 0) -> list[Detection]:
    """Propose, filter, and score one scan."""
    grid, kept, logits = _scan_kept(volume, params, cfg)
    return [Detection(scan_id, grid.box(i), score)
            for i, score in zip(kept.tolist(), sigmoid(logits[kept]).tolist())]


def evaluate_froc(scans, params: ModelParams, cfg: EmConfig) -> FrocResult:
    """FROC of the current detector over a labeled dataset: the detections
    of ``scan_detections``, kept as arrays from the NMS output on."""
    scans = list(scans)
    scan_ids, centers, scores = [np.zeros(0, np.int64)], [np.zeros((0, 3))], [np.zeros(0)]
    for i, scan in enumerate(scans):
        grid, kept, logits = _scan_kept(scan.volume, params, cfg)
        scan_ids.append(np.full(len(kept), i, dtype=np.int64))
        centers.append(grid.centers[kept])
        scores.append(sigmoid(logits[kept]))
    return froc_mod.froc_arrays(np.concatenate(scan_ids), np.concatenate(centers),
                                np.concatenate(scores), [scan.truth for scan in scans])


_MAX_HALVINGS = 20


def _backtrack(step_to, loss_at, loss0: float, step: float):
    # halve the step until the candidate's loss does not exceed loss0; a
    # non-finite loss0, or _MAX_HALVINGS tries that all raise the loss, is a
    # NumericError
    if not math.isfinite(loss0):
        raise NumericError(f"training loss became non-finite ({loss0!r})")
    for _ in range(_MAX_HALVINGS):
        candidate = step_to(step)
        if loss_at(candidate) <= loss0:
            return candidate
        step /= 2.0
    raise NumericError(f"{_MAX_HALVINGS} step halvings down to {step * 2.0!r} "
                       f"all raised the loss above {loss0!r}")


def _stack_full_set(d_full, cfg: EmConfig):
    # what every supervised pass reads of the fully labeled scans, built
    # once: their stacked training anchors, and the lobe_batch of the (true
    # lobe, truth box, volume) pairs of the lobe model, None without truths
    pairs = [(lobe_of(t.center, scan.volume), t, scan.volume)
             for scan in d_full for t in scan.truth]
    return (stack_anchors(((scan.volume, scan.truth) for scan in d_full), cfg.stride,
                          cfg.anchor_scales),
            lobe_batch(pairs) if pairs else None)


def _supervised_pass(full_set, params: ModelParams, cfg: EmConfig, lr_scale: float = 1.0):
    # one full-batch step per pass over _stack_full_set's output: the loss
    # is the mean over scans of each scan's loss on the examples mined this
    # pass, and the step is backtracked (halved) until that loss does not
    # increase. The mined hard-negative set flips between passes, which
    # sustains a bounded oscillation at constant step size; the caller
    # anneals lr_scale so the oscillation dies out while the stable feature
    # weights keep their equilibrium.
    anchors, lobe_rows = full_set
    detector = params.detector
    examples = stacked_examples(anchors, detector)
    mean_loss, grad = examples_loss(examples, detector)
    grad = _finite_gradient(grad, "supervised pass")
    detector = _backtrack(lambda step: sgd_step(detector, grad, step),
                          lambda cand: examples_loss(examples, cand)[0],
                          mean_loss, cfg.lr_detector * lr_scale)
    lobe = params.lobe
    if lobe_rows is not None:
        nll, lobe_grad = lobe_rows_objective(*lobe_rows, lobe)
        lobe = _backtrack(lambda step: LobeParams(lobe.theta + step * lobe_grad),
                          lambda cand: lobe_rows_objective(*lobe_rows, cand)[0],
                          nll, cfg.lr_lobe)
    return ModelParams(detector, lobe, params.slice_noise), mean_loss


def _weak_scan_estep(scan: LabeledScan, params: ModelParams, cfg: EmConfig,
                     rng: np.random.Generator):
    # E-step for one weak scan under frozen params; truth is never consulted.
    # Returns (labels used, labels skipped, (weak label, inferred box) pairs,
    # the inferred boxes' anchor ids in the same order, hard-negative ids)
    grid, kept, logits = _scan_kept(scan.volume, params, cfg)
    filtered = [Proposal(grid.box(i), float(logits[i]), i) for i in kept.tolist()]
    weak_boxes: list[tuple[WeakLabel, NoduleBox]] = []
    positives: list[int] = []
    used = skipped = 0
    for w in scan.weak:
        if not filtered:
            skipped += 1
            continue
        post = posterior(filtered, w, scan.volume, params)
        if cfg.inference == "map":
            chosen = [infer_map(post)]
        else:
            chosen = infer_sampling(post, cfg.samples_per_label, rng)
        weak_boxes.extend((w, c.box) for c in chosen)
        positives.extend(c.anchor_id for c in chosen)
        used += 1
    negatives = [p.anchor_id for p in hard_negatives(filtered, scan.weak, cfg, params.slice_noise)]
    return (used, skipped, weak_boxes, np.array(positives, dtype=np.int64),
            np.array(negatives, dtype=np.int64))


def _finite_gradient(grad: np.ndarray, step: str) -> np.ndarray:
    # the gradient a detector step is about to take; non-finite is a NumericError
    if not np.all(np.isfinite(grad)):
        raise NumericError(f"non-finite gradient in the {step}")
    return grad


def _rows_m_step(scans, params: ModelParams, cfg: EmConfig, lr_scale: float):
    # one ascent step on the complete-data objective of scans given as
    # (Examples or None, (lobe, box, volume) triples): per-scan gradients
    # are averaged, because sequential single-scan steps teach "positive
    # near this scan's reported slice, negative far from it" and random-walk
    # the shared weights scan by scan. Scans with neither inferred boxes nor
    # negatives (Examples None) add nothing.
    grads = [examples_loss(examples, params.detector)[1]
             for examples, _ in scans if examples is not None]
    detector = params.detector
    if grads:
        detector = sgd_step(detector, _finite_gradient(np.mean(grads, axis=0), "weak M-step"),
                            cfg.lr_detector * lr_scale)
    pairs = [pair for _, triples in scans for pair in triples]
    lobe = params.lobe
    if pairs:
        lobe = lobe_fit_step(pairs, lobe, cfg.lr_lobe * lr_scale)[0]
    return ModelParams(detector, lobe, params.slice_noise)


def _weak_batch_m_step(batch, params: ModelParams, cfg: EmConfig, lr_scale: float):
    # the weak M-step training runs, over one (volume, weak_boxes, positive
    # ids, negative ids) entry per E-step scan as _weak_scan_estep gives
    # them: every inferred box and hard negative is an anchor box, so its
    # row is read from the volume's cached anchor grid
    scans = []
    for volume, weak_boxes, pos, neg in batch:
        examples = None
        if len(pos) or len(neg):
            grid = _anchor_grid(volume, cfg.stride, params.detector.scales)
            examples = _anchor_examples(grid.features, [(pos, neg)])
        scans.append((examples, [(w.lobe, b, volume) for w, b in weak_boxes]))
    return _rows_m_step(scans, params, cfg, lr_scale)


def initialize_params(d_full, cfg: EmConfig) -> ModelParams:
    """Fresh model: zero detector and lobe weights, slice noise fitted from
    the (reported slice, truth box) pairs of the fully labeled set. With no
    such pairs the slice scale falls back to the floor."""
    pairs = []
    for scan in d_full:
        for w, t in zip(scan.weak, scan.truth):
            pairs.append((w.z, t))
    if pairs:
        hg = fit_sigma(pairs, mu=cfg.mu, sigma_floor=cfg.sigma_floor)
    else:
        hg = HalfGaussianParams(sigma=cfg.sigma_floor, mu=cfg.mu)
    return ModelParams(init_detector(cfg.anchor_scales), init_lobe_params(), hg)


@contextmanager
def _overflow_is_numeric():
    # a floating-point overflow in training is a NumericError: a weak M-step
    # that overflows the weights, or weights so large that logits overflow,
    # would otherwise run on with finite but meaningless losses
    with np.errstate(over="raise"):
        try:
            yield
        except FloatingPointError as exc:
            raise NumericError(f"training overflowed ({exc})") from exc


@_overflow_is_numeric()
def train_em(d_full, d_weak, d_val, cfg: EmConfig, rng=0) -> TrainResult:
    """Alternating training over fully and weakly labeled scans.

    After ``cfg.init_epochs`` supervised passes over ``d_full``, each epoch
    runs an EM pass over a fresh ``weak_fraction`` subsample of ``d_weak``
    (weak labels with no surviving proposals are skipped and counted),
    then one supervised pass over ``d_full``, then a FROC evaluation on
    ``d_val``. Step sizes stay at their configured values through the first
    third of the warm start and decay as 1/t afterwards, t counting passes
    from the start; hard-example mining otherwise sustains a bounded
    parameter oscillation at any constant step size, and the weak phase
    must begin only once that oscillation has been damped, or inferred
    positives from the still-unsettled detector poison the model. With
    ``d_weak`` empty the trajectory is exactly the supervised-only one for
    the same seed. Deterministic given (inputs, cfg, seed). Raises
    NumericError when a supervised pass's loss is non-finite, no halving
    of its step keeps the loss from rising, a detector step's gradient is
    non-finite, or any step of training overflows.
    """
    cfg.validate()
    d_full, d_weak = list(d_full), list(d_weak)
    d_val = list(d_val) if d_val is not None else []
    if not d_full:
        raise ValueError("need at least one fully labeled scan")
    rng = np.random.default_rng(rng)
    params = initialize_params(d_full, cfg)
    full_set = _stack_full_set(d_full, cfg)
    onset = max(1, -(-cfg.init_epochs // 3))
    for t in range(1, cfg.init_epochs + 1):
        params, _ = _supervised_pass(full_set, params, cfg, min(1.0, onset / t))
    history: list[EpochMetrics] = []
    for epoch in range(1, cfg.epochs + 1):
        scale = onset / (cfg.init_epochs + epoch)
        used = skipped = 0
        if d_weak:
            n_sub = min(len(d_weak), max(1, int(cfg.weak_fraction * len(d_weak))))
            chosen = np.sort(rng.choice(len(d_weak), size=n_sub, replace=False))
            batch = []
            for i in chosen:
                scan = d_weak[int(i)]
                u, s, weak_boxes, positives, negatives = _weak_scan_estep(scan, params,
                                                                          cfg, rng)
                used += u
                skipped += s
                batch.append((scan.volume, weak_boxes, positives, negatives))
            params = _weak_batch_m_step(batch, params, cfg, scale)
        params, mean_loss = _supervised_pass(full_set, params, cfg, scale)
        froc_avg = evaluate_froc(d_val, params, cfg).average if d_val else float("nan")
        history.append(EpochMetrics(epoch, mean_loss, used, skipped, froc_avg))
    return TrainResult(params, history)


@contextmanager
def open_atomic(path):
    """Open ``path`` for text writing (UTF-8, no newline translation) so that
    it changes only as a whole: the block writes a temporary file in the
    same directory, which is flushed to disk and then renamed over ``path``.
    If the block raises, ``path`` keeps its previous content and the
    temporary file is removed."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        with suppress(FileNotFoundError):
            os.unlink(tmp)


def save_checkpoint(path, params: ModelParams, cfg: EmConfig, epoch: int) -> None:
    """Write params, config, and the epoch counter as deterministic JSON."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "epoch": int(epoch),
        "config": cfg.to_dict(),
        "params": params.to_dict(),
    }
    with open_atomic(path) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_checkpoint(path):
    """Read a checkpoint; returns (params, cfg, epoch)."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"checkpoint is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"expected checkpoint format {CHECKPOINT_FORMAT!r}, "
            f"got {payload.get('format') if isinstance(payload, dict) else payload!r}")
    try:
        params = ModelParams.from_dict(payload["params"])
        cfg = EmConfig.from_dict(payload["config"])
        cfg.validate()
        epoch = int(payload["epoch"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint is missing or corrupts a field: {exc}") from exc
    return params, cfg, epoch


def write_metrics_csv(path, history) -> None:
    """One row per epoch: epoch, supervised_loss, weak_labels_used,
    weak_labels_skipped, froc."""
    with open_atomic(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(METRIC_FIELDS)
        for m in history:
            writer.writerow([m.epoch, repr(m.supervised_loss), m.weak_labels_used,
                             m.weak_labels_skipped, repr(m.froc)])


def read_metrics_csv(path) -> list[EpochMetrics]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return [EpochMetrics(int(r["epoch"]), float(r["supervised_loss"]),
                         int(r["weak_labels_used"]), int(r["weak_labels_skipped"]),
                         float(r["froc"])) for r in rows]
