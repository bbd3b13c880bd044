"""FROC evaluation: sensitivity against false positives per scan.

A detection hits a truth when its center lies strictly within the truth
radius. Sweeping the score threshold over every distinct detection score
yields a staircase of (fp per scan, sensitivity) points; the headline
number is the mean sensitivity at seven standard fp-per-scan targets.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .synthvol import NoduleBox

FP_RATES = (0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0)


@dataclass(frozen=True)
class Detection:
    """One scored detection attributed to a scan by index."""

    scan_id: int
    box: NoduleBox
    score: float

    def __post_init__(self):
        if self.scan_id < 0:
            raise ValueError("scan_id must be nonnegative")
        if not 0.0 <= self.score <= 1.0:
            raise ValueError("score must lie in [0, 1]")


@dataclass(frozen=True)
class CurvePoint:
    threshold: float
    fp_per_scan: float
    sensitivity: float


@dataclass
class FrocResult:
    """Seven operating-point sensitivities, their mean, and the full sweep."""

    fp_rates: tuple
    sensitivities: tuple
    average: float
    curve: list

    def as_percent(self) -> float:
        return 100.0 * self.average


def match(detection: Detection, truths) -> int | None:
    """Index of the nearest truth whose center is strictly within radius of
    the detection center, or None. Distance ties take the lower index."""
    return _nearest(detection.box.center, truths)


def _nearest(center, truths) -> int | None:
    # match of a bare center
    best, best_d = None, math.inf
    for i, t in enumerate(truths):
        d = math.dist(center, t.center)
        if d < t.radius and d < best_d:
            best, best_d = i, d
    return best


# relative margin within which the array distance test leaves a decision to
# _nearest: numpy's sum of squares and sqrt may round differently from
# math.dist, but by a few ulps, far below this
_CLOSE = 1e-9


def _hits(scan_ids: np.ndarray, centers: np.ndarray, truths) -> np.ndarray:
    # index of each detection's matched truth among all truths, scan after
    # scan, or -1; decides as _nearest does
    counts = np.array([len(t) for t in truths], dtype=np.int64)
    width = int(counts.max())
    truth_centers = np.zeros((len(truths), width, 3))
    radii = np.zeros((len(truths), width))
    for s, scan_truths in enumerate(truths):
        for k, t in enumerate(scan_truths):
            truth_centers[s, k] = t.center
            radii[s, k] = t.radius
    real = np.arange(width) < counts[scan_ids, None]
    r = radii[scan_ids]
    d = np.sqrt(((centers[:, None, :] - truth_centers[scan_ids]) ** 2).sum(axis=2))
    inside = np.where(real & (d < r), d, np.inf)
    nearest = np.sort(inside, axis=1)
    unclear = (real & (np.abs(d - r) <= _CLOSE * r)).any(axis=1)
    if width > 1:
        second = nearest[:, 1]
        unclear |= np.isfinite(second) & (nearest[:, 0] >= (1.0 - _CLOSE) * second)
    hit = np.where(np.isfinite(nearest[:, 0]), np.argmin(inside, axis=1), -1)
    for n in np.flatnonzero(unclear).tolist():
        k = _nearest(centers[n].tolist(), truths[scan_ids[n]])
        hit[n] = -1 if k is None else k
    first = np.cumsum(counts) - counts
    return np.where(hit >= 0, first[scan_ids] + hit, -1)


def froc(detections, truths) -> FrocResult:
    """Full FROC sweep over a dataset.

    ``truths`` holds one truth-box list per scan and fixes the scan count;
    ``detections`` may cover any subset of those scans. At each threshold a
    truth is credited at most once (the highest-scoring detection wins) and
    further detections of a credited truth are ignored, not counted as
    false positives. Sensitivity at a target fp rate is read from the
    staircase point with the largest fp per scan not exceeding the target.
    """
    detections = list(detections)
    return froc_arrays(np.array([d.scan_id for d in detections], dtype=np.int64),
                       np.array([d.box.center for d in detections],
                                dtype=np.float64).reshape(-1, 3),
                       np.array([d.score for d in detections], dtype=np.float64), truths)


def froc_arrays(scan_ids, centers, scores, truths) -> FrocResult:
    """``froc`` of detections given as arrays: the scan index (n,), center
    (n, 3) and score (n,) of each."""
    truths = [list(t) for t in truths]
    n_scans = len(truths)
    if n_scans == 0:
        raise ValueError("need at least one scan")
    total_truths = sum(len(t) for t in truths)
    if total_truths == 0:
        raise ValueError("need at least one truth box")
    unknown = scan_ids[(scan_ids < 0) | (scan_ids >= n_scans)]
    if len(unknown):
        raise ValueError(f"detection refers to unknown scan {unknown[0]}")
    # a curve point is read only at the end of each group of equal scores,
    # so the order inside a group cannot change the curve
    order = np.argsort(-scores, kind="stable")
    scores = scores[order]
    hit = _hits(scan_ids, centers, truths)[order]
    matched = hit >= 0
    credits = np.zeros(len(hit), dtype=np.int64)  # 1 where a truth is credited first
    credits[np.flatnonzero(matched)[np.unique(hit[matched], return_index=True)[1]]] = 1
    last = np.flatnonzero(np.r_[scores[1:] != scores[:-1], True]) if len(scores) else []
    curve = [CurvePoint(*point) for point in zip(
        scores[last].tolist(), (np.cumsum(~matched)[last] / n_scans).tolist(),
        (np.cumsum(credits)[last] / total_truths).tolist())]
    sens = sensitivity_at(curve, FP_RATES)
    return FrocResult(FP_RATES, sens, sum(sens) / len(sens), curve)


def sensitivity_at(curve, fp_rates) -> tuple:
    """Sensitivity at each fp-per-scan target: the largest sensitivity of a
    curve point with fp per scan at or below the target, or 0.0 if there is
    none. Neither column falls along the curve, so that is the last such
    point, found by bisection."""
    fps = [point.fp_per_scan for point in curve]
    return tuple(curve[i - 1].sensitivity if i else 0.0
                 for i in (bisect_right(fps, target) for target in fp_rates))
