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
    best, best_d = None, math.inf
    for i, t in enumerate(truths):
        d = math.dist(detection.box.center, t.center)
        if d < t.radius and d < best_d:
            best, best_d = i, d
    return best


def froc(detections, truths) -> FrocResult:
    """Full FROC sweep over a dataset.

    ``truths`` holds one truth-box list per scan and fixes the scan count;
    ``detections`` may cover any subset of those scans. At each threshold a
    truth is credited at most once (the highest-scoring detection wins) and
    further detections of a credited truth are ignored, not counted as
    false positives. Sensitivity at a target fp rate is read from the
    staircase point with the largest fp per scan not exceeding the target.
    """
    truths = [list(t) for t in truths]
    n_scans = len(truths)
    if n_scans == 0:
        raise ValueError("need at least one scan")
    total_truths = sum(len(t) for t in truths)
    if total_truths == 0:
        raise ValueError("need at least one truth box")
    detections = list(detections)
    for det in detections:
        if det.scan_id >= n_scans:
            raise ValueError(f"detection refers to unknown scan {det.scan_id}")
    order = sorted(detections, key=lambda d: (-d.score, d.scan_id, d.box.x, d.box.y,
                                              d.box.z, d.box.diameter))
    claimed = [set() for _ in range(n_scans)]
    tp = 0
    fp = 0
    curve: list[CurvePoint] = []
    i = 0
    while i < len(order):
        j = i
        while j < len(order) and order[j].score == order[i].score:
            det = order[j]
            hit = match(det, truths[det.scan_id])
            if hit is None:
                fp += 1
            elif hit not in claimed[det.scan_id]:
                claimed[det.scan_id].add(hit)
                tp += 1
            j += 1
        curve.append(CurvePoint(order[i].score, fp / n_scans, tp / total_truths))
        i = j
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
