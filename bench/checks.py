"""Output checks of the weakem benchmark.

Each check takes plain data (boxes as ``(x, y, z, diameter)`` rows, logits,
figures the program printed) and raises ``CheckFailed`` with a message when
the program's output is wrong. IoU, greedy NMS, truth matching and the FROC
recount are the benchmark's own, written independently of ``weakem``.
"""

from __future__ import annotations

import math

import numpy as np

FP_RATES = (0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
TOLERANCE = 1e-12


class CheckFailed(AssertionError):
    """A program output disagrees with what the benchmark expects."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_split(name: str, truth_counts, expected_scans: int, count_min: int,
                count_max: int) -> None:
    """A split holds the configured scan count, each with an allowed number of truths."""
    truth_counts = list(truth_counts)
    require(len(truth_counts) == expected_scans,
            f"{name}: {len(truth_counts)} scans, expected {expected_scans}")
    bad = [i for i, n in enumerate(truth_counts) if not count_min <= n <= count_max]
    require(not bad, f"{name}: scans {bad[:5]} have truth counts outside "
                     f"{count_min}..{count_max}")


def iou_many(box, boxes: np.ndarray) -> np.ndarray:
    """IoU of one axis-aligned cube against rows of cubes, (x, y, z, diameter)."""
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    inter = np.ones(len(boxes))
    for ax in range(3):
        hi = np.minimum(box[ax] + box[3] / 2.0, boxes[:, ax] + boxes[:, 3] / 2.0)
        lo = np.maximum(box[ax] - box[3] / 2.0, boxes[:, ax] - boxes[:, 3] / 2.0)
        inter *= np.maximum(hi - lo, 0.0)
    return inter / (box[3] ** 3 + boxes[:, 3] ** 3 - inter)


def greedy_nms(boxes: np.ndarray, logits: np.ndarray, logit_threshold: float,
               nms_iou: float) -> list[int]:
    """Anchors at or above the threshold, visited by (-logit, id), kept when
    no kept anchor overlaps them by more than ``nms_iou``."""
    alive = np.flatnonzero(logits >= logit_threshold)
    order = alive[np.lexsort((alive, -logits[alive]))]
    kept: list[int] = []
    for i in order:
        if not kept or iou_many(boxes[i], boxes[kept]).max() <= nms_iou:
            kept.append(int(i))
    return kept


def check_nms(boxes: np.ndarray, logits: np.ndarray, kept_ids, kept_scores,
              logit_threshold: float, nms_iou: float, where: str = "") -> None:
    """The program's kept anchors, with the scores it reported for them,
    satisfy the three NMS properties and equal the benchmark's own greedy
    NMS, in order."""
    kept = list(kept_ids)
    prob_floor = 1.0 / (1.0 + math.exp(-logit_threshold))
    for a, (i, score) in enumerate(zip(kept, kept_scores)):
        require(score >= prob_floor,
                f"{where}kept anchor {i} scores {score} below sigmoid(threshold) {prob_floor}")
        if a:
            worst = float(iou_many(boxes[i], boxes[kept[:a]]).max())
            require(worst <= nms_iou,
                    f"{where}kept anchor {i} overlaps an earlier kept anchor at IoU {worst}")
    kept_set = set(kept)
    for i in np.flatnonzero(logits >= logit_threshold):
        if int(i) in kept_set:
            continue
        cover = [k for k in kept if logits[k] >= logits[i]]
        require(bool(cover) and float(iou_many(boxes[i], boxes[cover]).max()) > nms_iou,
                f"{where}anchor {int(i)} was dropped without an overlapping kept anchor "
                f"of at least its logit")
    own = greedy_nms(boxes, logits, logit_threshold, nms_iou)
    require(own == kept, f"{where}program kept {len(kept)} anchors, the benchmark's "
                         f"greedy NMS keeps {len(own)} (or another order)")


def match(center, truths) -> int | None:
    """Nearest truth whose center lies strictly within its radius of
    ``center``; distance ties take the lower index."""
    best, best_d = None, math.inf
    for k, (tc, radius) in enumerate(truths):
        d = math.dist(center, tc)
        if d < radius and d < best_d:
            best, best_d = k, d
    return best


def naive_froc(detections, truths) -> tuple[tuple, float]:
    """FROC recounted from scratch at every distinct score.

    ``detections`` holds ``(scan index, center, score)``; ``truths`` holds one
    list of ``(center, radius)`` per scan. At threshold s the detections
    scoring at least s are counted again: unmatched ones are false
    positives, matched ones credit their truth once. Sensitivity at a target
    rate is the best one among thresholds whose fp per scan does not exceed it.
    """
    n_scans = len(truths)
    total = sum(len(t) for t in truths)
    require(n_scans > 0 and total > 0, "FROC needs scans with truths")
    scores = np.array([s for _, _, s in detections], dtype=np.float64)
    hit = np.full(len(detections), -1)
    offsets = np.cumsum([0] + [len(t) for t in truths])
    for n, (scan, center, _) in enumerate(detections):
        k = match(center, truths[scan])
        if k is not None:
            hit[n] = offsets[scan] + k
    points = []
    for s in np.unique(scores):
        above = scores >= s
        fp = int(np.count_nonzero(above & (hit < 0)))
        tp = len(np.unique(hit[above & (hit >= 0)]))
        points.append((fp / n_scans, tp / total))
    sens = tuple(max([p for f, p in points if f <= rate], default=0.0) for rate in FP_RATES)
    return sens, sum(sens) / len(sens)


def check_froc(naive, program_average: float, what: str, program_sens=None) -> None:
    """The program's FROC equals the naive recount ``(sensitivities, average)``;
    its seven operating points, where it reports them, equal the recount's,
    lie in [0, 1] and do not fall as the fp rate rises."""
    naive_sens, naive_average = naive
    require(abs(naive_average - program_average) <= TOLERANCE,
            f"{what}: program FROC {program_average!r}, naive recount {naive_average!r}")
    if program_sens is None:
        return
    sens = list(program_sens)
    require(len(sens) == len(FP_RATES), f"{what}: {len(sens)} operating points")
    require(all(0.0 <= s <= 1.0 for s in sens), f"{what}: sensitivity outside [0, 1]: {sens}")
    require(all(a <= b for a, b in zip(sens, sens[1:])),
            f"{what}: sensitivity falls as the fp rate rises: {sens}")
    require(all(abs(a - b) <= TOLERANCE for a, b in zip(sens, naive_sens)),
            f"{what}: program operating points {sens}, naive recount {list(naive_sens)}")


def check_equal(name: str, got, expected) -> None:
    require(got == expected, f"{name}: got {got!r}, expected {expected!r}")
