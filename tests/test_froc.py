"""FROC matching and staircase tests."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from weakem.froc import (FP_RATES, CurvePoint, Detection, froc, froc_arrays, match,
                         sensitivity_at)
from weakem.synthvol import NoduleBox


def box(x, y, z, d=6.0):
    return NoduleBox(float(x), float(y), float(z), float(d))


def froc_oracle(detections, truths):
    """Quadratic reference: rebuild the operating point at every threshold."""
    order_key = lambda d: (-d.score, d.scan_id, d.box.x, d.box.y, d.box.z, d.box.diameter)
    total = sum(len(t) for t in truths)
    thresholds = sorted({d.score for d in detections}, reverse=True)
    points = []
    for thr in thresholds:
        claimed = [set() for _ in truths]
        tp = fp = 0
        for det in sorted([d for d in detections if d.score >= thr], key=order_key):
            best, best_d = None, math.inf
            for i, t in enumerate(truths[det.scan_id]):
                dist = math.dist(det.box.center, t.center)
                if dist < t.radius and dist < best_d:
                    best, best_d = i, dist
            if best is None:
                fp += 1
            elif best not in claimed[det.scan_id]:
                claimed[det.scan_id].add(best)
                tp += 1
        points.append((thr, fp / len(truths), tp / total))
    sens = []
    for target in FP_RATES:
        feasible = [s for _, f, s in points if f <= target]
        sens.append(max(feasible) if feasible else 0.0)
    return points, tuple(sens)


class TestMatch:
    def test_strictly_inside_radius(self):
        truths = [box(10, 10, 10, 6.0)]
        assert match(Detection(0, box(10, 10, 12.9), 0.5), truths) == 0
        assert match(Detection(0, box(10, 10, 13.0), 0.5), truths) is None

    def test_nearest_qualifying_wins(self):
        truths = [box(10, 10, 10, 8.0), box(14, 10, 10, 8.0)]
        assert match(Detection(0, box(11, 10, 10), 0.5), truths) == 0
        assert match(Detection(0, box(13, 10, 10), 0.5), truths) == 1

    def test_distance_tie_takes_lower_index(self):
        truths = [box(10, 10, 10, 8.0), box(14, 10, 10, 8.0)]
        assert match(Detection(0, box(12, 10, 10), 0.5), truths) == 0

    def test_no_truths(self):
        assert match(Detection(0, box(1, 1, 1), 0.5), []) is None


class TestFrocHandCases:
    def test_perfect_detector_scores_100(self):
        truths = [[box(10, 10, 10)], [box(20, 20, 20)], []]
        detections = [Detection(0, box(10, 10, 10), 1.0),
                      Detection(1, box(20, 20, 20), 1.0)]
        result = froc(detections, truths)
        assert result.sensitivities == (1.0,) * 7
        assert result.average == 1.0
        assert result.as_percent() == 100.0

    def test_no_detections_scores_0(self):
        result = froc([], [[box(10, 10, 10)]])
        assert result.sensitivities == (0.0,) * 7
        assert result.average == 0.0

    def test_two_scan_staircase(self):
        # hand-built sweep: thresholds .9/.8/.7/.6/.5 give
        # (fp/scan, sensitivity) = (0, 1/3) (0.5, 1/3) (0.5, 2/3) (0.5, 2/3) (1.0, 2/3)
        truths = [[box(10, 10, 10, 6.0), box(20, 20, 20, 6.0)],
                  [box(10, 10, 10, 8.0)]]
        detections = [
            Detection(0, box(10, 10, 11), 0.9),   # hits truth 1 of scan 0
            Detection(0, box(5, 5, 5), 0.8),      # false positive
            Detection(1, box(10, 10, 10), 0.7),   # hits the scan 1 truth
            Detection(0, box(10, 10, 10), 0.6),   # duplicate of a credited truth: ignored
            Detection(1, box(2, 2, 2), 0.5),      # false positive
        ]
        result = froc(detections, truths)
        third, two_thirds = 1.0 / 3.0, 2.0 / 3.0
        assert result.sensitivities == (third, third, two_thirds, two_thirds,
                                        two_thirds, two_thirds, two_thirds)
        assert result.average == pytest.approx(4.0 / 7.0, rel=1e-12)
        swept = [(p.threshold, p.fp_per_scan, p.sensitivity) for p in result.curve]
        assert swept == [(0.9, 0.0, third), (0.8, 0.5, third), (0.7, 0.5, two_thirds),
                         (0.6, 0.5, two_thirds), (0.5, 1.0, two_thirds)]

    def test_duplicate_detections_are_not_false_positives(self):
        truths = [[box(10, 10, 10, 8.0)]]
        detections = [Detection(0, box(10, 10, 10), 0.9),
                      Detection(0, box(10, 10, 11), 0.8),
                      Detection(0, box(11, 10, 10), 0.7)]
        result = froc(detections, truths)
        assert result.curve[-1].fp_per_scan == 0.0
        assert result.sensitivities == (1.0,) * 7

    def test_validation(self):
        with pytest.raises(ValueError):
            froc([], [])
        with pytest.raises(ValueError):
            froc([], [[], []])
        with pytest.raises(ValueError):
            froc([Detection(3, box(1, 1, 1), 0.5)], [[box(1, 1, 1)]])
        with pytest.raises(ValueError):
            Detection(0, box(1, 1, 1), 1.5)


def random_scene(rng, n_scans=4):
    truths = []
    for _ in range(n_scans):
        boxes = []
        for _ in range(int(rng.integers(0, 3))):
            boxes.append(box(rng.uniform(4, 28), rng.uniform(4, 28), rng.uniform(4, 28),
                             rng.uniform(4, 9)))
        truths.append(boxes)
    if not any(truths):
        truths[0].append(box(10, 10, 10))
    detections = []
    for scan_id in range(n_scans):
        for _ in range(int(rng.integers(0, 6))):
            detections.append(Detection(scan_id,
                                        box(rng.uniform(2, 30), rng.uniform(2, 30),
                                            rng.uniform(2, 30), rng.uniform(4, 9)),
                                        float(rng.uniform(0.05, 0.95))))
    return detections, truths


class TestFrocProperties:
    def test_matches_quadratic_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            detections, truths = random_scene(rng)
            result = froc(detections, truths)
            points, sens = froc_oracle(detections, truths)
            got = [(p.threshold, p.fp_per_scan, p.sensitivity) for p in result.curve]
            assert got == points
            for a, b in zip(result.sensitivities, sens):
                assert a == pytest.approx(b, abs=1e-12)

    def test_sensitivities_nondecreasing_in_fp_rate(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            detections, truths = random_scene(rng)
            sens = froc(detections, truths).sensitivities
            for a, b in zip(sens, sens[1:]):
                assert b >= a

    def test_added_hit_never_hurts_added_miss_never_helps(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            detections, truths = random_scene(rng)
            base = froc(detections, truths).sensitivities
            scan_id = next(i for i, t in enumerate(truths) if t)
            target = truths[scan_id][0]
            hit = Detection(scan_id, box(target.x, target.y, target.z, 6.0),
                            float(rng.uniform(0.05, 0.95)))
            with_hit = froc(detections + [hit], truths).sensitivities
            for a, b in zip(base, with_hit):
                assert b >= a
            far = Detection(scan_id, box(200.0, 200.0, 200.0, 6.0),
                            float(rng.uniform(0.05, 0.95)))
            with_miss = froc(detections + [far], truths).sensitivities
            for a, b in zip(base, with_miss):
                assert b <= a


def edge_scene(rng, n_scans=3):
    # truths with detections on, just inside and just outside their radius
    # along each axis, nudged off-axis, at their centres, and midway between
    # truth pairs (a distance tie when both contain the midpoint)
    truths, detections = [], []
    for scan_id in range(n_scans):
        scan_truths = [box(*rng.integers(6, 14, 3), rng.choice([4.0, 6.0, 7.3]))
                       for _ in range(int(rng.integers(1, 4)))]
        twin = scan_truths[0]
        scan_truths.insert(int(rng.integers(0, 2)), box(twin.x + 2, twin.y, twin.z, twin.diameter))
        centers = []
        for t in scan_truths:
            centers.append(list(t.center))
            for axis, sign in itertools.product(range(3), (-1.0, 1.0)):
                edge = list(t.center)
                edge[axis] += sign * t.radius
                inward, outward, skew = list(edge), list(edge), list(edge)
                inward[axis] = np.nextafter(edge[axis], t.center[axis])
                outward[axis] = np.nextafter(edge[axis], edge[axis] + sign)
                skew[(axis + 1) % 3] += 1e-9
                centers += [edge, inward, outward, skew]
        for a, b in itertools.combinations(scan_truths, 2):
            centers.append([(p + q) / 2 for p, q in zip(a.center, b.center)])
        centers += rng.uniform(0, 20, size=(5, 3)).tolist()
        truths.append(scan_truths)
        detections += [Detection(scan_id, box(*c), float(rng.uniform(0.05, 0.95)))
                       for c in centers]
    return detections, truths


class TestFrocMatchesScalarMatch:
    def test_credits_equal_match_on_radius_edges_and_ties(self):
        rng = np.random.default_rng(13)
        credited = []
        for _ in range(20):
            detections, truths = edge_scene(rng)
            for d in detections:
                alone = froc([d], truths).curve[0]
                hit = match(d, truths[d.scan_id])
                assert (alone.sensitivity > 0) == (hit is not None)
                credited.append(hit is not None)
            points, _ = froc_oracle(detections, truths)
            result = froc(detections, truths)
            assert [(p.threshold, p.fp_per_scan, p.sensitivity) for p in result.curve] == points
        assert any(credited) and not all(credited)


def loop_froc(detections, truths):
    """The per-detection sweep: sort by a key per detection, then match,
    credit and count detection by detection, closing a curve point after
    each group of equal scores. Returns (curve as tuples, sensitivities,
    average)."""
    n_scans, total = len(truths), sum(len(t) for t in truths)
    order = sorted(detections, key=lambda d: (-d.score, d.scan_id, d.box.x, d.box.y,
                                              d.box.z, d.box.diameter))
    claimed = [set() for _ in truths]
    tp = fp = 0
    curve = []
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
        curve.append((order[i].score, fp / n_scans, tp / total))
        i = j
    sens = sensitivity_at([CurvePoint(*p) for p in curve], FP_RATES)
    return curve, sens, sum(sens) / len(sens)


def as_arrays(detections):
    return (np.array([d.scan_id for d in detections], dtype=np.int64),
            np.array([d.box.center for d in detections], dtype=np.float64).reshape(-1, 3),
            np.array([d.score for d in detections], dtype=np.float64))


def rounding_scene(rng, n_scans=20):
    # distances that numpy rounds otherwise than math.dist. Even scans hold
    # one truth whose radius is the larger of the two roundings of its
    # distance to a detection, so match credits it exactly when math.dist
    # rounds lower. Odd scans hold two truths at one distance up to rounding
    # (the detection's offset to the first, permuted), which the roundings
    # order differently, and a lower-scored detection on the first truth,
    # which scores a second credit exactly when the first went to the second
    truths, detections = [], []
    while len(truths) < n_scans:
        center, a = rng.uniform(0, 30, (2, 3))
        b = center + (a - center)[rng.permutation(3)]
        exact = [math.dist(center, t) for t in (a, b)]
        rounded = [float(np.sqrt(((center - t) ** 2).sum())) for t in (a, b)]
        scan_id = len(truths)
        if scan_id % 2 == 0 and rounded[0] != exact[0]:
            truths.append([box(*a, 2 * max(rounded[0], exact[0]))])
        elif scan_id % 2 and (exact[1] < exact[0]) != (rounded[1] < rounded[0]):
            truths.append([box(*t, 4 * exact[0]) for t in (a, b)])
            detections.append(Detection(scan_id, box(*a), float(rng.uniform(0.0, 0.5))))
        else:
            continue
        detections.append(Detection(scan_id, box(*center), float(rng.uniform(0.5, 1.0))))
    return detections, truths


class TestFrocArrays:
    def scenes(self):
        # random scenes (scans without truths or without detections among
        # them), half with scores rounded to tie, the radius-edge and
        # distance-tie scenes, and distances that numpy rounds otherwise
        rng = np.random.default_rng(14)
        for n in range(200):
            detections, truths = random_scene(rng, n_scans=5)
            if n % 2:
                detections = [dataclasses.replace(d, score=round(d.score, 1))
                              for d in detections]
            yield detections, truths
        for _ in range(20):
            yield edge_scene(rng)
        for _ in range(5):
            yield rounding_scene(rng)

    def test_core_equals_the_per_detection_loop(self):
        tied = 0
        for detections, truths in self.scenes():
            result = froc_arrays(*as_arrays(detections), truths)
            curve, sens, average = loop_froc(detections, truths)
            assert [(p.threshold, p.fp_per_scan, p.sensitivity) for p in result.curve] == curve
            assert result.sensitivities == sens
            assert result.average == average
            assert froc(detections, truths) == result
            tied += len(curve) < len(detections)
        assert tied > 50

    def test_every_figure_is_a_python_float(self):
        for detections, truths in itertools.islice(self.scenes(), 20):
            result = froc_arrays(*as_arrays(detections), truths)
            assert all(type(x) is float for p in result.curve
                       for x in (p.threshold, p.fp_per_scan, p.sensitivity))
            assert all(type(x) is float for x in result.sensitivities + (result.average,))

    def test_unknown_scan_is_rejected(self):
        scan_ids, centers, scores = as_arrays([Detection(0, box(1, 1, 1), 0.5)] * 2)
        for bad in (1, -1):
            scan_ids[1] = bad
            with pytest.raises(ValueError, match=f"unknown scan {bad}"):
                froc_arrays(scan_ids, centers, scores, [[box(1, 1, 1)]])


def scanned_read_out(curve, targets):
    # the read-out curve point by curve point: best sensitivity within each target
    sens = []
    for target in targets:
        best = 0.0
        for point in curve:
            if point.fp_per_scan <= target:
                best = max(best, point.sensitivity)
        sens.append(best)
    return tuple(sens)


class TestSensitivityAt:
    def test_equals_scanning_the_whole_curve(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(0, 40))
            # non-decreasing columns with repeats, as a FROC sweep makes them
            fps = np.cumsum(rng.integers(0, 3, size=n) * rng.uniform(0.0, 1.0, size=n)) / 4
            sens = np.cumsum(rng.integers(0, 2, size=n)) / max(n, 1)
            curve = [CurvePoint(1.0 - k / (n + 1), float(f), float(s))
                     for k, (f, s) in enumerate(zip(fps, sens))]
            targets = list(FP_RATES) + rng.uniform(-1.0, 12.0, size=8).tolist()
            if n:
                # below the first point, on points, and above the last
                targets += [float(fps[0]) - 1e-9, float(fps[-1]) + 1.0,
                            float(fps[rng.integers(n)]), float(fps[0])]
            assert sensitivity_at(curve, targets) == scanned_read_out(curve, targets)
