"""FROC matching and staircase tests."""

import itertools
import math

import numpy as np
import pytest

from weakem.froc import FP_RATES, Detection, froc, match
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
