"""Feature extraction, proposal scoring, and supervised training tests."""

import math

import numpy as np
import pytest

from weakem.detector import (DetectorParams, N_FEATURES, _anchor_grid, _stable_smallest,
                             _tables, anchor_geometry, anchor_loss, anchor_points,
                             examples_loss, extract_features, grid_logits, init_detector,
                             log_sigmoid, mine_negatives, propose, sgd_step, sigmoid,
                             stack_anchors, stacked_examples, supervised_examples,
                             supervised_loss)
from weakem.synthvol import GeneratorConfig, NoduleBox, Volume, generate_scan

EASY = GeneratorConfig(count_min=1, count_max=1, noise=0.01, clutter=0.02,
                       contrast_min=0.35, contrast_max=0.45,
                       diameter_min=6.0, diameter_max=8.0)


def uniform_volume(value=0.5, shape=(32, 32, 32)):
    return Volume(np.full(shape, value, dtype=np.float32), (2, 2, 2),
                  tuple(n - 2 for n in shape))


def random_volume(rng, shape=(24, 24, 24)):
    vox = rng.random(shape).astype(np.float32)
    return Volume(vox, (2, 2, 2), tuple(n - 2 for n in shape))


class TestSigmoid:
    def test_zero_maps_to_half(self):
        assert sigmoid(0.0) == 0.5

    def test_matches_closed_form(self):
        for x in (-30.0, -3.0, -0.5, 0.7, 4.0, 25.0):
            assert sigmoid(x) == pytest.approx(1.0 / (1.0 + math.exp(-x)), rel=1e-12)

    def test_log_forms_are_stable_at_extremes(self):
        assert float(log_sigmoid(1000.0)) == 0.0
        assert np.isfinite(log_sigmoid(-1000.0))


class TestExtractFeatures:
    def test_deterministic(self):
        vol = random_volume(np.random.default_rng(0))
        box = NoduleBox(10.3, 11.7, 12.1, 6.2)
        f1 = extract_features(vol, box)
        f2 = extract_features(vol, box)
        assert f1.shape == (N_FEATURES,)
        np.testing.assert_array_equal(f1, f2)

    def test_uniform_volume_has_zero_ring_contrast(self):
        vol = uniform_volume(0.5)
        feats = extract_features(vol, NoduleBox(16.0, 16.0, 16.0, 6.0))
        assert feats[3] == 0.0
        assert feats[0] == 0.5
        assert feats[1] == 0.5
        assert feats[2] == 0.0

    def test_nodule_box_beats_background_box(self):
        scan = generate_scan(21, EASY)
        t = scan.truth[0]
        on = extract_features(scan.volume, t)
        off_center = (t.x + 10) % 28 + 2, (t.y + 10) % 28 + 2, (t.z + 10) % 28 + 2
        off = extract_features(scan.volume, NoduleBox(*off_center, t.diameter))
        assert on[0] > off[0]
        assert on[3] > off[3]

    def test_box_outside_grid_raises(self):
        vol = uniform_volume()
        with pytest.raises(ValueError):
            extract_features(vol, NoduleBox(-40.0, 16.0, 16.0, 4.0))

    def test_log_diameter_component(self):
        vol = uniform_volume()
        feats = extract_features(vol, NoduleBox(16.0, 16.0, 16.0, 5.0))
        assert feats[7] == pytest.approx(math.log(5.0), rel=1e-12)


def mask_features(volume, box):
    # the descriptor from boolean masks of voxel centres, without
    # summed-volume tables or bounds arithmetic; None when the cube holds
    # no voxel centre
    vox = volume.voxels.astype(np.float64)
    grids = np.meshgrid(*(np.arange(n, dtype=np.float64) for n in vox.shape), indexing="ij")

    def cube(half):
        return np.logical_and.reduce([(g >= c - half) & (g <= c + half)
                                      for g, c in zip(grids, box.center)])

    inner, outer = cube(box.radius), cube(box.diameter)
    if not inner.any():
        return None
    shell = outer & ~inner
    mean = vox[inner].mean()
    contrast = mean - vox[shell].mean() if shell.any() else 0.0
    return np.array([mean, vox[inner].max(), vox[inner].std(), contrast,
                     box.x / vox.shape[0], box.y / vox.shape[1], box.z / vox.shape[2],
                     math.log(box.diameter)])


class TestFeatureOracle:
    def test_extract_features_equals_the_mask_reference(self):
        rng = np.random.default_rng(50)
        cases = 0
        for shape in ((24, 24, 24), (13, 9, 21), (9, 17, 10)):
            vol = Volume(rng.random(shape).astype(np.float32), (1, 1, 1),
                         tuple(n - 1 for n in shape))
            # a window sum is a difference of summed-volume table entries, so
            # its error is absolute: a few ulps of the largest entry, at most
            # the sum of all v (v in [0, 1]). The std is the root of
            # E[v^2] - mean^2, so it is compared squared: the root turns an
            # error of 1e-13 into one of 3e-7 where the variance is 0
            tol = 16 * np.finfo(np.float64).eps * float(vol.voxels.sum(dtype=np.float64))
            boxes = [NoduleBox(*(float(rng.uniform(-d / 2, n - 1 + d / 2)) for n in shape), d)
                     for d in rng.uniform(0.6, 14.0, size=60)]
            boxes += [NoduleBox(0.3, 4.6, 5.2, 7.3),  # inner cube clipped at the x edge
                      NoduleBox(shape[0] - 1.2, 4.4, 3.9, 3.1),  # shell leaves the grid
                      NoduleBox(4.3, 4.7, 4.1, 0.9),  # one voxel centre
                      NoduleBox(4.5, 4.5, 4.5, 0.9),  # no voxel centre
                      NoduleBox(*(n / 2 for n in shape), 60.0)]  # the whole grid, no shell
            for box in boxes:
                want = mask_features(vol, box)
                if want is None:
                    with pytest.raises(ValueError):
                        extract_features(vol, box)
                    continue
                got = extract_features(vol, box)
                cases += 1
                assert got[0] == pytest.approx(want[0], rel=1e-12)
                assert got[2] ** 2 == pytest.approx(want[2] ** 2, rel=1e-12, abs=tol)
                assert got[3] == pytest.approx(want[3], rel=1e-12, abs=tol)
                assert got[[1, 4, 5, 6, 7]].tolist() == want[[1, 4, 5, 6, 7]].tolist()
        assert cases > 150


class TestPropose:
    def test_count_is_grid_points_times_scales(self):
        vol = uniform_volume()
        params = init_detector((5.0, 8.0))
        props = propose(vol, params, stride=4)
        n_points = len(anchor_points(vol, 4))
        assert n_points == 7 ** 3
        assert len(props) == n_points * 2

    def test_anchor_ids_are_the_output_rank(self):
        vol = uniform_volume()
        props = propose(vol, init_detector((5.0, 8.0)), stride=6)
        assert [p.anchor_id for p in props] == list(range(len(props)))
        # scales cycle fastest
        assert props[0].box.diameter == 5.0
        assert props[1].box.diameter == 8.0
        assert props[0].box.center == props[1].box.center

    def test_zero_params_score_half_everywhere(self):
        vol = random_volume(np.random.default_rng(1))
        for p in propose(vol, init_detector((4.0,)), stride=5):
            assert p.logit == 0.0
            assert p.probability == 0.5

    def test_logits_match_per_box_features(self):
        # batched scoring must agree with the single-box path, borders included
        vol = random_volume(np.random.default_rng(2), shape=(24, 20, 26))
        rng = np.random.default_rng(3)
        params = DetectorParams(rng.normal(size=N_FEATURES + 2), (5.0, 8.0))
        for p in propose(vol, params, stride=3):
            feats = extract_features(vol, p.box)
            j = params.scales.index(p.box.diameter)
            expected = float(feats @ params.weights[:N_FEATURES]
                             + params.weights[N_FEATURES + j])
            assert p.logit == pytest.approx(expected, rel=1e-10, abs=1e-10)

    def test_handcrafted_weights_rank_the_nodule_first(self):
        weights = np.zeros(N_FEATURES + 2)
        weights[3] = 30.0        # ring contrast
        weights[N_FEATURES:] = -3.0
        params = DetectorParams(weights, (5.0, 8.0))
        for seed in range(5):
            scan = generate_scan(seed, EASY)
            t = scan.truth[0]
            props = propose(scan.volume, params, stride=2)
            best = max(props, key=lambda p: p.logit)
            assert math.dist(best.box.center, t.center) < t.radius

    def test_pure_function(self):
        vol = random_volume(np.random.default_rng(4))
        params = DetectorParams(np.random.default_rng(5).normal(size=N_FEATURES + 1), (6.0,))
        a = propose(vol, params, stride=4)
        b = propose(vol, params, stride=4)
        assert [(p.logit, p.anchor_id) for p in a] == [(p.logit, p.anchor_id) for p in b]


class TestLatticeMax:
    # the window-max feature is computed on the anchor lattice only

    @pytest.mark.parametrize("stride", [1, 2, 3, 4, 5])
    def test_equals_the_per_box_max_and_the_full_volume_filter(self, stride):
        from scipy.ndimage import maximum_filter  # a test oracle only
        rng = np.random.default_rng(40 + stride)
        shape = ((13, 9, 11), (9, 14, 10))[stride % 2]
        vox = rng.random(shape).astype(np.float32)
        # lung edges off the stride lattice, and one axis spanning the grid
        vol = Volume(vox, (1, 0, 2), (shape[0] - 1, shape[1], shape[2] - 1))
        scales = (1.5, 5.0, 8.0, 50.0)  # reaches 0, 2, 4 and beyond the grid
        features = _anchor_grid(vol, stride, scales).features
        pts = anchor_points(vol, stride)
        for j, scale in enumerate(scales):
            reach = int(math.floor(scale / 2.0))
            filtered = maximum_filter(vox, size=2 * reach + 1, mode="constant", cval=-np.inf)
            np.testing.assert_array_equal(features[j, :, 1],
                                          filtered[pts[:, 0], pts[:, 1], pts[:, 2]])
            np.testing.assert_array_equal(
                features[j, :, 1],
                [extract_features(vol, NoduleBox(*map(float, p), scale))[1] for p in pts])


# (volume shape, lung_lo, lung_hi, stride, scales): non-integer scales, lung
# edges off the stride lattice, strides 1-4 and a non-cubic volume
FEATURE_CASES = [
    ((24, 24, 24), (1, 2, 3), (7, 6, 9), 1, (5.3, 7.7, 11.0)),
    ((24, 24, 24), (2, 1, 0), (15, 13, 14), 3, (5.3, 7.7, 11.0)),
    ((24, 24, 24), (3, 2, 1), (22, 19, 20), 4, (5.0, 8.0)),
    ((24, 24, 24), (2, 3, 1), (21, 18, 22), 4, (5.3, 7.7, 11.0)),
    ((17, 26, 12), (0, 3, 1), (17, 24, 11), 2, (1.5, 6.2, 9.0)),
]


class TestAnchorFeatures:
    # training reads anchor boxes' features from the grid alone, so the grid
    # must equal the per-box path exactly

    @pytest.mark.parametrize("shape, lung_lo, lung_hi, stride, scales", FEATURE_CASES)
    def test_grid_rows_equal_extract_features_bitwise(self, shape, lung_lo, lung_hi, stride,
                                                      scales):
        rng = np.random.default_rng(stride + len(scales))
        vol = Volume(rng.random(shape).astype(np.float32), lung_lo, lung_hi)
        grid = _anchor_grid(vol, stride, scales)
        rows = grid.features[np.arange(len(grid.diameters)) % len(scales),
                             np.arange(len(grid.diameters)) // len(scales)]
        want = np.array([extract_features(vol, grid.box(i)) for i in range(len(rows))])
        assert rows.shape == (len(want), N_FEATURES)
        assert np.array_equal(rows, want)

    def test_in_place_tables_equal_the_cumsum_chain(self):
        rng = np.random.default_rng(9)
        for shape in ((8, 8, 8), (17, 26, 12), (32, 32, 32), (64, 64, 64)):
            vox = rng.random(shape).astype(np.float32)
            v = vox.astype(np.float64)
            tables = _tables(vox)
            assert tables.shape == (2,) + tuple(n + 1 for n in shape)
            for table, values in zip(tables, (v, v * v)):
                want = np.zeros(tuple(n + 1 for n in shape))
                want[1:, 1:, 1:] = values.cumsum(0).cumsum(1).cumsum(2)
                assert np.array_equal(table, want)

    def test_grids_over_one_lung_box_share_read_only_geometry(self):
        rng = np.random.default_rng(10)
        first, second = random_volume(rng), random_volume(rng)
        a, b = _anchor_grid(first, 4, (5.0, 8.0)), _anchor_grid(second, 4, (5.0, 8.0))
        assert a.centers is b.centers and a.diameters is b.diameters
        assert a.features is not b.features
        assert not a.centers.flags.writeable and not a.diameters.flags.writeable
        assert anchor_geometry(first.lung_lo, first.lung_hi, 4, (5.0, 8.0))[0] is a.centers
        assert "sat" not in first._cache


class TestSupervisedLoss:
    def test_single_positive_at_zero_logit_gives_log2(self):
        vol = uniform_volume()
        params = init_detector((6.0,))
        loss, _ = supervised_loss(vol, [NoduleBox(16.0, 16.0, 16.0, 6.0)], [], params)
        assert loss == pytest.approx(math.log(2.0), rel=1e-12)

    def test_confident_positive_contributes_nothing(self):
        vol = uniform_volume()
        weights = np.zeros(N_FEATURES + 1)
        weights[N_FEATURES] = 500.0
        params = DetectorParams(weights, (6.0,))
        loss, _ = supervised_loss(vol, [NoduleBox(16.0, 16.0, 16.0, 6.0)], [], params)
        assert 0.0 <= loss < 1e-200

    def test_balanced_averaging(self):
        # two identical positives average to the single-box loss
        vol = uniform_volume()
        params = init_detector((6.0,))
        box = NoduleBox(16.0, 16.0, 16.0, 6.0)
        one, _ = supervised_loss(vol, [box], [], params)
        two, _ = supervised_loss(vol, [box, box], [], params)
        assert two == pytest.approx(one, rel=1e-12)

    def test_empty_both_sides_raises(self):
        with pytest.raises(ValueError):
            supervised_loss(uniform_volume(), [], [], init_detector((6.0,)))

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(6)
        step = 1e-5
        worst = 0.0
        for trial in range(25):
            vol = random_volume(rng)
            params = DetectorParams(rng.normal(scale=0.5, size=N_FEATURES + 2), (4.0, 7.0))
            boxes = [NoduleBox(float(rng.uniform(4, 19)), float(rng.uniform(4, 19)),
                               float(rng.uniform(4, 19)), float(rng.uniform(3, 8)))
                     for _ in range(5)]
            positives, negatives = boxes[:2], boxes[2:]
            _, grad = supervised_loss(vol, positives, negatives, params)
            for i in range(len(params.weights)):
                wp = params.weights.copy()
                wp[i] += step
                lp, _ = supervised_loss(vol, positives, negatives,
                                        DetectorParams(wp, params.scales))
                wm = params.weights.copy()
                wm[i] -= step
                lm, _ = supervised_loss(vol, positives, negatives,
                                        DetectorParams(wm, params.scales))
                fd = (lp - lm) / (2 * step)
                denom = max(abs(fd), abs(grad[i]), 1e-8)
                worst = max(worst, abs(fd - grad[i]) / denom)
        assert worst < 1e-4


class TestSgdStep:
    def test_pure_and_moves_against_gradient(self):
        params = init_detector((6.0,))
        grad = np.ones_like(params.weights)
        stepped = sgd_step(params, grad, 0.25)
        assert np.all(stepped.weights == -0.25)
        assert np.all(params.weights == 0.0)

    def test_quadratic_toy_loss_decreases_to_optimum(self):
        # loss(w) = 0.5 (w0 - 3)^2, gradient only in the first weight
        params = init_detector((6.0,))
        prev = 0.5 * (params.weights[0] - 3.0) ** 2
        for _ in range(100):
            grad = np.zeros_like(params.weights)
            grad[0] = params.weights[0] - 3.0
            params = sgd_step(params, grad, 0.2)
            cur = 0.5 * (params.weights[0] - 3.0) ** 2
            assert cur < prev or cur < 1e-20
            prev = cur
        assert params.weights[0] == pytest.approx(3.0, abs=1e-6)

    def test_non_finite_gradient_raises(self):
        params = init_detector((6.0,))
        grad = np.zeros_like(params.weights)
        grad[0] = np.nan
        with pytest.raises(ValueError):
            sgd_step(params, grad, 0.1)
        with pytest.raises(ValueError):
            sgd_step(params, np.zeros_like(params.weights), 0.0)


def anchor_centers(volume, ids, stride, n_scales):
    # grid point of each anchor_id, through anchor_points
    return anchor_points(volume, stride)[np.asarray(ids) // n_scales]


class TestSupervisedExamples:
    def test_positive_anchors_cover_each_truth(self):
        scan = generate_scan(31, GeneratorConfig(count_min=2, count_max=2))
        positives, _ = supervised_examples(scan.volume, scan.truth,
                                           init_detector((5.0, 8.0)), stride=2)
        centers = anchor_centers(scan.volume, positives, 2, 2)
        for t in scan.truth:
            assert any(math.dist(c, t.center) <= t.radius for c in centers)

    def test_fallback_when_stride_skips_a_truth(self):
        vol = uniform_volume()
        tiny = NoduleBox(5.3, 5.2, 5.1, 1.0)
        positives, _ = supervised_examples(vol, [tiny], init_detector((5.0,)), stride=8)
        assert len(positives) == 1

    def test_negative_count_and_separation(self):
        scan = generate_scan(33, GeneratorConfig(count_min=1, count_max=1))
        params = init_detector((5.0, 8.0))
        positives, negatives = supervised_examples(scan.volume, scan.truth, params, stride=4)
        assert len(negatives) == max(2, 2 * len(positives))
        for c in anchor_centers(scan.volume, negatives, 4, 2):
            for t in scan.truth:
                assert math.dist(c, t.center) > t.radius

    def test_no_truth_still_yields_negatives(self):
        scan = generate_scan(34, GeneratorConfig(count_min=0, count_max=0))
        params = init_detector((5.0, 8.0))
        positives, negatives = supervised_examples(scan.volume, scan.truth, params, stride=4)
        assert len(positives) == 0
        assert len(negatives) == 2


def loop_loss(volume, positives, negatives, params):
    # the objective box by box with scalar arithmetic: the reference for the
    # vectorised cross-entropy
    loss, grad = 0.0, np.zeros_like(params.weights)
    for boxes, positive in ((positives, True), (negatives, False)):
        for b in boxes:
            feats = extract_features(volume, b)
            j = min(range(len(params.scales)),
                    key=lambda k: abs(math.log(b.diameter) - math.log(params.scales[k])))
            p = 1.0 / (1.0 + math.exp(-float(feats @ params.weights[:N_FEATURES]
                                             + params.weights[N_FEATURES + j])))
            loss -= math.log(p if positive else 1.0 - p) / len(boxes)
            slope = ((p - 1.0) if positive else p) / len(boxes)
            grad[:N_FEATURES] += slope * feats
            grad[N_FEATURES + j] += slope
    return loss, grad


class TestAnchorLoss:
    def test_id_path_matches_box_edge(self):
        # the supervised pass scores anchor ids from the cached grid; the
        # same anchors as NoduleBoxes through supervised_loss give the same
        # loss and gradient, and the box-by-box loop agrees with both
        scan = generate_scan(35, GeneratorConfig(count_min=2, count_max=3))
        scales, stride = (5.0, 8.0), 4
        pts = anchor_points(scan.volume, stride)
        rng = np.random.default_rng(8)

        def boxes(ids):
            return [NoduleBox(*map(float, pts[i // len(scales)]), scales[i % len(scales)])
                    for i in ids]

        for _ in range(5):
            params = DetectorParams(rng.normal(scale=0.8, size=N_FEATURES + 2), scales)
            positives, negatives = supervised_examples(scan.volume, scan.truth, params, stride)
            loss, grad = anchor_loss(scan.volume, positives, negatives, params, stride)
            want_loss, want_grad = supervised_loss(scan.volume, boxes(positives),
                                                   boxes(negatives), params)
            assert loss == pytest.approx(want_loss, rel=1e-12)
            np.testing.assert_allclose(grad, want_grad, rtol=1e-12, atol=0.0)
            ref_loss, ref_grad = loop_loss(scan.volume, boxes(positives), boxes(negatives),
                                           params)
            assert want_loss == pytest.approx(ref_loss, rel=1e-9)
            np.testing.assert_allclose(want_grad, ref_grad, rtol=1e-9, atol=1e-12)

    def test_box_scoring_adds_no_cache_entries(self):
        scan = generate_scan(36, GeneratorConfig())
        params = init_detector((5.0, 8.0))
        supervised_loss(scan.volume, [NoduleBox(16.0, 16.0, 16.0, 6.0)], [], params)
        before = len(scan.volume._cache)
        boxes = [NoduleBox(6.0 + 0.4 * i, 12.0, 16.0, 6.0) for i in range(50)]
        supervised_loss(scan.volume, boxes[:20], boxes[20:], params)
        assert len(scan.volume._cache) == before


def mixed_labeled_scans():
    # (volume, truths) pairs with different lung boxes: two generated scans,
    # a scan with no truths (k = 2), and a small lung whose one truth covers
    # 7 of its 8 grid points, leaving 2 candidates for k = 14
    rng = np.random.default_rng(21)
    a = generate_scan(37, GeneratorConfig(count_min=2, count_max=3))
    b = generate_scan(38, GeneratorConfig(dims=(28, 32, 24), count_min=1, count_max=1))
    empty = generate_scan(39, GeneratorConfig(count_min=0, count_max=0))
    small = Volume(rng.random((12, 12, 12)).astype(np.float32), (2, 2, 2), (10, 10, 10))
    return [(a.volume, a.truth), (b.volume, b.truth), (empty.volume, []),
            (small, [NoduleBox(3.0, 3.0, 3.0, 9.0)])]


def per_scan_negatives(volume, truths, params, stride):
    # each scan's negatives without the stack: lowest (-logit, anchor_id) of
    # the anchors whose grid point lies outside every truth radius
    pts = anchor_points(volume, stride)
    outside = np.ones(len(pts), dtype=bool)
    for t in truths:
        outside &= ((pts - np.asarray(t.center)) ** 2).sum(axis=1) > t.radius ** 2
    candidates = np.flatnonzero(np.repeat(outside, len(params.scales)))
    logits = grid_logits(volume, params, stride).ravel()[candidates]
    positives, _ = supervised_examples(volume, truths, params, stride)
    return candidates[np.lexsort((candidates, -logits))][:max(2, 2 * len(positives))]


class TestStackedPass:
    scales, stride = (5.0, 8.0), 4

    def stack(self, labeled):
        stack = stack_anchors(labeled, self.stride, self.scales)
        firsts = np.cumsum([0] + [len(anchor_points(v, self.stride)) * len(self.scales)
                                  for v, _ in labeled])
        return stack, firsts

    def test_loss_and_gradient_are_the_mean_over_scans(self):
        labeled = mixed_labeled_scans()
        stack, _ = self.stack(labeled)
        rng = np.random.default_rng(22)
        for _ in range(5):
            params = DetectorParams(rng.normal(scale=0.8, size=N_FEATURES + 2), self.scales)
            loss, grad = examples_loss(stacked_examples(stack, params), params)
            scored = [anchor_loss(v, *supervised_examples(v, truths, params, self.stride),
                                  params, self.stride) for v, truths in labeled]
            assert loss == pytest.approx(np.mean([l for l, _ in scored]), rel=1e-12)
            np.testing.assert_allclose(grad, np.mean([g for _, g in scored], axis=0),
                                       rtol=1e-12, atol=0.0)

    def test_mined_negatives_equal_each_scans_own(self):
        labeled = mixed_labeled_scans()
        stack, firsts = self.stack(labeled)
        rng = np.random.default_rng(23)
        tied = [np.zeros(N_FEATURES + 2), np.r_[np.zeros(N_FEATURES), -1.0, 1.0],
                np.r_[np.zeros(4), 1.0, np.zeros(5)]]
        for weights in tied + [rng.normal(scale=0.8, size=N_FEATURES + 2) for _ in range(3)]:
            # the tied logits (all, per scale, per x) break by anchor_id alone
            params = DetectorParams(weights, self.scales)
            mined = mine_negatives(stack, params)
            for (v, truths), first, positives, negatives in zip(labeled, firsts, stack.positives,
                                                                 mined):
                own = supervised_examples(v, truths, params, self.stride)
                np.testing.assert_array_equal(positives - first, own[0])
                np.testing.assert_array_equal(negatives - first, own[1])
                np.testing.assert_array_equal(own[1], per_scan_negatives(v, truths, params,
                                                                         self.stride))
        assert [len(p) for p in stack.positives[2:]] == [0, 7]
        assert [len(c) for c in stack.candidates[2:]] == [firsts[3] - firsts[2], 2]
        assert [len(n) for n in mined[2:]] == [2, 2]

    def test_partial_selection_equals_the_stable_argsort(self):
        rng = np.random.default_rng(24)
        cases = [
            (np.zeros(50), 7),  # all tied
            (np.r_[np.zeros(3), np.ones(10), np.full(5, 2.0)], 6),  # ties straddle the k-th
            (rng.normal(size=5), 5), (rng.normal(size=5), 9),  # k at or past the count
            (np.array([1.0, np.nan, 0.0, np.nan]), 3),  # NaN in the k-th place
        ]
        for n in range(200):
            keys = rng.normal(size=int(rng.integers(1, 80)))
            cases.append((np.round(keys, 1) if n % 2 else keys, int(rng.integers(1, 20))))
        for keys, k in cases:
            np.testing.assert_array_equal(_stable_smallest(keys, k),
                                          np.argsort(keys, kind="stable")[:k])


class TestDetectorParams:
    def test_round_trip_dict(self):
        rng = np.random.default_rng(7)
        params = DetectorParams(rng.normal(size=N_FEATURES + 2), (5.0, 8.0))
        again = DetectorParams.from_dict(params.to_dict())
        np.testing.assert_array_equal(params.weights, again.weights)
        assert params.scales == again.scales

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            DetectorParams(np.zeros(N_FEATURES), (5.0, 8.0))
        with pytest.raises(ValueError):
            DetectorParams(np.zeros(N_FEATURES + 1), ())
