"""EM engine tests: IoU, filtering, posterior, inference, and the training loop."""

import dataclasses
import math

import numpy as np
import pytest

from weakem import em
from weakem.detector import (DetectorParams, N_FEATURES, Proposal, _anchor_grid, anchor_loss,
                             init_detector, propose, sigmoid, supervised_examples)
from weakem.em import (EmConfig, ModelParams, NoProposalsError, Posterior,
                       _box_arrays, _grid_conflicts, _scan_filtered, _supervised_pass,
                       _sweep_pairs, _weak_batch_m_step, evaluate_froc,
                       filter_proposals, hard_negatives, infer_map, infer_sampling,
                       initialize_params, iou_3d, load_checkpoint, posterior, q_value,
                       read_metrics_csv, save_checkpoint, scan_detections, train_em,
                       weak_m_step, write_metrics_csv)
from weakem.synthvol import (GeneratorConfig, NoduleBox, Volume, WeakLabel,
                             attach_weak_labels, generate_scan, lobe_of)
from weakem.weaklik import (HalfGaussianParams, LobeParams, init_lobe_params,
                            lobe_likelihood, lobe_objective, slice_likelihood)


def box(x, y, z, d=6.0):
    return NoduleBox(float(x), float(y), float(z), float(d))


def flat_volume(shape=(32, 32, 32)):
    return Volume(np.zeros(shape, dtype=np.float32), (2, 2, 2),
                  tuple(n - 2 for n in shape))


def uniform_model(sigma=2.0, mu=0.0, scales=(5.0, 8.0)) -> ModelParams:
    return ModelParams(init_detector(scales), init_lobe_params(),
                       HalfGaussianParams(sigma=sigma, mu=mu))


def make_dataset(n, seed0=0, cfg=None, weak=False):
    cfg = cfg or GeneratorConfig()
    scans = []
    for i in range(n):
        scan = generate_scan(seed0 + i, cfg)
        if weak:
            rng = np.random.default_rng(seed0 + i + 1000)
            scan = attach_weak_labels(scan, cfg.weak_sigma, cfg.weak_mu, rng)
        scans.append(scan)
    return scans


class TestIou3d:
    def test_identical_is_one(self):
        assert iou_3d(box(5, 5, 5, 4.0), box(5, 5, 5, 4.0)) == 1.0

    def test_disjoint_is_zero(self):
        assert iou_3d(box(5, 5, 5, 4.0), box(20, 20, 20, 4.0)) == 0.0
        assert iou_3d(box(5, 5, 5, 4.0), box(9, 5, 5, 4.0)) == 0.0  # touching faces

    def test_unit_cubes_offset_half(self):
        a = box(0, 0, 0, 1.0)
        b = box(0.5, 0, 0, 1.0)
        assert iou_3d(a, b) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            a = box(*rng.uniform(0, 10, 3), rng.uniform(0.5, 6))
            b = box(*rng.uniform(0, 10, 3), rng.uniform(0.5, 6))
            ab, ba = iou_3d(a, b), iou_3d(b, a)
            assert ab == ba
            assert 0.0 <= ab <= 1.0


def nms_oracle(proposals, cfg):
    # independent quadratic reimplementation of threshold plus greedy NMS
    alive = [p for p in proposals if p.logit >= cfg.logit_threshold]
    alive = sorted(alive, key=lambda p: (-p.logit, p.anchor_id))
    kept = []
    for p in alive:
        ok = True
        for k in kept:
            if iou_3d(p.box, k.box) > cfg.nms_iou:
                ok = False
                break
        if ok:
            kept.append(p)
    return kept


def random_proposals(rng, n, spread=20.0):
    out = []
    for i in range(n):
        out.append(Proposal(box(rng.uniform(0, spread), rng.uniform(0, spread),
                                rng.uniform(0, spread), rng.uniform(2, 8)),
                            float(rng.normal(0, 3)), i))
    return out


class TestFilterProposals:
    def test_all_below_threshold_gives_empty(self):
        cfg = EmConfig()
        props = [Proposal(box(5, 5, 5), -4.0, 0), Proposal(box(9, 9, 9), -3.5, 1)]
        assert filter_proposals(props, cfg) == []

    def test_threshold_boundary_is_kept(self):
        cfg = EmConfig()
        props = [Proposal(box(5, 5, 5), -3.0, 0)]
        assert len(filter_proposals(props, cfg)) == 1

    def test_identical_boxes_keep_lower_anchor_id(self):
        cfg = EmConfig()
        props = [Proposal(box(5, 5, 5), 0.0, 3), Proposal(box(5, 5, 5), 0.0, 1)]
        kept = filter_proposals(props, cfg)
        assert len(kept) == 1
        assert kept[0].anchor_id == 1

    def test_survivors_are_sorted_and_pairwise_separated(self):
        cfg = EmConfig()
        rng = np.random.default_rng(1)
        kept = filter_proposals(random_proposals(rng, 150), cfg)
        for a, b in zip(kept, kept[1:]):
            assert a.logit >= b.logit
        for i, a in enumerate(kept):
            assert a.logit >= cfg.logit_threshold
            for b in kept[i + 1:]:
                assert iou_3d(a.box, b.box) <= cfg.nms_iou

    def test_matches_quadratic_oracle(self):
        rng = np.random.default_rng(2)
        for cfg in (EmConfig(), EmConfig(nms_iou=0.01), EmConfig(nms_iou=0.5)):
            for _ in range(100):
                props = random_proposals(rng, int(rng.integers(0, 60)), spread=12.0)
                got = filter_proposals(props, cfg)
                want = nms_oracle(props, cfg)
                assert [p.anchor_id for p in got] == [p.anchor_id for p in want]

    def test_sweep_holds_each_overlapping_pair_once_at_any_chunk_size(self, monkeypatch):
        props = random_proposals(np.random.default_rng(3), 80, spread=12.0)
        edges, _ = _box_arrays(np.array([p.box.center for p in props]),
                               np.array([p.box.diameter for p in props]))
        overlapping = {(i, j) for i in range(80) for j in range(i + 1, 80)
                       if iou_3d(props[i].box, props[j].box) > 0}
        assert len(overlapping) > 100
        for chunk in (1, 7, 1 << 16):
            monkeypatch.setattr(em, "_SWEEP_CHUNK", chunk)
            pairs = [tuple(sorted(ab)) for a, b in _sweep_pairs(edges)
                     for ab in zip(a.tolist(), b.tolist())]
            assert len(pairs) == len(set(pairs))
            assert overlapping <= set(pairs)


class TestScanDetections:
    def test_matches_quadratic_oracle_as_weights_move(self):
        # the whole anchor grid of a generated scan, rescored under several
        # weight vectors, against the pairwise iou_3d oracle
        cfg = EmConfig()
        scan = generate_scan(11, GeneratorConfig())
        rng = np.random.default_rng(6)
        for _ in range(5):
            weights = rng.normal(scale=1.5, size=N_FEATURES + 2)
            params = ModelParams(DetectorParams(weights, (5.0, 8.0)),
                                 init_lobe_params(), HalfGaussianParams(1.5, 1.63))
            got = scan_detections(scan.volume, params, cfg, scan_id=3)
            kept = nms_oracle(propose(scan.volume, params.detector, cfg.stride), cfg)
            assert len(kept) > 1
            assert [(d.scan_id, d.box, d.score) for d in got] == \
                   [(3, p.box, p.probability) for p in kept]

    def test_scores_equal_proposal_probability_bit_for_bit(self):
        cfg = EmConfig(logit_threshold=-40.0)
        scan = generate_scan(13, GeneratorConfig())
        rng = np.random.default_rng(8)
        logits = []
        for scale in (0.5, 4.0, 20.0, 20.0):
            weights = rng.normal(scale=scale, size=N_FEATURES + 2)
            params = ModelParams(DetectorParams(weights, (5.0, 8.0)),
                                 init_lobe_params(), HalfGaussianParams(1.5, 1.63))
            kept = _scan_filtered(scan.volume, params, cfg)
            got = scan_detections(scan.volume, params, cfg)
            assert len(got) == len(kept) > 1
            assert [d.score.hex() for d in got] == [p.probability.hex() for p in kept]
            logits += [p.logit for p in kept]
        assert min(logits) < -10 and max(logits) > 10

    def test_no_quadratic_cache_at_64(self):
        # memory per scanned volume must stay linear in the anchor count
        cfg = EmConfig()
        scan = generate_scan(12, GeneratorConfig(dims=(64, 64, 64)))
        params = uniform_model()
        n_anchors = len(propose(scan.volume, params.detector, cfg.stride))
        scan_detections(scan.volume, params, cfg)

        def arrays(value):
            if isinstance(value, np.ndarray):
                yield value
            elif isinstance(value, (tuple, list)):
                for item in value:
                    yield from arrays(item)

        sizes = [a.size for v in scan.volume._cache.values() for a in arrays(v)]
        assert sizes
        assert max(sizes) < n_anchors ** 2


# small anchor grids: (lung_lo, lung_hi, stride, scales), with non-integer
# scales and lung boxes whose extent is not a multiple of the stride
GRID_CASES = [
    ((1, 2, 3), (7, 6, 9), 1, (5.3, 7.7, 11.0)),
    ((2, 1, 0), (15, 13, 14), 3, (5.3, 7.7, 11.0)),
    ((3, 2, 1), (22, 19, 20), 4, (5.0, 8.0)),
    ((2, 3, 1), (21, 18, 22), 4, (5.3, 7.7, 11.0)),
]
NMS_IOUS = (0.05, 0.1, 0.5)


def grid_volume(lung_lo, lung_hi, seed=0):
    rng = np.random.default_rng(seed)
    return Volume(rng.random((24, 24, 24)).astype(np.float32), lung_lo, lung_hi)


class TestConflictGraph:
    @pytest.mark.parametrize("lung_lo, lung_hi, stride, scales", GRID_CASES)
    def test_lists_equal_all_pairs_iou(self, lung_lo, lung_hi, stride, scales):
        grid = _anchor_grid(grid_volume(lung_lo, lung_hi), stride, scales)
        boxes = [grid.box(i) for i in range(len(grid.diameters))]
        iou = [[iou_3d(a, b) for b in boxes] for a in boxes]
        assert any(0.05 < x < 1 for row in iou for x in row)
        for nms_iou in NMS_IOUS:
            offsets, neighbours = _grid_conflicts(lung_lo, lung_hi, stride, scales, nms_iou)
            assert offsets.dtype == neighbours.dtype == np.int32
            assert len(offsets) == len(boxes) + 1
            got = [sorted(neighbours[offsets[i]:offsets[i + 1]].tolist())
                   for i in range(len(boxes))]
            want = [[j for j in range(len(boxes)) if j != i and iou[i][j] > nms_iou]
                    for i in range(len(boxes))]
            assert got == want

    @pytest.mark.parametrize("lung_lo, lung_hi, stride, scales", GRID_CASES)
    def test_scan_filter_matches_quadratic_oracle(self, lung_lo, lung_hi, stride, scales):
        volume = grid_volume(lung_lo, lung_hi, seed=stride)
        rng = np.random.default_rng(len(scales) + stride)
        kept = []
        for nms_iou in NMS_IOUS:
            for _ in range(3):
                detector = DetectorParams(rng.normal(scale=1.5, size=N_FEATURES + len(scales)),
                                          scales)
                params = ModelParams(detector, init_lobe_params(), HalfGaussianParams(1.5, 1.63))
                proposals = propose(volume, detector, stride)
                # a threshold that drops about a third of the anchors
                threshold = float(np.quantile([p.logit for p in proposals], 0.3))
                cfg = EmConfig(logit_threshold=threshold, nms_iou=nms_iou, stride=stride,
                               anchor_scales=scales)
                want = nms_oracle(proposals, cfg)
                assert _scan_filtered(volume, params, cfg) == want
                kept.append(len(want))
        assert max(kept) > 1

    def test_one_build_per_geometry_and_a_bounded_cache(self):
        cfg = EmConfig()
        params = uniform_model()
        first, second = flat_volume(), flat_volume()
        _grid_conflicts.cache_clear()
        scan_detections(first, params, cfg)
        scan_detections(second, params, cfg)
        assert _grid_conflicts.cache_info().misses == 1
        assert _grid_conflicts.cache_info().hits == 1
        scan_detections(first, params, dataclasses.replace(cfg, nms_iou=0.2))
        scan_detections(first, params, dataclasses.replace(cfg, stride=3))
        assert _grid_conflicts.cache_info().misses == 3
        assert _grid_conflicts.cache_info().currsize == 3
        for nms_iou in (0.3, 0.4, 0.5, 0.6):
            scan_detections(second, params, dataclasses.replace(cfg, nms_iou=nms_iou))
        assert _grid_conflicts.cache_info().currsize == _grid_conflicts.cache_info().maxsize


def naive_posterior(proposals, weak, volume, params):
    # direct product then normalize, no log space
    w = np.array([sigmoid(p.logit)
                  * slice_likelihood(weak.z, p.box, params.slice_noise)
                  * lobe_likelihood(weak.lobe, p.box, volume, params.lobe)
                  for p in proposals])
    return w / w.sum()


class TestPosterior:
    def test_single_proposal_gets_weight_one(self):
        vol = flat_volume()
        post = posterior([Proposal(box(10, 10, 10), 0.5, 0)], WeakLabel(1, 10), vol,
                         uniform_model())
        assert post.weights.tolist() == [1.0]

    def test_ten_slices_farther_ratio(self):
        # equal logits and uniform lobes: ratio is exp(-(10^2 - 0^2) / (2 sigma^2))
        vol = flat_volume((32, 32, 48))
        props = [Proposal(box(10, 10, 10), 0.8, 0), Proposal(box(10, 10, 20), 0.8, 1)]
        post = posterior(props, WeakLabel(1, 10), vol, uniform_model(sigma=2.0, mu=0.0))
        ratio = float(post.weights[1] / post.weights[0])
        assert ratio == pytest.approx(math.exp(-100.0 / 8.0), rel=1e-9)

    def test_weights_sum_to_one(self):
        vol = flat_volume()
        rng = np.random.default_rng(3)
        model = uniform_model(sigma=1.5, mu=1.63)
        for _ in range(50):
            props = [Proposal(box(rng.uniform(3, 28), rng.uniform(3, 28),
                                  rng.uniform(3, 28), rng.uniform(3, 8)),
                              float(rng.normal(0, 2)), i) for i in range(8)]
            post = posterior(props, WeakLabel(int(rng.integers(1, 7)),
                                              int(rng.integers(3, 28))), vol, model)
            assert abs(float(post.weights.sum()) - 1.0) < 1e-9

    def test_matches_naive_product_oracle(self):
        vol = flat_volume()
        rng = np.random.default_rng(4)
        lobe = LobeParams(rng.normal(scale=0.5, size=(6, 4)))
        model = ModelParams(init_detector((5.0,)), lobe, HalfGaussianParams(2.0, 1.63))
        for _ in range(200):
            props = [Proposal(box(rng.uniform(3, 28), rng.uniform(3, 28),
                                  rng.uniform(3, 28), rng.uniform(3, 8)),
                              float(rng.normal(0, 2.5)), i)
                     for i in range(int(rng.integers(1, 12)))]
            weak = WeakLabel(int(rng.integers(1, 7)), int(rng.integers(3, 28)))
            got = posterior(props, weak, vol, model).weights
            want = naive_posterior(props, weak, vol, model)
            assert np.max(np.abs(got - want)) < 1e-9

    def test_empty_support_raises(self):
        with pytest.raises(NoProposalsError):
            posterior([], WeakLabel(1, 10), flat_volume(), uniform_model())


class TestInference:
    def make_posterior(self, weights, anchor_ids=None):
        n = len(weights)
        anchor_ids = anchor_ids or list(range(n))
        support = [Proposal(box(5 + i, 5, 5), 0.0, anchor_ids[i]) for i in range(n)]
        return Posterior(support, np.asarray(weights, dtype=np.float64))

    def test_map_is_argmax(self):
        post = self.make_posterior([0.2, 0.5, 0.3])
        assert infer_map(post).anchor_id == 1

    def test_map_tie_takes_lower_anchor_id(self):
        post = self.make_posterior([0.25, 0.25, 0.5], anchor_ids=[7, 2, 9])
        assert infer_map(post).anchor_id == 9
        post = self.make_posterior([0.5, 0.5], anchor_ids=[4, 1])
        assert infer_map(post).anchor_id == 1

    def test_map_matches_linear_scan_on_random_posteriors(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            w = rng.random(int(rng.integers(1, 10)))
            w /= w.sum()
            post = self.make_posterior(w.tolist())
            best = max(range(len(w)), key=lambda i: (w[i], -post.support[i].anchor_id))
            assert infer_map(post).anchor_id == post.support[best].anchor_id

    def test_sampling_degenerate_posterior(self):
        post = self.make_posterior([0.0, 1.0, 0.0])
        rng = np.random.default_rng(6)
        for _ in range(20):
            drawn = infer_sampling(post, 2, rng)
            assert len(drawn) == 2
            assert all(p.anchor_id == 1 for p in drawn)

    def test_sampling_frequencies_match_weights(self):
        post = self.make_posterior([0.6, 0.3, 0.1])
        rng = np.random.default_rng(7)
        draws = infer_sampling(post, 30_000, rng)
        counts = np.bincount([p.anchor_id for p in draws], minlength=3) / 30_000
        tv = 0.5 * float(np.abs(counts - np.array([0.6, 0.3, 0.1])).sum())
        assert tv < 0.01

    def test_sampling_is_reproducible(self):
        post = self.make_posterior([0.4, 0.6])
        a = [p.anchor_id for p in infer_sampling(post, 10, np.random.default_rng(8))]
        b = [p.anchor_id for p in infer_sampling(post, 10, np.random.default_rng(8))]
        assert a == b

    def test_posterior_validation(self):
        with pytest.raises(ValueError):
            Posterior([Proposal(box(5, 5, 5), 0.0, 0)], np.array([0.9]))
        with pytest.raises(ValueError):
            infer_sampling(self.make_posterior([1.0]), 0, np.random.default_rng(0))


class TestHardNegatives:
    def proposals_at_slices(self, zs, logits=None):
        logits = logits or [1.0] * len(zs)
        return [Proposal(box(10, 10, z), logits[i], i) for i, z in enumerate(zs)]

    def test_no_weak_labels_returns_top_two(self):
        cfg = EmConfig(neg_slice_margin=5.0)
        props = self.proposals_at_slices([5, 10, 15, 20], logits=[0.5, 2.0, 1.0, -1.0])
        negs = hard_negatives(props, [], cfg, HalfGaussianParams(1.5))
        assert [p.anchor_id for p in negs] == [1, 2]

    def test_everything_near_a_weak_slice_gives_empty(self):
        cfg = EmConfig(neg_slice_margin=6.0)
        props = self.proposals_at_slices([10, 12, 14])
        negs = hard_negatives(props, [WeakLabel(1, 12)], cfg, HalfGaussianParams(1.5))
        assert negs == []

    def test_margin_is_strict(self):
        cfg = EmConfig(neg_slice_margin=4.0)
        props = self.proposals_at_slices([10, 14, 15])
        negs = hard_negatives(props, [WeakLabel(1, 10)], cfg, HalfGaussianParams(1.5))
        assert [p.box.z for p in negs] == [15.0]

    def test_default_margin_follows_sigma(self):
        # 2 mu + 3 sigma = 2 * 1.0 + 3 * 2.0 = 8
        cfg = EmConfig(neg_slice_margin=None)
        hg = HalfGaussianParams(sigma=2.0, mu=1.0)
        props = self.proposals_at_slices([10, 18, 19])
        negs = hard_negatives(props, [WeakLabel(1, 10)], cfg, hg)
        assert [p.box.z for p in negs] == [19.0]

    def test_cap_is_twice_weak_count(self):
        cfg = EmConfig(neg_slice_margin=1.0)
        props = self.proposals_at_slices(list(range(8)),
                                         logits=[8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0])
        weak = [WeakLabel(1, 30), WeakLabel(2, 31)]
        negs = hard_negatives(props, weak, cfg, HalfGaussianParams(1.5))
        assert len(negs) == 4
        assert [p.anchor_id for p in negs] == [0, 1, 2, 3]


class TestWeakMStep:
    def test_reduces_to_supervised_step_on_inferred_box(self):
        from weakem.detector import sgd_step, supervised_loss
        from weakem.weaklik import lobe_fit_step

        scan = make_dataset(1, seed0=40, weak=True)[0]
        cfg = EmConfig()
        model = initialize_params([scan], cfg)
        target = box(10, 10, 12, 5.0)
        weak = scan.weak[0]
        negs = [box(24, 24, 24, 5.0), box(24, 10, 24, 5.0)]
        stepped = weak_m_step(scan.volume, [(weak, target)], negs, model, cfg)
        _, grad = supervised_loss(scan.volume, [target], negs, model.detector)
        want_det = sgd_step(model.detector, grad, cfg.lr_detector)
        np.testing.assert_array_equal(stepped.detector.weights, want_det.weights)
        want_lobe, _ = lobe_fit_step([(weak.lobe, target, scan.volume)], model.lobe,
                                     cfg.lr_lobe)
        np.testing.assert_array_equal(stepped.lobe.theta, want_lobe.theta)
        assert stepped.slice_noise == model.slice_noise

    def test_duplicate_samples_equal_map_update(self):
        # both posterior draws landing on one box must average to the MAP update
        scan = make_dataset(1, seed0=41, weak=True)[0]
        cfg = EmConfig()
        model = initialize_params([scan], cfg)
        target = box(12, 14, 10, 8.0)
        weak = scan.weak[0]
        once = weak_m_step(scan.volume, [(weak, target)], [], model, cfg)
        twice = weak_m_step(scan.volume, [(weak, target), (weak, target)], [], model, cfg)
        np.testing.assert_array_equal(once.detector.weights, twice.detector.weights)
        np.testing.assert_array_equal(once.lobe.theta, twice.lobe.theta)

    def test_q_value_never_drops_for_small_enough_step(self):
        scan = make_dataset(1, seed0=42, weak=True)[0]
        base_cfg = EmConfig()
        model = initialize_params([scan], base_cfg)
        weak = scan.weak[0]
        pairs = [(weak, box(11, 13, 11, 5.0)), (weak, box(12, 13, 11, 5.0))]
        negs = [box(25, 25, 25, 5.0), box(25, 9, 25, 5.0)]
        q0 = q_value(scan.volume, pairs, negs, model)
        lr = base_cfg.lr_detector
        for _ in range(20):
            cfg = dataclasses.replace(base_cfg, lr_detector=lr, lr_lobe=lr)
            stepped = weak_m_step(scan.volume, pairs, negs, model, cfg)
            q1 = q_value(scan.volume, pairs, negs, stepped)
            if q1 >= q0 - 1e-9:
                break
            lr /= 2.0
        else:
            pytest.fail("no step size within 20 halvings kept Q nondecreasing")

    def test_empty_entries_add_nothing(self):
        # train_em hands every E-step scan to the batch step, including scans
        # with neither inferred boxes nor negatives
        scan = make_dataset(1, seed0=43, weak=True)[0]
        cfg = EmConfig()
        model = initialize_params([scan], cfg)
        weak = scan.weak[0]
        entry = (scan.volume, [(weak, box(11, 13, 11, 5.0))], [box(25, 25, 25, 5.0)])
        empty = (scan.volume, [], [])
        alone = _weak_batch_m_step([entry], model, cfg, 0.5)
        mixed = _weak_batch_m_step([empty, entry, empty], model, cfg, 0.5)
        np.testing.assert_array_equal(alone.detector.weights, mixed.detector.weights)
        np.testing.assert_array_equal(alone.lobe.theta, mixed.lobe.theta)
        idle = _weak_batch_m_step([empty], model, cfg, 0.5)
        np.testing.assert_array_equal(idle.detector.weights, model.detector.weights)
        np.testing.assert_array_equal(idle.lobe.theta, model.lobe.theta)


class TestSupervisedPass:
    def test_huge_lobe_step_never_raises_truth_nll(self):
        # the accepted lobe step is backtracked until the NLL of the
        # (true lobe, truth box) pairs does not rise
        d_full = make_dataset(3, seed0=45, weak=True)
        cfg = EmConfig(lr_lobe=1e4)
        pairs = [(lobe_of(t.center, s.volume), t, s.volume) for s in d_full for t in s.truth]
        model = initialize_params(d_full, cfg)
        for _ in range(3):
            stepped, _ = _supervised_pass(em._stack_full_set(d_full, cfg), model, cfg)
            assert not np.array_equal(stepped.lobe.theta, model.lobe.theta)
            assert lobe_objective(pairs, stepped.lobe)[0] <= lobe_objective(pairs, model.lobe)[0]
            model = stepped

    def test_detector_steps_along_the_mean_of_per_scan_gradients(self):
        d_full = make_dataset(4, seed0=46, weak=True)
        cfg = EmConfig()
        detector = DetectorParams(np.random.default_rng(5).normal(scale=0.5,
                                                                  size=N_FEATURES + 2),
                                  cfg.anchor_scales)
        model = dataclasses.replace(initialize_params(d_full, cfg), detector=detector)
        stepped, loss = _supervised_pass(em._stack_full_set(d_full, cfg), model, cfg, 0.25)
        scored = [anchor_loss(s.volume, *supervised_examples(s.volume, s.truth, detector,
                                                             cfg.stride), detector, cfg.stride)
                  for s in d_full]
        assert loss == pytest.approx(np.mean([l for l, _ in scored]), rel=1e-12)
        grad = np.mean([g for _, g in scored], axis=0)
        moved = detector.weights - stepped.detector.weights
        assert any(np.allclose(moved, cfg.lr_detector * 0.25 / 2 ** k * grad, rtol=1e-9, atol=0.0)
                   for k in range(em._MAX_HALVINGS))


class TestTrainEm:
    def small_world(self):
        gen = GeneratorConfig(count_min=1, count_max=2)
        d_full = make_dataset(4, seed0=50, cfg=gen, weak=True)
        d_weak = make_dataset(6, seed0=60, cfg=gen, weak=True)
        d_val = make_dataset(3, seed0=70, cfg=gen)
        cfg = EmConfig(init_epochs=1, epochs=2, weak_fraction=0.5)
        return d_full, d_weak, d_val, cfg

    def test_reruns_are_bitwise_identical(self):
        d_full, d_weak, d_val, cfg = self.small_world()
        cfg = dataclasses.replace(cfg, inference="sampling")
        a = train_em(d_full, d_weak, d_val, cfg, rng=3)
        b = train_em(d_full, d_weak, d_val, cfg, rng=3)
        np.testing.assert_array_equal(a.params.detector.weights, b.params.detector.weights)
        np.testing.assert_array_equal(a.params.lobe.theta, b.params.lobe.theta)
        assert [dataclasses.astuple(m) for m in a.history] == \
            [dataclasses.astuple(m) for m in b.history]

    def test_empty_weak_set_ignores_inference_mode(self):
        d_full, _, d_val, cfg = self.small_world()
        a = train_em(d_full, [], d_val, dataclasses.replace(cfg, inference="map"), rng=9)
        b = train_em(d_full, [], d_val, dataclasses.replace(cfg, inference="sampling"), rng=9)
        np.testing.assert_array_equal(a.params.detector.weights, b.params.detector.weights)
        np.testing.assert_array_equal(a.params.lobe.theta, b.params.lobe.theta)
        assert [dataclasses.astuple(m) for m in a.history] == \
            [dataclasses.astuple(m) for m in b.history]

    def test_weak_labels_are_counted(self):
        d_full, d_weak, d_val, cfg = self.small_world()
        result = train_em(d_full, d_weak, d_val, cfg, rng=1)
        for m in result.history:
            assert m.weak_labels_used + m.weak_labels_skipped >= 1
        assert result.history[-1].epoch == cfg.epochs

    def test_sigma_is_fitted_once_from_full_scans(self):
        d_full, d_weak, d_val, cfg = self.small_world()
        result = train_em(d_full, d_weak, d_val, cfg, rng=2)
        want = initialize_params(d_full, cfg).slice_noise
        assert result.params.slice_noise == want

    def test_requires_full_scans(self):
        with pytest.raises(ValueError):
            train_em([], [], [], EmConfig())


class TestCheckpointAndMetrics:
    def test_checkpoint_round_trip(self, tmp_path):
        scans = make_dataset(2, seed0=80, weak=True)
        cfg = EmConfig(epochs=1, init_epochs=1)
        result = train_em(scans, [], None, cfg, rng=0)
        path = tmp_path / "ck.json"
        save_checkpoint(path, result.params, cfg, epoch=cfg.epochs)
        params, cfg2, epoch = load_checkpoint(path)
        assert epoch == cfg.epochs
        assert cfg2 == cfg
        np.testing.assert_array_equal(params.detector.weights,
                                      result.params.detector.weights)
        np.testing.assert_array_equal(params.lobe.theta, result.params.lobe.theta)
        assert params.slice_noise == result.params.slice_noise

    def test_checkpoint_version_mismatch(self, tmp_path):
        from weakem.em import CheckpointError
        path = tmp_path / "bad.json"
        path.write_text('{"format": "other-format", "epoch": 1}')
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
        path.write_text("not json at all")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_metrics_csv_round_trip(self, tmp_path):
        from weakem.em import EpochMetrics
        history = [EpochMetrics(1, 0.5, 3, 1, 0.625), EpochMetrics(2, 0.25, 4, 0, 0.75)]
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, history)
        again = read_metrics_csv(path)
        assert again == history
        header = path.read_text().splitlines()[0]
        assert header == "epoch,supervised_loss,weak_labels_used,weak_labels_skipped,froc"

    def test_failed_rewrite_keeps_previous_file(self, tmp_path):
        from weakem.em import EpochMetrics
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, [EpochMetrics(1, 0.5, 3, 1, 0.625)])
        before = path.read_bytes()
        # the second row raises after the header and first row are written
        with pytest.raises(AttributeError):
            write_metrics_csv(path, [EpochMetrics(2, 0.25, 4, 0, 0.75), None])
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["metrics.csv"]

    def test_failed_checkpoint_write_keeps_previous_file(self, tmp_path, monkeypatch):
        scans = make_dataset(1, seed0=81, weak=True)
        cfg = EmConfig()
        params = initialize_params(scans, cfg)
        path = tmp_path / "ck.json"
        save_checkpoint(path, params, cfg, epoch=1)
        before = path.read_bytes()

        def interrupted(fd):
            raise OSError("disk went away")

        monkeypatch.setattr("weakem.em.os.fsync", interrupted)
        with pytest.raises(OSError):
            save_checkpoint(path, params, cfg, epoch=2)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ck.json"]
        monkeypatch.undo()
        save_checkpoint(path, params, cfg, epoch=2)
        assert load_checkpoint(path)[2] == 2
        assert [p.name for p in tmp_path.iterdir()] == ["ck.json"]


class TestEvaluateFroc:
    def test_handcrafted_detector_scores_high_on_easy_data(self):
        easy = GeneratorConfig(count_min=1, count_max=1, noise=0.01, clutter=0.02,
                               contrast_min=0.35, contrast_max=0.45,
                               diameter_min=6.0, diameter_max=8.0)
        scans = make_dataset(8, seed0=90, cfg=easy)
        weights = np.zeros(N_FEATURES + 2)
        weights[3] = 30.0
        weights[N_FEATURES:] = -3.0
        model = ModelParams(DetectorParams(weights, (5.0, 8.0)), init_lobe_params(),
                            HalfGaussianParams(1.5))
        cfg = EmConfig(stride=2)
        result = evaluate_froc(scans, model, cfg)
        assert result.average > 0.9
