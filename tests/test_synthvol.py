"""Generator, lobe partition, weak labels, and dataset container tests."""

import math
import tracemalloc

import numpy as np
import pytest

from weakem.synthvol import (DatasetHeaderError, DatasetPayloadError, DatasetVersionError,
                             GenerationError, GeneratorConfig, LabeledScan, NoduleBox,
                             Volume, WeakLabel, attach_weak_labels,
                             check_container_capacity, generate_scan, load_dataset, lobe_of,
                             save_dataset, weaken)


def flat_volume(shape=(32, 32, 32), margin=2, value=0.0):
    lo = (margin,) * 3
    hi = tuple(n - margin for n in shape)
    return Volume(np.full(shape, value, dtype=np.float32), lo, hi)


def lobe_oracle(point, volume):
    # independent nested-if partition on normalized coordinates
    x, y, z = point
    lo, hi = volume.lung_lo, volume.lung_hi
    fx = (x - lo[0]) / (hi[0] - lo[0])
    fz = (z - lo[2]) / (hi[2] - lo[2])
    side = 0 if fx <= 0.5 else 1
    if fz <= 1.0 / 3.0:
        band = 0
    elif fz <= 2.0 / 3.0:
        band = 1
    else:
        band = 2
    return 3 * side + band + 1


class TestGenerateScan:
    def test_invariants_hold(self):
        cfg = GeneratorConfig(count_min=2, count_max=2, diameter_min=4.0, diameter_max=8.0)
        scan = generate_scan(1, cfg)
        vox = scan.volume.voxels
        assert vox.shape == (32, 32, 32)
        assert vox.dtype == np.float32
        assert float(vox.min()) >= 0.0 and float(vox.max()) <= 1.0
        assert len(scan.truth) == 2
        lo, hi = scan.volume.lung_lo, scan.volume.lung_hi
        for t in scan.truth:
            assert cfg.diameter_min <= t.diameter <= cfg.diameter_max
            for c, l, h in zip(t.center, lo, hi):
                assert l <= c <= h - 1
        a, b = scan.truth
        assert math.dist(a.center, b.center) > a.radius + b.radius

    def test_same_seed_is_bitwise_identical(self):
        cfg = GeneratorConfig()
        a = generate_scan(7, cfg)
        b = generate_scan(7, cfg)
        assert a.volume.voxels.tobytes() == b.volume.voxels.tobytes()
        assert a.truth == b.truth

    def test_different_seeds_differ(self):
        cfg = GeneratorConfig()
        a = generate_scan(1, cfg)
        b = generate_scan(2, cfg)
        assert a.volume.voxels.tobytes() != b.volume.voxels.tobytes()

    def test_zero_nodule_config_gives_pure_background(self):
        cfg = GeneratorConfig(count_min=0, count_max=0)
        scan = generate_scan(3, cfg)
        assert scan.truth == []
        assert scan.weak == []

    def test_nodules_brighten_their_neighborhood(self):
        cfg = GeneratorConfig(count_min=1, count_max=1, noise=0.0, clutter=0.0)
        scan = generate_scan(5, cfg)
        t = scan.truth[0]
        cx, cy, cz = (int(round(c)) for c in t.center)
        assert float(scan.volume.voxels[cx, cy, cz]) > cfg.base_intensity + 0.5 * cfg.contrast_min

    def test_impossible_placement_raises(self):
        # the lung region cannot hold three pairwise-separated giants
        cfg = GeneratorConfig(count_min=3, count_max=3, diameter_min=24.0,
                              diameter_max=25.0, max_place_tries=50)
        with pytest.raises(GenerationError):
            generate_scan(11, cfg)

    def test_many_seeds_satisfy_placement_invariants(self):
        cfg = GeneratorConfig()
        for seed in range(30):
            scan = generate_scan(seed, cfg)
            assert cfg.count_min <= len(scan.truth) <= cfg.count_max
            for i, a in enumerate(scan.truth):
                for b in scan.truth[i + 1:]:
                    assert math.dist(a.center, b.center) > a.radius + b.radius


class TestLobeOf:
    def test_minimum_corner_is_lobe_1(self):
        vol = flat_volume()
        assert lobe_of((2.0, 2.0, 2.0), vol) == 1

    def test_hand_computed_bounds(self):
        # lung box [2, 30): x midplane at 16, z thirds at 34/3 and 62/3
        vol = flat_volume()
        assert lobe_of((16.0, 10.0, 2.0), vol) == 1    # tie on the midplane goes low
        assert lobe_of((16.5, 10.0, 2.0), vol) == 4
        assert lobe_of((2.0, 2.0, 12.0), vol) == 2     # 12 > 34/3
        assert lobe_of((2.0, 2.0, 21.0), vol) == 3     # 21 > 62/3
        assert lobe_of((29.0, 29.0, 29.0), vol) == 6
        assert lobe_of((20.0, 5.0, 15.0), vol) == 5

    def test_outside_lung_region_raises(self):
        vol = flat_volume()
        with pytest.raises(ValueError):
            lobe_of((1.0, 10.0, 10.0), vol)
        with pytest.raises(ValueError):
            lobe_of((10.0, 10.0, 29.5), vol)

    def test_matches_independent_oracle_on_random_points(self):
        vol = Volume(np.zeros((24, 16, 40), dtype=np.float32), (3, 2, 4), (21, 14, 37))
        rng = np.random.default_rng(42)
        for _ in range(1000):
            p = [float(rng.uniform(l, h - 1)) for l, h in zip(vol.lung_lo, vol.lung_hi)]
            assert lobe_of(p, vol) == lobe_oracle(p, vol)

    def test_partition_is_total_on_integer_grid(self):
        vol = Volume(np.zeros((12, 9, 15), dtype=np.float32), (1, 1, 1), (11, 8, 14))
        seen = set()
        for x in range(1, 11):
            for y in range(1, 8):
                for z in range(1, 14):
                    lobe = lobe_of((x, y, z), vol)
                    assert 1 <= lobe <= 6
                    assert lobe == lobe_oracle((x, y, z), vol)
                    seen.add(lobe)
        assert seen == {1, 2, 3, 4, 5, 6}


class TestWeaken:
    def tall_volume(self):
        return Volume(np.zeros((32, 32, 64), dtype=np.float32), (2, 2, 2), (30, 30, 62))

    def test_no_noise_reports_rounded_center(self):
        vol = self.tall_volume()
        rng = np.random.default_rng(0)
        t = NoduleBox(10.0, 10.0, 31.4, 6.0)
        for _ in range(20):
            assert weaken(t, vol, 0.0, 0.0, rng).z == 31

    def test_lobe_always_matches_partition(self):
        vol = self.tall_volume()
        rng = np.random.default_rng(1)
        for _ in range(200):
            center = [float(rng.uniform(l, h - 1)) for l, h in zip(vol.lung_lo, vol.lung_hi)]
            t = NoduleBox(*center, 5.0)
            assert weaken(t, vol, 1.5, 1.63, rng).lobe == lobe_of(t.center, vol)

    def test_offset_spread_matches_half_gaussian(self):
        # zero plateau: |z - z_truth| should spread like |N(0, 2)| plus rounding
        vol = self.tall_volume()
        rng = np.random.default_rng(2)
        t = NoduleBox(10.0, 10.0, 32.0, 6.0)
        offsets = np.array([abs(weaken(t, vol, 2.0, 0.0, rng).z - 32.0)
                            for _ in range(10_000)])
        expected_std = 2.0 * math.sqrt(1.0 - 2.0 / math.pi)
        assert abs(float(offsets.std()) - expected_std) / expected_std < 0.10

    def test_slice_always_in_range(self):
        vol = Volume(np.zeros((10, 10, 10), dtype=np.float32), (1, 1, 1), (9, 9, 9))
        rng = np.random.default_rng(3)
        t = NoduleBox(5.0, 5.0, 8.0, 3.0)
        for _ in range(500):
            z = weaken(t, vol, 4.0, 1.63, rng).z
            assert 0 <= z <= 9

    def test_attach_weak_labels_pairs_up(self):
        scan = generate_scan(9, GeneratorConfig(count_min=2, count_max=3))
        rng = np.random.default_rng(4)
        weakened = attach_weak_labels(scan, 1.5, 1.63, rng)
        assert len(weakened.weak) == len(scan.truth)
        assert weakened.truth == scan.truth


class TestDatasetContainer:
    def make_scans(self, n=3):
        cfg = GeneratorConfig(count_min=1, count_max=2)
        out = []
        for seed in range(n):
            scan = generate_scan(seed, cfg)
            out.append(attach_weak_labels(scan, 1.5, 1.63, np.random.default_rng(seed + 100)))
        return out

    def test_round_trip_is_bit_exact(self, tmp_path):
        scans = self.make_scans()
        path = tmp_path / "data.wem"
        save_dataset(scans, path)
        loaded = load_dataset(path)
        assert len(loaded) == len(scans)
        for a, b in zip(scans, loaded):
            assert a.volume.voxels.tobytes() == b.volume.voxels.tobytes()
            assert a.volume.lung_lo == b.volume.lung_lo
            assert a.volume.lung_hi == b.volume.lung_hi
            assert a.truth == b.truth
            assert a.weak == b.weak

    def test_save_is_deterministic(self, tmp_path):
        scans = self.make_scans()
        p1, p2 = tmp_path / "a.wem", tmp_path / "b.wem"
        save_dataset(scans, p1)
        save_dataset(scans, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_zero_length_file_is_a_header_error(self, tmp_path):
        path = tmp_path / "empty.wem"
        path.write_bytes(b"")
        with pytest.raises(DatasetHeaderError):
            load_dataset(path)

    def test_corrupted_magic_is_a_version_error(self, tmp_path):
        path = tmp_path / "bad.wem"
        save_dataset(self.make_scans(1), path)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(DatasetVersionError):
            load_dataset(path)

    def test_truncated_header_is_a_header_error(self, tmp_path):
        path = tmp_path / "short.wem"
        save_dataset(self.make_scans(1), path)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(DatasetHeaderError):
            load_dataset(path)

    def test_truncated_payload_is_a_payload_error(self, tmp_path):
        path = tmp_path / "cut.wem"
        save_dataset(self.make_scans(2), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) - 32 * 32 * 32 * 4])
        with pytest.raises(DatasetPayloadError):
            load_dataset(path)

    def test_missing_label_line_is_a_payload_error(self, tmp_path):
        path = tmp_path / "nolabel.wem"
        save_dataset(self.make_scans(2), path)
        raw = path.read_bytes()
        cut = raw.rfind(b'{"truth"')
        path.write_bytes(raw[:cut])
        with pytest.raises(DatasetPayloadError):
            load_dataset(path)

    def test_load_holds_one_voxel_block_at_a_time(self, tmp_path):
        # the decoded volumes plus a few blocks in flight; holding the whole
        # file while decoding it would double the voxel bytes
        scans = [LabeledScan(flat_volume((24, 24, 24), value=0.1 * k), [], []) for k in range(10)]
        path = tmp_path / "data.wem"
        save_dataset(scans, path)
        block = 24 ** 3 * 4
        tracemalloc.start()
        try:
            loaded = load_dataset(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [s.volume.voxels[0, 0, 0] for s in loaded] == [s.volume.voxels[0, 0, 0]
                                                               for s in scans]
        assert peak < len(scans) * block + 4 * block

    def test_truth_center_on_the_lung_edge_loads(self, tmp_path):
        scan = generate_scan(0, GeneratorConfig())
        lo, hi = scan.volume.lung_lo, scan.volume.lung_hi
        corners = [NoduleBox(*(float(h - 1) for h in hi), 6.0),
                   NoduleBox(*(float(l) for l in lo), 6.0)]
        path = tmp_path / "edge.wem"
        save_dataset([LabeledScan(scan.volume, corners, [])], path)
        assert load_dataset(path)[0].truth == corners

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_truth_center_outside_the_lung_is_a_payload_error(self, tmp_path, axis):
        scan = generate_scan(0, GeneratorConfig())
        lo, hi = scan.volume.lung_lo, scan.volume.lung_hi
        for bad in (math.nextafter(hi[axis] - 1.0, math.inf), lo[axis] - 0.5):
            center = [float(l) for l in lo]
            center[axis] = bad
            path = tmp_path / "outside.wem"
            save_dataset([LabeledScan(scan.volume, [NoduleBox(*center, 6.0)], [])], path)
            with pytest.raises(DatasetPayloadError, match="outside the lung region"):
                load_dataset(path)

    def test_empty_dataset_is_refused(self, tmp_path):
        with pytest.raises(ValueError):
            save_dataset([], tmp_path / "none.wem")

    def test_mixed_geometry_is_refused(self, tmp_path):
        a = generate_scan(0, GeneratorConfig())
        b = generate_scan(0, GeneratorConfig(dims=(32, 32, 48)))
        with pytest.raises(ValueError):
            save_dataset([a, b], tmp_path / "mixed.wem")

    def test_int32_offset_boundary(self):
        # at 64^3 a scan is 2**20 bytes: scan 2,048 starts below 2**31, scan
        # 2,049 at 2**31 + 8,244 bytes
        check_container_capacity((64, 64, 64), 2048)
        with pytest.raises(ValueError, match=str(2 ** 31 + 8244)):
            check_container_capacity((64, 64, 64), 2049)

    def test_oversized_dataset_is_refused_before_writing(self, tmp_path):
        scan = LabeledScan(flat_volume((64, 64, 64)), [], [])
        path = tmp_path / "huge.wem"
        with pytest.raises(ValueError):
            save_dataset([scan] * 2049, path)
        assert not path.exists()


class TestTypeValidation:
    def test_volume_rejects_out_of_range_intensities(self):
        bad = np.full((8, 8, 8), 1.5, dtype=np.float32)
        with pytest.raises(ValueError):
            Volume(bad, (1, 1, 1), (7, 7, 7))

    def test_volume_rejects_tiny_grids(self):
        with pytest.raises(ValueError):
            Volume(np.zeros((4, 8, 8), dtype=np.float32), (0, 0, 0), (4, 8, 8))

    def test_nodule_box_rejects_degenerate_diameter(self):
        with pytest.raises(ValueError):
            NoduleBox(1.0, 1.0, 1.0, 0.0)

    def test_weak_label_rejects_bad_lobe(self):
        with pytest.raises(ValueError):
            WeakLabel(lobe=7, z=3)
        with pytest.raises(ValueError):
            WeakLabel(lobe=0, z=3)

    def test_generator_config_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            GeneratorConfig(count_min=3, count_max=1).validate()
        with pytest.raises(ValueError):
            GeneratorConfig(diameter_min=0.0).validate()
