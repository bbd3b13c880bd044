"""Slice-noise model, lobe softmax, and parameter fitting tests."""

import math

import numpy as np
import pytest

from weakem.synthvol import NoduleBox, Volume, lobe_of, weaken
from weakem.weaklik import (HalfGaussianParams, LobeParams, fit_sigma, init_lobe_params,
                            lobe_feature, lobe_fit_step, lobe_likelihood, lobe_log_probs,
                            lobe_objective, log_slice_likelihood, slice_likelihood)


def flat_volume(shape=(32, 32, 32)):
    return Volume(np.zeros(shape, dtype=np.float32), (2, 2, 2),
                  tuple(n - 2 for n in shape))


def box_at(x, y, z, d=6.0):
    return NoduleBox(float(x), float(y), float(z), float(d))


class TestSliceLikelihood:
    def test_peak_value_sigma_one(self):
        hg = HalfGaussianParams(sigma=1.0, mu=0.0)
        expected = 2.0 / math.sqrt(2.0 * math.pi)
        assert slice_likelihood(10.0, box_at(5, 5, 10.0), hg) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.7978845608, abs=1e-10)

    def test_two_slices_out_at_sigma_two(self):
        hg = HalfGaussianParams(sigma=2.0, mu=0.0)
        expected = (2.0 / math.sqrt(8.0 * math.pi)) * math.exp(-0.5)
        assert slice_likelihood(12.0, box_at(5, 5, 10.0), hg) == pytest.approx(expected, rel=1e-12)

    def test_plateau_within_mu(self):
        hg = HalfGaussianParams(sigma=1.0, mu=2.0)
        peak = slice_likelihood(10.0, box_at(5, 5, 10.0), hg)
        for dz in (0.5, 1.0, 1.7, 2.0):
            assert slice_likelihood(10.0 + dz, box_at(5, 5, 10.0), hg) == peak
        assert slice_likelihood(12.5, box_at(5, 5, 10.0), hg) < peak

    def test_even_and_nonincreasing_and_positive(self):
        hg = HalfGaussianParams(sigma=1.7, mu=1.63)
        box = box_at(5, 5, 20.0)
        values = [slice_likelihood(20.0 + dz, box, hg) for dz in np.linspace(0, 15, 61)]
        for a, b in zip(values, values[1:]):
            assert b <= a
            assert b > 0.0
        for dz in np.linspace(0, 12, 25):
            assert slice_likelihood(20.0 + dz, box, hg) == slice_likelihood(20.0 - dz, box, hg)

    def test_log_form_matches(self):
        hg = HalfGaussianParams(sigma=2.2, mu=1.0)
        for dz in (0.0, 1.5, 4.0, 9.0):
            assert math.exp(log_slice_likelihood(10.0 + dz, box_at(5, 5, 10.0), hg)) == \
                pytest.approx(slice_likelihood(10.0 + dz, box_at(5, 5, 10.0), hg), rel=1e-12)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            HalfGaussianParams(sigma=0.0)
        with pytest.raises(ValueError):
            HalfGaussianParams(sigma=1.0, mu=-0.1)


class TestLobeModel:
    def test_zero_params_are_uniform(self):
        vol = flat_volume()
        lp = init_lobe_params()
        box = box_at(10, 10, 10)
        for lobe in range(1, 7):
            assert lobe_likelihood(lobe, box, vol, lp) == 1.0 / 6.0

    def test_probabilities_normalize(self):
        vol = flat_volume()
        rng = np.random.default_rng(0)
        lp = LobeParams(rng.normal(size=(6, 4)))
        box = box_at(9.5, 14.2, 22.3)
        total = sum(lobe_likelihood(l, box, vol, lp) for l in range(1, 7))
        assert total == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(np.exp(lobe_log_probs(box, vol, lp)).sum(), 1.0, atol=1e-12)

    def test_shift_invariance(self):
        vol = flat_volume()
        rng = np.random.default_rng(1)
        theta = rng.normal(size=(6, 4))
        shifted = theta + rng.normal(size=(1, 4))
        box = box_at(11, 19, 7)
        for lobe in range(1, 7):
            assert lobe_likelihood(lobe, box, vol, LobeParams(theta)) == pytest.approx(
                lobe_likelihood(lobe, box, vol, LobeParams(shifted)), rel=1e-12)

    def test_feature_normalization(self):
        vol = flat_volume()
        feats = lobe_feature(box_at(2, 2, 2), vol)
        np.testing.assert_allclose(feats, [0.0, 0.0, 0.0, 1.0])
        feats = lobe_feature(box_at(16, 16, 16), vol)
        np.testing.assert_allclose(feats, [0.5, 0.5, 0.5, 1.0])

    def test_single_example_zero_params_loss_is_log6(self):
        vol = flat_volume()
        _, nll = lobe_fit_step([(3, box_at(10, 10, 20), vol)], init_lobe_params(), 1.0)
        assert nll == pytest.approx(math.log(6.0), rel=1e-12)

    def test_invalid_lobe_raises(self):
        vol = flat_volume()
        with pytest.raises(ValueError):
            lobe_likelihood(0, box_at(5, 5, 5), vol, init_lobe_params())
        with pytest.raises(ValueError):
            lobe_fit_step([(9, box_at(5, 5, 5), vol)], init_lobe_params(), 1.0)


class TestLobeFitStep:
    def make_batch(self, n=40, seed=2):
        vol = flat_volume()
        rng = np.random.default_rng(seed)
        batch = []
        for _ in range(n):
            c = [float(rng.uniform(l, h - 1)) for l, h in zip(vol.lung_lo, vol.lung_hi)]
            batch.append((lobe_of(c, vol), box_at(*c), vol))
        return batch

    def test_step_is_theta_plus_lr_times_objective_gradient(self):
        batch = self.make_batch()
        rng = np.random.default_rng(4)
        lp = LobeParams(rng.normal(scale=0.5, size=(6, 4)))
        nll, grad = lobe_objective(batch, lp)
        for lr in (0.3, 2.0, 1e4):
            stepped, stepped_nll = lobe_fit_step(batch, lp, lr)
            assert np.array_equal(stepped.theta, lp.theta + lr * grad)
            assert stepped_nll == nll

    def test_gradient_matches_central_differences(self):
        batch = self.make_batch()
        rng = np.random.default_rng(3)
        lp = LobeParams(rng.normal(scale=0.5, size=(6, 4)))
        lr = 0.7
        stepped, _ = lobe_fit_step(batch, lp, lr)
        grad = (stepped.theta - lp.theta) / lr     # ascent direction on log-likelihood
        step = 1e-5
        worst = 0.0
        for i in range(6):
            for j in range(4):
                tp = lp.theta.copy()
                tp[i, j] += step
                _, up = lobe_fit_step(batch, LobeParams(tp), lr)
                tm = lp.theta.copy()
                tm[i, j] -= step
                _, dn = lobe_fit_step(batch, LobeParams(tm), lr)
                fd = (up - dn) / (2 * step)        # gradient of the NLL
                denom = max(abs(fd), abs(grad[i, j]), 1e-8)
                worst = max(worst, abs(fd + grad[i, j]) / denom)
        assert worst < 1e-4

    def test_loss_decreases_on_separable_batch(self):
        batch = self.make_batch(n=60)
        lp = init_lobe_params()
        _, prev = lobe_fit_step(batch, lp, 1.0)
        for _ in range(50):
            lp, nll = lobe_fit_step(batch, lp, 1.0)
            assert nll <= prev + 1e-12
            prev = nll
        assert prev < math.log(6.0)

    def test_reaches_high_accuracy_on_separable_data(self):
        batch = self.make_batch(n=400, seed=4)
        lp = init_lobe_params()
        for _ in range(600):
            lp, _ = lobe_fit_step(batch, lp, 8.0)
        hits = sum(int(np.argmax(lobe_log_probs(box, vol, lp)) + 1 == lobe)
                   for lobe, box, vol in batch)
        assert hits / len(batch) > 0.95

    def test_pure_function(self):
        batch = self.make_batch()
        lp = init_lobe_params()
        before = lp.theta.copy()
        lobe_fit_step(batch, lp, 1.0)
        np.testing.assert_array_equal(lp.theta, before)


class TestFitSigma:
    def test_degenerate_sample_hits_the_floor(self):
        pairs = [(10.0, box_at(5, 5, 10.0)) for _ in range(20)]
        hg = fit_sigma(pairs, mu=0.0)
        assert hg.sigma == 0.5
        assert hg.mu == 0.0

    def test_hand_case_sqrt_two(self):
        pairs = [(10.0, box_at(5, 5, 10.0)), (12.0, box_at(5, 5, 10.0))]
        hg = fit_sigma(pairs, mu=0.0)
        assert hg.sigma == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_plateau_is_subtracted(self):
        # offsets 3 and 5 with mu=2 leave t = 1 and 3
        pairs = [(13.0, box_at(5, 5, 10.0)), (15.0, box_at(5, 5, 10.0))]
        hg = fit_sigma(pairs, mu=2.0)
        assert hg.sigma == pytest.approx(math.sqrt(5.0), rel=1e-12)

    def test_scale_consistency_above_floor(self):
        rng = np.random.default_rng(5)
        offsets = rng.uniform(1.0, 6.0, size=200)
        base = fit_sigma([(10.0 + t, box_at(5, 5, 10.0)) for t in offsets], mu=0.0)
        tripled = fit_sigma([(10.0 + 3 * t, box_at(5, 5, 10.0)) for t in offsets], mu=0.0)
        assert tripled.sigma == pytest.approx(3.0 * base.sigma, rel=1e-9)

    def test_recovers_generating_sigma(self):
        # pure half-Gaussian offsets (mu 0): rounding adds 1/12 variance, well under 5%
        vol = Volume(np.zeros((32, 32, 96), dtype=np.float32), (2, 2, 2), (30, 30, 94))
        rng = np.random.default_rng(6)
        truth = box_at(10, 10, 48.0)
        pairs = [(weaken(truth, vol, 2.0, 0.0, rng).z, truth) for _ in range(10_000)]
        hg = fit_sigma(pairs, mu=0.0)
        assert abs(hg.sigma - 2.0) / 2.0 < 0.05

    def test_empty_pairs_raise(self):
        with pytest.raises(ValueError):
            fit_sigma([], mu=0.0)
