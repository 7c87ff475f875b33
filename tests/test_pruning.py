import math

import numpy as np
import pytest

from ftlwss import pruning
from ftlwss import tensornet as tn


class TestPruningThreshold:
    def test_hand_sorted_example(self):
        # magnitudes sort to [0.05, 0.1, 0.2, 0.5]; ceil(0.5 * 4) = 2 -> 0.1
        weights = np.array([0.1, -0.5, 0.2, 0.05])
        assert pruning.pruning_threshold(weights, 0.5) == pytest.approx(0.1)

    def test_all_equal_magnitudes(self):
        weights = np.array([0.3, -0.3, 0.3, -0.3, 0.3])
        assert pruning.pruning_threshold(weights, 0.4) == pytest.approx(0.3)

    def test_high_ratio_order_statistic(self):
        rng = np.random.default_rng(0)
        weights = rng.normal(size=100)
        # ceil(0.99 * 100) = 99 -> the 99th smallest magnitude (1-indexed)
        expected = np.sort(np.abs(weights))[98]
        assert pruning.pruning_threshold(weights, 0.99) == pytest.approx(expected)

    def test_rejects_bad_ratio(self):
        for ratio in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                pruning.pruning_threshold(np.ones(4), ratio)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            pruning.pruning_threshold(np.array([]), 0.5)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_partition_equals_sorted_order_statistic(self, dtype):
        # the selection gives the sorted magnitudes' entry, ties included
        rng = np.random.default_rng(5)
        for trial in range(40):
            n = int(rng.integers(1, 500))
            weights = rng.normal(size=n).astype(dtype)
            if trial % 2:  # few distinct magnitudes, of both signs
                weights = (np.round(weights * 2) / 2 * rng.choice([-1, 1], size=n)).astype(dtype)
            for ratio in (0.01, 0.3, 0.5, 0.9, 0.99):
                want = np.sort(np.abs(weights))[math.ceil(ratio * n) - 1]
                got = pruning.pruning_threshold(weights, ratio)
                assert got == float(want) and type(got) is float

    def test_input_is_not_reordered(self):
        weights = np.random.default_rng(6).normal(size=(30, 4)).astype(np.float32)
        before = weights.tobytes()
        pruning.pruning_threshold(weights, 0.5)
        assert weights.tobytes() == before


class TestApplyPruning:
    def test_hand_example_continuation(self):
        weights = np.array([0.1, -0.5, 0.2, 0.05])
        pruned, mask = pruning.apply_pruning(weights, 0.1)
        assert pruned.tolist() == [0.1, -0.5, 0.2, 0.0]
        assert mask.tolist() == [True, True, True, False]

    def test_zero_threshold_keeps_everything(self):
        weights = np.array([0.1, -0.5, 0.0])
        pruned, mask = pruning.apply_pruning(weights, 0.0)
        assert np.array_equal(pruned, weights)
        assert mask.all()

    def test_threshold_above_max_zeroes_everything(self):
        weights = np.array([0.1, -0.5, 0.2])
        pruned, mask = pruning.apply_pruning(weights, 0.6)
        assert np.all(pruned == 0)
        assert not mask.any()

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        weights = rng.normal(size=50)
        once, mask1 = pruning.apply_pruning(weights, 0.7)
        twice, mask2 = pruning.apply_pruning(once, 0.7)
        assert np.array_equal(once, twice)
        assert np.array_equal(mask1, mask2)


class TestZeroedCount:
    def test_exact_count_for_distinct_magnitudes(self):
        # with distinct magnitudes the keep-at-threshold rule zeroes
        # exactly ceil(ratio * N) - 1 entries
        rng = np.random.default_rng(2)
        for trial in range(50):
            n = int(rng.integers(10, 400))
            weights = rng.normal(size=n)
            while len(np.unique(np.abs(weights))) != n:
                weights = rng.normal(size=n)
            ratio = float(rng.uniform(0.05, 0.95))
            threshold = pruning.pruning_threshold(weights, ratio)
            _, mask = pruning.apply_pruning(weights, threshold)
            assert int((~mask).sum()) == math.ceil(ratio * n) - 1

    def test_tie_tolerance_bound(self):
        # ties at the threshold shift the count by at most their multiplicity
        weights = np.array([0.1, 0.1, 0.1, 0.4, 0.5, 0.6])
        ratio = 0.5
        threshold = pruning.pruning_threshold(weights, ratio)
        _, mask = pruning.apply_pruning(weights, threshold)
        zeroed = int((~mask).sum())
        ties = int((np.abs(weights) == threshold).sum())
        assert abs(zeroed / len(weights) - ratio) <= (ties + 1) / len(weights)


TINY = tn.DetectorSpec(in_rows=6, in_cols=8, conv1_filters=3, conv2_filters=2, hidden_units=6)


def tiny_setup(seed=0):
    rng = np.random.default_rng(seed)
    weights = tn.init_weights(TINY, rng)
    features = rng.normal(size=(24, 6, 8, 2)).astype(np.float32)
    labels = (rng.random((24, 6)) < 0.4).astype(np.int8)
    return weights, features, labels


class TestPruneModel:
    def test_report_accounting(self):
        weights, _, _ = tiny_setup()
        pruned, report = pruning.prune_model(weights, 0.8)
        assert report.total_count == weights.fc1_w.size
        assert report.zeroed_count == int((pruned.fc1_w == 0).sum())
        assert report.zeroed_count == math.ceil(0.8 * report.total_count) - 1
        assert pruned.prune_mask is not None

    def test_repruning_gives_fresh_kept_entries(self):
        weights, _, _ = tiny_setup()
        light, _ = pruning.prune_model(weights, 0.5)
        kept = light.kept
        heavy, _ = pruning.prune_model(light, 0.8)
        assert light.kept is kept
        assert heavy.kept.mask is heavy.prune_mask
        assert np.array_equal(heavy.kept.indices, np.flatnonzero(heavy.prune_mask))

    def test_biases_untouched(self):
        weights, _, _ = tiny_setup()
        weights.fc1_b[:] = 1e-9  # tiny bias magnitudes must survive pruning
        pruned, _ = pruning.prune_model(weights, 0.9)
        assert np.array_equal(pruned.fc1_b, weights.fc1_b)


class TestFineTune:
    def test_masked_positions_stay_zero(self):
        weights, features, labels = tiny_setup()
        pruned, _ = pruning.prune_model(weights, 0.7)
        result = pruning.fine_tune(TINY, pruned, features, labels, features[:6], labels[:6],
                                   np.random.default_rng(3), lr=0.05, batch_size=8, epochs=10)
        assert np.all(result.weights.fc1_w[~pruned.prune_mask] == 0)

    def test_unmasked_weights_update(self):
        weights, features, labels = tiny_setup()
        pruned, _ = pruning.prune_model(weights, 0.5)
        result = pruning.fine_tune(TINY, pruned, features, labels, features[:6], labels[:6],
                                   np.random.default_rng(3), lr=0.05, batch_size=8, epochs=3)
        assert not np.array_equal(result.weights.conv1_w, pruned.conv1_w)

    def test_requires_mask(self):
        weights, features, labels = tiny_setup()
        with pytest.raises(RuntimeError):
            pruning.fine_tune(TINY, weights, features, labels, features[:6], labels[:6],
                              np.random.default_rng(0), lr=0.1, batch_size=64, epochs=1)

    def test_all_ones_mask_equals_plain_training(self):
        # the no-pruning limit: fine-tuning with a full mask is plain training
        weights, features, labels = tiny_setup()
        full = weights.copy()
        full.prune_mask = np.ones_like(full.fc1_w, dtype=bool)
        tuned = pruning.fine_tune(TINY, full, features, labels, features[:6], labels[:6],
                                  np.random.default_rng(9), lr=0.05, batch_size=8, epochs=4)
        plain = tn.train_offline(TINY, features, labels, features[:6], labels[:6],
                                 np.random.default_rng(9), lr=0.05, batch_size=8, max_epochs=4,
                                 patience=4, init=weights)
        for name in tn.PARAM_NAMES:
            assert np.array_equal(getattr(tuned.weights, name), getattr(plain.weights, name))

    def test_validation_never_worse_than_start(self):
        weights, features, labels = tiny_setup()
        pruned, _ = pruning.prune_model(weights, 0.8)
        result = pruning.fine_tune(TINY, pruned, features, labels, features[:6], labels[:6],
                                   np.random.default_rng(4), lr=0.05, batch_size=8, epochs=5)
        start = tn.evaluate_loss(TINY, pruned, features[:6], labels[:6])
        end = tn.evaluate_loss(TINY, result.weights, features[:6], labels[:6])
        assert end <= start + 1e-9

    def test_sparsity_preserved_across_epochs(self):
        weights, features, labels = tiny_setup()
        pruned, report = pruning.prune_model(weights, 0.6)
        current = pruned
        for _ in range(3):
            result = pruning.fine_tune(TINY, current, features, labels, features[:6], labels[:6],
                                       np.random.default_rng(5), lr=0.05, batch_size=8, epochs=1)
            current = result.weights
            assert int((current.fc1_w == 0).sum()) >= report.zeroed_count
            assert np.all(current.fc1_w[~pruned.prune_mask] == 0)

    @pytest.mark.parametrize("epochs", [1, 3, 6])
    def test_runs_every_epoch_while_validation_loss_rises(self, epochs):
        # a start that predicts vacant bands, trained on all-occupied labels
        # and validated on all-vacant ones: every epoch raises the validation
        # loss, and none may stop early
        weights, features, _ = tiny_setup()
        pruned, _ = pruning.prune_model(weights, 0.5)
        pruned.out_b[:] = -3.0
        ones, zeros = np.ones((24, 6), dtype=np.int8), np.zeros((24, 6), dtype=np.int8)
        result = pruning.fine_tune(TINY, pruned, features, ones, features, zeros,
                                   np.random.default_rng(6), lr=0.05, batch_size=8, epochs=epochs)
        start = tn.evaluate_loss(TINY, pruned, features, zeros)
        assert len(result.train_losses) == len(result.val_losses) == epochs
        assert all(b > a for a, b in zip([start, *result.val_losses], result.val_losses))
        assert result.best_epoch == -1
