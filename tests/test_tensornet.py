from dataclasses import replace

import numpy as np
import pytest

from ftlwss import tensornet as tn


TINY = tn.DetectorSpec(in_rows=6, in_cols=8, conv1_filters=4, conv2_filters=3, hidden_units=8)


def tiny_weights(seed=0, dtype=np.float64):
    return tn.init_weights(TINY, np.random.default_rng(seed), dtype=dtype)


def tiny_batch(seed=1, batch=2, occupancy=0.3):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(batch, TINY.in_rows, TINY.in_cols, 2))
    labels = (rng.random((batch, TINY.in_rows)) < occupancy).astype(np.int8)
    return x, labels


class TestDetectorSpec:
    def test_shape_trace_full_scale(self):
        # valid 3x3 convolutions shrink each spatial dim by 2 per layer
        spec = tn.DetectorSpec(in_rows=40, in_cols=64, conv1_filters=32,
                               conv2_filters=16, hidden_units=128)
        assert spec.conv1_shape == (38, 62, 32)
        assert spec.conv2_shape == (36, 60, 16)
        assert spec.flat_dim == 34560
        assert spec.param_shapes()["fc1_w"] == (34560, 128)
        assert spec.param_shapes()["out_w"] == (128, 40)
        assert spec.n_outputs == 40

    def test_rejects_too_small_input(self):
        with pytest.raises(ValueError):
            tn.DetectorSpec(in_rows=4, in_cols=8)

    def test_rejects_bad_dropout(self):
        with pytest.raises(ValueError):
            tn.DetectorSpec(in_rows=8, in_cols=8, dropout_fc=1.0)


class TestInitWeights:
    def test_deterministic(self):
        a, b = tiny_weights(5), tiny_weights(5)
        for name in tn.PARAM_NAMES:
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_biases_zero(self):
        w = tiny_weights()
        for name in ("conv1_b", "conv2_b", "fc1_b", "out_b"):
            assert np.all(getattr(w, name) == 0)

    def test_fan_in_bound(self):
        w = tiny_weights()
        for name, shape in TINY.param_shapes().items():
            if name.endswith("_b"):
                continue
            fan_in = int(np.prod(shape[:-1]))
            bound = np.sqrt(6.0 / fan_in)
            assert np.max(np.abs(getattr(w, name))) <= bound


class TestForward:
    def test_zero_weights_give_half(self):
        w = tiny_weights()
        for name in tn.PARAM_NAMES:
            getattr(w, name)[:] = 0
        x, _ = tiny_batch()
        probs, _ = tn.forward(TINY, w, x)
        assert np.allclose(probs, 0.5)

    def test_eval_deterministic(self):
        w = tiny_weights()
        x, _ = tiny_batch()
        a, _ = tn.forward(TINY, w, x)
        b, _ = tn.forward(TINY, w, x)
        assert np.array_equal(a, b)

    def test_outputs_in_open_interval(self):
        w = tiny_weights()
        x, _ = tiny_batch(batch=16)
        probs, _ = tn.forward(TINY, w, x)
        assert np.all(probs > 0) and np.all(probs < 1)

    def test_single_sample_shape(self):
        w = tiny_weights()
        x, _ = tiny_batch(batch=1)
        probs, _ = tn.forward(TINY, w, x[0][None])
        assert probs.shape == (1, TINY.in_rows)
        # one sample is the batch x[None]; a bare (L, N, 2) sample is a shape error
        with pytest.raises(ValueError, match="input must have shape"):
            tn.forward(TINY, w, x[0])

    def test_rejects_wrong_shape(self):
        w = tiny_weights()
        with pytest.raises(ValueError):
            tn.forward(TINY, w, np.zeros((2, 5, 8, 2)))

    def test_train_mode_needs_rng(self):
        w = tiny_weights()
        x, _ = tiny_batch()
        with pytest.raises(ValueError):
            tn.forward(TINY, w, x, train=True)

    def test_conv_against_direct_loops(self):
        # one conv layer cross-checked against a naive triple loop
        w = tiny_weights(3)
        x, _ = tiny_batch(batch=1)
        probs, cache = tn.forward(TINY, w, x)
        r1, c1, f1 = TINY.conv1_shape
        z_ref = np.zeros((r1, c1, f1))
        for i in range(r1):
            for j in range(c1):
                patch = x[0, i:i + 3, j:j + 3, :]
                for f in range(f1):
                    z_ref[i, j, f] = np.sum(patch * w.conv1_w[:, :, :, f]) + w.conv1_b[f]
        assert np.max(np.abs(cache.z1[0].reshape(r1, c1, f1) - z_ref)) < 1e-10


class TestBceLoss:
    def test_uniform_half_analytic(self):
        # 40 outputs at 0.5: loss is 40 * ln 2
        probs = np.full((1, 40), 0.5)
        labels = np.zeros((1, 40))
        assert tn.bce_loss(probs, labels) == pytest.approx(40 * np.log(2), rel=1e-12)

    def test_perfect_prediction_near_zero(self):
        labels = np.array([[1, 0, 1, 0]])
        assert tn.bce_loss(labels.astype(float), labels) < 1e-5

    def test_hand_computed_two_band(self):
        probs = np.array([[0.9, 0.1]])
        labels = np.array([[1, 0]])
        assert tn.bce_loss(probs, labels) == pytest.approx(-2 * np.log(0.9), rel=1e-9)
        assert tn.bce_loss(probs, labels) == pytest.approx(0.21072, abs=1e-5)

    def test_batch_mean_sample_sum(self):
        probs = np.array([[0.7, 0.2], [0.7, 0.2]])
        labels = np.array([[1, 0], [1, 0]])
        single = tn.bce_loss(probs[:1], labels[:1])
        assert tn.bce_loss(probs, labels) == pytest.approx(single)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            tn.bce_loss(np.zeros((1, 4)), np.zeros((1, 5)))


class TestBackward:
    def test_zero_residual_zero_output_bias_grad(self):
        w = tiny_weights()
        x, labels = tiny_batch()
        probs, cache = tn.forward(TINY, w, x)
        grads = tn.backward(TINY, w, cache, probs)  # labels equal predictions
        assert np.max(np.abs(grads["out_b"])) < 1e-12

    def test_duplicated_batch_same_mean_gradient(self):
        w = tiny_weights()
        x, labels = tiny_batch(batch=1)
        _, cache1 = tn.forward(TINY, w, x)
        g1 = tn.backward(TINY, w, cache1, labels)
        x2 = np.concatenate([x, x])
        labels2 = np.concatenate([labels, labels])
        _, cache2 = tn.forward(TINY, w, x2)
        g2 = tn.backward(TINY, w, cache2, labels2)
        for name in tn.PARAM_NAMES:
            assert np.allclose(g1[name], g2[name], atol=1e-12)

    def test_finite_difference_eval_mode(self):
        w = tiny_weights(2)
        x, labels = tiny_batch(batch=2)
        assert tn.finite_difference_check(TINY, w, x, labels) < 1e-6

    def test_finite_difference_fixed_dropout(self):
        w = tiny_weights(2)
        x, labels = tiny_batch(batch=2)
        assert tn.finite_difference_check(TINY, w, x, labels, dropout_seed=9) < 1e-6

    @pytest.mark.parametrize("dropout_seed", [None, 9], ids=["eval", "train"])
    def test_finite_difference_pruned_model(self, dropout_seed):
        # the full backward of a masked model gives fc1_w's values at the
        # kept entries, which the check compares there
        w = tiny_weights(2)
        mask = np.random.default_rng(3).random(w.fc1_w.shape) < 0.4
        w = tn.ModelWeights(**{**w.arrays(), "fc1_w": np.where(mask, w.fc1_w, 0.0)},
                            prune_mask=mask)
        x, labels = tiny_batch(batch=2)
        train = dropout_seed is not None
        _, cache = tn.forward(TINY, w, x, train=train,
                              rng=np.random.default_rng(dropout_seed) if train else None)
        assert tn.backward(TINY, w, cache, labels)["fc1_w"].shape == (int(mask.sum()),)
        assert tn.finite_difference_check(TINY, w, x, labels, dropout_seed=dropout_seed) < 1e-6

    def test_finite_difference_flags_a_dropped_mask(self, monkeypatch):
        # a backward that forgets the hidden layer's dropout mask is wrong
        # only in train mode: the seeded check sees it, eval mode cannot
        w = tiny_weights(2)
        x, labels = tiny_batch(batch=2)
        original = tn.backward

        def without_mask3(spec, weights, cache, labels):
            return original(spec, weights, replace(cache, mask3=None), labels)

        monkeypatch.setattr(tn, "backward", without_mask3)
        assert tn.finite_difference_check(TINY, w, x, labels) < 1e-6
        assert tn.finite_difference_check(TINY, w, x, labels, dropout_seed=3) > 1e-2

    def test_single_precision_gradient_accuracy(self):
        # the float64 analytic gradient is itself verified against central
        # differences; the float32 backward must agree with it to 1e-4
        # relative wherever the gradient is numerically significant
        w32 = tiny_weights(2, dtype=np.float32)
        w64 = tn.ModelWeights(**{n: a.astype(np.float64) for n, a in w32.arrays().items()})
        x, labels = tiny_batch(batch=2)
        _, cache32 = tn.forward(TINY, w32, x.astype(np.float32))
        g32 = tn.backward(TINY, w32, cache32, labels)
        _, cache64 = tn.forward(TINY, w64, x)
        g64 = tn.backward(TINY, w64, cache64, labels)
        for name in tn.PARAM_NAMES:
            ref = g64[name]
            got = g32[name].astype(np.float64)
            significant = np.abs(ref) > 1e-3
            if significant.any():
                rel = np.abs(got - ref)[significant] / np.abs(ref)[significant]
                assert rel.max() < 1e-4


def _unrolled_conv_input_grad(dz, w, in_shape):
    """Reference: the (B, Ho*Wo, 9*C) patch gradient of the unrolled conv,
    scatter-added back tap by tap."""
    b, h, w_in, c = in_shape
    ho, wo = h - 2, w_in - 2
    d = (dz @ w.reshape(-1, w.shape[-1]).T).reshape(b, ho, wo, 3, 3, c)
    out = np.zeros(in_shape, dtype=dz.dtype)
    for u in range(3):
        for v in range(3):
            out[:, u:u + ho, v:v + wo, :] += d[:, :, :, u, v, :]
    return out


DESK = tn.DetectorSpec(in_rows=16, in_cols=32, conv1_filters=16, conv2_filters=8, hidden_units=64)
FULL = tn.DetectorSpec(in_rows=40, in_cols=64, conv1_filters=32, conv2_filters=16, hidden_units=128)


class TestConvBackpropOracle:
    @pytest.mark.parametrize("spec,batch", [
        pytest.param(spec, batch, id=f"{name}-B{batch}")
        for name, spec, batch in (("desk", DESK, 1), ("desk", DESK, 25), ("desk", DESK, 32),
                                  ("desk", DESK, 64), ("full", FULL, 1), ("full", FULL, 32))
    ])
    def test_backward_bitwise_equal_to_unrolled_scatter_add(self, monkeypatch, spec, batch):
        rng = np.random.default_rng(batch)
        w = tn.init_weights(spec, rng)
        x = rng.normal(size=(batch, spec.in_rows, spec.in_cols, 2)).astype(np.float32)
        labels = (rng.random((batch, spec.in_rows)) < 0.4).astype(np.int8)
        _, cache = tn.forward(spec, w, x, train=True, rng=rng)
        fused = tn.backward(spec, w, cache, labels)
        monkeypatch.setattr(tn, "_conv_input_grad", _unrolled_conv_input_grad)
        reference = tn.backward(spec, w, cache, labels)
        for name in tn.PARAM_NAMES:
            assert np.array_equal(fused[name], reference[name]), name

    @pytest.mark.parametrize("batch", [1, 25, 32, 64])
    def test_input_grad_bitwise_equal_on_sparse_gradients(self, batch):
        rng = np.random.default_rng(100 + batch)
        r1, c1, f1 = DESK.conv1_shape
        r2, c2, f2 = DESK.conv2_shape
        w = rng.normal(size=(3, 3, f1, f2)).astype(np.float32)
        dz = (rng.normal(size=(batch, r2 * c2, f2)) * (rng.random((batch, r2 * c2, f2)) < 0.5))
        dz = dz.astype(np.float32)
        shape = (batch, r1, c1, f1)
        assert np.array_equal(tn._conv_input_grad(dz, w, shape),
                              _unrolled_conv_input_grad(dz, w, shape))


class TestKeptFc1Gradient:
    """Under either scope, `backward` gives a masked model's fc1_w gradient
    as its values at the kept entries, one block of rows at a time; they
    are the bytes of the whole product ``flat.T @ dz3``, which the same
    cache gives for the model without its mask."""

    @staticmethod
    def gradients(monkeypatch, spec, block_rows, scope):
        """(masked model, its gradients, those of the model without its
        mask) from one train-mode forward of ``scope``."""
        rng = np.random.default_rng(8)
        w = tn.init_weights(spec, rng)
        mask = rng.random(w.fc1_w.shape) < 0.1
        if block_rows is not None:
            monkeypatch.setattr(tn, "_CONV_BLOCK_BYTES", block_rows * spec.hidden_units * 4)
        step = tn._CONV_BLOCK_BYTES // (spec.hidden_units * 4)
        if spec.flat_dim > step:
            assert spec.flat_dim % step  # a partial last block
            mask[step:2 * step] = False  # a block without a kept entry
        masked = tn.ModelWeights(**{**w.arrays(), "fc1_w": np.where(mask, w.fc1_w, np.float32(0))},
                                 prune_mask=mask)
        x = rng.normal(size=(25, spec.in_rows, spec.in_cols, 2)).astype(np.float32)
        labels = (rng.random((25, spec.in_rows)) < 0.4).astype(np.int8)
        _, cache = tn.forward(spec, masked, x, train=True, rng=np.random.default_rng(3),
                              scope=scope)
        got = tn.backward(spec, masked, cache, labels)
        dense = tn.backward(spec, tn.ModelWeights(**masked.arrays()), cache, labels)
        want = tn.kept_values(dense["fc1_w"], masked.kept.indices)
        assert got["fc1_w"].dtype == want.dtype and got["fc1_w"].tobytes() == want.tobytes()
        return masked, got, dense

    # block rows None keeps the module's blocks: one at desk scale, eight
    # and a partial one at full scale; 300 splits the desk rows into eight
    # blocks and a partial one
    SPECS = pytest.mark.parametrize("spec, block_rows", [(DESK, None), (DESK, 300), (FULL, None)],
                                    ids=["desk", "desk-300-rows", "full"])

    @SPECS
    def test_equals_whole_product_at_kept_entries(self, monkeypatch, spec, block_rows):
        masked, got, dense = self.gradients(monkeypatch, spec, block_rows, "ds_only")
        # a step on the kept vector is the dense step followed by np.where
        want = old_sgd_step(masked, dense, 0.05, scope="ds_only")
        for name in tn.PARAM_NAMES:
            a, b = getattr(tn.sgd_step(masked, got, 0.05), name), getattr(want, name)
            assert a.tobytes() == b.tobytes(), name

    @SPECS
    def test_full_cache_gives_the_kept_values(self, monkeypatch, spec, block_rows):
        # the full backward of a masked model builds no dense fc1_w gradient
        # either, and its other seven gradients are those of the model
        # without its mask
        masked, got, dense = self.gradients(monkeypatch, spec, block_rows, "all")
        assert list(got) == list(tn.PARAM_NAMES)
        for name in tn.PARAM_NAMES:
            if name != "fc1_w":
                assert got[name].tobytes() == dense[name].tobytes(), name

    def test_step_rejects_the_dense_gradient_of_a_masked_model(self):
        w = tiny_weights()
        mask = np.random.default_rng(2).random(w.fc1_w.shape) > 0.5
        masked = tn.ModelWeights(**w.arrays(), prune_mask=mask)
        with pytest.raises(ValueError, match="shape mismatch on fc1_w"):
            tn.sgd_step(masked, {"fc1_w": np.zeros(w.fc1_w.shape)}, 0.1)

    def test_step_rejects_a_vector_of_another_length(self):
        w = tiny_weights()
        mask = np.random.default_rng(2).random(w.fc1_w.shape) > 0.5
        masked = tn.ModelWeights(**w.arrays(), prune_mask=mask)
        with pytest.raises(ValueError, match="shape mismatch on fc1_w"):
            tn.sgd_step(masked, {"fc1_w": np.zeros(int(mask.sum()) - 1)}, 0.1)


class TestBackwardScope:
    def test_ds_only_fc_gradients_bitwise_equal_to_all(self):
        rng = np.random.default_rng(4)
        w = tn.init_weights(DESK, rng)
        x = rng.normal(size=(25, DESK.in_rows, DESK.in_cols, 2))
        labels = (rng.random((25, DESK.in_rows)) < 0.4).astype(np.int8)
        _, cache = tn.forward(DESK, w, x, train=True, rng=np.random.default_rng(5))
        _, lean = tn.forward(DESK, w, x, train=True, rng=np.random.default_rng(5), scope="ds_only")
        full = tn.backward(DESK, w, cache, labels)
        ds = tn.backward(DESK, w, lean, labels)
        assert list(full) == list(tn.PARAM_NAMES)
        assert list(ds) == list(tn.DOMAIN_SPECIFIC_PARAMS)
        for name in tn.DOMAIN_SPECIFIC_PARAMS:
            assert np.array_equal(ds[name], full[name]), name

    def test_ds_only_gradients_drive_ds_only_step(self):
        w = tiny_weights()
        x, labels = tiny_batch()
        _, cache = tn.forward(TINY, w, x)
        _, lean = tn.forward(TINY, w, x, scope="ds_only")
        full = tn.backward(TINY, w, cache, labels)
        step_all = tn.sgd_step(w, {n: full[n] for n in tn.DOMAIN_SPECIFIC_PARAMS}, 0.1)
        step_ds = tn.sgd_step(w, tn.backward(TINY, w, lean, labels), 0.1)
        for name in tn.PARAM_NAMES:
            assert np.array_equal(getattr(step_all, name), getattr(step_ds, name))


def assert_caches_agree(lean, full):
    """The lean cache holds the FC tensors of the full one, bit for bit,
    and none of the convolution tensors."""
    for name in ("flat", "z3", "mask3", "h3", "probs"):
        a, b = getattr(lean, name), getattr(full, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    for name in ("cols1", "z1", "mask1", "cols2", "z2", "mask2"):
        assert getattr(lean, name) is None, name


class TestLeanForward:
    # block bytes None keeps the module's L2-sized blocks (one sample per
    # block at full scale, ten at desk scale); 1 forces one-sample blocks
    @pytest.mark.parametrize("block_bytes", [None, 1])
    @pytest.mark.parametrize("train", [False, True])
    @pytest.mark.parametrize("spec,batch", [
        pytest.param(spec, batch, id=f"{name}-B{batch}")
        for name, spec, batch in (("tiny", TINY, 1), ("tiny", TINY, 7), ("desk", DESK, 1),
                                  ("desk", DESK, 25), ("desk", DESK, 33), ("full", FULL, 3))
    ])
    def test_bitwise_equal_to_full_forward(self, monkeypatch, spec, batch, train, block_bytes):
        if block_bytes is not None:
            monkeypatch.setattr(tn, "_CONV_BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(batch)
        w = tn.init_weights(spec, rng)
        x = rng.normal(size=(batch, spec.in_rows, spec.in_cols, 2)).astype(np.float32)
        full_rng, lean_rng = np.random.default_rng(9), np.random.default_rng(9)
        probs, full = tn.forward(spec, w, x, train=train, rng=full_rng)
        lean_probs, lean = tn.forward(spec, w, x, train=train, rng=lean_rng, scope="ds_only")
        assert lean_probs.tobytes() == probs.tobytes()
        assert_caches_agree(lean, full)
        # the dropout masks come from the same draws, so the stream goes on alike
        assert lean_rng.random() == full_rng.random()

    def test_blocks_follow_the_patch_budget(self):
        assert tn._conv_block(FULL, np.float32) == 1
        assert tn._conv_block(DESK, np.float32) == 10
        assert tn._conv_block(DESK, np.float64) == 5

    @pytest.mark.parametrize("spec", [DESK, FULL], ids=["desk", "full"])
    def test_cached_conv1_rows_of_a_permuted_subset(self, spec):
        rng = np.random.default_rng(3)
        w = tn.init_weights(spec, rng)
        x = rng.normal(size=(12, spec.in_rows, spec.in_cols, 2)).astype(np.float32)
        cached = tn.conv1_activations(spec, w, x)
        idx = rng.permutation(12)[:7]
        _, full = tn.forward(spec, w, x[idx])
        assert cached[idx].tobytes() == np.maximum(full.z1, 0).tobytes()
        # the batch's rows taken up front, or gathered by each block
        for train, rows in ((False, {"conv1_out": cached[idx]}), (True, {"conv1_out": cached[idx]}),
                            (False, {"conv1_out": cached, "conv1_rows": idx}),
                            (True, {"conv1_out": cached, "conv1_rows": idx})):
            want, full = tn.forward(spec, w, x[idx], train=train, rng=np.random.default_rng(2))
            got, lean = tn.forward(spec, w, x[idx], train=train, rng=np.random.default_rng(2),
                                   scope="ds_only", **rows)
            assert got.tobytes() == want.tobytes()
            assert_caches_agree(lean, full)

    def test_ds_only_gradients_equal_from_either_cache(self):
        rng = np.random.default_rng(6)
        w = tn.init_weights(DESK, rng)
        x = rng.normal(size=(25, DESK.in_rows, DESK.in_cols, 2)).astype(np.float32)
        labels = (rng.random((25, DESK.in_rows)) < 0.4).astype(np.int8)
        _, full = tn.forward(DESK, w, x, train=True, rng=np.random.default_rng(1))
        _, lean = tn.forward(DESK, w, x, train=True, rng=np.random.default_rng(1), scope="ds_only")
        want = tn.backward(DESK, w, full, labels)
        got = tn.backward(DESK, w, lean, labels)
        for name in tn.DOMAIN_SPECIFIC_PARAMS:
            assert got[name].tobytes() == want[name].tobytes(), name

    def test_lean_cache_cannot_serve_conv_gradients(self):
        w = tiny_weights()
        x, labels = tiny_batch()
        _, cache = tn.forward(TINY, w, x, scope="ds_only")
        assert list(tn.backward(TINY, w, cache, labels)) == list(tn.DOMAIN_SPECIFIC_PARAMS)

    def test_rejects_bad_scope_and_conv1_out(self):
        w = tiny_weights()
        x, _ = tiny_batch(batch=3)
        conv1 = tn.conv1_activations(TINY, w, x)
        assert conv1.shape == (3, *TINY.conv1_shape)
        with pytest.raises(ValueError, match="unknown scope"):
            tn.forward(TINY, w, x, scope="conv_only")
        with pytest.raises(ValueError, match="ds_only"):
            tn.forward(TINY, w, x, conv1_out=conv1)
        with pytest.raises(ValueError, match="conv1_out has shape"):
            tn.forward(TINY, w, x, scope="ds_only", conv1_out=conv1[:2])
        with pytest.raises(ValueError, match="conv1_out has shape"):
            tn.forward(TINY, w, x, scope="ds_only", conv1_out=conv1, conv1_rows=np.arange(2))
        with pytest.raises(ValueError, match="conv1_rows needs conv1_out"):
            tn.forward(TINY, w, x, scope="ds_only", conv1_rows=np.arange(3))


class TestSgdStep:
    def test_zero_gradient_identity(self):
        w = tiny_weights()
        zero = {n: np.zeros_like(getattr(w, n)) for n in tn.PARAM_NAMES}
        out = tn.sgd_step(w, zero, 0.5)
        for name in tn.PARAM_NAMES:
            assert np.array_equal(getattr(out, name), getattr(w, name))

    def test_scalar_arithmetic(self):
        w = tiny_weights()
        w.out_b[:] = 1.0
        g = {n: np.zeros_like(getattr(w, n)) for n in tn.PARAM_NAMES}
        g["out_b"][:] = 2.0
        out = tn.sgd_step(w, g, 0.1)
        assert np.allclose(out.out_b, 0.8)

    def test_ds_only_freezes_general_feature(self):
        w = tiny_weights()
        rng = np.random.default_rng(0)
        g = {n: rng.normal(size=getattr(w, n).shape) for n in tn.DOMAIN_SPECIFIC_PARAMS}
        out = tn.sgd_step(w, g, 0.1)
        for name in tn.GENERAL_FEATURE_PARAMS:
            assert getattr(out, name).tobytes() == getattr(w, name).tobytes()
        for name in tn.DOMAIN_SPECIFIC_PARAMS:
            assert not np.array_equal(getattr(out, name), getattr(w, name))

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("stepped", [(), ("out_b",), tn.DOMAIN_SPECIFIC_PARAMS,
                                         tn.GENERAL_FEATURE_PARAMS],
                             ids=["none", "out_b", "domain_specific", "general_feature"])
    def test_absent_parameters_are_the_same_objects(self, stepped, masked):
        w, g = hostile_masked_weights(np.float32)
        if not masked:
            w.prune_mask = None
        out = tn.sgd_step(w, kept_grads(w, {n: g[n] for n in stepped}), 0.1)
        for name in tn.PARAM_NAMES:
            assert (getattr(out, name) is getattr(w, name)) == (name not in stepped), name
        assert out.prune_mask is w.prune_mask

    def test_mask_reapplied(self):
        w = tiny_weights()
        mask = np.ones_like(w.fc1_w, dtype=bool)
        mask[0, :] = False
        w.fc1_w[~mask] = 0.0
        w.prune_mask = mask
        g = {n: np.ones_like(getattr(w, n)) for n in tn.PARAM_NAMES}
        out = tn.sgd_step(w, kept_grads(w, g), 0.1)
        assert np.all(out.fc1_w[0, :] == 0)

    def test_rejects_unknown_gradient_name(self):
        w = tiny_weights()
        g = {n: np.zeros_like(getattr(w, n)) for n in tn.PARAM_NAMES}
        g["fc1_W"] = g.pop("fc1_w")  # a misspelt name would otherwise leave fc1_w unstepped
        with pytest.raises(ValueError, match="fc1_W"):
            tn.sgd_step(w, g, 0.1)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), -0.1])
    def test_rejects_a_rate_that_is_not_finite_and_non_negative(self, lr):
        # a NaN rate stepped every weight to NaN
        w = tiny_weights()
        g = {n: np.zeros_like(getattr(w, n)) for n in tn.PARAM_NAMES}
        with pytest.raises(ValueError, match="learning rate"):
            tn.sgd_step(w, g, lr)


class TestTrainOffline:
    def test_loss_decreases_on_repeated_sample(self):
        rng = np.random.default_rng(10)
        x = np.repeat(rng.normal(size=(1, 6, 8, 2)), 32, axis=0).astype(np.float32)
        labels = np.repeat((rng.random((1, 6)) < 0.5).astype(np.int8), 32, axis=0)
        result = tn.train_offline(TINY, x, labels, x[:4], labels[:4], np.random.default_rng(0),
                                  lr=0.05, batch_size=8, max_epochs=10, patience=10)
        assert result.train_losses[-1] < result.train_losses[0]

    def test_patience_zero_stops_at_first_stall(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(16, 6, 8, 2)).astype(np.float32)
        labels = (rng.random((16, 6)) < 0.5).astype(np.int8)
        # zero learning rate never improves, so training stops after epoch 1
        result = tn.train_offline(TINY, x, labels, x, labels, np.random.default_rng(0),
                                  lr=0.0, batch_size=8, max_epochs=50, patience=0)
        assert len(result.val_losses) == 1

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(24, 6, 8, 2)).astype(np.float32)
        labels = (rng.random((24, 6)) < 0.4).astype(np.int8)

        def run():
            return tn.train_offline(TINY, x, labels, x[:6], labels[:6], np.random.default_rng(77),
                                    lr=0.05, batch_size=8, max_epochs=4, patience=4)

        a, b = run(), run()
        for name in tn.PARAM_NAMES:
            assert np.array_equal(getattr(a.weights, name), getattr(b.weights, name))

    def test_rejects_empty_dataset(self):
        with pytest.raises(ValueError):
            tn.train_offline(TINY, np.zeros((0, 6, 8, 2)), np.zeros((0, 6)),
                             np.zeros((1, 6, 8, 2)), np.zeros((1, 6)), np.random.default_rng(0),
                             lr=0.1, batch_size=64, max_epochs=60, patience=5)

    def test_desk_shape_peak_memory(self):
        # each batch's forward cache is dropped before the next forward: 19.8 MB
        # when it was not
        import tracemalloc

        from ftlwss import harness, pruning

        spec = harness.scaled_default().detector_spec()
        rng = np.random.default_rng(0)
        weights, _ = pruning.prune_model(tn.init_weights(spec, rng), 0.9)
        features = rng.normal(size=(50, spec.in_rows, spec.in_cols, 2)).astype(np.float32)
        labels = (rng.random((50, spec.in_rows)) < 0.4).astype(np.int8)
        tracemalloc.start()
        try:
            tn.train_offline(spec, features, labels, features[:10], labels[:10],
                             np.random.default_rng(1), lr=0.05, batch_size=25, max_epochs=1,
                             patience=5, init=weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 17e6

    @pytest.mark.parametrize("pruned", [False, True], ids=["dense", "pruned"])
    def test_never_writes_its_init(self, pruned):
        from ftlwss import pruning

        rng = np.random.default_rng(13)
        x = rng.normal(size=(16, 6, 8, 2)).astype(np.float32)
        labels = (rng.random((16, 6)) < 0.5).astype(np.int8)
        init = tn.init_weights(TINY, rng)
        if pruned:
            init, _ = pruning.prune_model(init, 0.5)
        arrays = [*init.arrays().values()] + ([init.prune_mask] if pruned else [])
        before = [a.tobytes() for a in arrays]
        for a in arrays:
            a.flags.writeable = False
        result = tn.train_offline(TINY, x, labels, x[:6], labels[:6], np.random.default_rng(3),
                                  lr=0.05, batch_size=8, max_epochs=3, patience=3, init=init)
        assert result.best_epoch >= 0
        assert [a.tobytes() for a in arrays] == before

    def test_zero_epochs_return_the_init(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(8, 6, 8, 2)).astype(np.float32)
        labels = (rng.random((8, 6)) < 0.5).astype(np.int8)
        init = tiny_weights(dtype=np.float32)
        result = tn.train_offline(TINY, x, labels, x, labels, np.random.default_rng(0),
                                  lr=0.05, batch_size=8, max_epochs=0, patience=0, init=init)
        assert result.weights is init
        assert result.best_epoch == -1 and result.val_losses == []

    def test_full_scale_fine_tune_peak_memory(self):
        # the start, the first best snapshot and each improving epoch's are
        # references, not copies (103.0 MB when they were copies), and the
        # fc1_w gradient is the kept vector: 76.4 MB with the dense gradient
        # and its gathered copy
        import tracemalloc

        from ftlwss import pruning

        rng = np.random.default_rng(0)
        weights, _ = pruning.prune_model(tn.init_weights(FULL, rng), 0.9)
        features = rng.normal(size=(4, FULL.in_rows, FULL.in_cols, 2)).astype(np.float32)
        labels = (rng.random((4, FULL.in_rows)) < 0.4).astype(np.int8)
        tracemalloc.start()
        try:
            pruning.fine_tune(FULL, weights, features, labels, features, labels,
                              np.random.default_rng(1), lr=0.05, batch_size=4, epochs=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 60e6


def old_init_weights(spec, rng, dtype):
    """init_weights with one whole float64 draw per weight tensor."""
    fields = {}
    for name, shape in spec.param_shapes().items():
        if name.endswith("_b"):
            fields[name] = np.zeros(shape, dtype=dtype)
            continue
        bound = np.sqrt(6.0 / int(np.prod(shape[:-1])))
        fields[name] = rng.uniform(-bound, bound, size=shape).astype(dtype)
    return tn.ModelWeights(**fields)


class TestBoundedDraws:
    """`init_weights` and the dropout masks draw their float64 uniforms in
    chunks of ``_DRAW_CHUNK``; values and generator state are those of one
    whole draw."""

    # chunk None keeps the module's chunk (fc1_w at full scale takes 17 of
    # them); 7 splits even the tiny tensors, with a partial last chunk
    @pytest.mark.parametrize("spec, chunk, dtype", [
        (TINY, 7, np.float32), (TINY, 7, np.float64), (DESK, None, np.float32),
        (FULL, None, np.float32)], ids=["tiny-7-f32", "tiny-7-f64", "desk", "full"])
    def test_init_weights_equals_whole_draw(self, monkeypatch, spec, chunk, dtype):
        if chunk is not None:
            monkeypatch.setattr(tn, "_DRAW_CHUNK", chunk)
        got_rng, want_rng = np.random.default_rng(9), np.random.default_rng(9)
        got = tn.init_weights(spec, got_rng, dtype=dtype)
        want = old_init_weights(spec, want_rng, dtype)
        for name in tn.PARAM_NAMES:
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("shape, chunk", [
        ((3, 5, 7), 8), ((2, 4), 8), ((25, 2356, 32), None), ((3, 128), None)],
        ids=["tiny-8", "one-chunk-8", "full-conv1", "one-chunk"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rate", [0.0, 0.2, 0.5])
    def test_dropout_mask_equals_whole_draw(self, monkeypatch, shape, chunk, dtype, rate):
        if chunk is not None:
            monkeypatch.setattr(tn, "_DRAW_CHUNK", chunk)
        got_rng, want_rng = np.random.default_rng(4), np.random.default_rng(4)
        got = tn._dropout_mask(shape, rate, got_rng, dtype)
        want = (want_rng.random(shape) >= rate).astype(dtype) / np.dtype(dtype).type(1.0 - rate)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_full_scale_init_peak_memory(self):
        # fc1_w's float64 draws are bounded: 53.1 MB when it was drawn whole
        import tracemalloc

        tracemalloc.start()
        try:
            tn.init_weights(FULL, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 25e6


class TestMaskPropagation:
    def test_masked_positions_stay_zero_through_training_ops(self):
        w = tiny_weights(dtype=np.float32)
        mask = np.random.default_rng(1).random(w.fc1_w.shape) > 0.5
        w.fc1_w = np.where(mask, w.fc1_w, 0.0).astype(np.float32)
        w.prune_mask = mask
        x, labels = tiny_batch(batch=4)
        rng = np.random.default_rng(2)
        for _ in range(5):
            probs, cache = tn.forward(TINY, w, x.astype(np.float32), train=True, rng=rng)
            grads = tn.backward(TINY, w, cache, labels)
            assert grads["fc1_w"].shape == (int(mask.sum()),)  # no gradient at pruned entries
            w = tn.sgd_step(w, grads, 0.05)
            assert np.all(w.fc1_w[~mask] == 0)


class TestKeptEntries:
    def test_derived_once_per_mask_object(self):
        w, _ = hostile_masked_weights(np.float32)
        first = w.kept
        assert w.kept is first and first.mask is w.prune_mask
        assert np.array_equal(first.indices, np.flatnonzero(w.prune_mask))
        assert np.array_equal(first.bits, np.packbits(w.prune_mask.reshape(-1), bitorder="little"))

    def test_reassigned_mask_gets_fresh_entries(self):
        w, _ = hostile_masked_weights(np.float32)
        first = w.kept
        w.prune_mask = w.prune_mask.copy()  # equal values, another object
        fresh = w.kept
        assert fresh is not first and fresh.mask is w.prune_mask
        assert np.array_equal(fresh.indices, first.indices)
        w.prune_mask = ~w.prune_mask
        assert np.array_equal(w.kept.indices, np.flatnonzero(w.prune_mask))
        w.prune_mask = None
        assert w.kept.mask is None and w.kept.indices is None and w.kept.bits is None

    @pytest.mark.parametrize("masked", [False, True])
    def test_sgd_step_results_share_the_entries(self, masked):
        w, g = hostile_masked_weights(np.float32)
        if not masked:
            w.prune_mask = None
        kept = w.kept
        g = kept_grads(w, g)
        once = tn.sgd_step(w, g, 0.1)
        twice = tn.sgd_step(once, {n: g[n] for n in tn.DOMAIN_SPECIFIC_PARAMS}, 0.1)
        assert once.kept is kept and twice.kept is kept

    def test_checkpoint_round_trip_carries_entries_of_its_mask(self):
        w, _ = hostile_masked_weights(np.float32)
        w.fc1_w = np.where(w.prune_mask, w.fc1_w, np.float32(0))
        _, loaded = tn.parse_checkpoint(tn.checkpoint_bytes(TINY, w))
        assert loaded.kept.mask is loaded.prune_mask
        assert np.array_equal(loaded.kept.indices, w.kept.indices)
        assert np.array_equal(loaded.kept.bits, w.kept.bits)


class TestCheckpoint:
    def test_round_trip_bit_identical(self):
        w = tiny_weights(dtype=np.float32)
        mask = np.random.default_rng(3).random(w.fc1_w.shape) > 0.3
        w.fc1_w = np.where(mask, w.fc1_w, 0.0).astype(np.float32)
        w.prune_mask = mask
        spec2, w2 = tn.parse_checkpoint(tn.checkpoint_bytes(TINY, w))
        assert spec2 == TINY
        for name in tn.PARAM_NAMES:
            assert np.array_equal(getattr(w2, name), getattr(w, name))
        assert np.array_equal(w2.prune_mask, mask)

    def test_no_mask_round_trip(self):
        w = tiny_weights(dtype=np.float32)
        _, w2 = tn.parse_checkpoint(tn.checkpoint_bytes(TINY, w))
        assert w2.prune_mask is None

    def test_truncation_raises_with_offset(self):
        from ftlwss.codec import DecodeError

        data = tn.checkpoint_bytes(TINY, tiny_weights(dtype=np.float32))
        with pytest.raises(DecodeError) as err:
            tn.parse_checkpoint(data[:37])
        assert err.value.offset <= 37

    def test_bad_magic(self):
        from ftlwss.codec import DecodeError

        data = tn.checkpoint_bytes(TINY, tiny_weights(dtype=np.float32))
        with pytest.raises(DecodeError):
            tn.parse_checkpoint(b"XXXX" + data[4:])

    def test_every_truncation_and_bit_flip_raises_decode_error(self):
        # as messages are fuzzed: each prefix of a masked checkpoint, then
        # seeded flips of one to three bits; a parse succeeds or raises
        # DecodeError
        from ftlwss.codec import DecodeError

        w = tiny_weights(dtype=np.float32)
        w.prune_mask = np.random.default_rng(3).random(w.fc1_w.shape) > 0.3
        w.fc1_w[~w.prune_mask] = 0
        data = bytes(tn.checkpoint_bytes(TINY, w))
        for end in range(len(data)):
            with pytest.raises(DecodeError):
                tn.parse_checkpoint(data[:end])
        rng = np.random.default_rng(17)
        for _ in range(3000):
            flipped = bytearray(data)
            for bit in rng.choice(8 * len(data), size=rng.integers(1, 4), replace=False):
                flipped[bit // 8] ^= 1 << (bit % 8)
            try:
                tn.parse_checkpoint(flipped)
            except DecodeError:
                pass

    def test_truncations_and_bit_flips_hypothesis(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        from ftlwss.codec import DecodeError

        w = tiny_weights(dtype=np.float32)
        w.prune_mask = np.random.default_rng(3).random(w.fc1_w.shape) > 0.3
        w.fc1_w[~w.prune_mask] = 0
        data = bytes(tn.checkpoint_bytes(TINY, w))

        @hypothesis.settings(max_examples=300, deadline=None, database=None)
        @hypothesis.given(st.integers(0, len(data) - 1),
                          st.lists(st.integers(0, 8 * len(data) - 1), min_size=1, max_size=4))
        def check(end, bits):
            with pytest.raises(DecodeError):
                tn.parse_checkpoint(data[:end])
            flipped = bytearray(data)
            for bit in bits:
                flipped[bit // 8] ^= 1 << (bit % 8)
            try:
                tn.parse_checkpoint(flipped)
            except DecodeError:
                pass

        check()

    def test_file_round_trip(self, tmp_path):
        w = tiny_weights(dtype=np.float32)
        path = tmp_path / "model.bin"
        tn.save_checkpoint(path, TINY, w)
        spec2, w2 = tn.load_checkpoint(path)
        assert spec2 == TINY
        assert np.array_equal(w2.fc1_w, w.fc1_w)


def old_sgd_step(weights, grads, lr, scope="all"):
    """The dense step followed by np.where that sgd_step replaced; ``scope``
    picked the parameters it stepped, whatever ``grads`` held.
    """
    names = tn.PARAM_NAMES if scope == "all" else tn.DOMAIN_SPECIFIC_PARAMS
    fields = {}
    for name in tn.PARAM_NAMES:
        value = getattr(weights, name)
        if name in names:
            fields[name] = value - value.dtype.type(lr) * grads[name]
        else:
            fields[name] = value
    mask = weights.prune_mask
    if mask is not None:
        fields["fc1_w"] = np.where(mask, fields["fc1_w"], fields["fc1_w"].dtype.type(0))
        mask = mask.copy()
    return tn.ModelWeights(**fields, prune_mask=mask)


def hostile_masked_weights(dtype, seed=0):
    """A masked model with garbage (NaN, nonzero) at pruned positions, -0.0
    at some kept positions, and a gradient that is zero there and NaN at
    some pruned positions.
    """
    rng = np.random.default_rng(seed)
    w = tiny_weights(seed, dtype=dtype)
    mask = rng.random(w.fc1_w.shape) > 0.4
    pruned = np.flatnonzero(~mask)
    kept = np.flatnonzero(mask)
    w.fc1_w.reshape(-1)[pruned[::2]] = np.nan
    w.fc1_w.reshape(-1)[kept[:5]] = -0.0
    w.prune_mask = mask
    g = {n: rng.normal(size=getattr(w, n).shape).astype(dtype) for n in tn.PARAM_NAMES}
    g["fc1_w"].reshape(-1)[kept[:3]] = 0.0
    g["fc1_w"].reshape(-1)[kept[3:5]] = -0.0
    g["fc1_w"].reshape(-1)[pruned[1::3]] = np.nan
    g["out_b"][0] = -0.0
    return w, g


def kept_grads(weights, grads):
    """Dense ``grads`` in the form `backward` gives them for ``weights``: a
    masked model's fc1_w as its values at the kept entries."""
    if "fc1_w" not in grads or weights.prune_mask is None:
        return grads
    return {**grads, "fc1_w": tn.kept_values(grads["fc1_w"], weights.kept.indices)}


class TestSgdStepOracle:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("scope", ["all", "ds_only"])
    @pytest.mark.parametrize("masked", [False, True])
    def test_bitwise_equal_to_dense_where(self, dtype, scope, masked):
        w, g = hostile_masked_weights(dtype)
        if not masked:
            w.prune_mask = None
        before = {n: getattr(w, n).tobytes() for n in tn.PARAM_NAMES}
        # the 8-key dict of backward(scope="all") or the 4-key one of "ds_only"
        names = tn.PARAM_NAMES if scope == "all" else tn.DOMAIN_SPECIFIC_PARAMS
        out = tn.sgd_step(w, kept_grads(w, {n: g[n] for n in names}), 0.05)
        expected = old_sgd_step(w, g, 0.05, scope=scope)
        for name in tn.PARAM_NAMES:
            got, want = getattr(out, name), getattr(expected, name)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name
            assert getattr(w, name).tobytes() == before[name], name  # input untouched
        if masked:
            assert np.array_equal(out.prune_mask, w.prune_mask)

    def test_read_only_weights_are_not_written(self):
        w, g = hostile_masked_weights(np.float32)
        for name in tn.PARAM_NAMES:
            getattr(w, name).flags.writeable = False
        out = tn.sgd_step(w, kept_grads(w, g), 0.1)
        assert out.fc1_w.flags.writeable
