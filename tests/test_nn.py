import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from prunekit import harness, model_io, nn

from _oracles import (conv2d_loop, conv_backward_reference, fd_max_rel_error,
                      maxpool_backward_reference, maxpool_loop, random_small_net)


def tiny_spec():
    return nn.NetworkSpec(
        (nn.conv2d(2, 3, kernel=3, padding=1), nn.relu(), nn.maxpool2d(2),
         nn.flatten(), nn.linear(3 * 3 * 3, 3), nn.softmax_ce_head()),
        input_dims=(2, 6, 6), num_classes=3)


def conv_one(x, w, b, stride=1, padding=0):
    """The engine's batched conv applied to one (c, h, w) image."""
    return nn._conv_forward(x[None], w, b, stride, padding)[0][0]


class TestConv2dForward:
    def test_identity_kernel(self):
        x = np.arange(9.0).reshape(1, 3, 3)
        w = np.ones((1, 1, 1, 1))
        out = conv_one(x, w, np.zeros(1))
        np.testing.assert_array_equal(out, x)

    def test_matches_loop_oracle(self, rng):
        x = rng.normal(size=(3, 8, 8))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        got = conv_one(x, w, b, stride=1, padding=1)
        want = conv2d_loop(x, w, b, stride=1, padding=1)
        np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1), (2, 0), (3, 2)])
    def test_strides_and_padding_match_oracle(self, rng, stride, padding):
        x = rng.normal(size=(2, 9, 7))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        got = conv_one(x, w, b, stride=stride, padding=padding)
        want = conv2d_loop(x, w, b, stride=stride, padding=padding)
        np.testing.assert_allclose(got, want, atol=1e-12)


class TestIm2col:
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 32, 64]), st.integers(1, 4),
           st.sampled_from([(1, 1), (3, 2), (3, 3)]), st.sampled_from([1, 2]),
           st.integers(0, 2))
    def test_cols_equal_the_window_copy_bitwise(self, seed, n, c_in, kernel, stride,
                                                padding):
        rng = np.random.default_rng(seed)
        kh, kw = kernel
        h = int(rng.integers(max(1, kh - 2 * padding), 9))
        w = int(rng.integers(max(1, kw - 2 * padding), 9))
        x = rng.normal(size=(n, c_in, h, w))
        weights = rng.normal(size=(2, c_in, kh, kw))
        xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
        want = win.transpose(0, 2, 3, 1, 4, 5).reshape(-1, c_in * kh * kw)
        _, cols = nn._conv_forward(x, weights, None, stride, padding)
        assert cols.shape == want.shape and cols.tobytes() == want.tobytes()
        # The second call finds its offset table (if it needs one) in the cache.
        misses = nn._im2col_index.cache_info().misses
        _, again = nn._conv_forward(x, weights, None, stride, padding)
        assert nn._im2col_index.cache_info().misses == misses
        assert again.tobytes() == want.tobytes()


class TestConv2dBackward:
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 32]), st.sampled_from([1, 2]),
           st.integers(0, 2), st.sampled_from([(1, 1), (3, 2)]))
    def test_matches_reference_bitwise(self, seed, n, stride, padding, kernel):
        rng = np.random.default_rng(seed)
        kh, kw = kernel
        c_in, c_out = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        h, w = int(rng.integers(kh, 9)), int(rng.integers(kw, 9))
        x = rng.normal(size=(n, c_in, h, w))
        weights = rng.normal(size=(c_out, c_in, kh, kw))
        y, cols = nn._conv_forward(x, weights, np.zeros(c_out), stride, padding)
        d_out = rng.normal(size=y.shape)
        got = nn._conv_backward(cols, x.shape, weights, stride, padding, d_out)
        want = conv_backward_reference(x, weights, stride, padding, d_out)
        for g, r in zip(got, want):
            assert g.shape == r.shape and g.tobytes() == r.tobytes()

    def test_training_matches_reference_backward_bitwise(self, monkeypatch, tmp_path):
        data = model_io.synth_dataset(3, 96, 10, dims=(1, 12, 12))
        spec = harness.desk_net(input_dims=(1, 12, 12), widths=(6, 8, 8, 10))
        cfg = harness.TrainConfig(epochs=2, batch_size=32, lr=0.05)
        model_io.save_checkpoint(tmp_path / "fast.ckpt", harness.train(spec, data, cfg))

        # The trace's cols slot carries each conv's input for the reference.
        forward = nn._conv_forward
        monkeypatch.setattr(nn, "_conv_forward", lambda x, w, b, s, p: (
            forward(x, w, b, s, p)[0], x))
        def reference_backward(x, x_shape, w, s, p, d, need_dx=True, need_dw=True):
            dx, dw, db = conv_backward_reference(x, w, s, p, d)
            return ((dx if need_dx else None), *((dw, db) if need_dw else (None, None)))

        monkeypatch.setattr(nn, "_conv_backward", reference_backward)
        model_io.save_checkpoint(tmp_path / "reference.ckpt",
                                 harness.train(spec, data, cfg))
        assert ((tmp_path / "fast.ckpt").read_bytes()
                == (tmp_path / "reference.ckpt").read_bytes())


class TestNetworkSpec:
    def test_head_must_be_last_and_unique(self):
        with pytest.raises(nn.ShapeError, match="softmax_ce_head"):
            nn.NetworkSpec((nn.conv2d(1, 1, 1),), (1, 4, 4), 2)
        with pytest.raises(nn.ShapeError, match="softmax_ce_head"):
            nn.NetworkSpec((nn.softmax_ce_head(), nn.conv2d(1, 1, 1),
                            nn.softmax_ce_head()), (1, 4, 4), 2)

    def test_requires_a_conv(self):
        with pytest.raises(nn.ShapeError, match="conv2d"):
            nn.NetworkSpec((nn.flatten(), nn.linear(4, 2), nn.softmax_ce_head()),
                           (1, 2, 2), 2)

    def test_adjacent_shape_mismatch_rejected(self):
        with pytest.raises(nn.ShapeError, match="linear"):
            nn.NetworkSpec((nn.conv2d(1, 2, 3), nn.flatten(), nn.linear(99, 2),
                            nn.softmax_ce_head()), (1, 6, 6), 2)

    def test_activation_dims(self):
        spec = tiny_spec()
        dims = spec.activation_dims()
        assert dims == [(3, 6, 6), (3, 6, 6), (3, 3, 3), (27,), (3,), (3,)]


class TestForwardCollect:
    @pytest.mark.parametrize("seed", range(5))
    def test_upto_matches_full_pass_prefix_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        spec, params, x, _ = random_small_net(rng)
        full = nn.forward_collect(spec, params, x)
        num_layers = len(spec.layers)
        for upto in range(num_layers):
            part = nn.forward_collect(spec, params, x, upto=upto)
            assert len(part.outputs) == upto + 1
            for got, want in zip(part.outputs, full.outputs):
                assert got.tobytes() == want.tobytes()
            if upto == num_layers - 1:
                assert part.logits.tobytes() == full.logits.tobytes()
            else:
                assert part.logits is None

    def test_upto_out_of_range(self, rng):
        spec = tiny_spec()
        params = nn.init_params(spec, 0)
        x = rng.normal(size=(1, 2, 6, 6))
        for upto in (-1, len(spec.layers)):
            with pytest.raises(ValueError, match="upto must be in"):
                nn.forward_collect(spec, params, x, upto=upto)

    def test_backward_refuses_a_truncated_trace(self, rng):
        spec = tiny_spec()
        params = nn.init_params(spec, 0)
        trace = nn.forward_collect(spec, params, rng.normal(size=(1, 2, 6, 6)), upto=2)
        with pytest.raises(ValueError, match="trace stops before the head"):
            nn.backward_collect(spec, params, trace, np.array([0]))

    def test_single_conv_matches_conv_forward(self, rng):
        spec = nn.NetworkSpec(
            (nn.conv2d(2, 3, kernel=3, padding=1), nn.flatten(),
             nn.linear(3 * 5 * 5, 2), nn.softmax_ce_head()),
            (2, 5, 5), 2)
        params = nn.init_params(spec, 3)
        x = rng.normal(size=(1, 2, 5, 5))
        trace = nn.forward_collect(spec, params, x)
        direct, _ = nn._conv_forward(x, params[0].weights, params[0].bias, 1, 1)
        np.testing.assert_array_equal(trace.outputs[0], direct)

    def test_layer_by_layer_reapplication_bitwise(self, rng):
        spec = tiny_spec()
        params = nn.init_params(spec, 11)
        x = rng.normal(size=(3, 2, 6, 6))
        trace = nn.forward_collect(spec, params, x)
        cur = trace.x
        for i, layer in enumerate(spec.layers):
            if layer.kind == nn.CONV2D:
                cur, _ = nn._conv_forward(cur, params[i].weights, params[i].bias,
                                          layer.stride, layer.padding)
            elif layer.kind == nn.RELU:
                cur = nn.relu_forward(cur)
            elif layer.kind == nn.MAXPOOL2D:
                cur = nn.maxpool2d_forward(cur, layer.window, layer.stride)
            elif layer.kind == nn.FLATTEN:
                cur = cur.reshape(cur.shape[0], -1)
            elif layer.kind == nn.LINEAR:
                cur = nn.linear_forward(cur, params[i].weights, params[i].bias)
            elif layer.kind == nn.SOFTMAX_CE_HEAD:
                cur = nn.softmax(cur)
            np.testing.assert_array_equal(trace.outputs[i], cur)

    @pytest.mark.parametrize("seed", range(5))
    def test_predict_matches_trace_logits_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        spec, params, x, _ = random_small_net(rng)
        got = nn.predict(spec, params, x)
        assert got.tobytes() == nn.forward_collect(spec, params, x).logits.tobytes()

    def test_trace_keeps_each_conv_im2col(self, rng):
        spec = tiny_spec()
        params = nn.init_params(spec, 4)
        trace = nn.forward_collect(spec, params, rng.normal(size=(2, 2, 6, 6)))
        assert list(trace.cols) == spec.conv_indices()
        # One row per output position, one column per (c_in, kh, kw) tap.
        assert trace.cols[0].shape == (2 * 6 * 6, 2 * 3 * 3)

    def test_input_dim_mismatch(self, rng):
        spec = tiny_spec()
        params = nn.init_params(spec, 0)
        with pytest.raises(nn.ShapeError, match="input dims"):
            nn.forward_collect(spec, params, rng.normal(size=(1, 3, 6, 6)))

    def test_determinism_bitwise(self, rng):
        spec = tiny_spec()
        params = nn.init_params(spec, 5)
        x = rng.normal(size=(2, 2, 6, 6))
        a = nn.forward_collect(spec, params, x)
        b = nn.forward_collect(spec, params, x)
        for u, v in zip(a.outputs, b.outputs):
            np.testing.assert_array_equal(u, v)


class TestBackwardCollect:
    def test_saturated_softmax_zero_gradient(self):
        spec = tiny_spec()
        params = nn.init_params(spec, 2)
        logits = np.array([[50.0, -50.0, -50.0]])
        probs = nn.softmax(logits)
        grad = probs - np.array([[1.0, 0.0, 0.0]])
        assert np.abs(grad).max() < 1e-12

    def test_linear_layer_closed_form(self, rng):
        x = rng.normal(size=(1, 6))
        w = rng.normal(size=(4, 6))
        y = x @ w.T
        probs = nn.softmax(y)
        onehot = np.zeros((1, 4))
        onehot[0, 2] = 1.0
        dlogits = probs - onehot
        dx, dw, db = nn.linear_backward(x, w, dlogits)
        np.testing.assert_allclose(dw, np.outer(dlogits[0], x[0]), atol=1e-14)
        np.testing.assert_allclose(db, dlogits[0], atol=1e-14)
        np.testing.assert_allclose(dx, dlogits @ w, atol=1e-14)

    def test_finite_differences_two_conv_net(self):
        rng = np.random.default_rng(99)
        spec = nn.NetworkSpec(
            (nn.conv2d(1, 2, kernel=3, padding=1), nn.relu(),
             nn.conv2d(2, 2, kernel=3, padding=0), nn.relu(), nn.flatten(),
             nn.linear(2 * 4 * 4, 3), nn.softmax_ce_head()),
            (1, 6, 6), 3)
        params = nn.init_params(spec, rng)
        x = rng.normal(size=(1, 1, 6, 6))
        labels = np.array([1])
        assert fd_max_rel_error(spec, params, x, labels) < 1e-4

    def test_label_out_of_range(self, rng):
        spec = tiny_spec()
        params = nn.init_params(spec, 1)
        trace = nn.forward_collect(spec, params, rng.normal(size=(1, 2, 6, 6)))
        with pytest.raises(ValueError, match="label 7 out of range"):
            nn.backward_collect(spec, params, trace, np.array([7]))

    def test_cross_entropy_matches_log_softmax(self, rng):
        logits = rng.normal(size=(5, 4)) * 3
        labels = rng.integers(0, 4, size=5)
        direct = -np.log(nn.softmax(logits)[np.arange(5), labels]).mean()
        assert abs(nn.cross_entropy(logits, labels) - direct) < 1e-12


class TestBackwardStop:
    @pytest.mark.parametrize("seed", range(5))
    def test_gradients_from_stop_up_match_full_pass_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        spec, params, x, labels = random_small_net(rng)
        trace = nn.forward_collect(spec, params, x)
        full = nn.backward_collect(spec, params, trace, labels)
        num_layers = len(spec.layers)
        for stop in range(1, num_layers):
            part = nn.backward_collect(spec, params, trace, labels, stop=stop)
            assert part.loss == full.loss
            assert part.wrt_input is None
            for i in range(num_layers - 1):
                if i >= stop - 1:
                    assert part.activations[i].tobytes() == full.activations[i].tobytes()
                else:
                    assert part.activations[i] is None
            for i, w in enumerate(full.weights):
                if w is None or i < stop:
                    assert part.weights[i] is None
                else:
                    assert part.weights[i].weights.tobytes() == w.weights.tobytes()
                    assert part.weights[i].bias.tobytes() == w.bias.tobytes()

    @pytest.mark.parametrize("seed", range(5))
    def test_skipped_input_gradient_leaves_the_rest_bitwise(self, seed):
        # Each of the two skippable gradients in turn: dC/dx of the input,
        # and every weight gradient.
        rng = np.random.default_rng(seed)
        spec, params, x, labels = random_small_net(rng)
        trace = nn.forward_collect(spec, params, x)
        full = nn.backward_collect(spec, params, trace, labels)
        for skipped in ("wrt_input", "wrt_weights"):
            part = nn.backward_collect(spec, params, trace, labels, **{skipped: False})
            assert part.loss == full.loss
            for g, f in zip(part.activations, full.activations):
                assert (g is None and f is None) or g.tobytes() == f.tobytes()
            if skipped == "wrt_input":
                assert full.wrt_input is not None and part.wrt_input is None
            else:
                assert part.wrt_input.tobytes() == full.wrt_input.tobytes()
            for g, f in zip(part.weights, full.weights):
                if f is None or skipped == "wrt_weights":
                    assert g is None
                else:
                    assert g.weights.tobytes() == f.weights.tobytes()
                    assert g.bias.tobytes() == f.bias.tobytes()

    def test_stop_out_of_range(self, rng):
        spec = tiny_spec()
        params = nn.init_params(spec, 0)
        trace = nn.forward_collect(spec, params, rng.normal(size=(1, 2, 6, 6)))
        with pytest.raises(ValueError, match="stop must be in"):
            nn.backward_collect(spec, params, trace, np.array([0]),
                                stop=len(spec.layers))


class TestAuxOps:
    def test_relu(self):
        np.testing.assert_array_equal(nn.relu_forward(np.array([-1.0, 0.0, 2.0])),
                                      np.array([0.0, 0.0, 2.0]))

    def test_maxpool_value_and_routing(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        out = nn.maxpool2d_forward(x, (2, 2), 2)
        assert out[0, 0, 0, 0] == 4.0
        dx = nn.maxpool2d_backward(x, out, (2, 2), 2, np.ones((1, 1, 1, 1)))
        np.testing.assert_array_equal(dx[0, 0], [[0.0, 0.0], [0.0, 1.0]])

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.integers(1, 3),
           st.integers(1, 3))
    def test_maxpool_matches_window_loop_bitwise(self, seed, wh, ww, stride):
        # Few distinct values, half of them clipped to zero by the ReLU, so
        # most windows hold ties; stride < window gives overlapping windows.
        rng = np.random.default_rng(seed)
        shape = (int(rng.integers(1, 3)), int(rng.integers(1, 4)),
                 int(rng.integers(wh, 9)), int(rng.integers(ww, 9)))
        x = nn.relu_forward(rng.choice([-1.5, -0.5, 0.25, 0.5, 2.0], size=shape))
        got = nn.maxpool2d_forward(x, (wh, ww), stride)
        want = maxpool_loop(x, (wh, ww), stride)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.integers(1, 3),
           st.integers(1, 3))
    def test_maxpool_backward_matches_add_at_reference_bitwise(self, seed, wh, ww,
                                                               stride):
        # Ties (including +-0.0 after the ReLU), overlapping windows when
        # stride < window, and signed-zero gradients.
        rng = np.random.default_rng(seed)
        shape = (int(rng.integers(1, 3)), int(rng.integers(1, 4)),
                 int(rng.integers(wh, 9)), int(rng.integers(ww, 9)))
        x = nn.relu_forward(rng.choice([-1.5, -0.5, -0.0, 0.25, 0.5, 2.0], size=shape))
        y = nn.maxpool2d_forward(x, (wh, ww), stride)
        d_out = rng.choice([-1.0, -0.0, 0.0, 0.3, 1e-300, 7.0], size=y.shape)
        got = nn.maxpool2d_backward(x, y, (wh, ww), stride, d_out)
        want = maxpool_backward_reference(x, (wh, ww), stride, d_out)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_training_matches_reference_pool_backward_bitwise(self, monkeypatch,
                                                             tmp_path):
        data = model_io.synth_dataset(3, 96, 10, dims=(1, 12, 12))
        spec = harness.desk_net(input_dims=(1, 12, 12), widths=(6, 8, 8, 10))
        cfg = harness.TrainConfig(epochs=2, batch_size=32, lr=0.05)
        model_io.save_checkpoint(tmp_path / "fast.ckpt", harness.train(spec, data, cfg))
        monkeypatch.setattr(nn, "maxpool2d_backward", lambda x, y, win, s, d: (
            maxpool_backward_reference(x, win, s, d)))
        model_io.save_checkpoint(tmp_path / "reference.ckpt",
                                 harness.train(spec, data, cfg))
        assert ((tmp_path / "fast.ckpt").read_bytes()
                == (tmp_path / "reference.ckpt").read_bytes())

    @pytest.mark.parametrize("stride", [0, -1])
    def test_maxpool_stride_below_one_rejected(self, stride):
        with pytest.raises(nn.ShapeError, match="maxpool2d: stride must be >= 1"):
            nn.maxpool2d(4, stride)

    def test_maxpool_window_larger_than_input(self):
        with pytest.raises(nn.ShapeError, match="larger than input"):
            nn.maxpool2d_forward(np.zeros((1, 1, 2, 2)), (3, 3), 1)

    def test_maxpool_tie_lowest_flat_index(self):
        x = np.full((1, 1, 2, 2), 3.0)
        y = nn.maxpool2d_forward(x, (2, 2), 2)
        dx = nn.maxpool2d_backward(x, y, (2, 2), 2, np.ones((1, 1, 1, 1)))
        np.testing.assert_array_equal(dx[0, 0], [[1.0, 0.0], [0.0, 0.0]])

    def test_linear_matches_matvec_oracle(self, rng):
        x = rng.normal(size=(3, 7))
        w = rng.normal(size=(4, 7))
        b = rng.normal(size=4)
        got = nn.linear_forward(x, w, b)
        want = np.array([[b[i] + sum(w[i, k] * x[n, k] for k in range(7))
                          for i in range(4)] for n in range(3)])
        np.testing.assert_allclose(got, want, atol=1e-12)


class TestSgdStep:
    def l(self, w):
        return [nn.LayerParams(np.array(w, dtype=float), np.zeros(1))]

    def test_two_step_momentum_recurrence(self):
        # The fixed rule, expanded by hand: g' = g + 1e-4 * w, v' = 0.9 * v + g',
        # w' = w - lr * (g' + 0.9 * v'), starting from v = 0.
        w0, g, lr = 10.0, 2.0, 0.1
        p1, v1 = nn.sgd_step(self.l([w0]), self.l([g]), lr=lr)
        g1 = g + 1e-4 * w0
        w1 = w0 - lr * (g1 + 0.9 * g1)
        np.testing.assert_allclose(v1[0].weights, [g1], rtol=1e-15)
        np.testing.assert_allclose(p1[0].weights, [w1], rtol=1e-15)
        p2, v2 = nn.sgd_step(p1, self.l([g]), lr=lr, velocity=v1)
        g2 = g + 1e-4 * w1
        v2_want = 0.9 * g1 + g2
        np.testing.assert_allclose(v2[0].weights, [v2_want], rtol=1e-15)
        np.testing.assert_allclose(p2[0].weights, [w1 - lr * (g2 + 0.9 * v2_want)],
                                   rtol=1e-15)

    def test_rejects_nonpositive_lr(self):
        with pytest.raises(ValueError, match="learning rate"):
            nn.sgd_step(self.l([1.0]), self.l([1.0]), lr=0.0)


class TestGradientProperty:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_random_nets_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        spec, params, x, labels = random_small_net(rng)
        assert fd_max_rel_error(spec, params, x, labels) < 1e-4

    def test_gradient_shapes_match_their_targets(self, rng):
        spec = tiny_spec()
        params = nn.init_params(spec, 0)
        x = rng.normal(size=(2, 2, 6, 6))
        trace = nn.forward_collect(spec, params, x)
        grads = nn.backward_collect(spec, params, trace, np.array([0, 1]))
        for i, p in enumerate(params):
            if p is None:
                assert grads.weights[i] is None
                continue
            assert grads.weights[i].weights.shape == p.weights.shape
            assert grads.weights[i].bias.shape == p.bias.shape
        for i in range(len(spec.layers) - 1):
            assert grads.activations[i].shape == trace.outputs[i].shape
        assert grads.wrt_input.shape == trace.x.shape

    def test_everything_stays_finite_through_training_steps(self, rng):
        spec = tiny_spec()
        params = nn.init_params(spec, 3)
        x = rng.normal(size=(4, 2, 6, 6))
        labels = rng.integers(0, 3, size=4)
        velocity = None
        for _ in range(5):
            trace = nn.forward_collect(spec, params, x)
            for out in trace.outputs:
                assert np.isfinite(out).all()
            grads = nn.backward_collect(spec, params, trace, labels)
            params, velocity = nn.sgd_step(params, grads.weights, lr=0.1,
                                           velocity=velocity)
        for p in params:
            if p is not None:
                assert np.isfinite(p.weights).all() and np.isfinite(p.bias).all()
