import dataclasses
import tracemalloc
import weakref

import numpy as np
import pytest

from prunekit import harness, model_io, nn, pruner, solvers

from _oracles import (apply_supports, dense_weighted_system, extract_probes_loop,
                      sample_probes_loop, subset_residual)


SYNTH = dict(classes=10, dims=(1, 12, 12), noise=0.25, amplitude=0.8, jitter=1.2)


@pytest.fixture(scope="module")
def synth_data():
    return model_io.synth_dataset(11, 800, SYNTH["classes"], dims=SYNTH["dims"],
                                  noise=SYNTH["noise"], amplitude=SYNTH["amplitude"],
                                  jitter=SYNTH["jitter"], split="train")


@pytest.fixture(scope="module")
def synth_test():
    return model_io.synth_dataset(12, 400, SYNTH["classes"], dims=SYNTH["dims"],
                                  noise=SYNTH["noise"], amplitude=SYNTH["amplitude"],
                                  jitter=SYNTH["jitter"], split="test")


@pytest.fixture(scope="module")
def trained(synth_data, synth_test):
    spec = harness.desk_net(input_dims=(1, 12, 12), num_classes=SYNTH["classes"],
                            widths=(6, 8, 8, 10))
    cfg = harness.TrainConfig(epochs=14, batch_size=32, lr=0.05, seed=2)
    return harness.train(spec, synth_data, cfg, eval_data=synth_test)


def quick_config(**kw):
    base = dict(probe_images=48, num_locations=6, seed=0)
    base.update(kw)
    return pruner.PruneConfig(**base)


def probe_all(model, li, dataset, cfg):
    """The whole probe sample of conv `li` as one batch."""
    sample = pruner.sample_probes(model.spec, li, dataset, cfg)
    return pruner.extract_probes(model, dataset, li, sample)


class TestPruneConfig:
    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown variant"):
            pruner.PruneConfig(variant="nope")

    @pytest.mark.parametrize("kwargs, want", [
        (dict(flops_target=float("nan")), "flops_target must be finite and >= 1, got nan"),
        (dict(flops_target=float("inf")), "flops_target must be finite and >= 1, got inf"),
        (dict(flops_target=0.5), "flops_target must be finite and >= 1, got 0.5"),
        (dict(seed=-1), "seed must be >= 0, got -1")])
    def test_rejected_at_construction(self, kwargs, want):
        with pytest.raises(ValueError) as err:
            pruner.PruneConfig(**kwargs)
        assert str(err.value) == want

    @pytest.mark.parametrize("kwargs, want", [
        (dict(budgets={2: 2.5}), "budget for conv 2 must be an integer, got 2.5"),
        (dict(probe_images=10.5), "probe_images must be an integer, got 10.5"),
        (dict(num_locations=2.5), "num_locations must be an integer, got 2.5"),
        (dict(seed=1.5), "seed must be an integer, got 1.5"),
        (dict(budgets={2.5: 3}), "budget key must be an integer, got 2.5"),
        (dict(budgets={2.0: 3}), "budget key must be an integer, got 2.0")])
    def test_non_integer_settings_rejected(self, kwargs, want):
        with pytest.raises(ValueError) as err:
            pruner.PruneConfig(**kwargs)
        assert str(err.value) == want

    def test_budget_keys_validated(self, trained):
        cfg = pruner.PruneConfig(budgets={1: 3})
        with pytest.raises(ValueError, match="first conv is never pruned"):
            cfg.validate_for(trained.spec)
        cfg = pruner.PruneConfig(budgets={2: 99})
        with pytest.raises(ValueError, match=r"must be in \[1, 6\]"):
            cfg.validate_for(trained.spec)


class TestExtractProbes:
    def test_identical_models_ystar_equals_y0(self, trained, synth_data):
        # Unless handed another model's rows, y0 is the probed model's ystar.
        li = trained.spec.conv_indices()[1]
        sample = pruner.sample_probes(trained.spec, li, synth_data, quick_config())
        probe = pruner.extract_probes(trained, synth_data, li, sample)
        assert probe.y0.tobytes() == probe.ystar.tobytes()
        given = np.zeros_like(probe.y0)
        handed = pruner.extract_probes(trained, synth_data, li, sample, y0=given)
        assert handed.y0 is given
        assert handed.ystar.tobytes() == probe.ystar.tobytes()

    def test_exhaustive_sampling_covers_every_location(self, trained, synth_data):
        li = trained.spec.conv_indices()[2]  # 3x3 map after two pools
        _, ho, wo = trained.spec.activation_dims()[li]
        cfg = quick_config(probe_images=3, num_locations=ho * wo)
        sample = pruner.sample_probes(trained.spec, li, synth_data, cfg)
        probe = pruner.extract_probes(trained, synth_data, li, sample)
        assert not sample.exhaustive  # map size == requested count, nothing missing
        assert probe.y0.shape[0] == 3 * ho * wo
        for img in range(3):
            flat = sorted((sample.rows[img] * wo + sample.cols[img]).tolist())
            assert flat == list(range(ho * wo))

    def test_small_map_flagged_exhaustive(self, trained, synth_data):
        li = trained.spec.conv_indices()[2]
        _, ho, wo = trained.spec.activation_dims()[li]
        cfg = quick_config(probe_images=2, num_locations=ho * wo + 5)
        sample = pruner.sample_probes(trained.spec, li, synth_data, cfg)
        probe = pruner.extract_probes(trained, synth_data, li, sample)
        assert sample.exhaustive
        assert probe.y0.shape[0] == 2 * ho * wo

    def test_contributions_sum_to_direct_convolution(self, trained, synth_data):
        li = trained.spec.conv_indices()[1]
        layer = trained.spec.layers[li]
        cfg = quick_config(probe_images=4)
        sample = pruner.sample_probes(trained.spec, li, synth_data, cfg)
        probe = pruner.extract_probes(trained, synth_data, li, sample)

        w0 = trained.params[li].weights
        trace = nn.forward_collect(trained.spec, trained.params,
                                   synth_data.images[sample.image_ids])
        x_in = trace.outputs[li - 1]
        direct, _ = nn._conv_forward(x_in, w0, None, layer.stride, layer.padding)
        n_loc = sample.rows.shape[1]
        for p in range(probe.y0.shape[0]):
            img, k = divmod(p, n_loc)
            r, c = sample.rows[img, k], sample.cols[img, k]
            np.testing.assert_allclose(probe.z[p].sum(axis=1),
                                       direct[img, :, r, c], atol=1e-10)

    def test_locations_deterministic_and_without_replacement(self, trained, synth_data):
        li = trained.spec.conv_indices()[1]
        a = pruner.sample_probes(trained.spec, li, synth_data, quick_config(seed=5))
        b = pruner.sample_probes(trained.spec, li, synth_data, quick_config(seed=5))
        for name in ("image_ids", "rows", "cols"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        n_loc = 6
        assert a.rows.shape == (48, n_loc)
        for rows, cols in zip(a.rows, a.cols):
            assert len(set(zip(rows.tolist(), cols.tolist()))) == n_loc

    def test_rejects_non_conv_layer(self, trained, synth_data):
        with pytest.raises(ValueError, match="not conv2d"):
            probe_all(trained, 1, synth_data, quick_config())

    @pytest.mark.parametrize("num_locations", [1, 5])
    @pytest.mark.parametrize("c_out", [1, 5])
    def test_contributions_match_the_einsum_definition(self, synth_data,
                                                       num_locations, c_out):
        # One location or one output channel makes each per-channel product
        # a matrix-vector one, which numpy hands to gemv instead of gemm.
        spec = nn.NetworkSpec(
            (nn.conv2d(1, 4, 3, padding=1), nn.relu(), nn.maxpool2d(2),
             nn.conv2d(4, c_out, 3, padding=1), nn.relu(), nn.flatten(),
             nn.linear(c_out * 6 * 6, 10), nn.softmax_ce_head()),
            (1, 12, 12), 10)
        model = model_io.Checkpoint(spec, nn.init_params(spec, 0))
        cfg = quick_config(probe_images=20, num_locations=num_locations)
        probe = assert_matches_loop(model, 3, synth_data, cfg)
        w0 = model.params[3].weights
        want = np.einsum("pjuv,ijuv->pij", probe.patches, w0)
        scale = np.einsum("pjuv,ijuv->pij", np.abs(probe.patches), np.abs(w0))
        assert probe.z.shape == (20 * num_locations, c_out, 4)
        assert (np.abs(probe.z - want) <= 1e-12 * scale).all()


def strided_net():
    """Unpadded and stride-2 convs ahead of a padded one, on 12x12 inputs."""
    spec = nn.NetworkSpec(
        (nn.conv2d(1, 4, 3), nn.relu(), nn.conv2d(4, 5, 3, stride=2), nn.relu(),
         nn.conv2d(5, 6, 3, padding=1), nn.relu(), nn.flatten(),
         nn.linear(6 * 4 * 4, 10), nn.softmax_ce_head()),
        (1, 12, 12), 10)
    return model_io.Checkpoint(spec, nn.init_params(spec, 0))


def assert_probes_match(got, want):
    for name in ("y0", "ystar", "z", "patches"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
    if want.grad is None:
        assert got.grad is None
    else:
        np.testing.assert_allclose(got.grad, want.grad, rtol=1e-12, atol=0)


def assert_matches_loop(model, li, dataset, cfg, start=0, stop=None, gradient=True):
    """The library's sample equals the one-image-at-a-time draws, and its
    probe of images start..stop-1 equals the per-image loop's."""
    sample = pruner.sample_probes(model.spec, li, dataset, cfg)
    want = sample_probes_loop(model.spec, li, dataset, cfg)
    for name in ("image_ids", "rows", "cols"):
        assert getattr(sample, name).tobytes() == getattr(want, name).tobytes(), name
    assert sample.exhaustive == want.exhaustive
    chunk = sample.chunk(start, len(sample) if stop is None else stop)
    got = pruner.extract_probes(model, dataset, li, chunk, gradient)
    assert_probes_match(got, extract_probes_loop(model, dataset, li, chunk, gradient))
    return got


class TestExtractProbesMatchesLoop:
    """The batched probe pass against one batch-size-1 backward per image."""

    def test_after_pruning_an_earlier_conv(self, trained, synth_data):
        compressed, _ = pruner.prune_model(trained, synth_data,
                                           quick_config(budgets={2: 3}))
        li = trained.spec.conv_indices()[2]
        assert_matches_loop(compressed, li, synth_data, quick_config())

    def test_without_the_gradient(self, trained, synth_data):
        compressed, _ = pruner.prune_model(trained, synth_data,
                                           quick_config(budgets={2: 3}))
        li = trained.spec.conv_indices()[2]
        probe = assert_matches_loop(compressed, li, synth_data, quick_config(),
                                    gradient=False)
        assert probe.grad is None

    def test_exhaustive_locations(self, trained, synth_data):
        li = trained.spec.conv_indices()[3]  # 3x3 map
        cfg = quick_config(num_locations=12)
        probe = assert_matches_loop(trained, li, synth_data, cfg)
        assert pruner.sample_probes(trained.spec, li, synth_data, cfg).exhaustive
        assert probe.y0.shape[0] == 48 * 9

    def test_chunk_size_not_a_power_of_two(self, trained, synth_data):
        # 70 images: four 16-image chunks, then 6, whose gradient factor is
        # inexact.
        li = trained.spec.conv_indices()[1]
        cfg = quick_config(probe_images=70, num_locations=3, seed=4)
        assert pruner._PROBE_CHUNK == 16
        probe = assert_matches_loop(trained, li, synth_data, cfg, start=64, stop=70)
        assert probe.y0.shape[0] == 6 * 3

    def test_stage_assembles_refit_targets_across_chunks(self, trained, synth_data,
                                                         monkeypatch):
        # The stage writes each chunk's y0 and patches into one array by
        # slice; the result must be the whole sample probed as one batch.
        li = trained.spec.conv_indices()[1]
        cfg = quick_config(probe_images=70, num_locations=3, seed=4, budgets={2: 3})
        seen = []
        refit = pruner.refit_layer
        monkeypatch.setattr(pruner, "refit_layer",
                            lambda targets, *a, **k: seen.append(targets)
                            or refit(targets, *a, **k))
        pruner.prune_model(trained, synth_data, cfg)
        want = probe_all(trained, li, synth_data, cfg)
        (got,) = seen
        for name in ("y0", "patches"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("li", [2, 4])
    def test_unpadded_and_strided_convs(self, synth_data, li):
        cfg = quick_config(probe_images=20, num_locations=5)
        assert_matches_loop(strided_net(), li, synth_data, cfg)


def hand_probe():
    """Two probes, one output channel, two input channels; gradient weighting
    flips the single-channel winner versus the unweighted baseline."""
    return pruner.FeatureProbe(
        y0=np.array([[1.0], [1.0]]),
        ystar=np.array([[1.0], [1.0]]),
        grad=np.array([[1.0], [0.05]]),
        z=np.array([[[1.0, 0.2]], [[0.1, 1.0]]]),
        patches=np.zeros((2, 2, 1, 1)))


class TestBuildWeightedSystem:
    def test_cp_baseline_rows_are_plain_reconstruction(self):
        probe = hand_probe()
        sys_ = pruner.build_weighted_system(probe, "cp_baseline")
        np.testing.assert_array_equal(sys_.b, probe.y0.reshape(-1))
        np.testing.assert_array_equal(sys_.a, probe.z.reshape(2, 2))

    def test_zero_gradient_probe_gives_zero_row(self):
        probe = hand_probe()
        probe.grad[1, 0] = 0.0
        sys_ = pruner.build_weighted_system(probe, "cpli")
        assert sys_.b[1] == 0.0
        np.testing.assert_array_equal(sys_.a[1], [0.0, 0.0])

    def test_gradient_weighting_flips_selected_channel(self):
        probe = hand_probe()
        weighted = pruner.build_weighted_system(probe, "cpli")
        baseline = pruner.build_weighted_system(probe, "cp_baseline")

        def enumerate_winner(sys_):
            residuals = [subset_residual(sys_.a, sys_.b, [j]) for j in (0, 1)]
            return int(np.argmin(residuals))

        assert enumerate_winner(weighted) == 0
        assert enumerate_winner(baseline) == 1
        assert pruner.select_channels(weighted, 1).support == (0,)
        assert pruner.select_channels(baseline, 1).support == (1,)

    def test_variant_degeneracy_bit_for_bit(self, rng):
        probe = hand_probe()
        probe.grad = rng.normal(size=(2, 1))
        probe.ystar = rng.normal(size=(2, 1))
        baseline = pruner.build_weighted_system(probe, "cp_baseline")
        forced = dataclasses.replace(probe, ystar=np.ones_like(probe.ystar),
                                     grad=np.ones_like(probe.grad))
        as_cpli = pruner.build_weighted_system(forced, "cpli")
        assert baseline.a.tobytes() == as_cpli.a.tobytes()
        assert baseline.b.tobytes() == as_cpli.b.tobytes()

    def test_only_gradient_variants_read_the_gradient(self):
        probe = hand_probe()
        no_grad = dataclasses.replace(probe, grad=None)
        for variant in pruner.GRADIENT_VARIANTS:
            with pytest.raises(ValueError, match="needs a probe with the loss gradient"):
                pruner.build_weighted_system(no_grad, variant)
        for variant in ("cpli_no_fl", "cp_baseline"):
            got = pruner.build_weighted_system(no_grad, variant)
            want = pruner.build_weighted_system(probe, variant)
            assert got.a.tobytes() == want.a.tobytes()
            assert got.b.tobytes() == want.b.tobytes()

    @pytest.mark.parametrize("variant", [v for v in pruner.VARIANTS
                                         if v != pruner.VARIANT_MAGNITUDE])
    def test_rows_of_a_probe_come_out_column_major(self, trained, synth_data, variant):
        # SystemStream copies A into LAPACK's column-major buffer; from a
        # column-major A that is one contiguous copy per column.
        li = trained.spec.conv_indices()[1]
        probe = probe_all(trained, li, synth_data, quick_config())
        assert pruner.build_weighted_system(probe, variant).a.flags.f_contiguous

    def test_magnitude_variant_rejected(self):
        with pytest.raises(ValueError, match="does not use a weighted system"):
            pruner.build_weighted_system(hand_probe(), "magnitude")

    def test_no_fl_and_no_fi_weights(self):
        probe = hand_probe()
        probe.ystar = np.array([[2.0], [-0.5]])
        no_fl = pruner.build_weighted_system(probe, "cpli_no_fl")
        np.testing.assert_array_equal(no_fl.b, probe.y0.reshape(-1))
        np.testing.assert_array_equal(
            no_fl.a, (probe.ystar[:, :, None] * probe.z).reshape(2, 2))
        no_fi = pruner.build_weighted_system(probe, "cpli_no_fi")
        np.testing.assert_array_equal(no_fi.b, (probe.grad * probe.y0).reshape(-1))
        np.testing.assert_array_equal(
            no_fi.a, (probe.grad[:, :, None] * probe.z).reshape(2, 2))


class TestSelectChannels:
    def test_full_budget_keeps_all(self, rng):
        a = rng.normal(size=(30, 5))
        sys_ = solvers.WeightedSystem(a, rng.normal(size=30))
        res = pruner.select_channels(sys_, 5)
        assert res.support == (0, 1, 2, 3, 4)

    def test_dead_channel_never_selected(self, rng):
        a = rng.normal(size=(30, 5))
        a[:, 3] = 0.0
        sys_ = solvers.WeightedSystem(a, rng.normal(size=30))
        for budget in (1, 2, 3, 4):
            assert 3 not in pruner.select_channels(sys_, budget).support


class TestMagnitudeSelect:
    def test_zero_filter_channel_dropped(self, rng):
        w = rng.normal(size=(4, 3, 3, 3))
        w[:, 1] = 0.0
        assert pruner.magnitude_select(w, 2) == (0, 2)

    def test_all_equal_norms_keep_lowest_indices(self):
        w = np.ones((2, 5, 3, 3))
        assert pruner.magnitude_select(w, 3) == (0, 1, 2)

    def test_matches_sort_oracle(self, rng):
        w = rng.normal(size=(3, 8, 3, 3))
        got = pruner.magnitude_select(w, 4)
        norms = [(float(np.abs(w[:, j]).sum()), j) for j in range(8)]
        want = tuple(sorted(j for _, j in
                            sorted(norms, key=lambda t: (-t[0], t[1]))[:4]))
        assert got == want

    def test_budget_bounds(self, rng):
        w = rng.normal(size=(2, 3, 1, 1))
        with pytest.raises(ValueError, match=r"\[1, 3\]"):
            pruner.magnitude_select(w, 0)


class TestRefitLayer:
    def test_full_support_consistent_system_reproduces_y0(self, trained, synth_data):
        li = trained.spec.conv_indices()[1]
        _, ho, wo = trained.spec.activation_dims()[li]
        cfg = quick_config(probe_images=48, num_locations=ho * wo)
        probe = probe_all(trained, li, synth_data, cfg)
        c_in = trained.spec.layers[li].in_channels
        out = pruner.refit_layer(probe, range(c_in), trained.params[li])
        pmat = probe.patches.reshape(probe.patches.shape[0], -1)
        reproduced = pmat @ out.weights.reshape(out.weights.shape[0], -1).T \
            + (out.bias - trained.params[li].bias)
        # A rank-deficient probe set (dead relu channels) escalates damping,
        # which trades the exact-reproduction bound for a ridge-biased one.
        tol = 1e-8 if out.damping == 0.0 else 1e-5
        np.testing.assert_allclose(reproduced, probe.y0, atol=tol)
        assert out.residual_after <= 1e-9 * float((probe.y0 ** 2).sum())

    def test_fresh_random_net_recovers_exact_weights(self, synth_data):
        # No dead channels at init, so the consistent system has one solution.
        spec = harness.desk_net(input_dims=(1, 12, 12), num_classes=10,
                                widths=(4, 6, 6, 8))
        ckpt = model_io.Checkpoint(spec, nn.init_params(spec, 42), {})
        li = spec.conv_indices()[1]
        _, ho, wo = spec.activation_dims()[li]
        cfg = quick_config(probe_images=48, num_locations=ho * wo)
        probe = probe_all(ckpt, li, synth_data, cfg)
        c_in = spec.layers[li].in_channels
        out = pruner.refit_layer(probe, range(c_in), ckpt.params[li])
        np.testing.assert_allclose(out.weights, ckpt.params[li].weights, atol=1e-8)
        np.testing.assert_allclose(out.bias, ckpt.params[li].bias, atol=1e-8)

    def test_empty_support_rejected(self, trained, synth_data):
        li = trained.spec.conv_indices()[1]
        probe = probe_all(trained, li, synth_data, quick_config())
        with pytest.raises(ValueError, match="at least one channel"):
            pruner.refit_layer(probe, [], trained.params[li])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_refit_beats_zero_fill_on_probes(self, trained, synth_data, seed):
        rng = np.random.default_rng(seed)
        li = trained.spec.conv_indices()[1]
        c_in = trained.spec.layers[li].in_channels
        probe = probe_all(trained, li, synth_data, quick_config(seed=seed))
        support = sorted(rng.choice(c_in, size=c_in // 2, replace=False).tolist())
        out = pruner.refit_layer(probe, support, trained.params[li])
        assert out.residual_after <= out.residual_before + 1e-12


    def test_residual_before_is_the_zero_fill_of_the_dropped_channels(self, trained,
                                                                      synth_data):
        li = trained.spec.conv_indices()[2]
        probe = probe_all(trained, li, synth_data, quick_config())
        support = [0, 3, 5]
        out = pruner.refit_layer(probe, support, trained.params[li])
        kept = probe.z[:, :, support].sum(axis=2)
        assert out.residual_before == pytest.approx(
            float(((probe.y0 - kept) ** 2).sum()), rel=1e-12)


def stream_system(model, li, dataset, cfg):
    """The selection system of conv `li` streamed chunk by chunk, as a pruning
    stage builds it."""
    sample = pruner.sample_probes(model.spec, li, dataset, cfg)
    stream = solvers.SystemStream()
    for start in range(0, len(sample), pruner._PROBE_CHUNK):
        chunk = sample.chunk(start, start + pruner._PROBE_CHUNK)
        probe = pruner.extract_probes(model, dataset, li, chunk)
        stream.add(pruner.build_weighted_system(probe, cfg.variant))
    return stream.system()


class TestStreamedSelection:
    """Selection on the streamed triangular factor against the dense
    whole-sample system."""

    @pytest.mark.parametrize("variant", [v for v in pruner.VARIANTS
                                         if v != pruner.VARIANT_MAGNITUDE])
    @pytest.mark.parametrize("ordinal", [2, 3])
    def test_matches_the_dense_oracle(self, trained, synth_data, variant, ordinal):
        # 40 images: chunks of 16, 16 and 8 against one 40-image probe.
        li = trained.spec.conv_indices()[ordinal - 1]
        cfg = quick_config(probe_images=40, variant=variant)
        streamed = stream_system(trained, li, synth_data, cfg)
        probe = probe_all(trained, li, synth_data, cfg)
        dense = solvers.WeightedSystem(*dense_weighted_system(probe, variant))
        assert streamed.rows <= streamed.cols + 1 < dense.rows
        for budget in range(1, dense.cols):
            got = solvers.lambda_search(streamed, budget)
            want = solvers.lambda_search(dense, budget)
            assert got.support == want.support
            assert got.lambda_final == pytest.approx(want.lambda_final, rel=1e-9)
            assert got.residual_norm == pytest.approx(want.residual_norm, rel=1e-9)

    def test_duplicated_producer_filter_merges_across_chunks(self, trained,
                                                             synth_data):
        # Conv 1's filter 4 copies filter 1 and conv 2 reads both alike, so
        # columns 1 and 4 of A are bit-identical in every chunk.
        twin = trained.copy()
        w, b = twin.params[0].weights.copy(), twin.params[0].bias.copy()
        w[4], b[4] = w[1], b[1]
        twin.params[0] = nn.LayerParams(w, b)
        li = trained.spec.conv_indices()[1]
        w2 = twin.params[li].weights.copy()
        w2[:, 4] = w2[:, 1]
        twin.params[li] = nn.LayerParams(w2, twin.params[li].bias)
        system = stream_system(twin, li, synth_data, quick_config())
        assert system.first_copy.tolist() == [0, 1, 2, 3, 1, 5]
        for budget in range(1, 6):
            res = solvers.lambda_search(system, budget)
            assert res.beta[4] == 0.0 and not {1, 4} <= set(res.support)

    def test_dead_channel_column_stays_exactly_zero(self, trained, synth_data):
        # Conv 1's channel 2 is -1 before its ReLU everywhere, so conv 2
        # never sees it.
        dead = trained.copy()
        w, b = dead.params[0].weights.copy(), dead.params[0].bias.copy()
        w[2], b[2] = 0.0, -1.0
        dead.params[0] = nn.LayerParams(w, b)
        li = trained.spec.conv_indices()[1]
        system = stream_system(dead, li, synth_data, quick_config())
        assert not system.a[:, 2].any() and system.col_sq_norms[2] == 0.0
        assert system.a[:, [0, 1, 3, 4, 5]].any(axis=0).all()
        for budget in range(1, 6):
            assert 2 not in solvers.lambda_search(system, budget).support


class TestPruneModel:
    def test_noop_budgets_keep_accuracy(self, trained, synth_data, synth_test):
        convs = trained.spec.conv_indices()
        budgets = {o: trained.spec.layers[convs[o - 1]].in_channels
                   for o in range(2, len(convs) + 1)}
        cfg = quick_config(budgets=budgets)
        compressed, traces = pruner.prune_model(trained, synth_data, cfg)
        before = harness.evaluate(trained, synth_test)
        after = harness.evaluate(compressed, synth_test)
        assert abs(after - before) <= 0.001
        # Dead input channels show up as all-zero columns and are refused
        # even at full budget, with the warning flag raised instead.
        for t in traces:
            assert len(t.support) == t.budget or t.budget_warning

    def test_two_conv_net_structural_bookkeeping(self, synth_data):
        spec = nn.NetworkSpec(
            (nn.conv2d(1, 2, 3, padding=1), nn.relu(),
             nn.conv2d(2, 3, 3, padding=1), nn.relu(), nn.flatten(),
             nn.linear(3 * 12 * 12, 10), nn.softmax_ce_head()),
            (1, 12, 12), 10)
        ckpt = model_io.Checkpoint(spec, nn.init_params(spec, 0), {})
        cfg = quick_config(budgets={2: 1}, probe_images=8, num_locations=4)
        compressed, traces = pruner.prune_model(ckpt, synth_data, cfg)
        assert compressed.spec.layers[0].out_channels == 1
        assert compressed.spec.layers[2].in_channels == 1
        assert compressed.params[0].weights.shape == (1, 1, 3, 3)
        assert compressed.params[2].weights.shape == (3, 1, 3, 3)
        assert len(traces) == 1 and len(traces[0].support) == 1

    def test_structural_consistency_and_forward(self, trained, synth_data):
        cfg = quick_config(flops_target=2.0)
        compressed, _ = pruner.prune_model(trained, synth_data, cfg)
        dims = compressed.spec.activation_dims()  # would raise if inconsistent
        assert dims[-1] == (10,)
        trace = nn.forward_collect(compressed.spec, compressed.params,
                                   synth_data.images[:4])
        assert trace.logits.shape == (4, 10)

    def test_refit_never_hurts_probes_all_layers(self, trained, synth_data):
        cfg = quick_config(flops_target=2.0)
        _, traces = pruner.prune_model(trained, synth_data, cfg)
        assert len(traces) == 3
        for t in traces:
            assert t.residual_after <= t.residual_before + 1e-12

    def test_beats_zero_fill_before_finetuning(self, trained, synth_data, synth_test):
        cfg = quick_config(flops_target=2.0, probe_images=96, num_locations=10,
                           seed=2)
        compressed, traces = pruner.prune_model(trained, synth_data, cfg)
        supports = {t.conv_ordinal: t.support for t in traces}
        zero_fill = apply_supports(trained, supports)
        assert zero_fill.spec == compressed.spec
        acc_refit = harness.evaluate(compressed, synth_test)
        acc_zero = harness.evaluate(zero_fill, synth_test)
        assert acc_refit > acc_zero

    def test_determinism(self, trained, synth_data):
        cfg = quick_config(flops_target=2.0)
        a, ta = pruner.prune_model(trained, synth_data, cfg)
        b, tb = pruner.prune_model(trained, synth_data, cfg)
        assert ta == tb
        for p, q in zip(a.params, b.params):
            if p is not None:
                assert p.weights.tobytes() == q.weights.tobytes()

    @pytest.mark.parametrize("variant", ["cpli", "magnitude"])
    def test_input_is_left_as_it_was(self, trained, synth_data, variant):
        # The first stage probes the input itself; every stage writes fresh
        # parameters and none is a view of the input's.
        before = [(p.weights.tobytes(), p.bias.tobytes())
                  for p in trained.params if p is not None]
        pruned, _ = pruner.prune_model(trained, synth_data,
                                       quick_config(flops_target=2.0, variant=variant))
        assert [(p.weights.tobytes(), p.bias.tobytes())
                for p in trained.params if p is not None] == before
        theirs = [a for p in trained.params if p is not None for a in (p.weights, p.bias)]
        ours = [a for p in pruned.params if p is not None for a in (p.weights, p.bias)]
        assert len(ours) == len(theirs)
        assert not any(np.shares_memory(a, b) for a in ours for b in theirs)

    def test_same_supports_as_per_image_probes(self, trained, synth_data,
                                               monkeypatch):
        cfg = quick_config(flops_target=2.0)
        fast, fast_traces = pruner.prune_model(trained, synth_data, cfg)
        monkeypatch.setattr(pruner, "extract_probes", extract_probes_loop)
        slow, slow_traces = pruner.prune_model(trained, synth_data, cfg)
        assert [t.support for t in fast_traces] == [t.support for t in slow_traces]
        for p, q in zip(fast.params, slow.params):
            if p is not None:
                assert p.weights.tobytes() == q.weights.tobytes()
                assert p.bias.tobytes() == q.bias.tobytes()

    def test_previous_stage_is_freed_before_the_next_probes(self, trained, synth_data,
                                                            monkeypatch):
        real_probes, real_system = pruner.extract_probes, pruner.build_weighted_system
        held, dead = [], []

        def probes(*args, **kwargs):
            dead.append([ref() is None for ref in held])
            held.clear()
            probe = real_probes(*args, **kwargs)
            held.append(weakref.ref(probe.z))
            return probe

        def system(*args, **kwargs):
            sys_ = real_system(*args, **kwargs)
            held.append(weakref.ref(sys_.a))
            return sys_

        monkeypatch.setattr(pruner, "extract_probes", probes)
        monkeypatch.setattr(pruner, "build_weighted_system", system)
        # 48 probe images are three chunks at each of three convs; each probe
        # call finds the previous chunk's z and rows of A freed, across
        # stages too.
        pruner.prune_model(trained, synth_data, quick_config(flops_target=2.0))
        assert dead == [[]] + [[True, True]] * 8

    def test_previous_chunk_is_freed_before_the_next_forward(self, trained, synth_data,
                                                             monkeypatch):
        # 150 probe images are ten chunks per conv; each chunk ends with its
        # one backward.
        real_forward, real_backward = nn.forward_collect, nn.backward_collect
        chunk, finished, dead = [], [], []

        def forward(*args, **kwargs):
            dead.append(all(ref() is None for ref in finished))
            trace = real_forward(*args, **kwargs)
            chunk.extend(weakref.ref(c) for c in trace.cols.values())
            return trace

        def backward(*args, **kwargs):
            grads = real_backward(*args, **kwargs)
            finished[:] = chunk
            chunk.clear()
            return grads

        monkeypatch.setattr(nn, "forward_collect", forward)
        monkeypatch.setattr(nn, "backward_collect", backward)
        pruner.prune_model(trained, synth_data,
                           quick_config(flops_target=2.0, probe_images=150))
        assert len(dead) >= 9 and all(dead)

    @pytest.mark.parametrize("variant", pruner.VARIANTS)
    def test_probe_work_per_chunk(self, trained, synth_data, monkeypatch, variant):
        # 40 probe images are chunks of 16, 16 and 8 at each of two convs.
        # Only the variants that read the gradient run a backward, and it
        # computes no weight gradient; the others' forward stops as early as
        # it can.  Both stages probe the same images in the same chunks.
        # Conv 2's stage probes the input itself, so its forwards reach
        # conv 3 and write conv 3's y0 rows as well; conv 3's stage probes
        # the model conv 2's stage wrote.
        real_forward, real_backward = nn.forward_collect, nn.backward_collect
        rewritten = record_rewrites(monkeypatch)
        calls = []

        def forward(spec, params, x, upto=None):
            calls.append(("forward", params, upto))
            return real_forward(spec, params, x, upto=upto)

        def backward(spec, params, *args, **kwargs):
            calls.append(("backward", params, kwargs.get("stop"),
                          kwargs.get("wrt_weights")))
            return real_backward(spec, params, *args, **kwargs)

        monkeypatch.setattr(nn, "forward_collect", forward)
        monkeypatch.setattr(nn, "backward_collect", backward)
        cfg = quick_config(budgets={2: 4, 3: 5}, probe_images=40, variant=variant)
        pruner.prune_model(trained, synth_data, cfg)
        reads_grad = variant in ("cpli", "cpli_no_fi")
        assert reads_grad == (variant in pruner.GRADIENT_VARIANTS)
        c2, c3 = trained.spec.conv_indices()[1:3]
        want = []
        for stage, li in enumerate((c2, c3)):
            chunk = [("forward", stage, None if reads_grad else c3)]
            if reads_grad:
                chunk.append(("backward", stage, li + 1, False))
            want += chunk * 3
        assert [(kind, model_number(params, trained, rewritten), *rest)
                for kind, params, *rest in calls] == want

    def test_stage_failure_carries_traces_so_far(self, trained, synth_data,
                                                 monkeypatch):
        calls = {"n": 0}
        real = pruner.refit_layer

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("boom")
            return real(*args, **kwargs)

        monkeypatch.setattr(pruner, "refit_layer", flaky)
        cfg = quick_config(flops_target=2.0)
        with pytest.raises(RuntimeError, match="boom") as err:
            pruner.prune_model(trained, synth_data, cfg)
        assert len(err.value.prune_traces) == 1
        assert err.value.prune_traces[0].conv_ordinal == 2

    @pytest.mark.parametrize("variant", [v for v in pruner.VARIANTS
                                         if v != pruner.VARIANT_MAGNITUDE])
    def test_dead_input_names_the_conv(self, trained, synth_data, variant):
        # conv 1 outputs -1 everywhere, so the ReLU feeds conv 2 nothing but zeros.
        dead = trained.copy()
        dead.params[0] = nn.LayerParams(np.zeros_like(dead.params[0].weights),
                                        np.full_like(dead.params[0].bias, -1.0))
        cfg = quick_config(flops_target=2.0, variant=variant, probe_images=8)
        with pytest.raises(ValueError) as err:
            pruner.prune_model(dead, synth_data, cfg)
        assert str(err.value) == ("conv 2 (layer 3): every weighted column is zero, "
                                  "so there is no channel to select")

    def test_variants_all_run(self, trained, synth_data):
        for variant in pruner.VARIANTS:
            cfg = quick_config(flops_target=2.0, variant=variant,
                               probe_images=16, num_locations=4)
            compressed, traces = pruner.prune_model(trained, synth_data, cfg)
            assert compressed.spec.activation_dims()
            if variant == "magnitude":
                assert all(t.lambda_final is None for t in traces)
            else:
                assert all(t.lambda_final is not None for t in traces)


def record_targets(monkeypatch):
    """Every stage's refit targets, in stage order, as a prune hands them
    to the refit."""
    targets = []
    refit = pruner.refit_layer
    monkeypatch.setattr(pruner, "refit_layer", lambda t, *a, **k:
                        targets.append(t) or refit(t, *a, **k))
    return targets


def record_rewrites(monkeypatch):
    """Every model a prune's stages write, in stage order."""
    models = []
    rewrite = pruner._rewrite
    monkeypatch.setattr(pruner, "_rewrite", lambda *a: models.append(rewrite(*a))
                        or models[-1])
    return models


def model_number(params, start, rewritten):
    """0 for `start`'s own parameters, k for those stage k wrote."""
    return [params is m.params for m in (start, *rewritten)].index(True)


def own_chunks_y0(ckpt, li, dataset, cfg):
    """Conv `li`'s y0 rows from a probe of the uncompressed model over each
    of its stage's own chunks."""
    sample = pruner.sample_probes(ckpt.spec, li, dataset, cfg)
    step = pruner._PROBE_CHUNK
    return np.concatenate([
        pruner.extract_probes(ckpt, dataset, li, sample.chunk(s, s + step),
                              gradient=False).y0 for s in range(0, len(sample), step)])


class TestSharedSample:
    """Every stage of a prune probes the same images, and the first stage's
    forwards write every stage's y0."""

    def test_every_stage_draws_the_same_images(self, trained, synth_data):
        cfg = quick_config(probe_images=40, num_locations=4)
        samples = [pruner.sample_probes(trained.spec, li, synth_data, cfg)
                   for li in trained.spec.conv_indices()[1:]]
        assert len(samples[0]) == 40
        for s in samples[1:]:
            assert s.image_ids.tobytes() == samples[0].image_ids.tobytes()
        # Locations are drawn per layer: conv 2 and conv 3 have the same
        # 6x6 map but not the same draw.
        assert samples[0].rows.shape == samples[1].rows.shape
        assert samples[0].rows.tobytes() != samples[1].rows.tobytes()

    @pytest.mark.parametrize("shapes", ["desk", "28x28"])
    @pytest.mark.parametrize("variant", ["cpli", "cp_baseline"])
    def test_y0_bit_equal_to_each_stages_own_forward(self, trained, synth_data,
                                                     monkeypatch, shapes, variant):
        # A conv row's last bits may depend on the batch it is computed in
        # (at desk shapes they do), so every stage's rows must come from a
        # forward over the very chunk the stage probes.
        if shapes == "desk":
            ckpt, data = trained, synth_data
            cfg = quick_config(flops_target=2.0, variant=variant)
        else:  # the default net on 28x28 inputs, untrained
            data = model_io.synth_dataset(5, 200, 10, dims=(1, 28, 28), split="train")
            ckpt = model_io.Checkpoint(harness.desk_net(),
                                       nn.init_params(harness.desk_net(), 1), {})
            cfg = pruner.PruneConfig(flops_target=2.0, probe_images=40,
                                     variant=variant)
        targets = record_targets(monkeypatch)
        pruner.prune_model(ckpt, data, cfg)
        assert len(targets) == 3
        for li, got in zip(ckpt.spec.conv_indices()[1:], targets):
            want = own_chunks_y0(ckpt, li, data, cfg)
            assert got.y0.shape == want.shape and got.y0.tobytes() == want.tobytes()

    @pytest.mark.parametrize("settings, ordinals", [
        (dict(flops_target=2.0), [2, 3, 4]),
        (dict(budgets={3: 5, 4: 6}), [3, 4]),
        (dict(budgets={3: 5}), [3])], ids=["flops_target", "convs_3_4", "conv_3"])
    def test_no_uncompressed_forward(self, trained, synth_data, monkeypatch,
                                     settings, ordinals):
        targets = record_targets(monkeypatch)
        rewritten = record_rewrites(monkeypatch)
        models = []
        real = nn.forward_collect
        monkeypatch.setattr(nn, "forward_collect", lambda spec, params, *a, **k:
                            models.append(params) or real(spec, params, *a, **k))
        cfg = quick_config(**settings)
        pruned, traces = pruner.prune_model(trained, synth_data, cfg)
        assert [t.conv_ordinal for t in traces] == ordinals
        assert pruned is rewritten[-1]
        # Three 16-image chunks per stage, each one forward: the first
        # stage's on the input itself, each later stage's on the model the
        # stage before it wrote.
        assert [model_number(p, trained, rewritten) for p in models] == [
            stage for stage in range(len(ordinals)) for _ in range(3)]
        convs = trained.spec.conv_indices()
        for ordinal, got in zip(ordinals, targets):
            want = own_chunks_y0(trained, convs[ordinal - 1], synth_data, cfg)
            assert got.y0.tobytes() == want.tobytes()


class TestPruneMemory:
    def test_peak_grows_only_by_the_refit_targets(self):
        # A 2x prune of the default 16-32-32-64 net on 28x28 inputs.  The
        # selection system is streamed, so more probe images add only the
        # y0 and patches rows the refit keeps: at the largest conv (64
        # outputs, 32 inputs of 3x3) 8 * (64 + 32 * 9) bytes per row.
        data = model_io.synth_dataset(0, 300, 10, dims=(1, 28, 28), split="train")
        cfg = harness.TrainConfig(epochs=1, batch_size=32, lr=0.01, decay_points=())
        ckpt = harness.train(harness.desk_net(), data, cfg)

        def peak(probe_images):
            tracemalloc.start()
            try:
                pruner.prune_model(ckpt, data, pruner.PruneConfig(
                    flops_target=2.0, probe_images=probe_images))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(64), peak(256)
        targets = (256 - 64) * 10 * 8 * (64 + 32 * 9)
        assert large - small <= targets + 0.1 * small


class TestResolveBudgets:
    def test_explicit_budgets_pass_through(self, trained):
        cfg = quick_config(budgets={2: 3, 4: 5})
        assert pruner.resolve_budgets(trained.spec, cfg) == {2: 3, 4: 5}

    def test_flops_target_hits_two_x(self, trained):
        cfg = quick_config(flops_target=2.0)
        budgets = pruner.resolve_budgets(trained.spec, cfg)
        pruned_spec = pruner.apply_budgets_to_spec(trained.spec, budgets)
        cr = (nn.flops_count(trained.spec).total
              / nn.flops_count(pruned_spec).total)
        assert 0.9 * 2.0 <= cr <= 1.1 * 2.0

    def test_target_one_means_no_pruning_loss(self, trained):
        cfg = quick_config(flops_target=1.0)
        budgets = pruner.resolve_budgets(trained.spec, cfg)
        convs = trained.spec.conv_indices()
        assert budgets == {o: trained.spec.layers[convs[o - 1]].in_channels
                           for o in range(2, len(convs) + 1)}

    def test_invalid_target(self, trained):
        with pytest.raises(ValueError, match="flops_target"):
            pruner.resolve_budgets(trained.spec, quick_config(flops_target=0.5))


class TestTraceFiles:
    def test_round_trip(self, tmp_path, trained, synth_data):
        cfg = quick_config(flops_target=2.0)
        _, traces = pruner.prune_model(trained, synth_data, cfg)
        path = tmp_path / "run.trace"
        pruner.write_traces(path, traces)
        assert pruner.read_traces(path) == traces

    def test_magnitude_lambda_dash(self, tmp_path):
        t = pruner.PruneTrace(layer_index=3, conv_ordinal=2, variant="magnitude",
                              budget=2, lambda_final=None, support=(0, 4),
                              residual_before=1.5, residual_after=0.5,
                              damping=0.0)
        path = tmp_path / "run.trace"
        pruner.write_traces(path, [t])
        assert "\t-\t" in path.read_text()
        assert path.read_text().splitlines()[1].endswith("\t1")
        assert pruner.read_traces(path) == [t]

    def test_unconverged_solve_writes_zero(self, tmp_path, trained, synth_data,
                                           monkeypatch):
        # Every LASSO search gives up, so no solve converges.
        monkeypatch.setattr(solvers, "_feature_sign_finish", lambda *args: None)
        _, traces = pruner.prune_model(trained, synth_data, quick_config(flops_target=2.0))
        path = tmp_path / "run.trace"
        pruner.write_traces(path, traces)
        header, first = path.read_text().splitlines()[:2]
        assert header.split("\t")[-1] == "converged"
        assert first.split("\t")[-1] == "0"
        assert [t.converged for t in pruner.read_traces(path)] == [False] * 3

    def test_converged_round_trip(self, tmp_path):
        rows = [pruner.PruneTrace(layer_index=3, conv_ordinal=2, variant="cpli",
                                  budget=2, lambda_final=0.5, support=(0, 4),
                                  residual_before=1.5, residual_after=0.5,
                                  damping=0.0, converged=flag)
                for flag in (True, False)]
        path = tmp_path / "run.trace"
        pruner.write_traces(path, rows)
        assert [line.split("\t")[-1] for line in path.read_text().splitlines()] \
            == ["converged", "1", "0"]
        assert pruner.read_traces(path) == rows

    def test_reads_files_without_the_converged_column(self, tmp_path):
        row = pruner.PruneTrace(layer_index=3, conv_ordinal=2, variant="cpli",
                                budget=2, lambda_final=0.5, support=(0, 4),
                                residual_before=1.5, residual_after=0.5,
                                damping=0.0, converged=False)
        path = tmp_path / "run.trace"
        pruner.write_traces(path, [row])
        old_format = ["\t".join(line.split("\t")[:-1])
                      for line in path.read_text().splitlines()]
        path.write_text("\n".join(old_format) + "\n")
        assert pruner.read_traces(path) == [dataclasses.replace(row, converged=True)]
        path.write_text(old_format[0] + "\n" + path.read_text().splitlines()[1]
                        + "\t0\n")
        with pytest.raises(model_io.FormatError, match="expected 15 columns, got 16"):
            pruner.read_traces(path)

    def test_header_required(self, tmp_path):
        path = tmp_path / "run.trace"
        path.write_text("nonsense\n")
        with pytest.raises(model_io.FormatError, match="missing trace header"):
            pruner.read_traces(path)
