import time
from types import SimpleNamespace

import numpy as np
import pytest

from prunekit import harness, model_io, nn, pruner


def tiny_data(seed, count, classes=4, split=""):
    return model_io.synth_dataset(seed, count, classes, dims=(1, 12, 12),
                                  noise=0.2, split=split)


@pytest.fixture(scope="module")
def train_data():
    return tiny_data(21, 320, split="train")


@pytest.fixture(scope="module")
def test_data():
    return tiny_data(22, 160, split="test")


@pytest.fixture(scope="module")
def spec():
    return harness.desk_net(input_dims=(1, 12, 12), num_classes=4,
                            widths=(4, 6, 6, 8))


@pytest.fixture(scope="module")
def trained(spec, train_data, test_data):
    cfg = harness.TrainConfig(epochs=5, batch_size=32, lr=0.05, seed=0)
    return harness.train(spec, train_data, cfg, eval_data=test_data)


class TestFlopsCount:
    def test_single_conv_formula(self):
        spec = SimpleNamespace(layers=(nn.conv2d(3, 8, 3, padding=1),),
                               input_dims=(3, 16, 16), num_classes=0)
        report = nn.flops_count(spec)
        assert report.per_layer == [110592]
        assert report.total == 110592

    def test_empty_spec_is_zero(self):
        report = nn.flops_count(SimpleNamespace(layers=(), input_dims=(1, 8, 8),
                                                num_classes=0))
        assert report.total == 0
        assert report.per_layer == []

    def test_three_layer_hand_ledger(self):
        spec = SimpleNamespace(
            layers=(nn.conv2d(1, 4, 3, padding=1), nn.maxpool2d(2),
                    nn.conv2d(4, 6, 3, padding=0)),
            input_dims=(1, 8, 8), num_classes=0)
        # conv1: 2*4*1*9*8*8 = 4608; pool: 0; conv2 on 4x4 -> 2x2: 2*6*4*9*2*2 = 1728
        report = nn.flops_count(spec)
        assert report.per_layer == [4608, 0, 1728]
        assert report.total == 4608 + 1728

    def test_linear_and_head(self):
        spec = harness.desk_net(input_dims=(1, 12, 12), num_classes=4,
                                widths=(4, 6, 6, 8))
        report = nn.flops_count(spec)
        assert report.per_layer[-2] == 2 * (8 * 3 * 3) * 4
        assert report.per_layer[-1] == 0


class TestTrain:
    @pytest.mark.parametrize("kwargs, want", [
        (dict(epochs=1.5), "epochs must be an integer, got 1.5"),
        (dict(batch_size=8.5), "batch_size must be an integer, got 8.5"),
        (dict(seed=1.5), "seed must be an integer, got 1.5")])
    def test_non_integer_settings_rejected(self, kwargs, want):
        with pytest.raises(ValueError) as err:
            harness.TrainConfig(**kwargs)
        assert str(err.value) == want

    @pytest.mark.parametrize("points", [(-0.5,), (0.0,), (1.0,), (1.5,), (0.5, "x"),
                                        (float("nan"),), (True,)])
    def test_decay_points_outside_the_run_rejected(self, points):
        with pytest.raises(ValueError) as err:
            harness.TrainConfig(decay_points=points)
        assert str(err.value) == f"decay_points must lie in (0, 1), got {points}"

    def test_fixed_seed_reproducible(self, spec, train_data):
        cfg = harness.TrainConfig(epochs=1, batch_size=32, lr=0.05, seed=9)
        a = harness.train(spec, train_data, cfg)
        b = harness.train(spec, train_data, cfg)
        for p, q in zip(a.params, b.params):
            if p is not None:
                assert p.weights.tobytes() == q.weights.tobytes()
        assert a.metadata == b.metadata

    def test_two_class_separable_above_95(self):
        train = model_io.synth_dataset(31, 240, 2, dims=(1, 12, 12), noise=0.15,
                                       split="train")
        test = model_io.synth_dataset(32, 120, 2, dims=(1, 12, 12), noise=0.15,
                                      split="test")
        spec = harness.desk_net(input_dims=(1, 12, 12), num_classes=2,
                                widths=(4, 6))
        cfg = harness.TrainConfig(epochs=5, batch_size=32, lr=0.05, seed=0)
        ckpt = harness.train(spec, train, cfg, eval_data=test)
        assert ckpt.metadata["accuracy"] > 0.95

    def test_zero_epochs_is_initialization(self, spec, train_data):
        cfg = harness.TrainConfig(epochs=0, seed=4)
        ckpt = harness.train(spec, train_data, cfg)
        init = nn.init_params(spec, np.random.default_rng(4))
        for p, q in zip(ckpt.params, init):
            if p is not None:
                assert p.weights.tobytes() == q.weights.tobytes()

    def test_empty_dataset_rejected(self, spec):
        empty = model_io.synth_dataset(0, 0, 4, dims=(1, 12, 12))
        with pytest.raises(ValueError, match="empty dataset"):
            harness.train(spec, empty, harness.TrainConfig(epochs=1))

    def test_non_finite_weights_stop_at_the_first_batch(self, spec, train_data):
        init = nn.init_params(spec, 0)
        init[0].weights[0, 0, 0, 0] = np.nan
        with pytest.raises(FloatingPointError,
                           match=r"^training diverged: loss nan at epoch 1, batch 1$"):
            harness.train(spec, train_data, harness.TrainConfig(epochs=1), init=init)

    def test_non_finite_loss_names_epoch_and_batch(self, spec, train_data,
                                                   monkeypatch):
        # 320 images in batches of 32: the 13th loss is epoch 2, batch 3.
        real, calls = nn.cross_entropy, []

        def loss(logits, labels):
            calls.append(None)
            return np.inf if len(calls) == 13 else real(logits, labels)

        monkeypatch.setattr(nn, "cross_entropy", loss)
        cfg = harness.TrainConfig(epochs=3, batch_size=32, lr=0.05, seed=0)
        with pytest.raises(FloatingPointError, match="loss inf at epoch 2, batch 3$"):
            harness.train(spec, train_data, cfg)
        assert len(calls) == 13

    def test_lr_schedule_steps(self):
        cfg = harness.TrainConfig(epochs=20, lr=0.1)
        assert harness._epoch_lr(cfg, 0) == 0.1
        assert harness._epoch_lr(cfg, 9) == 0.1
        assert harness._epoch_lr(cfg, 10) == pytest.approx(0.01)
        assert harness._epoch_lr(cfg, 15) == pytest.approx(0.001)


class TestFinetune:
    def test_zero_epochs_unchanged(self, trained, train_data):
        cfg = harness.TrainConfig(epochs=0, lr=0.01, seed=1)
        tuned = harness.finetune(trained, train_data, cfg)
        for p, q in zip(trained.params, tuned.params):
            if p is not None:
                assert p.weights.tobytes() == q.weights.tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_small_lr_epoch_improves_train_split(self, spec, train_data, seed):
        cfg = harness.TrainConfig(epochs=1, batch_size=32, lr=0.05, seed=seed)
        ckpt = harness.train(spec, train_data, cfg)
        before = harness.evaluate(ckpt, train_data)
        tuned = harness.finetune(ckpt, train_data,
                                 harness.TrainConfig(epochs=1, batch_size=32,
                                                     lr=0.005, seed=seed))
        assert harness.evaluate(tuned, train_data) >= before

    def test_seed_determinism(self, trained, train_data):
        cfg = harness.TrainConfig(epochs=1, lr=0.01, seed=3)
        a = harness.finetune(trained, train_data, cfg)
        b = harness.finetune(trained, train_data, cfg)
        for p, q in zip(a.params, b.params):
            if p is not None:
                assert p.weights.tobytes() == q.weights.tobytes()


class TestEvaluate:
    def test_empty_split_rejected(self, trained):
        empty = model_io.synth_dataset(0, 0, 4, dims=(1, 12, 12))
        with pytest.raises(ValueError, match="empty split"):
            harness.evaluate(trained, empty)

    def test_untrained_net_near_chance(self, spec):
        big = tiny_data(40, 1200)
        ckpt = harness.train(spec, big, harness.TrainConfig(epochs=0, seed=8))
        acc = harness.evaluate(ckpt, big)
        assert 0.10 <= acc <= 0.45  # chance is 0.25 for 4 classes

    def test_trained_accuracy_high(self, trained, test_data):
        assert harness.evaluate(trained, test_data) > 0.9


class TestPruneCommand:
    def test_noop_budgets_cr_exactly_one(self, trained, train_data, test_data):
        convs = trained.spec.conv_indices()
        budgets = {o: trained.spec.layers[convs[o - 1]].in_channels
                   for o in range(2, len(convs) + 1)}
        cfg = pruner.PruneConfig(budgets=budgets, probe_images=16,
                                 num_locations=4, seed=0)
        _, report, _ = harness.prune(trained, train_data, test_data, cfg)
        kept_all = all(s.kept == s.total for s in report.layers)
        if kept_all:  # dead channels may shrink the support despite full budget
            assert report.compression_ratio == 1.0

    def test_two_x_target_within_ten_percent(self, train_data):
        # Needs the real desk widths: narrow nets have too coarse a budget
        # grid to land near the target.  Accounting ignores training state.
        spec = harness.desk_net(input_dims=(1, 12, 12), num_classes=4)
        ckpt = model_io.Checkpoint(spec, nn.init_params(spec, 0), {})
        cfg = pruner.PruneConfig(flops_target=2.0, probe_images=8,
                                 num_locations=4, seed=0)
        _, report, _ = harness.prune(ckpt, train_data, None, cfg)
        assert 1.8 <= report.compression_ratio <= 2.2

    def test_magnitude_variant_same_report_schema(self, trained, train_data,
                                                  test_data):
        cfg = pruner.PruneConfig(flops_target=2.0, variant="magnitude",
                                 probe_images=16, num_locations=4, seed=0)
        _, report, _ = harness.prune(trained, train_data, test_data, cfg)
        assert report.variant == "magnitude"
        d = model_io.to_json(report)
        ref_cfg = pruner.PruneConfig(flops_target=2.0, probe_images=16,
                                     num_locations=4, seed=0)
        _, ref, _ = harness.prune(trained, train_data, test_data, ref_cfg)
        assert set(d) == set(model_io.to_json(ref))

    def test_report_arithmetic_recomputable(self, trained, train_data, test_data):
        cfg = pruner.PruneConfig(flops_target=2.0, probe_images=16,
                                 num_locations=4, seed=0)
        _, report, _ = harness.prune(trained, train_data, test_data, cfg)
        report = report.with_finetuned(0.93)
        assert abs(report.compression_ratio
                   - report.flops_before / report.flops_after) < 1e-12
        assert report.accuracy_drop == pytest.approx(
            0.93 - report.accuracy_baseline, abs=1e-15)
        assert report.flops_before == sum(
            harness.flops_count(trained.spec).per_layer)

    def test_report_round_trip(self, tmp_path, trained, train_data, test_data):
        cfg = pruner.PruneConfig(flops_target=2.0, probe_images=16,
                                 num_locations=4, seed=0)
        _, report, _ = harness.prune(trained, train_data, test_data, cfg)
        report = report.with_finetuned(0.9)
        path = tmp_path / "report.json"
        harness.write_report(path, report)
        back = harness.read_report(path)
        assert model_io.to_json(back) == model_io.to_json(report)

    def test_prune_timer_excludes_baseline_eval(self, trained, train_data,
                                                 test_data, monkeypatch):
        def slow_evaluate(ckpt, data):
            time.sleep(0.3)
            return 0.5

        monkeypatch.setattr(harness, "evaluate", slow_evaluate)
        monkeypatch.setattr(pruner, "prune_model",
                            lambda ckpt, data, cfg: (ckpt.copy(), []))
        _, report, _ = harness.prune(trained, train_data, test_data,
                                     pruner.PruneConfig(budgets={}))
        assert report.timings["prune_s"] < 0.3 <= report.timings["eval_s"]

    def test_timings_never_serialized(self, trained, train_data, test_data,
                                      tmp_path):
        cfg = pruner.PruneConfig(flops_target=2.0, probe_images=16,
                                 num_locations=4, seed=0)
        _, report, _ = harness.prune(trained, train_data, test_data, cfg)
        assert report.timings  # measured in memory
        path = tmp_path / "report.json"
        harness.write_report(path, report)
        assert "timings" not in path.read_text()


class TestRunExperiment:
    def run(self, spec, train_data, test_data, plan, out_dir=None):
        return harness.run_experiment(
            plan, spec, train_data, test_data,
            harness.TrainConfig(epochs=2, batch_size=32, lr=0.05),
            harness.TrainConfig(epochs=1, batch_size=32, lr=0.01),
            pruner.PruneConfig(flops_target=2.0, probe_images=12, num_locations=4),
            out_dir=out_dir)

    def test_one_cell_plan_matches_direct_run(self, spec, train_data, test_data):
        plan = harness.ExperimentPlan.grid(["cp_baseline"], [0], locations=(4,))
        result = self.run(spec, train_data, test_data, plan)

        ckpt = harness.train(spec, train_data,
                             harness.TrainConfig(epochs=2, batch_size=32, lr=0.05,
                                                 seed=0), eval_data=test_data)
        cfg = pruner.PruneConfig(flops_target=2.0, probe_images=12,
                                 num_locations=4, variant="cp_baseline", seed=0)
        pruned, report, _ = harness.prune(ckpt, train_data, test_data, cfg)
        tuned = harness.finetune(pruned, train_data,
                                 harness.TrainConfig(epochs=1, batch_size=32,
                                                     lr=0.01, seed=0))
        direct = harness.evaluate(tuned, test_data)
        row = result.row("cp_baseline", num_locations=4)
        assert row.accuracy_finetuned == (direct,)
        assert row.accuracy_drop_mean == pytest.approx(
            direct - report.accuracy_baseline)

    def test_order_independent_and_mean_matches_hand_average(
            self, spec, train_data, test_data):
        plan = harness.ExperimentPlan.grid(["cpli", "magnitude"], [0, 1])
        result = self.run(spec, train_data, test_data, plan)
        shuffled = harness.ExperimentPlan(cells=tuple(reversed(plan.cells)))
        again = self.run(spec, train_data, test_data, shuffled)
        assert result.rows == again.rows
        for row in result.rows:
            assert row.accuracy_finetuned_mean == pytest.approx(
                sum(row.accuracy_finetuned) / len(row.accuracy_finetuned))

    @pytest.mark.parametrize("cell,message", [
        (harness.ExperimentCell("nope", 1), "unknown variant 'nope'"),
        (harness.ExperimentCell("cpli", 1, num_locations=0),
         "num_locations and probe_images must be positive"),
    ])
    def test_bad_cell_rejected_before_any_training(self, spec, train_data, test_data,
                                                   tmp_path, monkeypatch, cell,
                                                   message):
        def no_training(*args, **kwargs):
            raise AssertionError("a baseline was trained before the plan was checked")

        monkeypatch.setattr(harness, "train", no_training)
        plan = harness.ExperimentPlan(cells=(harness.ExperimentCell("cpli", 0), cell))
        with pytest.raises(ValueError, match=message):
            self.run(spec, train_data, test_data, plan, out_dir=tmp_path / "exp")
        assert not (tmp_path / "exp").exists()

    def test_empty_test_split_rejected_before_any_training(self, spec, train_data,
                                                            monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("a baseline was trained before the split was checked")

        monkeypatch.setattr(harness, "train", no_training)
        empty = model_io.DatasetHandle(np.zeros((0, 1, 12, 12)), np.zeros(0, dtype=int), 4)
        plan = harness.ExperimentPlan.grid(["cpli"], [0])
        with pytest.raises(ValueError, match="empty split"):
            self.run(spec, train_data, empty, plan)

    def test_each_checkpoint_evaluated_once(self, spec, train_data, test_data,
                                            tmp_path, monkeypatch):
        evaluated, tuned = [], []
        evaluate, finetune = harness.evaluate, harness.finetune

        def counting_evaluate(ckpt, data, *args, **kwargs):
            evaluated.append(ckpt)
            return evaluate(ckpt, data, *args, **kwargs)

        def keeping_finetune(*args, **kwargs):
            tuned.append(finetune(*args, **kwargs))
            return tuned[-1]

        monkeypatch.setattr(harness, "evaluate", counting_evaluate)
        monkeypatch.setattr(harness, "finetune", keeping_finetune)
        cells = [harness.ExperimentCell(v, 0, 4) for v in pruner.VARIANTS]
        cells.append(harness.ExperimentCell(pruner.VARIANT_CPLI, 0, 1))
        result = self.run(spec, train_data, test_data,
                          harness.ExperimentPlan(cells=tuple(cells)), tmp_path)
        # One baseline, then a pruned and a fine-tuned checkpoint per cell.
        assert len(cells) == 6 and len(evaluated) == 13
        baseline = model_io.load_checkpoint(tmp_path / "baseline_seed0.ckpt")
        for key, ckpt in zip(sorted(result.reports), tuned):
            report = result.reports[key]
            assert report.accuracy_baseline == evaluate(baseline, test_data)
            assert report.accuracy_finetuned == evaluate(ckpt, test_data)

    def test_experiment_dict_round_trip(self):
        row = harness.ExperimentRow(
            variant="cpli", num_locations=10, seeds=(0, 2),
            accuracy_finetuned=(0.75, 0.5), accuracy_drop=(0.125, -0.25),
            accuracy_finetuned_mean=0.625, accuracy_drop_mean=-0.0625,
            compression_ratio_mean=2.0625)
        result = harness.ExperimentResult(rows=[row], reports={},
                                          baseline_accuracy={0: 0.625, 2: 0.75})
        back = model_io.from_json(harness.ExperimentResult, model_io.to_json(result),
                                  "table.json")
        assert back == result

    def test_artifacts_written_and_deterministic(self, spec, train_data,
                                                 test_data, tmp_path):
        plan = harness.ExperimentPlan.grid(["cpli"], [0])
        self.run(spec, train_data, test_data, plan, out_dir=tmp_path / "a")
        self.run(spec, train_data, test_data, plan, out_dir=tmp_path / "b")
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert names == ["baseline_seed0.ckpt", "report_cpli_loc10_seed0.json",
                         "table.json", "table.txt", "trace_cpli_loc10_seed0.txt"]
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() \
                == (tmp_path / "b" / name).read_bytes()
