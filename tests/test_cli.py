import json

import pytest

from prunekit import cli, harness, model_io, nn, pruner

DATA = "synth:count=160,classes=3,dims=1x12x12,seed=21,noise=0.2"
TEST_DATA = "synth:count=80,classes=3,dims=1x12x12,seed=22,noise=0.2"
FAST_TRAIN = ["--widths", "4,6", "--epochs", "1", "--batch-size", "32",
              "--lr", "0.05", "--seed", "0"]


def run(argv):
    return cli.main(argv)


@pytest.fixture()
def ckpt_path(tmp_path):
    out = tmp_path / "base.ckpt"
    assert run(["train", "--data", DATA, "--eval-data", TEST_DATA,
                "--out", str(out)] + FAST_TRAIN) == 0
    return out


class TestTrainEval:
    def test_train_writes_checkpoint(self, ckpt_path, capsys):
        assert ckpt_path.exists()
        ckpt = model_io.load_checkpoint(ckpt_path)
        assert ckpt.metadata["epochs"] == 1

    def test_eval_prints_accuracy(self, ckpt_path, capsys):
        assert run(["eval", "--checkpoint", str(ckpt_path),
                    "--data", TEST_DATA]) == 0
        out = capsys.readouterr().out
        assert out.startswith("accuracy 0.")

    def test_eval_on_malformed_header_is_one_line(self, ckpt_path, capsys):
        blob = ckpt_path.read_bytes()
        hlen = int.from_bytes(blob[5:9], "little")
        header = json.loads(blob[9:9 + hlen])
        header["spec"]["layers"][0]["kernel"] = [3]
        text = json.dumps(header).encode()
        ckpt_path.write_bytes(blob[:5] + len(text).to_bytes(4, "little") + text
                              + blob[9 + hlen:])
        assert run(["eval", "--checkpoint", str(ckpt_path), "--data", TEST_DATA]) == 1
        assert capsys.readouterr().err == (
            f"error: {ckpt_path}: spec layer 0: kernel must be a pair of integers, "
            "got [3]\n")

    def test_config_file_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("epochs = 1\nwidths = 4,6\nlr = 0.05\nbatch_size = 32\n")
        out = tmp_path / "m.ckpt"
        assert run(["train", "--data", DATA, "--out", str(out),
                    "--config", str(cfg)]) == 0
        assert model_io.load_checkpoint(out).metadata["epochs"] == 1

    def test_missing_data_fails_with_diagnostic(self, tmp_path, capsys):
        code = run(["train", "--out", str(tmp_path / "m.ckpt")])
        assert code == 1
        assert "error: missing --data" in capsys.readouterr().err


class TestPruneFinetune:
    def test_prune_with_cr_writes_artifacts(self, ckpt_path, tmp_path, capsys):
        out = tmp_path / "pruned.ckpt"
        report = tmp_path / "report.json"
        trace = tmp_path / "run.trace"
        code = run(["prune", "--checkpoint", str(ckpt_path), "--data", DATA,
                    "--test-data", TEST_DATA, "--out", str(out),
                    "--cr", "1.5", "--probe-images", "12", "--locations", "4",
                    "--report", str(report), "--trace", str(trace)])
        assert code == 0
        assert out.exists()
        payload = json.loads(report.read_text())
        assert payload["variant"] == "cpli"
        assert "timings" not in payload
        assert len(pruner.read_traces(trace)) >= 1
        assert "CR" in capsys.readouterr().out

    def test_prune_with_explicit_budgets(self, ckpt_path, tmp_path):
        out = tmp_path / "pruned.ckpt"
        code = run(["prune", "--checkpoint", str(ckpt_path), "--data", DATA,
                    "--out", str(out), "--budgets", "2=3",
                    "--probe-images", "8", "--locations", "4",
                    "--variant", "magnitude"])
        assert code == 0
        pruned = model_io.load_checkpoint(out)
        assert pruned.spec.layers[0].out_channels == 3

    @pytest.mark.parametrize("variant", ["cpli", "magnitude"])
    def test_prune_on_empty_dataset(self, ckpt_path, tmp_path, capsys, variant):
        code = run(["prune", "--checkpoint", str(ckpt_path),
                    "--data", "synth:count=0,classes=3,dims=1x12x12",
                    "--out", str(tmp_path / "p.ckpt"), "--budgets", "2=3",
                    "--variant", variant])
        assert code == 1
        assert capsys.readouterr().err == "error: no probe images: the dataset is empty\n"
        assert not (tmp_path / "p.ckpt").exists()

    def test_prune_requires_budget_or_cr(self, ckpt_path, tmp_path, capsys):
        code = run(["prune", "--checkpoint", str(ckpt_path), "--data", DATA,
                    "--out", str(tmp_path / "p.ckpt")])
        assert code == 1
        assert "either --budgets or --cr" in capsys.readouterr().err

    def test_prune_rejects_budgets_with_cr(self, ckpt_path, tmp_path, capsys):
        code = run(["prune", "--checkpoint", str(ckpt_path), "--data", DATA,
                    "--out", str(tmp_path / "p.ckpt"), "--budgets", "2=3",
                    "--cr", "3.0"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: set budgets or flops_target, not both\n")
        assert not (tmp_path / "p.ckpt").exists()

    def test_prune_warns_about_dead_channels(self, tmp_path, capsys):
        # Filter 1 of the first conv is zero, so conv 2's input channel 1 is
        # zero on every probe and a budget of all 4 channels cannot be met.
        spec = harness.desk_net(input_dims=(1, 8, 8), num_classes=3,
                                widths=(4, 4, 4, 4))
        params = nn.init_params(spec, 0)
        params[0].weights[1] = 0.0
        params[0].bias[1] = 0.0
        ckpt = tmp_path / "dead.ckpt"
        model_io.save_checkpoint(ckpt, model_io.Checkpoint(spec, params, {}))
        code = run(["prune", "--checkpoint", str(ckpt),
                    "--data", "synth:count=40,classes=3,dims=1x8x8,seed=1",
                    "--out", str(tmp_path / "p.ckpt"), "--budgets", "2=4",
                    "--probe-images", "8", "--locations", "4"])
        assert code == 0
        assert capsys.readouterr().err == (
            "warning: conv 2 (layer 3): kept 3 of its budget of 4 (the other "
            "channels are zero on every probe)\n")
        pruned = model_io.load_checkpoint(tmp_path / "p.ckpt")
        assert pruned.spec.layers[3].in_channels == 3

    def test_finetune_round(self, ckpt_path, tmp_path, capsys):
        out = tmp_path / "tuned.ckpt"
        code = run(["finetune", "--checkpoint", str(ckpt_path), "--data", DATA,
                    "--eval-data", TEST_DATA, "--out", str(out),
                    "--epochs", "1", "--batch-size", "32"])
        assert code == 0
        assert out.exists()
        assert "finetuned 1 epochs" in capsys.readouterr().out


class TestExperimentAndReport:
    def test_experiment_grid_and_report_printing(self, tmp_path, capsys):
        outdir = tmp_path / "exp"
        code = run(["experiment", "--data", DATA, "--test-data", TEST_DATA,
                    "--outdir", str(outdir), "--variants", "cpli,magnitude",
                    "--seeds", "0", "--locations", "4", "--cr", "1.5",
                    "--widths", "4,6,6,8", "--epochs", "1",
                    "--finetune-epochs", "1", "--batch-size", "32",
                    "--probe-images", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "variant\tlocations" in out
        table = json.loads((outdir / "table.json").read_text())
        assert {r["variant"] for r in table["rows"]} == {"cpli", "magnitude"}

        assert run(["report", "--file", str(outdir / "table.json")]) == 0
        printed = capsys.readouterr().out
        assert "cpli" in printed and "magnitude" in printed
        assert printed == (outdir / "table.txt").read_text()

        report_files = sorted(outdir.glob("report_*.json"))
        assert run(["report", "--file", str(report_files[0])]) == 0
        assert "FLOPs" in capsys.readouterr().out

    def test_experiment_warns_per_cell(self, tmp_path, capsys):
        # Full budgets on two probe locations of four images: some input
        # channels are zero on every probe of seed 0's cell, none of seed 1's.
        outdir = tmp_path / "exp"
        code = run(["experiment", "--data", DATA, "--test-data", TEST_DATA,
                    "--outdir", str(outdir), "--variants", "cp_baseline",
                    "--seeds", "0,1", "--locations", "2", "--cr", "1",
                    "--widths", "4,6,6,8", "--epochs", "1",
                    "--finetune-epochs", "0", "--batch-size", "32",
                    "--probe-images", "4"])
        assert code == 0
        dead = "(the other channels are zero on every probe) [cp_baseline_loc2_seed0]"
        assert capsys.readouterr().err == (
            f"warning: conv 2 (layer 3): kept 3 of its budget of 4 {dead}\n"
            f"warning: conv 4 (layer 8): kept 5 of its budget of 6 {dead}\n")
        flagged = [t.conv_ordinal for t in pruner.read_traces(
            outdir / "trace_cp_baseline_loc2_seed0.txt") if t.budget_warning]
        assert flagged == [2, 4]
        assert "traces" not in json.loads((outdir / "table.json").read_text())

    @pytest.mark.parametrize("flag, value, want", [
        ("--seeds", "", "experiment plan has no cells"),
        ("--locations", "", "experiment plan has no cells"),
        ("--seeds", "0,0", "experiment plan repeats ExperimentCell("
                           "variant='cpli', seed=0, num_locations=10)")])
    def test_plan_without_cells_or_with_repeats(self, tmp_path, capsys, flag,
                                                value, want):
        outdir = tmp_path / "exp"
        code = run(["experiment", "--data", DATA, "--test-data", TEST_DATA,
                    "--outdir", str(outdir), "--variants", "cpli",
                    flag, value])
        assert code == 1
        assert capsys.readouterr().err == f"error: {want}\n"
        assert not outdir.exists()

    def test_bad_dataset_descriptor(self, tmp_path, capsys):
        code = run(["train", "--data", "bogus:x=1",
                    "--out", str(tmp_path / "m.ckpt"), "--epochs", "0"])
        assert code == 1
        assert "unknown dataset descriptor" in capsys.readouterr().err

    def test_missing_checkpoint_file(self, tmp_path, capsys):
        code = run(["eval", "--checkpoint", str(tmp_path / "nope.ckpt"),
                    "--data", TEST_DATA])
        assert code == 1
        assert "error:" in capsys.readouterr().err


# Each command's required flags, pointing nowhere.
EXTRA_ARGS = {"prune": lambda tmp: ["--checkpoint", "x.ckpt", "--out", "y.ckpt"],
              "finetune": lambda tmp: ["--checkpoint", "x.ckpt", "--out", "y.ckpt"],
              "train": lambda tmp: ["--out", "y.ckpt"],
              "eval": lambda tmp: ["--checkpoint", "x.ckpt"],
              "experiment": lambda tmp: ["--outdir", str(tmp / "exp")]}


class TestConfigFilesFailLoudly:
    def train_with_config(self, tmp_path, text):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(text)
        return run(["train", "--data", DATA, "--out", str(tmp_path / "m.ckpt"),
                    "--config", str(cfg)] + FAST_TRAIN[:2])

    def test_repeated_key(self, tmp_path, capsys):
        assert self.train_with_config(tmp_path, "lr = 0.05\nlr = 0.1\n") == 1
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'train.cfg'}:2: key 'lr' is given twice\n")
        assert not (tmp_path / "m.ckpt").exists()

    def test_unknown_key(self, tmp_path, capsys):
        assert self.train_with_config(tmp_path, "epoch = 1\n") == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "train.cfg" in err and "'epoch'" in err
        assert not (tmp_path / "m.ckpt").exists()
        # Pruning has no gate scale, lambda grid ratio or starting damping to
        # set, and training no momentum, weight decay or Nesterov switch.
        cfg = tmp_path / "other.cfg"
        cases = [("prune", key) for key in ("gamma", "grid_ratio", "damping")]
        cases += [(command, key) for command in ("train", "finetune", "experiment")
                  for key in ("momentum", "weight_decay", "no_nesterov")]
        cases.append(("experiment", "gamma"))
        # Evaluation draws nothing at random, and an experiment takes its
        # seeds from --seeds.
        cases += [("eval", "seed"), ("experiment", "seed")]
        for command, key in cases:
            cfg.write_text(f"{key} = 1\n")
            argv = EXTRA_ARGS[command](tmp_path)
            assert run([command, "--config", str(cfg)] + argv) == 1
            assert capsys.readouterr().err == (
                f"error: {cfg}: unknown key {key!r} for prunekit {command}\n")

    @pytest.mark.parametrize("command", ["eval", "experiment"])
    def test_no_seed_flag(self, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as err:
            run([command, "--seed", "-1"] + EXTRA_ARGS[command](tmp_path))
        assert err.value.code == 2
        assert "unrecognized arguments: --seed -1" in capsys.readouterr().err


class TestDatasetDescriptorsFailLoudly:
    @pytest.mark.parametrize("text, token, keys", [
        ("synth:count=20,clases=4", "'clases=4'", "seed, count, classes, dims"),
        ("synth:count=20,dims", "'dims'", "seed, count, classes, dims"),
        ("idx:images=f", "'labels'", "images, labels"),
        ("cifar:paht=x", "'paht=x'", "cifar: takes path"),
        ("synth:count=x", "'x'", "seed, count, classes, dims")])
    def test_one_line_error_names_token_and_keys(self, text, token, keys):
        with pytest.raises(ValueError) as excinfo:
            cli.parse_dataset(text)
        message = str(excinfo.value)
        assert "\n" not in message and token in message and keys in message

    def test_repeated_key(self, tmp_path, capsys):
        assert run(["train", "--data", "synth:count=8,count=9",
                    "--out", str(tmp_path / "m.ckpt"), "--epochs", "0"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "dataset 'synth:count=8,count=9': key 'count' is given twice" in err
        assert not (tmp_path / "m.ckpt").exists()

    def test_cli_exit_code(self, tmp_path, capsys):
        code = run(["train", "--data", "synth:count=20,clases=4",
                    "--out", str(tmp_path / "m.ckpt"), "--epochs", "0"])
        assert code == 1
        assert "'clases=4'" in capsys.readouterr().err


class TestIntegerFlagsFailLoudly:
    def assert_one_line(self, capsys, want):
        err = capsys.readouterr().err
        assert err == f"error: {want}\n"

    def test_widths(self, tmp_path, capsys):
        assert run(["train", "--data", DATA, "--out", str(tmp_path / "m.ckpt"),
                    "--widths", "4,a", "--epochs", "0"]) == 1
        self.assert_one_line(capsys, "--widths: 'a' is not an integer")

    @pytest.mark.parametrize("flag, value, token", [
        ("--seeds", "0,1.5", "'1.5'"), ("--locations", "x", "'x'"),
        ("--widths", "4, ,6", "' '")])
    def test_experiment_lists(self, tmp_path, capsys, flag, value, token):
        assert run(["experiment", "--data", DATA, "--test-data", TEST_DATA,
                    "--outdir", str(tmp_path / "exp"), flag, value]) == 1
        self.assert_one_line(capsys, f"{flag}: {token} is not an integer")
        assert not (tmp_path / "exp").exists()

    @pytest.mark.parametrize("flag, value, want", [
        ("--epochs", "-1", "epochs must be >= 0, got -1"),
        ("--batch-size", "0", "batch_size must be >= 1, got 0"),
        ("--batch-size", "-1", "batch_size must be >= 1, got -1"),
        ("--lr", "0", "lr must be > 0, got 0.0"),
        ("--lr", "-0.1", "lr must be > 0, got -0.1"),
        ("--seed", "-3", "seed must be >= 0, got -3")])
    def test_train_settings_out_of_range(self, tmp_path, capsys, flag, value, want):
        assert run(["train", "--data", DATA, "--out", str(tmp_path / "m.ckpt"),
                    flag, value]) == 1
        self.assert_one_line(capsys, want)
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("flags, want", [
        (["--cr", "nan"], "flops_target must be finite and >= 1, got nan"),
        (["--cr", "inf"], "flops_target must be finite and >= 1, got inf"),
        (["--cr", "0.5"], "flops_target must be finite and >= 1, got 0.5"),
        (["--cr", "2", "--seed", "-1"], "seed must be >= 0, got -1")])
    def test_prune_settings_out_of_range(self, ckpt_path, tmp_path, capsys, flags,
                                         want):
        assert run(["prune", "--checkpoint", str(ckpt_path), "--data", DATA,
                    "--out", str(tmp_path / "p.ckpt")] + flags) == 1
        self.assert_one_line(capsys, want)
        assert not (tmp_path / "p.ckpt").exists()

    @pytest.mark.parametrize("flag, value, want", [
        ("--cr", "nan", "flops_target must be finite and >= 1, got nan"),
        ("--seeds", "0,-2", "seed must be >= 0, got -2")])
    def test_experiment_settings_fail_before_training(self, tmp_path, capsys,
                                                      monkeypatch, flag, value, want):
        monkeypatch.setattr(harness, "train", lambda *a, **k: pytest.fail("trained"))
        assert run(["experiment", "--data", DATA, "--test-data", TEST_DATA,
                    "--outdir", str(tmp_path / "exp"), flag, value]) == 1
        self.assert_one_line(capsys, want)
        assert not (tmp_path / "exp").exists()

    @pytest.mark.parametrize("value, token", [("2=x", "'x'"), ("two=3", "'two'")])
    def test_budgets(self, ckpt_path, tmp_path, capsys, value, token):
        assert run(["prune", "--checkpoint", str(ckpt_path), "--data", DATA,
                    "--out", str(tmp_path / "p.ckpt"), "--budgets", value]) == 1
        self.assert_one_line(capsys, f"--budgets: {token} is not an integer")

    def test_repeated_budget(self, ckpt_path, tmp_path, capsys):
        assert run(["prune", "--checkpoint", str(ckpt_path), "--data", DATA,
                    "--out", str(tmp_path / "p.ckpt"), "--budgets", "2=3,2=1"]) == 1
        self.assert_one_line(capsys, "--budgets: conv 2 is given twice")
