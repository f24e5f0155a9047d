"""Command-line pipeline: train, prune, finetune, eval, experiment, report.

Datasets are given as compact descriptors:

    synth:count=2000,classes=4,dims=1x16x16,seed=0
    idx:images=train-images-idx3-ubyte,labels=train-labels-idx1-ubyte
    cifar:path=data_batch_1.bin

Flags may also come from a `key = value` config file via --config; explicit
flags win over file entries.  Exit code is 0 on success, nonzero with a
diagnostic line on stderr otherwise.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import harness, model_io, pruner


def _parse_dims(text: str) -> tuple[int, int, int]:
    parts = tuple(int(p) for p in text.lower().split("x"))
    if len(parts) != 3:
        raise ValueError(f"dims must look like 1x16x16, got {text!r}")
    return parts


def _parse_int(token: str, flag: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"--{flag}: {token!r} is not an integer") from None


def _parse_ints(text: str, flag: str) -> tuple[int, ...]:
    return tuple(_parse_int(p, flag) for p in str(text).split(",") if p != "")


def _parse_budgets(text: str) -> dict[int, int]:
    out = {}
    for item in text.split(","):
        ordinal, _, count = item.partition("=")
        if not count:
            raise ValueError(f"budgets must look like 2=8,3=16, got {text!r}")
        conv = _parse_int(ordinal, "budgets")
        if conv in out:
            raise ValueError(f"--budgets: conv {conv} is given twice")
        out[conv] = _parse_int(count, "budgets")
    return out


_DATASET_KEYS = {"synth": ("seed", "count", "classes", "dims", "noise", "amplitude",
                           "jitter"), "idx": ("images", "labels"), "cifar": ("path",)}


def parse_dataset(text: str, split: str = "") -> model_io.DatasetHandle:
    kind, _, rest = text.partition(":")
    if kind not in _DATASET_KEYS:
        raise ValueError(f"unknown dataset descriptor {text!r} "
                         "(expected synth:, idx:, or cifar:)")
    takes = f"{kind}: takes {', '.join(_DATASET_KEYS[kind])}"
    tokens = [t for t in rest.split(",") if t]
    bad = [t for t in tokens if "=" not in t or t.split("=")[0] not in _DATASET_KEYS[kind]]
    if bad:
        raise ValueError(f"bad dataset token {bad[0]!r} ({takes} as key=value)")
    opts = dict(t.split("=", 1) for t in tokens)
    if len(opts) < len(tokens):
        keys = [t.split("=", 1)[0] for t in tokens]
        twice = next(k for k in keys if keys.count(k) > 1)
        raise ValueError(f"dataset {text!r}: key {twice!r} is given twice ({takes})")
    if kind == "synth":
        try:
            return model_io.synth_dataset(
                seed=int(opts.get("seed", 0)), count=int(opts.get("count", 2000)),
                classes=int(opts.get("classes", 4)),
                dims=_parse_dims(opts.get("dims", "1x16x16")),
                noise=float(opts.get("noise", 0.25)),
                amplitude=float(opts.get("amplitude", 0.9)),
                jitter=float(opts.get("jitter", 1.5)), split=split)
        except ValueError as exc:
            raise ValueError(f"dataset {text!r}: {exc} ({takes})") from None
    missing = [k for k in _DATASET_KEYS[kind] if k not in opts]
    if missing:
        raise ValueError(f"dataset {text!r} has no {missing[0]!r} ({takes})")
    if kind == "idx":
        return model_io.load_idx(opts["images"], opts["labels"], split)
    return model_io.load_cifar_binary(opts["path"], split)


class _Options:
    """Flag values backed by an optional config file; flags win.

    A config key must be a flag name of the subcommand.
    """

    def __init__(self, args: argparse.Namespace):
        self.args = vars(args)
        self.file = {}
        if self.args.get("config"):
            self.file = model_io.load_config(self.args["config"])
        known = set(self.args) - {"command", "func", "config"}
        unknown = sorted(set(self.file) - known)
        if unknown:
            raise ValueError(f"{self.args['config']}: unknown key {unknown[0]!r} "
                             f"for prunekit {args.command}")

    def get(self, key: str, default=None, convert=None):
        v = self.args.get(key)
        if v is None:
            v = self.file.get(key, default)
        try:
            return convert(v) if convert and v is not None else v
        except ValueError as exc:
            # Flags arrive converted, so only a config entry can fail here.
            raise ValueError(f"{self.args['config']}: {key}: {exc}") from None


def _train_config(opt: _Options, lr_default: float, epochs_default: int) -> harness.TrainConfig:
    return harness.TrainConfig(
        epochs=opt.get("epochs", epochs_default, int),
        batch_size=opt.get("batch_size", 64, int),
        lr=opt.get("lr", lr_default, float),
        seed=opt.get("seed", 0, int))


def _load_data(opt: _Options, key: str, split: str, required=True):
    text = opt.get(key)
    if text is None:
        if required:
            raise ValueError(f"missing --{key.replace('_', '-')}")
        return None
    return parse_dataset(text, split)


def cmd_train(args) -> int:
    opt = _Options(args)
    data = _load_data(opt, "data", "train")
    eval_data = _load_data(opt, "eval_data", "test", required=False)
    widths = _parse_ints(opt.get("widths", "16,32,32,64"), "widths")
    spec = harness.desk_net(input_dims=data.images.shape[1:],
                            num_classes=data.num_classes, widths=widths)
    cfg = _train_config(opt, lr_default=0.1, epochs_default=20)
    ckpt = harness.train(spec, data, cfg, eval_data=eval_data)
    model_io.save_checkpoint(args.out, ckpt)
    print(f"trained {cfg.epochs} epochs, accuracy {ckpt.metadata['accuracy']:.4f}, "
          f"saved {args.out}")
    return 0


def _warn_stages(traces, where: str = "") -> None:
    """One `warning:` line on stderr per stage whose trace sets `warning`
    (fewer nonzero channels than the budget) or clears `converged`; `where`
    names the prune's experiment cell."""
    for t in traces:
        problems = []
        if t.budget_warning:
            problems.append(f"kept {t.kept} of its budget of {t.budget} (the "
                            "other channels are zero on every probe)")
        if not t.converged:
            problems.append(f"the LASSO search gave up at lambda {t.lambda_final:.6g}")
        if problems:
            print(f"warning: conv {t.conv_ordinal} (layer {t.layer_index}): "
                  + "; ".join(problems) + (f" [{where}]" if where else ""),
                  file=sys.stderr)


def cmd_prune(args) -> int:
    opt = _Options(args)
    ckpt = model_io.load_checkpoint(args.checkpoint)
    data = _load_data(opt, "data", "train")
    test_data = _load_data(opt, "test_data", "test", required=False)
    budgets_text = opt.get("budgets")
    cfg = pruner.PruneConfig(
        budgets=_parse_budgets(budgets_text) if budgets_text else None,
        flops_target=opt.get("cr", None, float),
        num_locations=opt.get("locations", 10, int),
        probe_images=opt.get("probe_images", 256, int),
        variant=opt.get("variant", pruner.VARIANT_CPLI),
        seed=opt.get("seed", 0, int))
    if cfg.budgets is None and cfg.flops_target is None:
        raise ValueError("give either --budgets or --cr")
    pruned, report, traces = harness.prune(ckpt, data, test_data, cfg)
    _warn_stages(traces)
    model_io.save_checkpoint(args.out, pruned)
    print(harness.format_report(report))
    print(f"timings: " + " ".join(f"{k}={v:.2f}s" for k, v in report.timings.items()))
    if opt.get("report"):
        harness.write_report(opt.get("report"), report)
    if opt.get("trace"):
        pruner.write_traces(opt.get("trace"), traces)
    print(f"saved {args.out}")
    return 0


def cmd_finetune(args) -> int:
    opt = _Options(args)
    ckpt = model_io.load_checkpoint(args.checkpoint)
    data = _load_data(opt, "data", "train")
    eval_data = _load_data(opt, "eval_data", "test", required=False)
    cfg = _train_config(opt, lr_default=0.01, epochs_default=10)
    tuned = harness.finetune(ckpt, data, cfg, eval_data=eval_data)
    model_io.save_checkpoint(args.out, tuned)
    print(f"finetuned {cfg.epochs} epochs, accuracy "
          f"{tuned.metadata['accuracy']:.4f}, saved {args.out}")
    return 0


def cmd_eval(args) -> int:
    opt = _Options(args)
    ckpt = model_io.load_checkpoint(args.checkpoint)
    data = _load_data(opt, "data", "test")
    print(f"accuracy {harness.evaluate(ckpt, data):.4f}")
    return 0


def cmd_experiment(args) -> int:
    opt = _Options(args)
    data = _load_data(opt, "data", "train")
    test_data = _load_data(opt, "test_data", "test")
    widths = _parse_ints(opt.get("widths", "16,32,32,64"), "widths")
    spec = harness.desk_net(input_dims=data.images.shape[1:],
                            num_classes=data.num_classes, widths=widths)
    variants = str(opt.get("variants", ",".join(pruner.VARIANTS))).split(",")
    seeds = _parse_ints(opt.get("seeds", "0,1,2"), "seeds")
    locations = _parse_ints(opt.get("locations", "10"), "locations")
    plan = harness.ExperimentPlan.grid(variants, seeds, locations)
    train_cfg = _train_config(opt, lr_default=0.1, epochs_default=20)
    finetune_cfg = harness.TrainConfig(
        epochs=opt.get("finetune_epochs", 10, int),
        lr=opt.get("finetune_lr", 0.01, float),
        batch_size=train_cfg.batch_size)
    prune_cfg = pruner.PruneConfig(
        flops_target=opt.get("cr", 2.0, float),
        probe_images=opt.get("probe_images", 256, int))
    result = harness.run_experiment(plan, spec, data, test_data, train_cfg,
                                    finetune_cfg, prune_cfg, out_dir=args.outdir)
    for key, traces in sorted(result.traces.items()):
        _warn_stages(traces, harness.cell_stem(*key))
    print(harness.format_experiment_table(result), end="")
    print(f"artifacts in {args.outdir}")
    return 0


def cmd_report(args) -> int:
    path = Path(args.file)
    if path.suffix == ".txt":
        print(path.read_text(), end="")
        return 0
    payload = model_io.load_json(path)
    if isinstance(payload, dict) and "rows" in payload:
        result = model_io.from_json(harness.ExperimentResult, payload, path)
        print(harness.format_experiment_table(result), end="")
    else:
        print(harness.format_report(model_io.from_json(harness.CompressionReport,
                                                       payload, path)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="prunekit", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    # No flag abbreviations: `experiment --seed` is refused, not read as --seeds.
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    def add_common(p, *, seed=True):
        p.add_argument("--config", help="key = value config file")
        if seed:
            p.add_argument("--seed", type=int)

    p = add_parser("train", help="train the reference net from scratch")
    p.add_argument("--data", help="training dataset descriptor")
    p.add_argument("--eval-data", dest="eval_data")
    p.add_argument("--out", required=True)
    p.add_argument("--widths")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--lr", type=float)
    add_common(p)
    p.set_defaults(func=cmd_train)

    p = add_parser("prune", help="prune a trained checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", help="probe image source (training split)")
    p.add_argument("--test-data", dest="test_data")
    p.add_argument("--out", required=True)
    p.add_argument("--variant", choices=pruner.VARIANTS)
    p.add_argument("--cr", type=float, help="FLOPs compression-ratio target")
    p.add_argument("--budgets", help="explicit keep counts, e.g. 2=8,3=16")
    p.add_argument("--locations", type=int)
    p.add_argument("--probe-images", dest="probe_images", type=int)
    p.add_argument("--report", help="write the compression report here (json)")
    p.add_argument("--trace", help="write the per-layer trace here (text)")
    add_common(p)
    p.set_defaults(func=cmd_prune)

    p = add_parser("finetune", help="resume SGD on a pruned checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data")
    p.add_argument("--eval-data", dest="eval_data")
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--lr", type=float)
    add_common(p)
    p.set_defaults(func=cmd_finetune)

    p = add_parser("eval", help="top-1 accuracy of a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data")
    add_common(p, seed=False)
    p.set_defaults(func=cmd_eval)

    p = add_parser("experiment", help="ablation / location-sweep grid")
    p.add_argument("--data")
    p.add_argument("--test-data", dest="test_data")
    p.add_argument("--outdir", required=True)
    p.add_argument("--variants", help="comma list, default all")
    p.add_argument("--seeds", help="comma list, default 0,1,2")
    p.add_argument("--locations", help="comma list, default 10")
    p.add_argument("--cr", type=float)
    p.add_argument("--widths")
    p.add_argument("--epochs", type=int)
    p.add_argument("--finetune-epochs", dest="finetune_epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--finetune-lr", dest="finetune_lr", type=float)
    p.add_argument("--probe-images", dest="probe_images", type=int)
    add_common(p, seed=False)
    p.set_defaults(func=cmd_experiment)

    p = add_parser("report", help="pretty-print a stored report or table")
    p.add_argument("--file", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, FloatingPointError,
            np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
