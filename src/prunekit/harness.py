"""Training, evaluation, compression reports (FLOPs from `nn.flops_count`),
and the experiment runner.

Everything here is seed-deterministic: rerunning any entry point with the
same inputs produces bit-identical checkpoints and byte-identical report
files.  Wall-clock timings are collected in memory but never serialized.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import model_io, nn, pruner
from .nn import flops_count


def desk_net(input_dims=(1, 28, 28), num_classes=10,
             widths=(16, 32, 32, 64)) -> nn.NetworkSpec:
    """The reference net: stacked 3x3 convs with two early 2x2 pools."""
    c, h, w = input_dims
    layers: list[nn.LayerSpec] = []
    prev = c
    for k, width in enumerate(widths):
        layers += [nn.conv2d(prev, width, 3, padding=1), nn.relu()]
        if k < 2:
            layers.append(nn.maxpool2d(2))
        prev = width
    fh, fw = h // 4, w // 4
    layers += [nn.flatten(), nn.linear(prev * fh * fw, num_classes),
               nn.softmax_ce_head()]
    return nn.NetworkSpec(tuple(layers), input_dims, num_classes)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

# Each decay point multiplies the learning rate by this factor.
DECAY_FACTOR = 0.1
# Images per forward when measuring accuracy.
EVAL_BATCH = 64


@dataclass
class TrainConfig:
    """One SGD run: `nn.sgd_step`'s fixed rule at `lr`, decayed by
    `DECAY_FACTOR` once each `decay_points` fraction of the epochs is done."""

    epochs: int = 20
    batch_size: int = 64
    lr: float = 0.1
    decay_points: tuple[float, ...] = (0.5, 0.75)
    seed: int = 0

    def __post_init__(self):
        for name in ("epochs", "batch_size", "seed"):
            model_io.require_int(getattr(self, name), name)
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.lr > 0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not all(isinstance(p, numbers.Real) and 0 < p < 1 for p in self.decay_points):
            raise ValueError(f"decay_points must lie in (0, 1), got {self.decay_points}")


def _epoch_lr(cfg: TrainConfig, epoch: int) -> float:
    drops = sum(1 for p in cfg.decay_points if epoch >= int(cfg.epochs * p))
    return cfg.lr * DECAY_FACTOR ** drops


def train(spec: nn.NetworkSpec, data: model_io.DatasetHandle, cfg: TrainConfig,
          init: list | None = None,
          eval_data: model_io.DatasetHandle | None = None) -> model_io.Checkpoint:
    """SGD (`nn.sgd_step`) over shuffled mini-batches; step lr decay.

    With `init` the run resumes from those weights (fine-tuning); zero
    epochs returns the starting point unchanged.  A minibatch whose loss is
    not finite stops the run with a `FloatingPointError` naming its epoch
    and batch (both 1-based).
    """
    if len(data) == 0:
        raise ValueError("cannot train on an empty dataset")
    rng = np.random.default_rng(cfg.seed)
    params = nn.copy_params(init) if init is not None else nn.init_params(spec, rng)
    velocity = None
    n = len(data)
    for epoch in range(cfg.epochs):
        lr = _epoch_lr(cfg, epoch)
        perm = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            trace = nn.forward_collect(spec, params, data.images[idx])
            grads = nn.backward_collect(spec, params, trace, data.labels[idx],
                                        wrt_input=False)
            if not np.isfinite(grads.loss):
                raise FloatingPointError(
                    f"training diverged: loss {grads.loss} at epoch {epoch + 1}, "
                    f"batch {start // cfg.batch_size + 1}")
            params, velocity = nn.sgd_step(params, grads.weights, lr,
                                           velocity=velocity)
            # Free this step's activations before the next forward allocates
            # its own, so only one step's trace is ever alive.
            del trace, grads
    ckpt = model_io.Checkpoint(spec, params, {})
    acc_split = eval_data if eval_data is not None and len(eval_data) else data
    ckpt.metadata = {"seed": cfg.seed, "epochs": cfg.epochs,
                     "dataset": data.split or "unnamed",
                     "accuracy": evaluate(ckpt, acc_split)}
    return ckpt


def finetune(ckpt: model_io.Checkpoint, data: model_io.DatasetHandle,
             cfg: TrainConfig,
             eval_data: model_io.DatasetHandle | None = None) -> model_io.Checkpoint:
    """Resume SGD on an existing (typically pruned) checkpoint."""
    out = train(ckpt.spec, data, cfg, init=ckpt.params, eval_data=eval_data)
    out.metadata["finetuned_from"] = ckpt.metadata.get("dataset", "")
    return out


def evaluate(ckpt: model_io.Checkpoint, data: model_io.DatasetHandle) -> float:
    """Top-1 accuracy over a split, `EVAL_BATCH` images per forward."""
    if len(data) == 0:
        raise ValueError("cannot evaluate on an empty split")
    correct = 0
    for start in range(0, len(data), EVAL_BATCH):
        x = data.images[start:start + EVAL_BATCH]
        pred = nn.predict(ckpt.spec, ckpt.params, x).argmax(axis=1)
        correct += int((pred == data.labels[start:start + EVAL_BATCH]).sum())
    return correct / len(data)


# ---------------------------------------------------------------------------
# Compression reports
# ---------------------------------------------------------------------------

@dataclass
class LayerPruneStat:
    layer_index: int
    conv_ordinal: int
    kept: int
    total: int
    flops_before: int
    flops_after: int


@dataclass
class CompressionReport:
    """Everything a pruning run produced, numbers-first.

    `accuracy_drop` is finetuned minus baseline accuracy, so positive means
    the compressed model improved.  Timings live only in memory.  The other
    fields are the keys of the report file (see `model_io.write_json`).
    """

    variant: str
    seed: int
    num_locations: int
    layers: list[LayerPruneStat]
    flops_before: int
    flops_after: int
    compression_ratio: float
    accuracy_baseline: float | None = None
    accuracy_pruned: float | None = None
    accuracy_finetuned: float | None = None
    accuracy_drop: float | None = None
    timings: dict = field(default_factory=dict, metadata={"written": False})

    def with_finetuned(self, accuracy: float) -> "CompressionReport":
        drop = None
        if self.accuracy_baseline is not None:
            drop = accuracy - self.accuracy_baseline
        return replace(self, accuracy_finetuned=accuracy, accuracy_drop=drop)


def write_report(path, report: CompressionReport) -> None:
    model_io.write_json(path, report)


def read_report(path) -> CompressionReport:
    return model_io.from_json(CompressionReport, model_io.load_json(path), path)


def format_report(report: CompressionReport) -> str:
    def pct(x):
        return "-" if x is None else f"{100 * x:.2f}%"

    lines = [
        f"variant={report.variant} seed={report.seed} "
        f"locations={report.num_locations}",
        f"FLOPs {report.flops_before} -> {report.flops_after} "
        f"(CR {report.compression_ratio:.3f}x)",
        f"accuracy baseline={pct(report.accuracy_baseline)} "
        f"pruned={pct(report.accuracy_pruned)} "
        f"finetuned={pct(report.accuracy_finetuned)} "
        f"drop={pct(report.accuracy_drop)}",
    ]
    return "\n".join(lines + model_io.tsv_lines(LayerPruneStat, report.layers))


def prune(ckpt: model_io.Checkpoint, probe_data: model_io.DatasetHandle,
          test_data: model_io.DatasetHandle | None, cfg: pruner.PruneConfig,
          accuracy_baseline: float | None = None):
    """Prune a checkpoint and account for it; returns (pruned, report, traces).

    The baseline accuracy is `ckpt`'s on `test_data`; a caller that already
    has it passes it as `accuracy_baseline` and it is not evaluated again.
    """
    timings: dict[str, float] = {}
    acc_base = accuracy_baseline
    if acc_base is None and test_data is not None:
        acc_base = evaluate(ckpt, test_data)
    t0 = time.perf_counter()
    pruned, traces = pruner.prune_model(ckpt, probe_data, cfg)
    timings["prune_s"] = time.perf_counter() - t0
    t1 = time.perf_counter()
    acc_pruned = evaluate(pruned, test_data) if test_data is not None else None
    timings["eval_s"] = time.perf_counter() - t1

    before = flops_count(ckpt.spec)
    after = flops_count(pruned.spec)
    convs_before = ckpt.spec.conv_indices()
    stats = []
    for ordinal, li in enumerate(convs_before, start=1):
        stats.append(LayerPruneStat(
            layer_index=li, conv_ordinal=ordinal,
            kept=pruned.spec.layers[li].in_channels,
            total=ckpt.spec.layers[li].in_channels,
            flops_before=before.per_layer[li], flops_after=after.per_layer[li]))
    report = CompressionReport(
        variant=cfg.variant, seed=cfg.seed, num_locations=cfg.num_locations,
        layers=stats, flops_before=before.total, flops_after=after.total,
        compression_ratio=before.total / after.total,
        accuracy_baseline=acc_base, accuracy_pruned=acc_pruned, timings=timings)
    return pruned, report, traces


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentCell:
    variant: str
    seed: int
    num_locations: int = 10


@dataclass
class ExperimentPlan:
    """Cells to run; rows aggregate each (variant, locations) pair over seeds."""

    cells: tuple[ExperimentCell, ...]

    @staticmethod
    def grid(variants, seeds, locations=(10,)) -> "ExperimentPlan":
        cells = tuple(ExperimentCell(v, s, l)
                      for v in variants for l in locations for s in seeds)
        return ExperimentPlan(cells=cells)


@dataclass
class ExperimentRow:
    variant: str
    num_locations: int
    seeds: tuple[int, ...]
    accuracy_finetuned: tuple[float, ...]
    accuracy_drop: tuple[float, ...]
    accuracy_finetuned_mean: float
    accuracy_drop_mean: float
    compression_ratio_mean: float


@dataclass
class ExperimentResult:
    """An experiment's outcome; `table.json` holds all of it but the
    per-cell reports and prune traces, keyed (variant, locations, seed)."""

    rows: list[ExperimentRow]
    baseline_accuracy: dict[int, float]
    reports: dict[tuple, CompressionReport] = field(default_factory=dict,
                                                    metadata={"written": False})
    traces: dict[tuple, list[pruner.PruneTrace]] = field(default_factory=dict,
                                                         metadata={"written": False})

    def row(self, variant: str, num_locations: int = 10) -> ExperimentRow:
        for r in self.rows:
            if r.variant == variant and r.num_locations == num_locations:
                return r
        raise KeyError((variant, num_locations))


def cell_stem(variant: str, num_locations: int, seed: int) -> str:
    """A cell's name in its report and trace file names."""
    return f"{variant}_loc{num_locations}_seed{seed}"


def run_experiment(plan: ExperimentPlan, spec: nn.NetworkSpec,
                   train_data: model_io.DatasetHandle,
                   test_data: model_io.DatasetHandle,
                   train_cfg: TrainConfig, finetune_cfg: TrainConfig,
                   prune_cfg: pruner.PruneConfig,
                   out_dir=None) -> ExperimentResult:
    """Run every cell (train once per seed, then prune+finetune) and aggregate.

    Cells are executed in a sorted order but are mutually independent, so
    any execution order yields the same result.  When `out_dir` is given,
    per-cell reports, traces, and the aggregate table are written there.
    A plan with no cells, or with a cell twice, is rejected up front.
    """
    if not plan.cells:
        raise ValueError("experiment plan has no cells")
    cells = sorted(plan.cells, key=lambda c: (c.variant, c.num_locations, c.seed))
    for a, b in zip(cells, cells[1:]):
        if a == b:
            raise ValueError(f"experiment plan repeats {a}")
    # Building every cell's config validates its variant and location count
    # before any baseline is trained.
    configs = [replace(prune_cfg, variant=c.variant, seed=c.seed,
                       num_locations=c.num_locations) for c in cells]
    if len(test_data) == 0:
        raise ValueError("cannot evaluate on an empty split")
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    baselines: dict[int, model_io.Checkpoint] = {}
    for seed in sorted({c.seed for c in plan.cells}):
        ckpt = train(spec, train_data, replace(train_cfg, seed=seed),
                     eval_data=test_data)
        baselines[seed] = ckpt
        if out_path is not None:
            model_io.save_checkpoint(out_path / f"baseline_seed{seed}.ckpt", ckpt)

    # `train` and `finetune` record each checkpoint's test accuracy in its
    # metadata, so every checkpoint is evaluated once.
    reports: dict[tuple, CompressionReport] = {}
    cell_traces: dict[tuple, list[pruner.PruneTrace]] = {}
    for cell, cfg in zip(cells, configs):
        baseline = baselines[cell.seed]
        pruned, report, traces = prune(baseline, train_data, test_data, cfg,
                                       baseline.metadata["accuracy"])
        tuned = finetune(pruned, train_data, replace(finetune_cfg, seed=cell.seed),
                         eval_data=test_data)
        report = report.with_finetuned(tuned.metadata["accuracy"])
        key = (cell.variant, cell.num_locations, cell.seed)
        reports[key] = report
        cell_traces[key] = traces
        if out_path is not None:
            stem = cell_stem(*key)
            write_report(out_path / f"report_{stem}.json", report)
            pruner.write_traces(out_path / f"trace_{stem}.txt", traces)

    rows = []
    for variant, num_loc in sorted({(c.variant, c.num_locations) for c in cells}):
        seeds = tuple(sorted(c.seed for c in cells
                             if c.variant == variant and c.num_locations == num_loc))
        cell_reports = [reports[(variant, num_loc, s)] for s in seeds]
        accs = tuple(r.accuracy_finetuned for r in cell_reports)
        drops = tuple(r.accuracy_drop for r in cell_reports)
        rows.append(ExperimentRow(
            variant=variant, num_locations=num_loc, seeds=seeds,
            accuracy_finetuned=accs, accuracy_drop=drops,
            accuracy_finetuned_mean=float(np.mean(accs)),
            accuracy_drop_mean=float(np.mean(drops)),
            compression_ratio_mean=float(np.mean(
                [r.compression_ratio for r in cell_reports]))))

    result = ExperimentResult(
        rows=rows, reports=reports, traces=cell_traces,
        baseline_accuracy={s: baselines[s].metadata["accuracy"]
                           for s in sorted(baselines)})
    if out_path is not None:
        (out_path / "table.txt").write_text(format_experiment_table(result))
        model_io.write_json(out_path / "table.json", result)
    return result


def format_experiment_table(result: ExperimentResult) -> str:
    header = ("variant", "locations", "cr_mean", "acc_mean", "drop_mean",
              "per_seed_acc")
    lines = ["\t".join(header)]
    for r in result.rows:
        per_seed = ",".join(f"{a:.4f}" for a in r.accuracy_finetuned)
        lines.append("\t".join((
            r.variant, str(r.num_locations), f"{r.compression_ratio_mean:.4f}",
            f"{r.accuracy_finetuned_mean:.4f}", f"{r.accuracy_drop_mean:+.4f}",
            per_seed)))
    return "\n".join(lines) + "\n"
