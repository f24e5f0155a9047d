"""The three benchmark workloads and the checks on their outputs.

Each workload builds its inputs in `setup`, including the held-out split
`test`, and runs one timed task in `task`.  The task hands back every
pruned checkpoint it produced with its traces, so the runner can check and
evaluate them outside the timed part.

The workload seed picks the held-out split that every accuracy and the
pruned-model throughput are measured on.  The training data, the training
seed and the probe seed are fixed per workload: LASSO cost depends on the
exact system, and solves that run out of sweeps make one prune of the same
net take from 7 s to 14 s across probe samples (2-vCPU x86 VM, one BLAS
thread), so a seeded baseline would bury any change under input-to-input
spread.  The fixed seeds are the acceptance fixture's (desk-grid) and 0
(prune-*), not picked by timing.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from prunekit import harness, model_io, pruner

from tracer import patched

# A baseline at or below this test accuracy is treated as collapsed (10 classes,
# so chance is 0.1); pruning it would measure mostly-zero LASSO columns.
COLLAPSED_ACCURACY = 0.5


class SetupError(RuntimeError):
    """The workload's inputs are unusable; the message is one line."""


@dataclass
class Cell:
    """One prune the task ran: its label, its output and the accuracies seen."""

    label: str
    pruned: model_io.Checkpoint
    traces: list
    accuracy_pruned: float | None = None
    accuracy_finetuned: float | None = None


@dataclass
class TaskResult:
    seconds: float
    prune_seconds: float
    cells: list[Cell]
    accuracy_baseline: float
    compression_ratio: float
    artifacts: list[Path] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)


def split_seed(seed: int) -> int:
    """The held-out split's synth seed for a workload seed."""
    return int(np.random.SeedSequence(seed).generate_state(1)[0])


def _capture_prunes(cells: list, seconds: list):
    """Stand-in for `pruner.prune_model` that keeps each output and its time."""
    real = pruner.prune_model

    def prune_model(ckpt, dataset, config):
        t0 = time.perf_counter()
        pruned, traces = real(ckpt, dataset, config)
        seconds.append(time.perf_counter() - t0)
        cells.append(Cell(f"{config.variant}_loc{config.num_locations}", pruned, traces))
        return pruned, traces

    return prune_model


class DeskGrid:
    """The acceptance suite's desk experiment (`desk` fixture), one seed.

    Five variants at 10 locations plus `cpli` at 1 location on a 6-8-8-10
    net over 12x12 synthetic images, each cell pruned to 2x FLOPs and
    fine-tuned, through `harness.run_experiment` with an output directory.
    """

    name = "desk-grid"
    cells_per_task = len(pruner.VARIANTS) + 1
    synth = dict(dims=(1, 12, 12), noise=0.25, amplitude=0.8, jitter=1.2)
    widths = (6, 8, 8, 10)

    train_seed = 11      # the fixture's training split
    model_seed = 0       # the fixture's first experiment seed

    def __init__(self, seed: int):
        self.test_seed = split_seed(seed)
        self.seeds = dict(test_data=self.test_seed, train_data=self.train_seed,
                          experiment=self.model_seed)

    def setup(self) -> None:
        self.train = model_io.synth_dataset(self.train_seed, 800, 10, split="train",
                                            **self.synth)
        self.test = model_io.synth_dataset(self.test_seed, 800, 10, split="test",
                                           **self.synth)

    def task(self, work: Path) -> TaskResult:
        s = self.model_seed
        cells = [harness.ExperimentCell(v, s, 10) for v in pruner.VARIANTS]
        cells.append(harness.ExperimentCell(pruner.VARIANT_CPLI, s, 1))
        spec = harness.desk_net(input_dims=self.synth["dims"], num_classes=10,
                                widths=self.widths)
        out = work / "experiment"
        captured: list[Cell] = []
        prune_seconds: list[float] = []
        with patched([(pruner, "prune_model", _capture_prunes(captured, prune_seconds))]):
            t0 = time.perf_counter()
            result = harness.run_experiment(
                harness.ExperimentPlan(cells=tuple(cells)), spec, self.train, self.test,
                harness.TrainConfig(epochs=14, batch_size=32, lr=0.05),
                harness.TrainConfig(epochs=5, batch_size=32, lr=0.01),
                pruner.PruneConfig(flops_target=2.0, probe_images=128),
                out_dir=out)
            seconds = time.perf_counter() - t0
        reports = {f"{v}_loc{n}": r for (v, n, _), r in result.reports.items()}
        for cell in captured:
            cell.accuracy_pruned = reports[cell.label].accuracy_pruned
            cell.accuracy_finetuned = reports[cell.label].accuracy_finetuned
        baseline = result.baseline_accuracy[s]
        problems = []
        if baseline <= COLLAPSED_ACCURACY:
            problems.append(f"baseline collapsed: test accuracy {baseline:.3f}")
        if len(captured) != len(cells):
            problems.append(f"{len(captured)} prunes for {len(cells)} cells")
        return TaskResult(
            seconds=seconds, prune_seconds=sum(prune_seconds), cells=captured,
            accuracy_baseline=baseline,
            compression_ratio=float(np.mean([r.compression_ratio
                                             for r in reports.values()])),
            artifacts=sorted(out.iterdir()), problems=problems)


class PruneDesk:
    """A `cpli` 2x FLOPs prune of the default 16-32-32-64 net on 28x28 inputs.

    The baseline is trained in set-up (500 images, 2 epochs, lr 0.01,
    batch 32, no decay), so the timed task is the prune alone.
    """

    train_seed = 0
    model_seed = 0       # training and probe sampling
    cells_per_task = 1

    def __init__(self, name: str, locations: int, seed: int):
        self.name = name
        self.locations = locations
        self.test_seed = split_seed(seed)
        self.seeds = dict(test_data=self.test_seed, train_data=self.train_seed,
                          training_and_probes=self.model_seed)

    def setup(self) -> None:
        self.train = model_io.synth_dataset(self.train_seed, 500, 10,
                                            dims=(1, 28, 28), split="train")
        self.test = model_io.synth_dataset(self.test_seed, 500, 10,
                                           dims=(1, 28, 28), split="test")
        cfg = harness.TrainConfig(epochs=2, batch_size=32, lr=0.01, decay_points=(),
                                  seed=self.model_seed)
        self.baseline = harness.train(harness.desk_net(), self.train, cfg,
                                      eval_data=self.test)
        acc = self.baseline.metadata["accuracy"]
        finite = all(np.isfinite(p.weights).all() and np.isfinite(p.bias).all()
                     for p in self.baseline.params if p is not None)
        if not finite or acc <= COLLAPSED_ACCURACY:
            raise SetupError(
                f"baseline collapsed: test accuracy {acc:.3f} (chance 0.100), "
                f"finite weights {finite}, after {cfg.epochs} epochs at lr {cfg.lr}")

    def task(self, work: Path) -> TaskResult:
        cfg = pruner.PruneConfig(flops_target=2.0, num_locations=self.locations,
                                 probe_images=256, seed=self.model_seed)
        t0 = time.perf_counter()
        pruned, traces = pruner.prune_model(self.baseline, self.train, cfg)
        seconds = time.perf_counter() - t0
        before = harness.flops_count(self.baseline.spec).total
        after = harness.flops_count(pruned.spec).total
        return TaskResult(
            seconds=seconds, prune_seconds=seconds,
            cells=[Cell(f"cpli_loc{self.locations}", pruned, traces)],
            accuracy_baseline=self.baseline.metadata["accuracy"],
            compression_ratio=before / after)


WORKLOADS = {
    "desk-grid": DeskGrid,
    "prune-default": lambda seed: PruneDesk("prune-default", 10, seed),
    "prune-dense": lambda seed: PruneDesk("prune-dense", 49, seed),
}


def _same_checkpoint(a: model_io.Checkpoint, b: model_io.Checkpoint) -> bool:
    if a.spec != b.spec or a.metadata != b.metadata or len(a.params) != len(b.params):
        return False
    for p, q in zip(a.params, b.params):
        if (p is None) != (q is None):
            return False
        if p is None:
            continue
        for x, y in ((p.weights, q.weights), (p.bias, q.bias)):
            if x.dtype != y.dtype or x.shape != y.shape or x.tobytes() != y.tobytes():
                return False
    return True


def check_cell(cell: Cell, work: Path) -> tuple[list[str], list[Path]]:
    """Output checks on one pruned checkpoint; returns (problems, files written).

    The files are the saved checkpoint and the `write_traces` output, whose
    bytes go into the run's digest.
    """
    problems = []
    for i, p in enumerate(cell.pruned.params):
        if p is not None and not (np.isfinite(p.weights).all()
                                  and np.isfinite(p.bias).all()):
            problems.append(f"layer {i}: non-finite parameters")
    for t in cell.traces:
        kept = len(t.support)
        if cell.pruned.spec.layers[t.layer_index].in_channels != kept:
            problems.append(f"conv {t.conv_ordinal}: in_channels != {kept} kept")
        if kept != t.budget and not t.budget_warning:
            problems.append(f"conv {t.conv_ordinal}: kept {kept} of budget "
                            f"{t.budget} without a budget warning")
        if not t.normal_residual <= t.damping * t.weight_norm + 1e-8 * t.rhs_scale:
            problems.append(f"conv {t.conv_ordinal}: refit normal residual "
                            f"{t.normal_residual:.3e} above its bound")
    ckpt_path = work / f"{cell.label}.ckpt"
    trace_path = work / f"{cell.label}.trace"
    model_io.save_checkpoint(ckpt_path, cell.pruned)
    if not _same_checkpoint(cell.pruned, model_io.load_checkpoint(ckpt_path)):
        problems.append("checkpoint save/load round trip is not bit-identical")
    pruner.write_traces(trace_path, cell.traces)
    return problems, [ckpt_path, trace_path]


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()
