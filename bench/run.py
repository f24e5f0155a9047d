#!/usr/bin/env python3
"""prunekit benchmark: run one workload and print its metrics.

From the root of a repository checkout:

    python3 bench/run.py --workload prune-default --seed 0 --seconds 10 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):
  desk-grid      the acceptance desk experiment for one seed
  prune-default  a cpli 2x FLOPs prune of the default net, 10 locations
  prune-dense    the same prune at 49 locations; runnable by hand, but not
                 in BENCHMARK.json, whose run budget holds two workloads

The workload's inputs come from `--seed`.  Set-up runs at least three
times and its median is `setup_s`.  Then tasks (one grid, or one prune) run
back to back for `--seconds`; after each task its outputs are checked and
its pruned checkpoints are evaluated, outside the task's timer.  A task is
only started when it would still end within `--seconds`, judged by the
slowest task so far with its checks and evaluations, so a run keeps to its
length.  Times are medians over the run's tasks.
With `--trace 0` the last line holds the end-to-end metrics.  With
`--trace 1` tasks alternate untraced and traced, and the last line holds the
per-layer metrics of the traced tasks plus the tracing overhead; spans are
written to `.bench_out/`.  The last line is one JSON object: correct,
attempted, failed, metrics.  The exit code is 0 only when every check passed.

The library is imported from `src/` of the checkout, never from an installed
copy, with BLAS pinned to one thread so runs on a shared 2-core machine
stay comparable.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The workloads BENCHMARK.json lists; prune-dense is left out of it so the
# listed ones can run long enough to be steady on a shared 2-core machine.
WORKLOAD_NAMES = ("desk-grid", "prune-default")
HAND_WORKLOADS = ("prune-dense",)
BLAS_THREADS = "1"
# Set-up and the pruned-model evaluation each repeat at least MIN_REPEATS
# times and until their minimum time has passed; their medians are reported.
MIN_REPEATS = 3
SETUP_MIN_S = 2.0
EVAL_MIN_S = 2.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "task_s": "s",
    "prune_s": "s",
    "pruned_eval_images_per_s": "images/s",
    "peak_rss_mib": "MiB",
    "accuracy_pruned": "fraction",
    "success_rate": "fraction",
}


def log(msg: str) -> None:
    print(f"bench: {msg}", flush=True)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + HAND_WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def environment() -> str:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (f"python={platform.python_version()} numpy={numpy.__version__} "
            f"scipy={scipy.__version__} blas={blas} "
            f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']} nproc={cpus}")


def run_task(workload, work: Path):
    """One task plus its output checks and evaluations.

    Returns (result or None, attempted, failed, digest, eval rates).
    """
    from prunekit import harness
    from workloads import check_cell, digest

    attempted = failed = 0
    try:
        result = workload.task(work)
    except Exception:
        traceback.print_exc()
        return None, workload.cells_per_task, workload.cells_per_task, "", []

    files = list(result.artifacts)
    for cell in result.cells:
        attempted += 1
        try:
            problems, written = check_cell(cell, work)
        except Exception:
            traceback.print_exc()
            problems, written = ["output check raised"], []
        problems = result.problems + problems
        files += written
        if problems:
            failed += 1
            log(f"FAILED {cell.label}: " + "; ".join(problems))

    data = workload.test
    rates, spent, eval_failed = [], 0.0, failed
    while len(rates) < MIN_REPEATS or spent < EVAL_MIN_S:
        t0 = time.perf_counter()
        for cell in result.cells:
            attempted += 1
            try:
                acc = harness.evaluate(cell.pruned, data)
            except Exception:
                traceback.print_exc()
                failed += 1
                continue
            if cell.accuracy_pruned is None:
                cell.accuracy_pruned = acc
            if acc != cell.accuracy_pruned:
                failed += 1
                log(f"FAILED eval {cell.label}: accuracy {acc} != {cell.accuracy_pruned}")
        seconds = time.perf_counter() - t0
        if failed > eval_failed:
            break
        spent += seconds
        rates.append(len(result.cells) * len(data) / seconds)
    return result, attempted, failed, digest(sorted(files, key=lambda p: p.name)), rates


@dataclass
class Measurement:
    """What the measured phase saw; `first` is the first task's (result, digest)."""

    task_s: dict = field(default_factory=lambda: {False: [], True: []})
    prune_s: list = field(default_factory=list)
    rates: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    first: tuple | None = None


def measure(workload, seconds: float, trace: bool, tracer, out_dir: Path) -> Measurement:
    """Run tasks for `seconds`; with `trace`, alternate untraced and traced.

    The first untraced task, and with `trace` the first traced one, always
    run; any further task only when the slowest iteration so far (task,
    checks and evaluations) would still end within `seconds`.
    """
    import layers

    m = Measurement()
    start = time.perf_counter()
    slowest = 0.0
    while True:
        spent = time.perf_counter() - start
        if (m.task_s[False] and (m.task_s[True] or not trace)
                and spent + slowest > seconds):
            break
        traced = trace and len(m.task_s[False]) > len(m.task_s[True])
        t0 = time.perf_counter()
        with tempfile.TemporaryDirectory(dir=out_dir) as tmp, \
                tracer.instrument(layers.task_targets()) if traced else nullcontext():
            result, attempted, failed, sha, rates = run_task(workload, Path(tmp))
        m.attempted += attempted
        m.failed += failed
        if result is None:
            break
        if m.first is None:
            m.first = (result, sha)
        elif sha != m.first[1]:
            m.failed += 1
            log(f"FAILED: artifacts sha256 {sha} differ from the first task's {m.first[1]}")
        slowest = max(slowest, time.perf_counter() - t0)
        m.task_s[traced].append(result.seconds)
        if not traced:
            m.prune_s.append(result.prune_seconds)
            m.rates.extend(rates)
        log(f"task {'traced' if traced else 'untraced'} {result.seconds:.3f} s, "
            f"prune {result.prune_seconds:.3f} s, sha256 {sha}")
    return m


def describe(result, sha: str) -> None:
    """Print what the outputs were, so two commits' runs can be compared."""
    log(f"accuracy_baseline {result.accuracy_baseline} "
        f"compression_ratio {result.compression_ratio}")
    for cell in result.cells:
        log(f"supports {cell.label} " + " ".join(
            f"c{t.conv_ordinal}={','.join(map(str, t.support))}" for t in cell.traces))
        for t in cell.traces:
            if t.budget_warning:
                log(f"budget_warning {cell.label} conv {t.conv_ordinal}: kept "
                    f"{len(t.support)} of budget {t.budget}")
        if cell.accuracy_finetuned is not None:
            log(f"harness.accuracy_finetuned.{cell.label} {cell.accuracy_finetuned}")
    log(f"artifacts sha256 {sha}")


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "prunekit" / "__init__.py").is_file():
        print(f"bench: no prunekit sources under {src}; run from a repository checkout",
              file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(src))

    import layers
    from tracer import Tracer
    from workloads import WORKLOADS, SetupError

    workload = WORKLOADS[args.workload](args.seed)
    log(f"workload={workload.name} seed={args.seed} inputs={workload.seeds} "
        f"seconds={args.seconds:g} trace={args.trace}")
    log(f"env {environment()}")
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)

    setup_tracer = Tracer()
    setup_s = []
    while len(setup_s) < MIN_REPEATS or sum(setup_s) < SETUP_MIN_S:
        with setup_tracer.instrument(layers.setup_targets()) if args.trace else nullcontext():
            t0 = time.perf_counter()
            try:
                workload.setup()
            except SetupError as exc:
                print(f"bench: {workload.name} set-up failed: {exc}", file=sys.stderr)
                return 1
            setup_s.append(time.perf_counter() - t0)
    log("setup_s runs " + " ".join(f"{s:.3f}" for s in setup_s))

    tracer = Tracer()
    m = measure(workload, args.seconds, bool(args.trace), tracer, out_dir)
    log(f"error_rate {m.failed / max(m.attempted, 1)} "
        f"({m.failed} of {m.attempted} operations failed)")
    if m.first is None or not m.rates:
        return 1
    result, sha = m.first
    describe(result, sha)

    end_to_end = {
        "setup_s": statistics.median(setup_s),
        "task_s": statistics.median(m.task_s[False]),
        "prune_s": statistics.median(m.prune_s),
        "pruned_eval_images_per_s": statistics.median(m.rates),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "accuracy_pruned": statistics.fmean(c.accuracy_pruned for c in result.cells),
        "success_rate": 1.0 - m.failed / m.attempted,
    }
    for name, value in end_to_end.items():
        log(f"metric {name} = {value} {END_TO_END_UNITS[name]}")
    metrics, units = end_to_end, END_TO_END_UNITS
    if args.trace:
        untraced = statistics.median(m.task_s[False])
        overhead = statistics.median(m.task_s[True]) - untraced
        metrics, units = layers.layer_metrics(
            tracer, len(m.task_s[True]), setup_tracer, len(setup_s),
            {"compression_ratio": result.compression_ratio,
             "accuracy_baseline": result.accuracy_baseline,
             "overhead_s": overhead, "overhead_frac": overhead / untraced}), layers.UNITS
        stem = out_dir / f"spans_{workload.name}_seed{args.seed}"
        tracer.write(f"{stem}.tsv")
        setup_tracer.write(f"{stem}_setup.tsv")
        log(f"{len(tracer)} task spans written to {stem}.tsv")
        for name, value in metrics.items():
            note = (" (computed: flops_count x images / forward time)"
                    if name == "nn.forward_gflops" else "")
            log(f"layer {name} = {value} {units[name]}{note}")

    correct = m.failed == 0
    print(json.dumps({"correct": correct, "attempted": m.attempted, "failed": m.failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
