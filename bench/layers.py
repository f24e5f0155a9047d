"""Which prunekit functions the traced run wraps, and the per-layer metrics.

Every wrapped function is reached through a module attribute: `harness`
calls `nn.*` and `pruner.*` that way, `pruner` calls `nn.*` and `solvers.*`,
and `prune_model`, `run_experiment` and `lambda_search` call their
neighbours through their own module globals.  `cli` only dispatches to
`harness` and is not wrapped.

Spans cover a whole traced iteration: the timed task plus the runner's
output checks (the checkpoint save/load round trip) and its evaluations of
the pruned checkpoints.  Times and counts are per traced iteration; sizes
(`probe_rows`, `design_mib`) are the largest seen; `kept` is the mean over
prunes.  A layer that a workload never reaches reads 0.
"""

from __future__ import annotations

import os

import numpy as np

CONVS = ("c2", "c3", "c4")
MIB = 1024.0 * 1024.0

# (name, unit, better) -- BENCHMARK.json's per_layer list must match this.
PER_LAYER = [
    ("nn.forward_collect.calls", "count", "lower"),
    ("nn.forward_collect.self_s", "s", "lower"),
    ("nn.backward_collect.calls", "count", "lower"),
    ("nn.backward_collect.batch1_calls", "count", "lower"),
    ("nn.backward_collect.self_s", "s", "lower"),
    ("nn.maxpool2d_forward.s", "s", "lower"),
    ("nn.maxpool2d_backward.s", "s", "lower"),
    ("nn.relu_forward.s", "s", "lower"),
    ("nn.relu_backward.s", "s", "lower"),
    ("nn.linear_forward.s", "s", "lower"),
    ("nn.linear_backward.s", "s", "lower"),
    ("nn.softmax.s", "s", "lower"),
    ("nn.sgd_step.calls", "count", "lower"),
    ("nn.sgd_step.s", "s", "lower"),
    ("nn.forward_gflops", "GFLOP/s", "higher"),
    *[(f"pruner.{stage}.s.{c}", "s", "lower")
      for stage in ("extract_probes", "build_weighted_system", "select_channels",
                    "refit_layer") for c in CONVS],
    ("pruner.magnitude_select.s", "s", "lower"),
    ("pruner.prune_model.self_s", "s", "lower"),
    *[(f"pruner.probe_rows.{c}", "rows", "lower") for c in CONVS],
    *[(f"pruner.kept.{c}", "count", "higher") for c in CONVS],
    ("pruner.budget_warnings", "count", "lower"),
    *[(f"pruner.design_mib.{c}", "MiB", "lower") for c in CONVS],
    ("solvers.lambda_search.calls", "count", "lower"),
    ("solvers.lambda_search.self_s", "s", "lower"),
    ("solvers.lasso_coordinate_descent.calls", "count", "lower"),
    ("solvers.lasso_coordinate_descent.s", "s", "lower"),
    ("solvers.grid_steps_per_search", "ratio", "lower"),
    ("solvers.lasso_unconverged", "count", "lower"),
    ("solvers.backfill_cols", "count", "lower"),
    ("solvers.least_squares_refit.s", "s", "lower"),
    ("solvers.refit_damped", "count", "lower"),
    ("harness.train.s", "s", "lower"),
    ("harness.finetune.s", "s", "lower"),
    ("harness.evaluate.s", "s", "lower"),
    ("harness.evaluate.images", "count", "lower"),
    ("harness.prune.s", "s", "lower"),
    ("harness.compression_ratio", "x", "higher"),
    ("harness.accuracy_baseline", "fraction", "higher"),
    ("model_io.synth_dataset.s", "s", "lower"),
    ("model_io.save_checkpoint.s", "s", "lower"),
    ("model_io.save_checkpoint.bytes", "bytes", "lower"),
    ("model_io.load_checkpoint.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
]
UNITS = {name: unit for name, unit, _ in PER_LAYER}


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def task_targets():
    """(module, attr, span name, note) for everything a traced task wraps."""
    from prunekit import harness, model_io, nn, pruner, solvers

    stage = {"conv": "", "design": 0}

    def forward_note(_, args, kwargs, result):
        return {"spec": args[0], "images": result.x.shape[0]}

    def backward_note(_, args, kwargs, result):
        return {"images": _arg(args, kwargs, 2, "trace").x.shape[0]}

    def probes_note(_, args, kwargs, result):
        ckpt, li = args[0], _arg(args, kwargs, 2, "layer_index")
        stage["conv"] = f"c{ckpt.spec.conv_indices().index(li) + 1}"
        stage["design"] = result.z.nbytes + result.patches.nbytes
        return {"conv": stage["conv"], "rows": result.y0.shape[0]}

    def system_note(_, args, kwargs, result):
        stage["design"] += result.a.nbytes
        return {"conv": stage["conv"]}

    def conv_note(_, args, kwargs, result):
        return {"conv": stage["conv"]}

    def refit_note(_, args, kwargs, result):
        return {"conv": stage["conv"], "design": stage["design"],
                "kept": len(_arg(args, kwargs, 1, "support"))}

    def prune_note(_, args, kwargs, result):
        return {"warnings": sum(t.budget_warning for t in result[1])}

    def search_note(_, args, kwargs, result):
        return {"backfill": len(result.support) - int(np.count_nonzero(result.beta))}

    def lasso_note(_, args, kwargs, result):
        return {"unconverged": not result[1]}

    def lstsq_note(_, args, kwargs, result):
        return {"damped": result.damping > _arg(args, kwargs, 3, "damping", 0.0)}

    def eval_note(_, args, kwargs, result):
        return {"images": len(_arg(args, kwargs, 1, "data"))}

    def save_note(_, args, kwargs, result):
        return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}

    targets = [(nn, "forward_collect", forward_note),
               (nn, "backward_collect", backward_note),
               *[(nn, f, None) for f in (
                   "maxpool2d_forward", "maxpool2d_backward", "relu_forward",
                   "relu_backward", "linear_forward", "linear_backward",
                   "softmax", "sgd_step")],
               (pruner, "prune_model", prune_note),
               (pruner, "extract_probes", probes_note),
               (pruner, "build_weighted_system", system_note),
               (pruner, "select_channels", conv_note),
               (pruner, "refit_layer", refit_note),
               (pruner, "magnitude_select", None),
               (solvers, "lambda_search", search_note),
               (solvers, "lasso_coordinate_descent", lasso_note),
               (solvers, "least_squares_refit", lstsq_note),
               (harness, "train", None),
               (harness, "finetune", None),
               (harness, "evaluate", eval_note),
               (harness, "prune", None),
               (model_io, "save_checkpoint", save_note),
               (model_io, "load_checkpoint", None)]
    return [(module, attr, f"{module.__name__.rsplit('.', 1)[-1]}.{attr}", note)
            for module, attr, note in targets]


def setup_targets():
    from prunekit import model_io
    return [(model_io, "synth_dataset", "model_io.synth_dataset", None)]


def layer_metrics(tracer, tasks: int, setup_tracer, setups: int,
                  results: dict) -> dict[str, float]:
    """Per-layer values from a task tracer and a set-up tracer.

    `results` supplies the values that come from outputs rather than spans:
    compression ratio, baseline accuracy and the tracing overhead.
    """
    from prunekit import harness

    selfs = tracer.self_times()
    spans: dict[str, list[int]] = {}
    for i, name in enumerate(tracer.names):
        spans.setdefault(name, []).append(i)

    def ids(name, conv=None):
        return [i for i in spans.get(name, ())
                if conv is None or tracer.notes.get(i, {}).get("conv") == conv]

    def dur(i):
        return tracer.ends[i] - tracer.starts[i]

    def total_s(name, conv=None):
        return sum(dur(i) for i in ids(name, conv)) / tasks

    def self_s(name):
        return sum(selfs[i] for i in ids(name)) / tasks

    def calls(name):
        return len(ids(name)) / tasks

    def noted(name, key, conv=None):
        return [tracer.notes[i][key] for i in ids(name, conv) if i in tracer.notes]

    out: dict[str, float] = {}
    out["nn.forward_collect.calls"] = calls("nn.forward_collect")
    out["nn.forward_collect.self_s"] = self_s("nn.forward_collect")
    out["nn.backward_collect.calls"] = calls("nn.backward_collect")
    out["nn.backward_collect.batch1_calls"] = sum(
        n == 1 for n in noted("nn.backward_collect", "images")) / tasks
    out["nn.backward_collect.self_s"] = self_s("nn.backward_collect")
    for f in ("maxpool2d_forward", "maxpool2d_backward", "relu_forward",
              "relu_backward", "linear_forward", "linear_backward", "softmax"):
        out[f"nn.{f}.s"] = total_s(f"nn.{f}")
    out["nn.sgd_step.calls"] = calls("nn.sgd_step")
    out["nn.sgd_step.s"] = total_s("nn.sgd_step")

    flops: dict = {}
    fwd_flops = 0
    for spec, n in zip(noted("nn.forward_collect", "spec"),
                       noted("nn.forward_collect", "images")):
        if spec not in flops:
            flops[spec] = harness.flops_count(spec).total
        fwd_flops += flops[spec] * n
    fwd_s = total_s("nn.forward_collect") * tasks
    out["nn.forward_gflops"] = fwd_flops / fwd_s / 1e9 if fwd_s > 0 else 0.0

    for stage in ("extract_probes", "build_weighted_system", "select_channels",
                  "refit_layer"):
        for c in CONVS:
            out[f"pruner.{stage}.s.{c}"] = total_s(f"pruner.{stage}", c)
    out["pruner.magnitude_select.s"] = total_s("pruner.magnitude_select")
    out["pruner.prune_model.self_s"] = self_s("pruner.prune_model")
    for c in CONVS:
        out[f"pruner.probe_rows.{c}"] = max(noted("pruner.extract_probes", "rows", c),
                                            default=0)
    for c in CONVS:
        kept = noted("pruner.refit_layer", "kept", c)
        out[f"pruner.kept.{c}"] = sum(kept) / len(kept) if kept else 0.0
    out["pruner.budget_warnings"] = sum(noted("pruner.prune_model", "warnings")) / tasks
    for c in CONVS:
        out[f"pruner.design_mib.{c}"] = max(
            noted("pruner.refit_layer", "design", c), default=0) / MIB

    searches = len(ids("solvers.lambda_search"))
    lassos = len(ids("solvers.lasso_coordinate_descent"))
    out["solvers.lambda_search.calls"] = searches / tasks
    out["solvers.lambda_search.self_s"] = self_s("solvers.lambda_search")
    out["solvers.lasso_coordinate_descent.calls"] = lassos / tasks
    out["solvers.lasso_coordinate_descent.s"] = total_s("solvers.lasso_coordinate_descent")
    out["solvers.grid_steps_per_search"] = lassos / searches if searches else 0.0
    out["solvers.lasso_unconverged"] = sum(
        noted("solvers.lasso_coordinate_descent", "unconverged")) / tasks
    out["solvers.backfill_cols"] = sum(noted("solvers.lambda_search", "backfill")) / tasks
    out["solvers.least_squares_refit.s"] = total_s("solvers.least_squares_refit")
    out["solvers.refit_damped"] = sum(noted("solvers.least_squares_refit", "damped")) / tasks

    out["harness.train.s"] = total_s("harness.train")
    out["harness.finetune.s"] = total_s("harness.finetune")
    out["harness.evaluate.s"] = total_s("harness.evaluate")
    out["harness.evaluate.images"] = sum(noted("harness.evaluate", "images")) / tasks
    out["harness.prune.s"] = total_s("harness.prune")
    out["harness.compression_ratio"] = results["compression_ratio"]
    out["harness.accuracy_baseline"] = results["accuracy_baseline"]

    out["model_io.synth_dataset.s"] = sum(
        end - start for start, end in zip(setup_tracer.starts, setup_tracer.ends)) / setups
    out["model_io.save_checkpoint.s"] = total_s("model_io.save_checkpoint")
    out["model_io.save_checkpoint.bytes"] = sum(
        noted("model_io.save_checkpoint", "bytes")) / tasks
    out["model_io.load_checkpoint.s"] = total_s("model_io.load_checkpoint")
    out["trace.overhead_s"] = results["overhead_s"]
    out["trace.overhead_frac"] = results["overhead_frac"]
    return out
