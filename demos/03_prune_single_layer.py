"""Anatomy of one pruning stage.

Trains a small net, extracts feature probes at the second conv, assembles
the weighted selection rows for each variant, folds them into the small
triangular factor that selection runs on, and shows how the chosen channels
and the refit residual differ.  A pruning stage does the same chunk by
chunk (`pruner.prune_model`).
"""

from prunekit import harness, model_io, pruner, solvers

train_ds = model_io.synth_dataset(11, 400, 6, dims=(1, 12, 12), noise=0.25,
                                  amplitude=0.8, jitter=1.2, split="train")
spec = harness.desk_net(input_dims=(1, 12, 12), num_classes=6, widths=(6, 8, 8, 10))
ckpt = harness.train(spec, train_ds,
                     harness.TrainConfig(epochs=8, batch_size=32, lr=0.05, seed=0))
print(f"trained baseline, train-split accuracy {ckpt.metadata['accuracy']:.3f}")

layer_index = spec.conv_indices()[1]
cfg = pruner.PruneConfig(probe_images=64, num_locations=10, seed=0)
sample = pruner.sample_probes(spec, layer_index, train_ds, cfg)
probe = pruner.extract_probes(ckpt, train_ds, layer_index, sample)
probe.grad = pruner.probe_gradient(ckpt, train_ds, layer_index, sample, probe.trace)
print(f"\nprobes at layer {layer_index}: {probe.y0.shape[0]} records, "
      f"{probe.y0.shape[1]} output channels, {probe.z.shape[2]} input channels")
print(f"gradient magnitudes span [{abs(probe.grad).min():.2e}, "
      f"{abs(probe.grad).max():.2e}]")

budget = 3
selected = {}
for variant in ("cpli", "cpli_no_fl", "cpli_no_fi", "cp_baseline"):
    rows = pruner.build_weighted_system(probe, variant)
    stream = solvers.SystemStream()
    stream.add(rows)
    sel = pruner.select_channels(stream.system(), budget)
    selected[variant] = sel.support
    print(f"{variant:12s} keeps {list(sel.support)} (lambda {sel.lambda_final:.3g}); "
          f"{rows.rows}x{rows.cols} rows -> {stream.r.shape[0]}x{stream.r.shape[1]} factor")
support = pruner.magnitude_select(ckpt.params[layer_index].weights, budget)
print(f"{'magnitude':12s} keeps {list(support)}")

refit = pruner.refit_layer(probe, selected["cpli"], ckpt.params[layer_index])
print(f"\nrefit on cpli support: probe squared error "
      f"{refit.residual_before:.3f} (zero-fill) -> {refit.residual_after:.3f}")
