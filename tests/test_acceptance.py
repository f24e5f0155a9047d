"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
The desk-scale pruning runs (criteria 4-7) share one experiment execution.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from prunekit import harness, model_io, nn, pruner, solvers

from _oracles import best_subset, fd_max_rel_error, kkt_violation, random_small_net
from test_model_io import idx_images_bytes, idx_labels_bytes

SLACK_TABLE4 = 0.002   # 0.2 percentage points
SLACK_TABLE5 = 0.001   # 0.1 percentage points

DESK_WIDTHS = (6, 8, 8, 10)
DESK_SEEDS = (0, 1, 2)
SYNTH = dict(dims=(1, 12, 12), noise=0.25, amplitude=0.8, jitter=1.2)


def check(name: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="session")
def desk(tmp_path_factory):
    """Shared desk-scale runs: 5 variants at 10 locations plus cpli at 1
    location, 3 seeds each, 2x FLOPs target."""
    out = tmp_path_factory.mktemp("desk")
    train_ds = model_io.synth_dataset(11, 800, 10, split="train", **SYNTH)
    test_ds = model_io.synth_dataset(12, 800, 10, split="test", **SYNTH)
    spec = harness.desk_net(input_dims=SYNTH["dims"], num_classes=10,
                            widths=DESK_WIDTHS)
    cells = [harness.ExperimentCell(v, s, 10)
             for v in pruner.VARIANTS for s in DESK_SEEDS]
    cells += [harness.ExperimentCell("cpli", s, 1) for s in DESK_SEEDS]
    t0 = time.perf_counter()
    result = harness.run_experiment(
        harness.ExperimentPlan(cells=tuple(cells)), spec, train_ds, test_ds,
        harness.TrainConfig(epochs=14, batch_size=32, lr=0.05),
        harness.TrainConfig(epochs=5, batch_size=32, lr=0.01),
        pruner.PruneConfig(flops_target=2.0, probe_images=128),
        out_dir=out)
    elapsed = time.perf_counter() - t0
    baseline0 = model_io.load_checkpoint(out / "baseline_seed0.ckpt")
    return SimpleNamespace(result=result, out=out, elapsed=elapsed,
                           baseline=baseline0, train=train_ds, test=test_ds,
                           spec=spec)


def test_criterion_01_gradient_correctness():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(100, 120):
        rng = np.random.default_rng(seed)
        spec, params, x, labels = random_small_net(rng)
        worst = max(worst, fd_max_rel_error(spec, params, x, labels))
    elapsed = time.perf_counter() - t0
    check("criterion 1 gradient correctness",
          worst < 1e-4 and elapsed < 60,
          f"max rel error {worst:.2e} over 20 nets in {elapsed:.1f}s")


def test_criterion_02_lasso_kkt_certificate():
    t0 = time.perf_counter()
    failures = 0
    for seed in range(200, 300):
        rng = np.random.default_rng(seed)
        cols = int(rng.integers(2, 17))
        rows = int(rng.integers(cols + 4, 80))
        a = rng.normal(size=(rows, cols)) * rng.uniform(0.2, 3.0, size=cols)
        true_beta = np.zeros(cols)
        sup = rng.choice(cols, size=int(rng.integers(1, cols + 1)), replace=False)
        true_beta[sup] = rng.normal(0.0, 2.0, size=len(sup))
        b = a @ true_beta + rng.uniform(0.02, 0.5) * rng.normal(size=rows)
        system = solvers.WeightedSystem(a, b)
        res = solvers.lambda_search(system, budget=int(rng.integers(1, cols + 1)))
        viol, scale = kkt_violation(a, b, res.beta, res.lambda_final)
        if viol > 1e-6 * scale:
            failures += 1
    elapsed = time.perf_counter() - t0
    check("criterion 2 LASSO KKT certificate",
          failures == 0 and elapsed < 60,
          f"{100 - failures}/100 systems certified in {elapsed:.1f}s")


def test_criterion_03_subset_near_optimality():
    t0 = time.perf_counter()
    hits = 0
    for seed in range(300, 350):
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(20, 60))
        a = rng.normal(size=(rows, 6))
        true_beta = np.zeros(6)
        sup = rng.choice(6, size=3, replace=False)
        true_beta[sup] = rng.normal(0.0, 2.0, size=3)
        b = a @ true_beta + rng.uniform(0.05, 0.4) * rng.normal(size=rows)
        system = solvers.WeightedSystem(a, b)
        res = solvers.lambda_search(system, budget=3)
        best, _ = best_subset(a, b, 3)
        if res.residual_norm <= 1.10 * best + 1e-12:
            hits += 1
    elapsed = time.perf_counter() - t0
    check("criterion 3 subset near-optimality",
          hits >= 45 and elapsed < 120,
          f"{hits}/50 within 10% of exhaustive optimum in {elapsed:.1f}s")


def test_criterion_04_refit_optimality(desk):
    traces = []
    for stem in sorted(desk.out.glob("trace_*.txt")):
        traces.extend(pruner.read_traces(stem))
    orth_ok = all(t.normal_residual <= t.damping * t.weight_norm
                  + 1e-8 * t.rhs_scale for t in traces)
    never_hurts = all(t.residual_after <= t.residual_before + 1e-12
                      for t in traces)
    check("criterion 4 refit optimality",
          orth_ok and never_hurts and len(traces) > 0,
          f"orthogonality and refit<=zero-fill on {len(traces)} layers "
          f"across {len(list(desk.out.glob('trace_*.txt')))} runs")


def test_criterion_05_noop_safety(desk):
    convs = desk.baseline.spec.conv_indices()
    budgets = {o: desk.baseline.spec.layers[convs[o - 1]].in_channels
               for o in range(2, len(convs) + 1)}
    # Exhaustive locations: a full-width budget should not drop channels
    # that merely looked dead on a thin probe sample.
    cfg = pruner.PruneConfig(budgets=budgets, probe_images=256,
                             num_locations=64, seed=0)
    compressed, _ = pruner.prune_model(desk.baseline, desk.train, cfg)
    before = harness.evaluate(desk.baseline, desk.test)
    after = harness.evaluate(compressed, desk.test)
    check("criterion 5 no-op safety",
          abs(after - before) <= 0.001,
          f"full-width budgets: accuracy {before:.4f} -> {after:.4f}")


def test_criterion_06_ablation_ordering(desk):
    cpli = desk.result.row("cpli", 10).accuracy_finetuned_mean
    margins = {v: cpli - desk.result.row(v, 10).accuracy_finetuned_mean
               for v in ("cpli_no_fi", "cpli_no_fl", "cp_baseline", "magnitude")}
    ok = all(m >= -SLACK_TABLE4 for m in margins.values())
    detail = " ".join(f"{v}:{m:+.4f}" for v, m in margins.items())
    check("criterion 6 ablation ordering (3 seeds, 2x)",
          ok and desk.elapsed < 900,
          f"cpli mean {cpli:.4f}; margins {detail}; runs took {desk.elapsed:.0f}s")


def test_criterion_07_location_count_ordering(desk):
    ten = desk.result.row("cpli", 10).accuracy_finetuned_mean
    one = desk.result.row("cpli", 1).accuracy_finetuned_mean
    check("criterion 7 location-count ordering",
          ten >= one - SLACK_TABLE5 and desk.elapsed < 1500,
          f"10 locations {ten:.4f} vs 1 location {one:.4f}")


def test_criterion_08_flops_accountant():
    single = SimpleNamespace(layers=(nn.conv2d(3, 8, 3, padding=1),),
                             input_dims=(3, 16, 16), num_classes=0)
    exact = harness.flops_count(single).total == 110592

    spec = harness.desk_net()  # default 16-32-32-64 on 28x28
    budgets = pruner.resolve_budgets(spec, pruner.PruneConfig(flops_target=2.0))
    pruned = pruner.apply_budgets_to_spec(spec, budgets)
    cr = harness.flops_count(spec).total / harness.flops_count(pruned).total
    check("criterion 8 FLOPs accountant",
          exact and 1.8 <= cr <= 2.2,
          f"hand ledger exact; 2x target resolved to CR {cr:.3f}")


def test_criterion_09_experiment_determinism(tmp_path):
    train_ds = model_io.synth_dataset(31, 160, 4, dims=(1, 12, 12), split="train")
    test_ds = model_io.synth_dataset(32, 80, 4, dims=(1, 12, 12), split="test")
    spec = harness.desk_net(input_dims=(1, 12, 12), num_classes=4,
                            widths=(4, 6, 6, 8))
    plan = harness.ExperimentPlan.grid(["cpli", "magnitude"], [0, 1],
                                       locations=(4,))

    def run(out):
        harness.run_experiment(
            plan, spec, train_ds, test_ds,
            harness.TrainConfig(epochs=2, batch_size=32, lr=0.05),
            harness.TrainConfig(epochs=1, batch_size=32, lr=0.01),
            pruner.PruneConfig(flops_target=2.0, probe_images=8,
                               num_locations=4),
            out_dir=out)

    run(tmp_path / "a")
    run(tmp_path / "b")
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    identical = all((tmp_path / "a" / n).read_bytes()
                    == (tmp_path / "b" / n).read_bytes() for n in names)
    check("criterion 9 experiment determinism",
          identical and len(names) >= 5,
          f"{len(names)} artifact files byte-identical across reruns")


def test_criterion_10_format_round_trips(desk, tmp_path):
    ok = True
    notes = []

    path = tmp_path / "m.ckpt"
    model_io.save_checkpoint(path, desk.baseline)
    back = model_io.load_checkpoint(path)
    ok &= all(p is None and q is None
              or p.weights.tobytes() == q.weights.tobytes()
              and p.bias.tobytes() == q.bias.tobytes()
              for p, q in zip(desk.baseline.params, back.params))
    ok &= back.metadata == desk.baseline.metadata
    notes.append("checkpoint bit-exact")

    blob = bytearray(path.read_bytes())
    blob[-2] ^= 0x01
    (tmp_path / "bad.ckpt").write_bytes(bytes(blob))
    try:
        model_io.load_checkpoint(tmp_path / "bad.ckpt")
        ok = False
    except model_io.ChecksumError:
        notes.append("corruption detected")

    pixels = np.array([[[0, 255], [128, 64]]], dtype=np.uint8)
    (tmp_path / "img").write_bytes(idx_images_bytes(pixels))
    (tmp_path / "lab").write_bytes(idx_labels_bytes([3]))
    ds = model_io.load_idx(tmp_path / "img", tmp_path / "lab")
    ok &= ds.images[0, 0].tolist() == [[0.0, 1.0], [128 / 255, 64 / 255]]
    ok &= ds.labels[0] == 3
    notes.append("idx fixture exact")

    record = bytes([2]) + bytes(range(256)) * 12
    (tmp_path / "cifar.bin").write_bytes(record)
    cds = model_io.load_cifar_binary(tmp_path / "cifar.bin")
    ok &= cds.labels[0] == 2 and cds.images.shape == (1, 3, 32, 32)
    try:
        model_io.load_cifar_binary(tmp_path / "img")  # wrong record size
        ok = False
    except model_io.FormatError:
        notes.append("cifar length error detected")

    check("criterion 10 format round-trips", ok, "; ".join(notes))
