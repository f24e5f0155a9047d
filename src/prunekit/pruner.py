"""Layer-by-layer channel pruning pipeline.

For each prunable conv layer (every conv except the first), sampled feature
probes of the partially-compressed model are turned, chunk by chunk, into
the rows of a weighted least-squares system over input channels, which is
kept only as its small triangular factor; the uncompressed responses the
rows reconstruct come from the first stage's forwards.  An l1
relaxation with a lambda search picks the kept set, and the surviving
weights are refit by ordinary least squares before the dropped producers
are physically removed from the previous conv.

A variant switch covers the full objective (gradient-weighted rows with
activation gating), its two ablations, the plain reconstruction baseline,
and a weight-magnitude baseline.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from . import model_io, nn, solvers

VARIANT_CPLI = "cpli"
VARIANT_NO_FL = "cpli_no_fl"
VARIANT_NO_FI = "cpli_no_fi"
VARIANT_CP_BASELINE = "cp_baseline"
VARIANT_MAGNITUDE = "magnitude"
VARIANTS = (VARIANT_CPLI, VARIANT_NO_FL, VARIANT_NO_FI, VARIANT_CP_BASELINE,
            VARIANT_MAGNITUDE)
# The variants whose selection rows are weighted by the loss gradient; only
# their probes run a backward.
GRADIENT_VARIANTS = (VARIANT_CPLI, VARIANT_NO_FI)

_PROBE_CHUNK = 16


@dataclass
class PruneConfig:
    """Settings for one pruning run.

    Budgets are keyed by conv ordinal (1-based over conv layers; the first
    conv is never prunable, so valid keys start at 2).  Alternatively
    `flops_target` resolves budgets as a uniform keep fraction across all
    prunable convs, rounded up per layer; setting both is an error, as are
    a target that is not finite or below 1, a negative seed and a count,
    budget key, budget or seed that is not an integer.
    """

    budgets: dict[int, int] | None = None
    flops_target: float | None = None
    num_locations: int = 10
    probe_images: int = 256
    variant: str = VARIANT_CPLI
    seed: int = 0

    def __post_init__(self):
        for name in ("num_locations", "probe_images", "seed"):
            model_io.require_int(getattr(self, name), name)
        for ordinal, b in (self.budgets or {}).items():
            model_io.require_int(ordinal, "budget key")
            model_io.require_int(b, f"budget for conv {ordinal}")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; choose from {VARIANTS}")
        if self.num_locations < 1 or self.probe_images < 1:
            raise ValueError("num_locations and probe_images must be positive")
        if self.budgets is not None and self.flops_target is not None:
            raise ValueError("set budgets or flops_target, not both")
        if self.flops_target is not None and not 1.0 <= self.flops_target < np.inf:
            raise ValueError(f"flops_target must be finite and >= 1, "
                             f"got {self.flops_target}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def validate_for(self, spec: nn.NetworkSpec) -> None:
        convs = spec.conv_indices()
        if self.budgets is None:
            return
        for ordinal, b in self.budgets.items():
            if not 2 <= ordinal <= len(convs):
                raise ValueError(f"budget for conv {ordinal}: only convs 2..{len(convs)} "
                                 "are prunable (the first conv is never pruned)")
            c_in = spec.layers[convs[ordinal - 1]].in_channels
            if not 1 <= b <= c_in:
                raise ValueError(f"budget for conv {ordinal} must be in [1, {c_in}], "
                                 f"got {b}")


@dataclass
class ProbeSample:
    """Where one stage probes: sorted image ids, and for each image the
    output rows and columns of its sampled locations, each (n, n_loc).
    `exhaustive` is set when the map has fewer positions than asked for."""

    image_ids: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    exhaustive: bool

    def __len__(self) -> int:
        return len(self.image_ids)

    def chunk(self, start: int, stop: int) -> "ProbeSample":
        """The images start..stop-1 and their locations."""
        return ProbeSample(self.image_ids[start:stop], self.rows[start:stop],
                           self.cols[start:stop], self.exhaustive)


def sample_probes(spec: nn.NetworkSpec, layer_index: int,
                  dataset: model_io.DatasetHandle, config: PruneConfig) -> ProbeSample:
    """Draw `probe_images` images and `num_locations` spatial positions per
    image of conv `layer_index`'s output map, without replacement (all
    positions when the map is smaller, with `exhaustive` set).

    The images are drawn from the seed alone, so every layer of a prune
    probes the same images; the locations are drawn per layer, from
    [seed, layer_index]."""
    layer = spec.layers[layer_index]
    if layer.kind != nn.CONV2D:
        raise ValueError(f"layer {layer_index} is {layer.kind}, not conv2d")
    _, ho, wo = spec.activation_dims()[layer_index]
    n_avail = len(dataset)
    if n_avail == 0:
        raise ValueError("no probe images: the dataset is empty")
    n_images = min(config.probe_images, n_avail)
    image_ids = np.sort(np.random.default_rng([config.seed]).choice(
        n_avail, size=n_images, replace=False))
    rng = np.random.default_rng([config.seed, layer_index])
    n_loc = min(config.num_locations, ho * wo)
    flat_locs = np.array([rng.choice(ho * wo, size=n_loc, replace=False)
                          for _ in range(n_images)])
    return ProbeSample(image_ids, flat_locs // wo, flat_locs % wo,
                       exhaustive=ho * wo < config.num_locations)


@dataclass
class RefitTargets:
    """What the refit reads from a probe set, one row per (image, location):
    the uncompressed model's bias-free responses y0 [probe, out_channel]
    and the compressed model's input patches [probe, in_channel, kh, kw]."""

    y0: np.ndarray
    patches: np.ndarray


@dataclass
class FeatureProbe(RefitTargets):
    """Per-location records of a probe sample at one layer.

    All output-channel quantities are bias-free conv responses (the linear
    output, before the nonlinearity and with the layer bias subtracted), so
    ystar decomposes exactly into the per-input-channel contributions z,
    and so does y0 while the probed model is the uncompressed one.  Arrays
    are indexed [probe, out_channel] and z is [probe, out_channel,
    in_channel]; `patches` holds the probed model's input receptive fields
    for the refit step.  `grad` is None until `probe_gradient` has filled
    it.  `trace` is the forward the probe was read from.  The rows' images
    and locations are those of the `ProbeSample` the probe was taken on.
    """

    ystar: np.ndarray
    grad: np.ndarray | None
    z: np.ndarray
    trace: nn.ForwardTrace | None = None


def _at(output: np.ndarray, sample: ProbeSample) -> np.ndarray:
    """A layer's [image, channel, row, column] output at the sample's
    locations, one row per (image, location) in sample order; the output's
    batch is the sample's images."""
    # Fancy indexing puts the (image, location) axes first: (n, n_loc, ...).
    return output[np.arange(len(sample))[:, None], :, sample.rows,
                  sample.cols].reshape(-1, output.shape[1])


def extract_probes(model: model_io.Checkpoint, dataset: model_io.DatasetHandle,
                   layer_index: int, sample: ProbeSample, gradient: bool = True,
                   y0: np.ndarray | None = None,
                   table: dict[int, tuple[ProbeSample, np.ndarray]] | None = None,
                   start: tuple[int, np.ndarray] | None = None) -> FeatureProbe:
    """Probe records of the sampled images from one forward of `model`, rows
    in (image, location) order.

    ystar, the input patches (rows of the probed conv's im2col matrix) and
    the contributions z (against the probed layer's own weights) all come
    from `model`.  y0 is `y0` when given, else ystar.  `table` maps layers
    to a sample of these images and the array their bias-free response
    rows go to; the forward runs deep enough to write them all.  `start`
    is a layer below the probed one and the images' input to it, from
    which the forward resumes (`nn.forward_collect`); by default it runs
    from the images.  With `gradient` the forward runs through the head, so
    that `probe_gradient` can take the loss gradient from the probe's
    `trace`; without it the forward stops as early as it can.  `grad` is
    left None either way.
    """
    layer = model.spec.layers[layer_index]
    if layer.kind != nn.CONV2D:
        raise ValueError(f"layer {layer_index} is {layer.kind}, not conv2d")
    (kh, kw), c_in = layer.kernel, layer.in_channels
    c_out, ho, wo = model.spec.activation_dims()[layer_index]
    ids, rows, cols = sample.image_ids, sample.rows, sample.cols
    n, n_loc = rows.shape
    upto = None if gradient else max([layer_index, *(table or ())])
    first, x = (0, dataset.images[ids]) if start is None else start
    trace = nn.forward_collect(model.spec, model.params, x, upto=upto, start=first)
    for li, (s, out) in (table or {}).items():
        out[...] = _at(trace.outputs[li], s) - model.params[li].bias
    ystar = _at(trace.outputs[layer_index], sample) - model.params[layer_index].bias
    # im2col rows run over (image, output row, output column).
    patches = trace.cols[layer_index][(np.arange(n)[:, None] * ho + rows) * wo
                                      + cols].reshape(-1, c_in, kh, kw)
    # z[p, i, j] = <patches[p, j], w[i, j]>: one GEMM per (input channel,
    # image), (n_loc, kh*kw) @ (kh*kw, c_out), broadcast over both axes.
    # Input channels are the outer axis in memory, so z is a view whose
    # rows of A, built from it, come out column-major as the fold wants.
    w = model.params[layer_index].weights.reshape(c_out, c_in, kh * kw)
    z = np.matmul(patches.reshape(n, n_loc, c_in, kh * kw).transpose(2, 0, 1, 3),
                  w.transpose(1, 2, 0)[:, None])
    z = z.reshape(c_in, n * n_loc, c_out).transpose(1, 2, 0)
    return FeatureProbe(y0=ystar if y0 is None else y0, patches=patches, ystar=ystar,
                        grad=None, z=z, trace=trace)


def probe_gradient(model: model_io.Checkpoint, dataset: model_io.DatasetHandle,
                   layer_index: int, sample: ProbeSample,
                   trace: nn.ForwardTrace) -> np.ndarray:
    """Each probe row's loss gradient at conv `layer_index`'s output,
    [probe, out_channel] in sample order, from the forward `trace` of a
    probe taken with `gradient`.

    One activation-only backward stops at the probed layer's output: mean
    cross-entropy is a sum of per-image terms and no layer couples images,
    so the batch gradient times the batch size is each image's own
    batch-size-1 gradient.
    """
    grads = nn.backward_collect(model.spec, model.params, trace,
                                dataset.labels[sample.image_ids],
                                stop=layer_index + 1, wrt_weights=False)
    return _at(grads.activations[layer_index], sample) * len(sample)


def build_weighted_system(probe: FeatureProbe, variant: str) -> solvers.WeightedSystem:
    """The selection system's rows for a probe: one per (probe, output channel).

    Row weights (g, s) by variant -- cpli: (grad, ystar); cpli_no_fl:
    (1, ystar); cpli_no_fi: (grad, 1); cp_baseline: (1, 1).  Each row is
    b = g*y0, A[j] = g*s*z_j: the gate s weights A's rows but not b's.  A
    constant factor on s would scale every column of A alike, which moves
    the lambda grid with it and leaves the selection unchanged.  Only the
    `GRADIENT_VARIANTS` read `probe.grad`.  A pruning stage builds this per
    probe chunk and folds it into a `solvers.SystemStream`.
    """
    if variant not in VARIANTS or variant == VARIANT_MAGNITUDE:
        raise ValueError(f"variant {variant!r} does not use a weighted system")
    if variant in GRADIENT_VARIANTS and probe.grad is None:
        raise ValueError(f"variant {variant!r} needs a probe with the loss gradient")
    g = probe.grad if variant in GRADIENT_VARIANTS else 1.0
    s = probe.ystar if variant in (VARIANT_CPLI, VARIANT_NO_FL) else 1.0
    total, c_out = probe.y0.shape
    b = (g * probe.y0).reshape(total * c_out)
    a = (np.expand_dims(g * s, -1) * probe.z).reshape(total * c_out, -1)
    return solvers.WeightedSystem(a, b)


def select_channels(system: solvers.WeightedSystem,
                    budget: int) -> solvers.SelectionResult:
    """Budgeted channel selection; delegates to the lambda search."""
    return solvers.lambda_search(system, budget)


def magnitude_select(weights: np.ndarray, budget: int) -> tuple[int, ...]:
    """Keep the `budget` input channels with the largest summed l1 filter norm.

    Ties go to the lower channel index.
    """
    c_in = weights.shape[1]
    if not 1 <= budget <= c_in:
        raise ValueError(f"budget must be in [1, {c_in}], got {budget}")
    norms = np.abs(weights).sum(axis=(0, 2, 3))
    order = np.argsort(-norms, kind="stable")
    return tuple(sorted(int(j) for j in order[:budget]))


@dataclass
class RefitOutcome:
    weights: np.ndarray
    bias: np.ndarray
    residual_before: float
    residual_after: float
    damping: float
    normal_residual: float
    weight_norm: float
    rhs_scale: float


def refit_layer(probe: RefitTargets, support, old: nn.LayerParams) -> RefitOutcome:
    """Least-squares refit of the kept-channel filters against y0.

    `old` is the layer's parameters before the refit.  Targets are the
    unweighted uncompressed responses; the bias is refit as the old bias
    plus the mean residual per output channel.  Also reports the probe-set
    squared error before (old weights on the kept channels, dropped
    channels zeroed) and after the refit, plus the normal-equation residual
    ||P^T (t - P w)|| with its natural scale ||P^T t|| so optimality is
    checkable per layer.
    """
    support = np.asarray(sorted(support), dtype=np.int64)
    if len(support) == 0:
        raise ValueError("support must keep at least one channel")
    total = probe.patches.shape[0]
    kh, kw = probe.patches.shape[2], probe.patches.shape[3]
    pmat = probe.patches[:, support].reshape(total, len(support) * kh * kw)
    refit = solvers.least_squares_refit(pmat, probe.y0, (kh, kw))

    wmat = refit.weights.reshape(refit.weights.shape[0], -1).T
    pred = pmat @ wmat
    shift = (probe.y0 - pred).mean(axis=0)
    new_bias = old.bias + shift

    kept = pmat @ old.weights[:, support].reshape(len(old.bias), -1).T
    residual_before = float(((probe.y0 - kept) ** 2).sum())
    residual_after = float(((probe.y0 - pred - shift) ** 2).sum())
    return RefitOutcome(weights=refit.weights, bias=new_bias,
                        residual_before=residual_before,
                        residual_after=residual_after, damping=refit.damping,
                        normal_residual=float(np.linalg.norm(
                            pmat.T @ (probe.y0 - pred))),
                        weight_norm=float(np.linalg.norm(wmat)),
                        rhs_scale=float(np.linalg.norm(pmat.T @ probe.y0)))


# ---------------------------------------------------------------------------
# Whole-model pipeline
# ---------------------------------------------------------------------------

@dataclass
class PruneTrace:
    """One line of the pruning log: what was kept at one conv layer and why.

    `converged` is False when the LASSO search at `lambda_final` gave up;
    magnitude selection has no solve and reports True.  The
    fields, in order, are the trace file's columns (see `model_io.write_tsv`);
    `kept` is derived from `support`.
    """

    layer_index: int = field(metadata={"name": "layer"})
    conv_ordinal: int = field(metadata={"name": "conv"})
    variant: str
    budget: int
    lambda_final: float | None = field(metadata={"name": "lambda"})
    kept: int = field(init=False)
    support: tuple[int, ...]
    residual_before: float
    residual_after: float
    damping: float
    exhaustive_locations: bool = field(default=False, metadata={"name": "exhaustive"})
    budget_warning: bool = field(default=False, metadata={"name": "warning"})
    normal_residual: float = 0.0
    weight_norm: float = 0.0
    rhs_scale: float = 0.0
    converged: bool = field(default=True, metadata={"optional": True})

    def __post_init__(self):
        self.kept = len(self.support)


def _rewrite(ckpt: model_io.Checkpoint, ordinal: int, support: np.ndarray,
             new_weights: np.ndarray, new_bias: np.ndarray) -> model_io.Checkpoint:
    """Drop unselected channels at conv `ordinal`: producers at the conv
    before it, consumers at the conv itself."""
    convs = ckpt.spec.conv_indices()
    layer_index, prev_index = convs[ordinal - 1], convs[ordinal - 2]
    spec = apply_budgets_to_spec(ckpt.spec, {ordinal: len(support)})
    params = [p.copy() if p is not None else None for p in ckpt.params]
    prev = ckpt.params[prev_index]
    params[prev_index] = nn.LayerParams(prev.weights[support].copy(),
                                        prev.bias[support].copy())
    params[layer_index] = nn.LayerParams(np.ascontiguousarray(new_weights),
                                         np.ascontiguousarray(new_bias))
    return model_io.Checkpoint(spec, params, dict(ckpt.metadata))


def _check_conv_chain(spec: nn.NetworkSpec) -> None:
    convs = spec.conv_indices()
    for a, b in zip(convs, convs[1:]):
        between = {spec.layers[i].kind for i in range(a + 1, b)}
        if not between <= {nn.RELU, nn.MAXPOOL2D}:
            raise ValueError("only relu/maxpool may sit between prunable convs")


def resolve_budgets(spec: nn.NetworkSpec, config: PruneConfig) -> dict[int, int]:
    """Per-conv keep counts, either as given or resolved from a FLOPs target.

    A FLOPs target picks the uniform keep fraction (rounded up per layer)
    whose resulting compression ratio is closest to the target; ties prefer
    keeping more channels.
    """
    convs = spec.conv_indices()
    if config.budgets is not None:
        config.validate_for(spec)
        return dict(config.budgets)
    if config.flops_target is None:
        return {}

    widths = {o: spec.layers[convs[o - 1]].in_channels
              for o in range(2, len(convs) + 1)}
    if not widths:
        return {}
    base_total = nn.flops_count(spec).total

    def budgets_for(fraction: float) -> dict[int, int]:
        return {o: min(c, max(1, int(np.ceil(fraction * c - 1e-9))))
                for o, c in widths.items()}

    fractions = sorted({b / c for c in widths.values() for b in range(1, c + 1)})
    best, best_gap = None, np.inf
    for f in fractions:
        budgets = budgets_for(f)
        pruned = apply_budgets_to_spec(spec, budgets)
        cr = base_total / nn.flops_count(pruned).total
        gap = abs(cr - config.flops_target)
        if gap < best_gap - 1e-15 or best is None:
            best, best_gap = budgets, gap
    return best


def apply_budgets_to_spec(spec: nn.NetworkSpec, budgets: dict[int, int]) -> nn.NetworkSpec:
    """The spec shape a pruning run with these budgets will produce."""
    convs = spec.conv_indices()
    layers = list(spec.layers)
    for ordinal, b in sorted(budgets.items()):
        li, prev = convs[ordinal - 1], convs[ordinal - 2]
        layers[prev] = replace(layers[prev], out_channels=b)
        layers[li] = replace(layers[li], in_channels=b)
    return nn.NetworkSpec(tuple(layers), spec.input_dims, spec.num_classes)


def prune_model(uncompressed: model_io.Checkpoint, dataset: model_io.DatasetHandle,
                config: PruneConfig):
    """Run the full layer-by-layer pipeline; returns (compressed, traces).

    Convs are visited shallow to deep, skipping the first; after each stage
    the model is the pruned prefix, the freshly refit layer, and the
    untouched suffix.  Every stage probes the same images in the same
    chunks (see `sample_probes`), and the first stage probes `uncompressed`
    itself, so its chunk forwards write every stage's uncompressed
    responses y0, allocated up front; no stage runs a second model.  Each
    later stage's forwards start at the previous stage's conv, from the
    inputs that stage kept, since no layer below it changed.  Each stage
    rewrites into fresh parameters, so `uncompressed` is never modified;
    with no conv to prune it is returned as it is.  Each stage runs in its
    own function scope, so its probes, selection system and refit are freed
    before the next stage extracts probes.  Any stage failure, also one
    raised on a stage's worker thread, raises here with the traces so far
    attached to the exception.
    """
    _check_conv_chain(uncompressed.spec)
    budgets = resolve_budgets(uncompressed.spec, config)
    convs = uncompressed.spec.conv_indices()
    ordinals = sorted(budgets)
    samples = {convs[o - 1]: sample_probes(uncompressed.spec, convs[o - 1], dataset,
                                           config) for o in ordinals}
    stages = {li: (s, np.empty((s.rows.size, len(uncompressed.params[li].bias))))
              for li, s in samples.items()}
    model = uncompressed
    traces: list[PruneTrace] = []
    start = None
    for k, ordinal in enumerate(ordinals):
        li = convs[ordinal - 1]
        try:
            model, trace, start = _prune_stage(
                model, dataset, config, ordinal, budgets[ordinal], *stages[li],
                fill=None if k else stages, start=start, keep=k + 1 < len(ordinals))
        except Exception as exc:
            exc.prune_traces = traces
            raise
        del stages[li]
        traces.append(trace)
    return model, traces


# A stage whose chunk forwards cost at least this many FLOPs each
# (`nn.flops_count` from the forward's first layer to the head, times the
# chunk's images) folds each chunk on a worker thread while the next chunk's
# forward runs.  Timed per stage on a 2-vCPU x86 VM with one BLAS thread,
# 2x cpli prunes of `harness.desk_net` at widths 6-8-8-10, 8-16-16-32 and
# 16-32-32-64 on 4x4 to 40x40 inputs: below 2.5 MFLOP per chunk the worker
# made 15 of 16 stages slower (up to 1.5x, as the hand-off and the GIL cost
# more than the overlap saves), from 2.5 to 10 MFLOP it went either way
# (0.67-1.57x), and above 10 MFLOP it made all 12 stages faster
# (0.47-0.91x).  The desk grid's chunks are 0.3-1.2 MFLOP, a 2x prune of
# the 28x28 net's 39-77.
_WORKER_MIN_FLOPS = 10_000_000


def _use_worker(chunk_flops: int) -> bool:
    """Whether a stage whose chunk forwards cost `chunk_flops` folds its
    chunks on a worker thread: only with 2 or more CPUs to run on (every
    CPU counts where the OS has no `sched_getaffinity`, as on macOS)."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return chunk_flops >= _WORKER_MIN_FLOPS and cpus >= 2


@contextmanager
def _folds(worker: bool):
    """A `submit(fn, *args)` for a stage's per-chunk folds, which run in
    submission order: inline, or with `worker` on one thread beside the
    caller's.  There `submit` first waits for the previous fold and raises
    what it raised, so at most one chunk waits beside the one being probed;
    leaving the block waits for the last fold."""
    if not worker:
        yield lambda fn, *args: fn(*args)
        return
    pending = None
    with ThreadPoolExecutor(max_workers=1) as pool:
        def submit(fn, *args):
            nonlocal pending
            if pending is not None:
                pending.result()
            # The pool holds a job's arguments until a moment after its
            # future is done; taken from the box, they go when `fn` returns.
            box = [args]
            pending = pool.submit(lambda: fn(*box.pop()))

        yield submit
        if pending is not None:
            pending.result()


def _prune_stage(model: model_io.Checkpoint, dataset: model_io.DatasetHandle,
                 config: PruneConfig, ordinal: int, budget: int, sample: ProbeSample,
                 y0: np.ndarray, fill: dict[int, tuple[ProbeSample, np.ndarray]] | None,
                 start: tuple[int, list[np.ndarray]] | None, keep: bool
                 ) -> tuple[model_io.Checkpoint, PruneTrace,
                            tuple[int, list[np.ndarray]] | None]:
    """Probe, select, refit and rewrite one conv of `model`; returns the new
    model, the stage's trace and, with `keep`, where the next stage's
    forwards start.

    The sample's images are probed in chunks of `_PROBE_CHUNK`, with the
    loss gradient only for the `GRADIENT_VARIANTS`.  `y0` is the stage's
    refit targets' y0, [image and location, out_channel] in sample order.
    At the first stage of a prune `model` is the uncompressed one, and
    `fill` maps every stage's layer to its sample and y0, so each chunk's
    forward writes their rows; a later stage's `y0` is already written.
    `start` is the previous stage's conv and, per chunk, its input in
    `model`: that stage kept its conv's input and sliced it to the channels
    it kept, and nothing below that conv changed since, so each chunk's
    forward starts there; without it a forward runs from the images.  With
    `keep` this stage keeps its own conv's input per chunk the same way.

    Each chunk's forward and the reads that need only it (table rows,
    ystar, patches, z) run on the calling thread; its fold (the gradient's
    backward and gather, `build_weighted_system` and `SystemStream.add`)
    runs after it, in chunk order: inline, or on one worker thread while
    the next chunk's forward runs, when `_use_worker` says the forwards are
    large enough and there is a second CPU.  Either way the stream sees the
    same rows in the same order, so R has the same bits.  Each chunk's
    patches are kept for the refit; everything else the chunk made (forward
    trace, gradients, z, its rows of A) is freed once it is folded, so at
    most one chunk besides the one being probed is alive and the stage
    never holds the whole sample's z, ystar, gradients or design matrix.
    Earlier stages rewrote only convs before this one, so its weights are
    still the uncompressed ones.
    """
    li = model.spec.conv_indices()[ordinal - 1]
    layer = model.spec.layers[li]
    n_loc = sample.rows.shape[1]
    gradient = config.variant in GRADIENT_VARIANTS
    targets = RefitTargets(y0=y0, patches=np.empty((len(y0), layer.in_channels,
                                                    *layer.kernel)))
    stream = None if config.variant == VARIANT_MAGNITUDE else solvers.SystemStream()
    first, inputs = start or (0, None)
    kept: list[np.ndarray] = []

    def fold(probe: FeatureProbe, chunk: ProbeSample) -> None:
        if gradient:
            probe.grad = probe_gradient(model, dataset, li, chunk, probe.trace)
            probe.trace = None
        stream.add(build_weighted_system(probe, config.variant))

    chunk_flops = sum(nn.flops_count(model.spec).per_layer[first:]) * _PROBE_CHUNK
    with _folds(stream is not None and _use_worker(chunk_flops)) as submit:
        for begin in range(0, len(sample), _PROBE_CHUNK):
            end = begin + _PROBE_CHUNK
            at = slice(begin * n_loc, end * n_loc)
            chunk = sample.chunk(begin, end)
            table = None if fill is None else {
                lj: (s.chunk(begin, end), rows[begin * s.rows.shape[1]:
                                                end * s.rows.shape[1]])
                for lj, (s, rows) in fill.items()}
            resume = None if inputs is None else (first, inputs.pop(0))
            probe = extract_probes(model, dataset, li, chunk, gradient=gradient,
                                   y0=y0[at] if fill is None else None, table=table,
                                   start=resume)
            targets.patches[at] = probe.patches
            if keep:
                kept.append(probe.trace.outputs[li - 1])
            if not gradient:
                probe.trace = None
            if stream is not None:
                submit(fold, probe, chunk)
            del probe
    cur = model.params[li]
    if stream is None:
        support = magnitude_select(cur.weights, budget)
        lam, warn, converged = None, False, True
    else:
        system = stream.system()
        if not system.col_sq_norms.any():
            raise ValueError(f"conv {ordinal} (layer {li}): every weighted "
                             "column is zero, so there is no channel to select")
        sel = select_channels(system, budget)
        support, lam, warn = sel.support, sel.lambda_final, sel.budget_warning
        converged = sel.converged
    sup = np.asarray(support, dtype=np.int64)
    # The next stage's forwards see this conv's input cut to the kept channels.
    for c, x in enumerate(kept):
        kept[c] = x[:, sup]
    refit = refit_layer(targets, support, cur)
    return _rewrite(model, ordinal, sup, refit.weights, refit.bias), PruneTrace(
        layer_index=li, conv_ordinal=ordinal, variant=config.variant,
        budget=budget, lambda_final=lam, support=tuple(support),
        residual_before=refit.residual_before,
        residual_after=refit.residual_after, damping=refit.damping,
        exhaustive_locations=sample.exhaustive, budget_warning=warn,
        normal_residual=refit.normal_residual,
        weight_norm=refit.weight_norm, rhs_scale=refit.rhs_scale,
        converged=converged), (li, kept) if keep else None


# ---------------------------------------------------------------------------
# Trace files: line-delimited tabular text
# ---------------------------------------------------------------------------

def write_traces(path, traces: list[PruneTrace]) -> None:
    model_io.write_tsv(path, PruneTrace, traces)


def read_traces(path) -> list[PruneTrace]:
    """Read a trace file; files written before the `converged` column existed
    still load, with every row read as converged."""
    return model_io.read_tsv(path, PruneTrace, "trace")
