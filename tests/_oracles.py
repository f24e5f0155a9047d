"""Independent reference implementations used to check the fast paths.

Everything here is deliberately written the slow, obviously-correct way
(nested loops, exhaustive enumeration, finite differences) and shares no
code with the package internals it verifies.
"""

from dataclasses import replace
from itertools import combinations
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from prunekit import model_io, nn, pruner


def conv2d_loop(x, weights, bias, stride=1, padding=0):
    """Six-nested-loop cross-correlation over one (c, h, w) image."""
    c_in, h, w = x.shape
    c_out, _, kh, kw = weights.shape
    xp = np.zeros((c_in, h + 2 * padding, w + 2 * padding))
    xp[:, padding:padding + h, padding:padding + w] = x
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((c_out, ho, wo))
    for i in range(c_out):
        for p in range(ho):
            for q in range(wo):
                acc = bias[i]
                for j in range(c_in):
                    for u in range(kh):
                        for v in range(kw):
                            acc += xp[j, p * stride + u, q * stride + v] * weights[i, j, u, v]
                out[i, p, q] = acc
    return out


def conv_backward_reference(x, weights, stride, padding, d_out):
    """(dx, dw, db) of a batched conv: `np.pad`, a fresh window view, a
    `tensordot` for dw and an NCHW scatter for dx, in the library's (u, v)
    order, so every byte should match it."""
    c_out, c_in, kh, kw = weights.shape
    n, _, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    ho, wo = d_out.shape[2], d_out.shape[3]
    dw = np.tensordot(d_out, win, axes=((0, 2, 3), (0, 2, 3)))
    db = d_out.sum(axis=(0, 2, 3))
    dmat = d_out.transpose(0, 2, 3, 1).reshape(n * ho * wo, c_out)
    dcols = (dmat @ weights.reshape(c_out, -1)).reshape(n, ho, wo, c_in, kh, kw)
    dxp = np.zeros_like(xp)
    for u in range(kh):
        for v in range(kw):
            dxp[:, :, u:u + stride * ho:stride, v:v + stride * wo:stride] += \
                dcols[:, :, :, :, u, v].transpose(0, 3, 1, 2)
    return dxp[:, :, padding:padding + h, padding:padding + w], dw, db


def loss_of(spec, params, x, labels):
    trace = nn.forward_collect(spec, params, x)
    return nn.cross_entropy(trace.logits, labels)


def fd_max_rel_error(spec, params, x, labels, h=1e-5, floor=1e-6):
    """Max relative error between backprop and central differences.

    Checks every weight/bias entry of every parameterised layer plus every
    entry of the input gradient.  Entries where both sides are below `floor`
    compare at the floor.
    """
    trace = nn.forward_collect(spec, params, x)
    grads = nn.backward_collect(spec, params, trace, labels)
    worst = 0.0

    def rel(analytic, numeric):
        return abs(analytic - numeric) / max(abs(analytic), abs(numeric), floor)

    for i, p in enumerate(params):
        if p is None:
            continue
        for arr, g in ((p.weights, grads.weights[i].weights),
                       (p.bias, grads.weights[i].bias)):
            flat = arr.reshape(-1)
            gflat = g.reshape(-1)
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + h
                up = loss_of(spec, params, x, labels)
                flat[k] = orig - h
                down = loss_of(spec, params, x, labels)
                flat[k] = orig
                worst = max(worst, rel(gflat[k], (up - down) / (2 * h)))

    xw = x.copy()
    flat = xw.reshape(-1)
    gflat = grads.wrt_input.reshape(-1)
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + h
        up = loss_of(spec, params, xw, labels)
        flat[k] = orig - h
        down = loss_of(spec, params, xw, labels)
        flat[k] = orig
        worst = max(worst, rel(gflat[k], (up - down) / (2 * h)))
    return worst


def random_small_net(rng):
    """A random tiny conv net (1-2 convs, optional pool) plus its params and input."""
    classes = int(rng.integers(2, 4))
    c0 = int(rng.integers(1, 3))
    size = int(rng.integers(6, 9))
    layers = [nn.conv2d(c0, int(rng.integers(2, 4)), kernel=3, padding=1), nn.relu()]
    dims = (layers[0].out_channels, size, size)
    if rng.random() < 0.5:
        layers.append(nn.maxpool2d(2))
        dims = (dims[0], size // 2, size // 2)
    if rng.random() < 0.7:
        layers += [nn.conv2d(dims[0], int(rng.integers(2, 4)), kernel=3, padding=1),
                   nn.relu()]
        dims = (layers[-2].out_channels, dims[1], dims[2])
    feat = dims[0] * dims[1] * dims[2]
    layers += [nn.flatten(), nn.linear(feat, classes), nn.softmax_ce_head()]
    spec = nn.NetworkSpec(tuple(layers), (c0, size, size), classes)
    params = nn.init_params(spec, rng)
    n = int(rng.integers(1, 3))
    x = rng.normal(0.0, 1.0, size=(n, c0, size, size))
    labels = rng.integers(0, classes, size=n)
    return spec, params, x, labels


def lasso_objective(a, b, beta, lam):
    r = b - a @ beta
    return float(r @ r + lam * np.abs(beta).sum())


def kkt_violation(a, b, beta, lam):
    """Worst slack-normalised KKT violation for min ||b - A beta||^2 + lam*|beta|_1."""
    grad = 2.0 * a.T @ (a @ beta - b)
    scale = np.sqrt((a * a).sum(axis=0)).max() * np.linalg.norm(b)
    worst = 0.0
    for j in range(len(beta)):
        if beta[j] != 0.0:
            viol = abs(grad[j] + lam * np.sign(beta[j]))
        else:
            viol = max(0.0, abs(grad[j]) - lam)
        worst = max(worst, viol)
    return worst, scale


def subset_residual(a, b, support):
    """Unpenalised least-squares residual norm restricted to `support` columns."""
    support = list(support)
    if not support:
        return float(np.linalg.norm(b))
    w, *_ = np.linalg.lstsq(a[:, support], b, rcond=None)
    return float(np.linalg.norm(b - a[:, support] @ w))


def greedy_backfill(a, b, support, target):
    """Grow `support` to `target` columns, each time adding the nonzero column
    most correlated with the restricted least-squares residual (lstsq over
    the columns of A itself; ties to the lowest index)."""
    support = sorted(support)
    live = [j for j in range(a.shape[1]) if (a[:, j] ** 2).sum() > 0.0]
    while len(support) < target:
        excluded = [j for j in live if j not in support]
        r = b.copy()
        if support:
            w, *_ = np.linalg.lstsq(a[:, support], b, rcond=None)
            r = b - a[:, support] @ w
        scores = np.abs(a[:, excluded].T @ r)
        support = sorted(support + [excluded[int(np.argmax(scores))]])
    return tuple(support)


def best_subset(a, b, k):
    """Exhaustively best support of size k by unpenalised residual."""
    cols = a.shape[1]
    best_r, best_s = np.inf, None
    for s in combinations(range(cols), k):
        r = subset_residual(a, b, s)
        if r < best_r:
            best_r, best_s = r, s
    return best_r, best_s


def lasso_sweeps(a, b, lam, beta_init=None, max_sweeps=10000, tol=1e-9):
    """Plain cyclic coordinate descent on ||b - A beta||^2 + lam*|beta|_1.

    Sweeps only: stops when a sweep's largest coordinate change is below
    `tol`.  Returns (beta, converged).
    """
    cols = a.shape[1]
    beta = np.zeros(cols) if beta_init is None else np.array(beta_init, dtype=float)
    d = (a * a).sum(axis=0)
    beta[d == 0.0] = 0.0
    r = b - a @ beta
    for _ in range(max_sweeps):
        biggest = 0.0
        for j in range(cols):
            if d[j] == 0.0:
                continue
            rho = a[:, j] @ r + d[j] * beta[j]
            new = np.sign(rho) * max(abs(rho) - 0.5 * lam, 0.0) / d[j]
            if new != beta[j]:
                r -= a[:, j] * (new - beta[j])
                biggest = max(biggest, abs(new - beta[j]))
                beta[j] = new
        if biggest < tol:
            return beta, True
    return beta, False


def maxpool_loop(x, window, stride):
    """Window maxima by explicit loops over (n, c, output row, output column)."""
    n, c, h, w = x.shape
    wh, ww = window
    ho, wo = (h - wh) // stride + 1, (w - ww) // stride + 1
    out = np.empty((n, c, ho, wo))
    for i in range(n):
        for k in range(c):
            for p in range(ho):
                for q in range(wo):
                    best = x[i, k, p * stride, q * stride]
                    for u in range(wh):
                        for v in range(ww):
                            best = max(best, x[i, k, p * stride + u, q * stride + v])
                    out[i, k, p, q] = best
    return out


def maxpool_backward_reference(x, window, stride, d_out):
    """Max-pool gradient by a per-window argmax over a window view and an
    `np.add.at` scatter: ties go to the lowest flat index, and overlapping
    windows add in (n, c, output row, output column) order."""
    wh, ww = window
    win = sliding_window_view(x, (wh, ww), axis=(2, 3))[:, :, ::stride, ::stride]
    n, c, ho, wo = win.shape[:4]
    idx = win.reshape(n, c, ho, wo, wh * ww).argmax(axis=4)
    rows = (np.arange(ho) * stride)[None, None, :, None] + idx // ww
    cols = (np.arange(wo) * stride)[None, None, None, :] + idx % ww
    dx = np.zeros_like(x)
    ni = np.arange(n)[:, None, None, None]
    ci = np.arange(c)[None, :, None, None]
    np.add.at(dx, (ni, ci, rows, cols), d_out)
    return dx


def synth_dataset_loop(seed, count, classes, dims=(1, 16, 16), noise=0.25,
                       amplitude=0.9, jitter=1.5):
    """`model_io.synth_dataset` written one image at a time: (images, labels)."""
    c, h, w = dims
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.arange(count, dtype=np.int64) % classes)
    images = rng.normal(0.3, noise, size=(count, c, h, w))
    yy, xx = np.mgrid[0:h, 0:w]
    radius = min(h, w) / 3.3
    sigma = min(h, w) / 7.5
    angles = 2.0 * np.pi * np.arange(classes) / classes
    aspects = 0.5 + 1.2 * (np.arange(classes) % 3) / 2.0
    tilts = np.pi * np.arange(classes) / max(classes, 1)
    for i in range(count):
        k = labels[i]
        cy = h / 2.0 + radius * np.sin(angles[k]) + rng.uniform(-jitter, jitter)
        cx = w / 2.0 + radius * np.cos(angles[k]) + rng.uniform(-jitter, jitter)
        tilt = tilts[k] + rng.uniform(-0.25, 0.25)
        ct, st = np.cos(tilt), np.sin(tilt)
        u = (yy - cy) * ct + (xx - cx) * st
        v = -(yy - cy) * st + (xx - cx) * ct
        su, sv = sigma * aspects[k], sigma / aspects[k]
        images[i, k % c] += amplitude * np.exp(-0.5 * ((u / su) ** 2 + (v / sv) ** 2))
    np.clip(images, 0.0, 1.0, out=images)
    return images, labels


def sample_probes_loop(spec, layer_index, dataset, config):
    """`pruner.sample_probes` drawn one image at a time."""
    _, ho, wo = spec.activation_dims()[layer_index]
    n_images = min(config.probe_images, len(dataset))
    image_ids = np.sort(np.random.default_rng([config.seed]).choice(
        len(dataset), size=n_images, replace=False))
    rng = np.random.default_rng([config.seed, layer_index])
    n_loc = min(config.num_locations, ho * wo)
    rows, cols = [], []
    for _ in range(n_images):
        flat = rng.choice(ho * wo, size=n_loc, replace=False)
        rows.append([f // wo for f in flat])
        cols.append([f % wo for f in flat])
    return pruner.ProbeSample(image_ids, np.array(rows).reshape(n_images, n_loc),
                              np.array(cols).reshape(n_images, n_loc),
                              exhaustive=ho * wo < config.num_locations)


def extract_probes_loop(model, dataset, layer_index, sample, gradient=True, y0=None,
                        table=None):
    """`pruner.extract_probes` with one batch-size-1 backward per probe image.

    The forward runs over the sample's images as one batch, as the
    library's does; each image's gradient comes from its own full backward
    pass (none without `gradient`, and `grad` is None), each receptive
    field from an explicit slice, and each image's z from one matmul per
    input channel, (locations, kh*kw) @ (kh*kw, c_out).  `y0` and `table`
    mean what they mean to the library: given rows are returned as they
    are, otherwise y0 is ystar, and each layer of a table gets its rows
    from the forward, one image at a time.
    """
    layer = model.spec.layers[layer_index]
    kh, kw = layer.kernel
    pad, stride = layer.padding, layer.stride
    w = model.params[layer_index].weights
    c_out, c_in = w.shape[:2]
    w_taps = w.reshape(c_out, c_in, kh * kw).transpose(1, 2, 0)
    bias = model.params[layer_index].bias
    ystar, grad, z, patches = ([] for _ in range(4))
    ids = sample.image_ids
    trace = nn.forward_collect(model.spec, model.params, dataset.images[ids])
    for li, (at, out) in (table or {}).items():
        out[...] = np.concatenate(
            [trace.outputs[li][k][:, at.rows[k], at.cols[k]].T
             - model.params[li].bias for k in range(len(ids))])
    for k, image in enumerate(ids):
        rr, cc = sample.rows[k], sample.cols[k]
        if gradient:
            # im2col rows run over (image, output row, output column).
            single = nn.ForwardTrace(
                x=trace.x[k:k + 1], outputs=[o[k:k + 1] for o in trace.outputs],
                logits=trace.logits[k:k + 1],
                cols={i: c.reshape(len(ids), -1, c.shape[1])[k]
                      for i, c in trace.cols.items()})
            grads = nn.backward_collect(model.spec, model.params, single,
                                        dataset.labels[image:image + 1])
            grad.append(grads.activations[layer_index][0][:, rr, cc].T)
        x_in = trace.outputs[layer_index - 1][k] if layer_index else trace.x[k]
        x_in = np.pad(x_in, ((0, 0), (pad, pad), (pad, pad)))
        pat = np.array([x_in[:, r * stride:r * stride + kh, c * stride:c * stride + kw]
                        for r, c in zip(rr, cc)])
        ystar.append(trace.outputs[layer_index][k][:, rr, cc].T - bias)
        patches.append(pat)
        taps = pat.reshape(len(rr), c_in, kh * kw).transpose(1, 0, 2)
        z.append(np.matmul(taps, w_taps).transpose(1, 2, 0))
    ystar = np.concatenate(ystar)
    return pruner.FeatureProbe(
        y0=ystar if y0 is None else y0, ystar=ystar,
        grad=np.concatenate(grad) if gradient else None, z=np.concatenate(z),
        patches=np.concatenate(patches))


def dense_weighted_system(probe, variant):
    """The selection system of a whole probe set as one dense (A, b), one
    row per (probe, output channel) in that order, written row by row."""
    total, c_out = probe.y0.shape
    a = np.empty((total * c_out, probe.z.shape[2]))
    b = np.empty(total * c_out)
    for p in range(total):
        for i in range(c_out):
            g = 1.0 if variant in ("cpli_no_fl", "cp_baseline") else probe.grad[p, i]
            s = 1.0 if variant in ("cpli_no_fi", "cp_baseline") else probe.ystar[p, i]
            b[p * c_out + i] = g * probe.y0[p, i]
            a[p * c_out + i] = g * s * probe.z[p, i]
    return a, b


def qr_fold(blocks):
    """The triangular factor of the stacked rows [A | b] of `blocks`, a list
    of (A_c, b_c), refactored block by block: each fold runs
    `np.linalg.qr(mode="r")` on R stacked over the block's rows."""
    r = None
    for a, b in blocks:
        rows = np.column_stack([a, b])
        if r is not None:
            rows = np.vstack([r, rows])
        r = np.linalg.qr(rows, mode="r")
    return r


def apply_supports(ckpt, supports):
    """`ckpt` cut down to the given input-channel supports without any refit.

    Equivalent to zeroing the dropped channels of the original weights; the
    selection-only comparator for the refit.
    """
    layers = list(ckpt.spec.layers)
    params = nn.copy_params(ckpt.params)
    convs = ckpt.spec.conv_indices()
    for ordinal, support in sorted(supports.items()):
        li, prev = convs[ordinal - 1], convs[ordinal - 2]
        sup = np.asarray(sorted(support), dtype=np.int64)
        layers[prev] = replace(layers[prev], out_channels=len(sup))
        layers[li] = replace(layers[li], in_channels=len(sup))
        params[prev] = nn.LayerParams(params[prev].weights[sup], params[prev].bias[sup])
        params[li] = nn.LayerParams(params[li].weights[:, sup], params[li].bias)
    spec = nn.NetworkSpec(tuple(layers), ckpt.spec.input_dims, ckpt.spec.num_classes)
    return model_io.Checkpoint(spec, params, dict(ckpt.metadata))


def save_config(path, values):
    """Write `key = value` lines in key order, the format `load_config` reads."""
    lines = [f"{k} = {values[k]}" for k in sorted(values)]
    Path(path).write_text("\n".join(lines) + "\n")
