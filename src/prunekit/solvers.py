"""Numerical engines for channel selection and weight reconstruction.

Two solvers: an exact l1-penalised weighted least-squares (LASSO) solve by
feature-sign search, with a geometric lambda search that enforces a
cardinality budget, and an ordinary least-squares refitter for the
kept-channel conv weights.  A selection system can be fed block by block
of rows into `SystemStream`, which keeps only its triangular factor.

All solves are deterministic: every tie-break picks the lowest index.
Bit-identical columns count as one, the lowest-indexed of them, so exact
ties go to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg

# Solver constants, read at call time: the ratio between successive points
# of the lambda grid, the grid's start as a fraction of lambda_max and its
# step limit.
DEFAULT_GRID_RATIO = 1.3
LAMBDA_FLOOR_FRACTION = 1e-6
_MAX_GRID_STEPS = 500
# Stationarity tolerance of the active-set finish, relative to the size of
# the terms in c_j - (G beta)_j.
_KKT_RTOL = 1e-9


def _narrow_copies(first: np.ndarray | None, a: np.ndarray) -> np.ndarray:
    """`first` narrowed to the columns of `a` that are bit-identical too.

    `first[j]` is the lowest index of j's group of candidate twins (None
    makes every column a candidate).  In the result, j maps to the lowest
    member of its group whose column of `a` is bit-identical to its own.
    Twins have equal minima and maxima, which are exact whatever the
    memory layout, so only columns that agree on both are compared,
    all-zero columns pair without a comparison, and columns outside a
    group of two or more are not read.
    """
    cols = a.shape[1]
    out = np.arange(cols)
    if first is None:
        first, grouped, sub = np.zeros(cols, dtype=np.int64), out, a
    else:
        grouped = np.flatnonzero(np.bincount(first, minlength=cols)[first] > 1)
        if not len(grouped):
            return out
        sub = a[:, grouped]
    keys = zip(first[grouped].tolist(), sub.min(axis=0).tolist(),
               sub.max(axis=0).tolist())
    leads: dict[tuple[int, float, float], list[int]] = {}
    for j, key in zip(grouped.tolist(), keys):
        seen = leads.setdefault(key, [])
        if seen and key[1] == key[2] == 0.0:
            out[j] = seen[0]
            continue
        for i in seen:
            if np.array_equal(a[:, i], a[:, j]):
                out[j] = i
                break
        else:
            seen.append(j)
    return out


@dataclass
class WeightedSystem:
    """Design matrix / target pair for one layer's channel-selection LASSO.

    Rows are (probe, output-channel) pairs, columns are the layer's input
    channels.  The objective at beta is ||b - A beta||^2 + lambda * |beta|_1.
    A system may also be any (A, b) with the same least-squares geometry,
    such as the triangular factor that `SystemStream` builds.  Squared column
    norms, the Gram matrix and the correlation vector are computed lazily,
    so a block of rows that is only streamed never pays for them.
    `first_copy[j]` is the lowest index whose column is bit-identical to
    nonzero column j (j itself when there is none); `copies`, when given,
    is that map found on the rows the system came from, else it is found
    on `a`.
    """

    a: np.ndarray
    b: np.ndarray
    copies: np.ndarray | None = field(default=None, repr=False)
    _gram: np.ndarray | None = field(default=None, init=False, repr=False)
    _corr: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        # A column-major A, as a pruning stage builds its streamed blocks,
        # is kept so; `SystemStream` copies it into LAPACK's layout by
        # columns.  Any other A is made C-contiguous.
        self.a = np.asarray(self.a, dtype=np.float64)
        if not self.a.flags.f_contiguous:
            self.a = np.ascontiguousarray(self.a)
        self.b = np.ascontiguousarray(self.b, dtype=np.float64)
        if self.a.ndim != 2 or self.b.ndim != 1:
            raise ValueError("system requires a 2-d design matrix and 1-d target")
        if self.a.shape[0] != self.b.shape[0]:
            raise ValueError(f"row mismatch: A has {self.a.shape[0]} rows, "
                             f"b has {self.b.shape[0]}")
        if self.a.shape[0] < 1 or self.a.shape[1] < 1:
            raise ValueError("system must have at least one row and one column")

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    @cached_property
    def col_sq_norms(self) -> np.ndarray:
        return (self.a * self.a).sum(axis=0)

    @cached_property
    def first_copy(self) -> np.ndarray:
        first = (_narrow_copies(None, self.a) if self.copies is None
                 else np.array(self.copies, dtype=np.int64))
        zero = np.flatnonzero(self.col_sq_norms == 0.0)
        first[zero] = zero
        return first

    def gram(self) -> np.ndarray:
        if self._gram is None:
            self._gram = self.a.T @ self.a
        return self._gram

    def corr(self) -> np.ndarray:
        if self._corr is None:
            self._corr = self.a.T @ self.b
        return self._corr


class SystemStream:
    """A weighted system fed block by block of rows, held as the triangular
    factor R of [A | b] (TSQR; Demmel, Grigori, Hoemmen & Langou 2012).

    Each block is stacked under the running R and refactored, so memory
    stays at one block plus (cols + 1)^2.  [A | b] = QR with orthonormal Q
    gives ||b - A beta|| = ||r - R_A beta|| for every beta, where R_A is R's
    first `cols` columns and r its last, so (R_A, r) has A's least-squares
    geometry: the same Gram matrix, correlations and residuals.  R's
    columns carry rounding noise even where A's are bit-identical, so the
    identical-column map is found on the blocks themselves: the first block
    proposes groups and every later block narrows them.  An all-zero column
    of A stays exactly zero in R, since Householder QR leaves a zero column
    untouched.  Each fold writes [R; A_c | b_c] into one column-major
    buffer that LAPACK's Householder QR (dgeqrf) overwrites in place, with
    the workspace size `np.linalg.qr` asks for, so R has the same bits as
    `np.linalg.qr(..., mode="r")` of the stacked rows.
    """

    def __init__(self):
        self.r: np.ndarray | None = None
        self.copies: np.ndarray | None = None
        self._lwork: int | None = None

    def add(self, block: WeightedSystem) -> None:
        self.copies = _narrow_copies(self.copies, block.a)
        held = 0 if self.r is None else self.r.shape[0]
        rows = np.empty((held + block.rows, block.cols + 1), order="F")
        if held:
            rows[:held] = self.r
        rows[held:, :-1] = block.a
        rows[held:, -1] = block.b
        if self._lwork is None:
            work, info = scipy.linalg.lapack.dgeqrf_lwork(*rows.shape)
            _check_lapack("dgeqrf_lwork", info)
            self._lwork = max(int(work), 1)
        qr, _, _, info = scipy.linalg.lapack.dgeqrf(rows, lwork=self._lwork,
                                                    overwrite_a=True)
        _check_lapack("dgeqrf", info)
        self.r = np.triu(qr[:min(qr.shape)])

    def system(self) -> WeightedSystem:
        if self.r is None:
            raise ValueError("no rows were streamed")
        return WeightedSystem(self.r[:, :-1], self.r[:, -1], copies=self.copies)


def _check_lapack(routine: str, info: int) -> None:
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {routine} failed with info={info}")


@dataclass
class SelectionResult:
    """Outcome of a budgeted channel selection.

    `beta` is the LASSO solution at `lambda_final` (KKT-stationary there);
    `support` is the selected channel set.  When the LASSO support came in
    under budget, `support` additionally holds greedily backfilled columns
    whose beta entries stay zero.  `residual_norm` is the unpenalised
    least-squares residual restricted to `support`.
    """

    beta: np.ndarray
    support: tuple[int, ...]
    lambda_final: float
    residual_norm: float
    converged: bool = True
    budget_warning: bool = False


def _feature_sign_finish(gram: np.ndarray, corr: np.ndarray, beta: np.ndarray,
                         live: np.ndarray, half_lam: float,
                         max_steps: int) -> np.ndarray | None:
    """Exact LASSO solution by feature-sign search from `beta`, or None.

    Each step solves G_AA x_A = c_A - (lam/2) s_A on the active set
    A = {s != 0} (Lee, Battle, Raina & Ng 2007).  A solution that changes
    a sign is cut back to the first point on the segment from beta towards
    it where a coefficient reaches zero, and that coefficient leaves A; the
    objective falls along the segment up to there.  A sign-consistent
    solution is returned when it passes the KKT conditions:
    |c_j - (G x)_j| <= lam/2 on every inactive live column, and
    stationarity on A within a tolerance relative to the terms' scale.
    Otherwise the inactive live column that violates them most joins A with
    the sign of its slack.  When the columns of A are dependent (G_AA is
    not positive definite), beta moves along a null vector of G_AA, which
    keeps A beta, in the direction that does not raise |beta|_1, until a
    coefficient reaches zero and leaves A.  Gives up after `max_steps`
    steps or when stationarity fails; with one step this is a single solve
    for the sign pattern of `beta`.
    """
    beta = beta.copy()
    signs = np.sign(beta)
    for _ in range(max_steps):
        act = np.flatnonzero(signs)
        new = np.zeros(len(signs))
        g_aa = gram[np.ix_(act, act)]
        if len(act):
            try:
                cf = scipy.linalg.cho_factor(g_aa, lower=True)
            except np.linalg.LinAlgError:
                v = np.zeros(len(signs))
                v[act] = scipy.linalg.eigh(g_aa)[1][:, 0]
                if signs @ v > 0.0:
                    v = -v
                toward = act[v[act] * signs[act] < 0.0]  # never empty: v != 0
                t = -beta[toward] / v[toward]
                step = t.min()
                beta += step * v
                beta[toward[t == step]] = 0.0
                signs = np.sign(beta)
                continue
            new[act] = scipy.linalg.cho_solve(cf, corr[act] - half_lam * signs[act])
            flipped = act[np.sign(new[act]) != signs[act]]
            if len(flipped):
                # A coefficient that just joined A is still 0: it stops here.
                b = beta[flipped]
                t = np.divide(b, b - new[flipped], out=np.zeros(len(b)), where=b != 0.0)
                step = t.min()
                beta += step * (new - beta)
                beta[flipped[t == step]] = 0.0
                signs = np.sign(beta)
                continue
        slack = corr - gram @ new
        excess = np.where(live & (signs == 0), np.abs(slack) - half_lam, 0.0)
        j = int(np.argmax(excess))
        if excess[j] > 0.0:
            beta = new
            signs[j] = np.sign(slack[j])
            continue
        scale = np.abs(corr[act]) + np.abs(g_aa) @ np.abs(new[act]) + half_lam
        if np.any(np.abs(slack[act] - half_lam * signs[act]) > _KKT_RTOL * scale):
            return None
        return new
    return None


def lasso_coordinate_descent(system: WeightedSystem, lam: float,
                             beta_init: np.ndarray | None = None):
    """Exact solve of ||b - A beta||^2 + lam * |beta|_1 by feature-sign search.

    Returns (beta, converged).  One `_feature_sign_finish` call, limited to
    four steps per live column, runs from `beta_init` (zeros when none is
    given).  When it finds the solution, that is returned with
    converged=True; when it gives up, the start is returned with
    converged=False, reported via the flag, not an exception.  The result
    is the active set's solve for its signs, so any start that ends on the
    same sign pattern returns the same bits.  All-zero columns are pinned
    at beta_j = 0, and so is every column after the first of a
    bit-identical group (`WeightedSystem.first_copy`); a beta_init weight
    on such a copy moves onto the group's first column.  The objective
    never increases relative to beta_init.
    """
    if lam < 0:
        raise ValueError(f"lambda must be nonnegative, got {lam}")
    if not (np.isfinite(system.a).all() and np.isfinite(system.b).all()):
        raise ValueError("system contains non-finite entries")
    cols = system.cols
    first = system.first_copy
    copies = np.flatnonzero(first != np.arange(cols))
    live = system.col_sq_norms > 0.0

    if beta_init is None:
        beta = np.zeros(cols)
    else:
        beta = np.array(beta_init, dtype=np.float64, copy=True)
        if beta.shape != (cols,):
            raise ValueError(f"beta_init length: expected {cols}, got {beta.shape}")
        beta[~live] = 0.0
        for j in copies:
            beta[first[j]] += beta[j]
            beta[j] = 0.0

    live[copies] = False
    # The bound stops a search that cycles on rounding, above what searches
    # need: from zeros, up to 3.1 steps per live column on small random
    # systems (1.41 on the benchmark's), and 1.5 for warm starts on the grid.
    exact = _feature_sign_finish(system.gram(), system.corr(), beta, live,
                                 0.5 * lam, 4 * np.count_nonzero(live))
    if exact is None:
        return beta, False
    return exact, True


def lambda_search(system: WeightedSystem, budget: int) -> SelectionResult:
    """Walk a geometric lambda grid until the LASSO support fits the budget.

    The grid starts at `LAMBDA_FLOOR_FRACTION` of lambda_max and grows by
    `DEFAULT_GRID_RATIO` per step.  Each point's feature-sign search starts
    from the previous point's solution (the first from zeros); a search
    that gives up keeps its start and clears `converged`, which reports
    the last point's solve.  The first feasible grid point wins; if its
    support is under budget, excluded columns are backfilled greedily by
    correlation with the current restricted least-squares residual until
    |support| = min(budget, nonzero columns).
    The restricted fit w is least squares on the columns A_S themselves, and
    column j's score is |A_j^T (b - A_S w)|.  On a streamed system A is the
    small triangular factor, whose columns keep the condition number of the
    original A_S rather than its square, so one path serves every support.
    `residual_norm` is ||b - A w|| with w zero off the support.  Each
    excluded column is scored as the first column of its bit-identical
    group, so exact ties go to the lowest index, and the grid's lambda_max
    comes from those first columns too.  Requesting more columns than are
    nonzero sets `budget_warning`.
    """
    cols = system.cols
    if not 1 <= budget <= cols:
        raise ValueError(f"budget must be in [1, {cols}], got {budget}")
    nonzero_cols = np.flatnonzero(system.col_sq_norms > 0.0)
    budget_warning = budget > len(nonzero_cols)
    target = min(budget, len(nonzero_cols))

    first = system.first_copy
    leads = nonzero_cols[first[nonzero_cols] == nonzero_cols]
    corr_peak = np.abs(system.corr()[leads]).max() if len(leads) else 0.0
    lam = LAMBDA_FLOOR_FRACTION * 2.0 * corr_peak
    beta = None
    converged = True
    for _ in range(_MAX_GRID_STEPS):
        beta, converged = lasso_coordinate_descent(system, lam, beta_init=beta)
        if np.count_nonzero(beta) <= budget:
            break
        lam *= DEFAULT_GRID_RATIO
    else:
        raise RuntimeError("lambda grid exhausted without meeting the budget")

    def restricted_residual(support: list[int]) -> np.ndarray:
        # b minus its least-squares fit on the columns in `support`.
        s = np.array(support, dtype=np.int64)
        w = np.linalg.lstsq(system.a[:, s], system.b, rcond=None)[0]
        return system.b - system.a[:, s] @ w

    support = sorted(np.flatnonzero(beta).tolist())
    excluded = [j for j in nonzero_cols.tolist() if j not in support]
    while len(support) < target:
        r = restricted_residual(support)
        u, inv = np.unique(first[excluded], return_inverse=True)
        scores = np.abs(system.a[:, u].T @ r)[inv]
        pick = excluded[int(np.argmax(scores))]  # argmax ties -> lowest index
        support.append(pick)
        excluded.remove(pick)
        support.sort()

    residual = float(np.linalg.norm(restricted_residual(support)))
    return SelectionResult(beta=beta, support=tuple(support), lambda_final=lam,
                           residual_norm=residual, converged=converged,
                           budget_warning=budget_warning)


@dataclass
class RefitResult:
    """Least-squares weights reshaped to conv filters plus the damping used."""

    weights: np.ndarray
    damping: float


def least_squares_refit(patches: np.ndarray, targets: np.ndarray,
                        kernel: tuple[int, int]) -> RefitResult:
    """Fit kept-channel conv filters minimising ||targets - patches @ w||^2.

    Solves (P^T P + eps I) w_i = P^T t_i per output channel via Cholesky,
    undamped (eps = 0) first.  A rank-deficient system is retried with
    eps = 1e-8 * trace(P^T P) / cols, escalating if needed; the damping
    actually used is reported in the result.
    """
    p = np.ascontiguousarray(patches, dtype=np.float64)
    t = np.ascontiguousarray(targets, dtype=np.float64)
    if p.ndim != 2 or t.ndim != 2 or p.shape[0] != t.shape[0]:
        raise ValueError(f"patches {p.shape} and targets {t.shape} are not 2-d "
                         "or disagree on rows")
    kh, kw = int(kernel[0]), int(kernel[1])
    cols = p.shape[1]
    if cols % (kh * kw) != 0:
        raise ValueError(f"{cols} patch columns do not split into {kh}x{kw} kernels")

    gram = p.T @ p
    rhs = p.T @ t
    eps = 0.0
    trace = float(np.trace(gram))
    fallback = 1e-8 * trace / cols if trace > 0 else 1e-12
    sol = None
    for attempt in range(5):
        try:
            cf = scipy.linalg.cho_factor(gram + eps * np.eye(cols), lower=True)
            sol = scipy.linalg.cho_solve(cf, rhs)
            break
        except np.linalg.LinAlgError:
            eps = fallback if eps < fallback else eps * 100.0
    if sol is None:
        raise np.linalg.LinAlgError("normal equations not positive definite even "
                                    f"with damping {eps}")
    weights = sol.T.reshape(t.shape[1], cols // (kh * kw), kh, kw)
    return RefitResult(weights=weights, damping=eps)
