import os
import time
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from prunekit import solvers

from _oracles import (best_subset, greedy_backfill, kkt_violation, lasso_objective,
                      lasso_sweeps, qr_fold, subset_residual)


def random_system(rng, rows=30, cols=6, sparsity=3, noise=0.1, scale_cols=False):
    a = rng.normal(size=(rows, cols))
    if scale_cols:
        a *= rng.uniform(0.2, 3.0, size=cols)
    beta = np.zeros(cols)
    idx = rng.choice(cols, size=min(sparsity, cols), replace=False)
    beta[idx] = rng.normal(0.0, 2.0, size=len(idx))
    b = a @ beta + noise * rng.normal(size=rows)
    return solvers.WeightedSystem(a, b)


class TestWeightedSystem:
    def test_validation(self, rng):
        with pytest.raises(ValueError, match="row mismatch"):
            solvers.WeightedSystem(rng.normal(size=(4, 2)), rng.normal(size=3))
        with pytest.raises(ValueError, match="2-d design"):
            solvers.WeightedSystem(rng.normal(size=4), rng.normal(size=4))


class TestLassoCoordinateDescent:
    def test_full_shrinkage_threshold(self, rng):
        sys_ = random_system(rng)
        lam = 2.0 * np.abs(sys_.corr()).max()
        beta, converged = solvers.lasso_coordinate_descent(sys_, lam)
        assert converged
        np.testing.assert_array_equal(beta, np.zeros(sys_.cols))

    def test_orthonormal_columns_lambda_zero(self, rng):
        q, _ = np.linalg.qr(rng.normal(size=(20, 5)))
        b = rng.normal(size=20)
        sys_ = solvers.WeightedSystem(q, b)
        beta, _ = solvers.lasso_coordinate_descent(sys_, 0.0)
        np.testing.assert_allclose(beta, q.T @ b, atol=1e-9)

    def test_two_column_dense_grid_oracle(self):
        # Literal brute force: resolution 1e-3 over [-2, 2]^2.
        rng = np.random.default_rng(42)
        a = rng.normal(size=(6, 2))
        b = rng.normal(size=6)
        sys_ = solvers.WeightedSystem(a, b)
        lam = 0.5
        beta, _ = solvers.lasso_coordinate_descent(sys_, lam)
        assert np.abs(beta).max() < 1.8  # optimum interior to the searched box

        grid = np.arange(-2.0, 2.0 + 1e-9, 1e-3)
        gram, corr = sys_.gram(), sys_.corr()
        bb = float(b @ b)
        best = np.inf
        for b1 in grid:  # chunk one axis to bound memory
            quad = (gram[0, 0] * b1 * b1 + 2.0 * gram[0, 1] * b1 * grid
                    + gram[1, 1] * grid * grid)
            lin = -2.0 * (corr[0] * b1 + corr[1] * grid)
            obj = bb + quad + lin + lam * (abs(b1) + np.abs(grid))
            best = min(best, obj.min())
        assert abs(lasso_objective(sys_.a, sys_.b, beta, lam) - best) < 1e-4

    def test_four_column_convex_solver_oracle(self):
        cvxpy = pytest.importorskip("cvxpy")
        rng = np.random.default_rng(7)
        a = rng.normal(size=(25, 4))
        b = rng.normal(size=25)
        sys_ = solvers.WeightedSystem(a, b)
        lam = 0.5
        beta, _ = solvers.lasso_coordinate_descent(sys_, lam)

        x = cvxpy.Variable(4)
        prob = cvxpy.Problem(cvxpy.Minimize(
            cvxpy.sum_squares(b - a @ x) + lam * cvxpy.norm1(x)))
        prob.solve()
        assert abs(lasso_objective(sys_.a, sys_.b, beta, lam) - prob.value) < 1e-4

    def test_nan_rejected(self, rng):
        a = rng.normal(size=(5, 3))
        a[2, 1] = np.nan
        sys_ = solvers.WeightedSystem(a, rng.normal(size=5))
        with pytest.raises(ValueError, match="non-finite"):
            solvers.lasso_coordinate_descent(sys_, 0.1)

    def test_negative_lambda_rejected(self, rng):
        with pytest.raises(ValueError, match="nonnegative"):
            solvers.lasso_coordinate_descent(random_system(rng), -0.1)

    def test_search_give_up_flagged_not_fatal(self, rng, monkeypatch):
        sys_ = random_system(rng, rows=40, cols=8, noise=0.5)
        start = rng.normal(size=8)
        monkeypatch.setattr(solvers, "_feature_sign_finish", lambda *args: None)
        beta, converged = solvers.lasso_coordinate_descent(sys_, 0.1, beta_init=start)
        assert not converged
        assert (lasso_objective(sys_.a, sys_.b, beta, 0.1)
                <= lasso_objective(sys_.a, sys_.b, start, 0.1))

    def test_all_zero_column_pinned(self, rng):
        a = rng.normal(size=(10, 4))
        a[:, 2] = 0.0
        sys_ = solvers.WeightedSystem(a, rng.normal(size=10))
        beta, _ = solvers.lasso_coordinate_descent(
            sys_, 0.01, beta_init=np.array([0.0, 0.0, 5.0, 0.0]))
        assert beta[2] == 0.0

    @given(st.integers(0, 2 ** 32 - 1), st.floats(0.0, 5.0))
    def test_never_increases_objective(self, seed, lam):
        rng = np.random.default_rng(seed)
        sys_ = random_system(rng, rows=15, cols=5)
        beta_init = rng.normal(size=5)
        before = lasso_objective(sys_.a, sys_.b, beta_init, lam)
        beta, _ = solvers.lasso_coordinate_descent(sys_, lam, beta_init=beta_init)
        after = lasso_objective(sys_.a, sys_.b, beta, lam)
        assert after <= before + 1e-9 * max(1.0, before)


def collinear_system(rng, rows, cols, spread):
    """Columns that share one direction plus `spread`-sized private noise."""
    a = rng.normal(size=(rows, 1)) + spread * rng.normal(size=(rows, cols))
    a *= rng.uniform(0.2, 3.0, size=cols)
    k = int(rng.integers(1, cols + 1))
    b = a[:, :k] @ rng.normal(size=k) + 0.1 * rng.normal(size=rows)
    return solvers.WeightedSystem(a, b)


class TestActiveSetFinish:
    @given(st.integers(0, 2 ** 32 - 1), st.floats(0.001, 0.9), st.floats(0.05, 2.0))
    @example(seed=318, frac=0.0625, spread=0.25)  # 2 columns, 5 steps from zeros
    @settings(max_examples=30)
    def test_support_matches_sweep_oracle_and_kkt(self, seed, frac, spread):
        rng = np.random.default_rng(seed)
        cols = int(rng.integers(2, 9))
        sys_ = collinear_system(rng, int(rng.integers(cols + 2, 40)), cols, spread)
        lam = frac * 2.0 * np.abs(sys_.corr()).max()
        beta, converged = solvers.lasso_coordinate_descent(sys_, lam)
        assert converged
        viol, scale = kkt_violation(sys_.a, sys_.b, beta, lam)
        assert viol <= 1e-9 * scale
        ref, ref_converged = lasso_sweeps(sys_.a, sys_.b, lam, tol=1e-12)
        if ref_converged:
            assert np.flatnonzero(beta).tolist() == np.flatnonzero(ref).tolist()

    def test_ill_conditioned_system_finishes_where_sweeps_stall(self):
        rng = np.random.default_rng(3)
        sys_ = collinear_system(rng, 60, 16, 0.02)
        lam = 0.02 * np.abs(sys_.corr()).max()
        _, ref_converged = lasso_sweeps(sys_.a, sys_.b, lam, max_sweeps=2000)
        assert not ref_converged
        beta, converged = solvers.lasso_coordinate_descent(sys_, lam)
        assert converged
        viol, scale = kkt_violation(sys_.a, sys_.b, beta, lam)
        assert viol <= 1e-9 * scale

    def test_warm_start_at_the_solution_returns_it(self, rng):
        sys_ = collinear_system(rng, 40, 8, 0.1)
        lam = 0.05 * np.abs(sys_.corr()).max()
        beta, converged = solvers.lasso_coordinate_descent(sys_, lam)
        assert converged and np.count_nonzero(beta)
        again, converged = solvers.lasso_coordinate_descent(sys_, lam, beta_init=beta)
        assert converged
        assert np.array_equal(again, beta)


def count_finish_attempts(monkeypatch):
    """Patch the feature-sign search to log, per LASSO solve, its call count."""
    real_finish, real_solve = solvers._feature_sign_finish, solvers.lasso_coordinate_descent
    per_solve = []

    def finish(*args, **kwargs):
        per_solve[-1] += 1
        return real_finish(*args, **kwargs)

    def solve(*args, **kwargs):
        per_solve.append(0)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(solvers, "_feature_sign_finish", finish)
    monkeypatch.setattr(solvers, "lasso_coordinate_descent", solve)
    return per_solve


class TestFeatureSignSearch:
    @given(st.integers(0, 2 ** 32 - 1), st.floats(0.001, 0.9), st.floats(0.05, 2.0))
    @settings(max_examples=30)
    def test_from_any_sign_pattern_matches_sweep_oracle(self, seed, frac, spread):
        # Start from random signs on a random subset, not from a sweep, so
        # the search has to add and drop columns.
        rng = np.random.default_rng(seed)
        cols = int(rng.integers(2, 9))
        sys_ = collinear_system(rng, int(rng.integers(cols + 2, 40)), cols, spread)
        lam = frac * 2.0 * np.abs(sys_.corr()).max()
        start = rng.normal(size=cols) * (rng.random(cols) < 0.5)
        beta = solvers._feature_sign_finish(sys_.gram(), sys_.corr(), start,
                                            sys_.col_sq_norms > 0.0, 0.5 * lam,
                                            max_steps=4 * cols)
        assert beta is not None
        viol, scale = kkt_violation(sys_.a, sys_.b, beta, lam)
        assert viol <= 1e-9 * scale
        ref, ref_converged = lasso_sweeps(sys_.a, sys_.b, lam, tol=1e-12)
        if ref_converged:
            assert np.flatnonzero(beta).tolist() == np.flatnonzero(ref).tolist()

    @pytest.mark.parametrize("seed", range(4))
    def test_at_most_two_finish_attempts_per_solve(self, seed, monkeypatch):
        sys_ = collinear_system(np.random.default_rng(seed), 60, 16, 0.02)
        per_solve = count_finish_attempts(monkeypatch)
        for budget in (2, 5, 8, 12):
            res = solvers.lambda_search(sys_, budget)
            assert res.converged
        assert per_solve and set(per_solve) == {1}

    def test_one_step_is_the_one_shot_finish(self, rng):
        # With one step the search is a single solve for the start's signs:
        # a wrong sign pattern gives None instead of a line search.
        sys_ = collinear_system(rng, 40, 8, 0.1)
        lam = 0.05 * np.abs(sys_.corr()).max()
        beta, _ = solvers.lasso_coordinate_descent(sys_, lam)
        live = sys_.col_sq_norms > 0.0
        wrong = -beta
        assert solvers._feature_sign_finish(sys_.gram(), sys_.corr(), wrong, live,
                                            0.5 * lam, max_steps=1) is None
        found = solvers._feature_sign_finish(sys_.gram(), sys_.corr(), wrong, live,
                                             0.5 * lam, max_steps=4 * sys_.cols)
        np.testing.assert_allclose(found, beta, rtol=1e-9, atol=1e-12)


def floor_above_lambda_max(monkeypatch):
    """Start the lambda grid at 2 lambda_max = 4 max|A^T b|, so the first
    solve is beta = 0 and the support is all backfill."""
    monkeypatch.setattr(solvers, "LAMBDA_FLOOR_FRACTION", 2.0)


class TestIdenticalColumns:
    def test_first_copy_maps_each_column_to_its_lowest_twin(self, rng):
        x, y = rng.normal(size=10), rng.normal(size=10)
        a = np.column_stack([x, y, x, np.zeros(10), y, np.zeros(10), -x])
        sys_ = solvers.WeightedSystem(a, rng.normal(size=10))
        assert sys_.first_copy.tolist() == [0, 1, 0, 3, 1, 5, 6]

    @pytest.mark.parametrize("seed", range(5, 11))
    def test_duplicated_column_search_is_fast_and_keeps_no_copy(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(30, 8)) * rng.uniform(0.2, 3.0, size=8)
        a[:, 5] = a[:, 2]
        b = a @ rng.normal(size=8) + 0.3 * rng.normal(size=30)
        sys_ = solvers.WeightedSystem(a, b)
        t0 = time.perf_counter()
        res = solvers.lambda_search(sys_, 4)
        assert time.perf_counter() - t0 < 0.1
        assert res.converged and res.beta[5] == 0.0
        viol, scale = kkt_violation(a, b, res.beta, res.lambda_final)
        assert viol <= 1e-9 * scale

    @pytest.mark.parametrize("seed", range(5, 9))
    @pytest.mark.parametrize("scaled", [False, True])
    def test_dependent_column_search_is_fast_and_exact(self, seed, scaled):
        # Column 5 is the sum of columns 2 and 3, so G_AA is singular once
        # all three are active.
        rng = np.random.default_rng(seed)
        if scaled:
            a = rng.normal(size=(30, 8)) * rng.uniform(0.2, 3.0, size=8)
            a[:, 5] = a[:, 2] + a[:, 3]
            b = a @ rng.normal(size=8) + 0.3 * rng.normal(size=30)
        else:
            a = rng.normal(size=(30, 8))
            a[:, 5] = a[:, 2] + a[:, 3]
            b = rng.normal(size=30)
        sys_ = solvers.WeightedSystem(a, b)
        t0 = time.perf_counter()
        res = solvers.lambda_search(sys_, 4)
        assert time.perf_counter() - t0 < 0.1
        assert res.converged and len(res.support) == 4
        viol, scale = kkt_violation(a, b, res.beta, res.lambda_final)
        assert viol <= 1e-9 * scale

    @pytest.mark.parametrize("seed", range(6))
    def test_exact_tie_in_backfill_goes_to_the_lowest_index(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(40, 6))
        a[:, 4] = a[:, 1]
        b = 3.0 * a[:, 1] + 0.1 * rng.normal(size=40)
        sys_ = solvers.WeightedSystem(a, b)
        assert solvers.lambda_search(sys_, 1).support == (1,)
        # A floor above lambda_max leaves beta = 0, so backfill picks first.
        floor_above_lambda_max(monkeypatch)
        assert solvers.lambda_search(sys_, 1).support == (1,)

    def test_weight_on_a_copy_moves_to_its_first_column(self, rng):
        a = rng.normal(size=(20, 4))
        a[:, 3] = a[:, 0]
        sys_ = solvers.WeightedSystem(a, rng.normal(size=20))
        start = np.array([0.5, 0.0, 0.0, 0.7])
        beta, _ = solvers.lasso_coordinate_descent(sys_, 0.1, beta_init=start)
        assert beta[3] == 0.0
        assert (lasso_objective(sys_.a, sys_.b, beta, 0.1)
                <= lasso_objective(sys_.a, sys_.b, start, 0.1))


class TestLambdaSearch:
    def test_full_budget_keeps_all_nonzero(self, rng):
        sys_ = random_system(rng, cols=5, sparsity=5, noise=0.3)
        res = solvers.lambda_search(sys_, budget=5)
        assert res.support == (0, 1, 2, 3, 4)
        floor = solvers.LAMBDA_FLOOR_FRACTION * 2.0 * np.abs(sys_.corr()).max()
        assert res.lambda_final == pytest.approx(floor)
        assert not res.budget_warning

    def test_perfect_predictor_column(self, rng):
        b = rng.normal(size=40)
        noise = rng.normal(size=(40, 3))
        noise -= np.outer(b, b @ noise) / (b @ b)  # orthogonal to b
        a = np.column_stack([noise[:, 0], b, noise[:, 1], noise[:, 2]])
        res = solvers.lambda_search(solvers.WeightedSystem(a, b), budget=1)
        assert res.support == (1,)

    def test_subset_near_optimal_single_instance(self, rng):
        sys_ = random_system(rng, rows=40, cols=6, sparsity=3, noise=0.2)
        res = solvers.lambda_search(sys_, budget=3)
        best_r, _ = best_subset(sys_.a, sys_.b, 3)
        assert res.residual_norm <= 1.10 * best_r + 1e-12

    def test_residual_norm_matches_restricted_ols(self, rng):
        sys_ = random_system(rng, cols=6)
        res = solvers.lambda_search(sys_, budget=3)
        assert res.residual_norm == pytest.approx(
            subset_residual(sys_.a, sys_.b, res.support), abs=1e-9)

    def test_budget_warning_when_exceeding_nonzero_columns(self, rng):
        a = rng.normal(size=(10, 4))
        a[:, 1] = 0.0
        a[:, 3] = 0.0
        sys_ = solvers.WeightedSystem(a, rng.normal(size=10))
        res = solvers.lambda_search(sys_, budget=3)
        assert res.budget_warning
        assert res.support == (0, 2)

    def test_zero_column_never_selected(self, rng):
        a = rng.normal(size=(15, 5))
        a[:, 2] = 0.0
        sys_ = solvers.WeightedSystem(a, rng.normal(size=15))
        for budget in (1, 2, 3, 4):
            res = solvers.lambda_search(sys_, budget=budget)
            assert 2 not in res.support
            assert len(res.support) == min(budget, 4)
            assert res.beta[2] == 0.0

    def test_invalid_budget(self, rng):
        sys_ = random_system(rng, cols=4)
        with pytest.raises(ValueError, match=r"budget must be in \[1, 4\]"):
            solvers.lambda_search(sys_, budget=0)
        with pytest.raises(ValueError, match=r"budget must be in \[1, 4\]"):
            solvers.lambda_search(sys_, budget=5)

    @pytest.mark.parametrize("seed", range(8))
    def test_kkt_certificate(self, seed):
        rng = np.random.default_rng(seed)
        cols = int(rng.integers(3, 10))
        sys_ = random_system(rng, rows=40, cols=cols,
                             sparsity=int(rng.integers(1, cols + 1)),
                             scale_cols=True)
        budget = int(rng.integers(1, cols + 1))
        res = solvers.lambda_search(sys_, budget=budget)
        viol, scale = kkt_violation(sys_.a, sys_.b, res.beta, res.lambda_final)
        assert viol <= 1e-6 * scale

    @pytest.mark.parametrize("seed", range(6))
    def test_grid_contract(self, seed):
        rng = np.random.default_rng(seed + 100)
        sys_ = random_system(rng, rows=50, cols=8, sparsity=2, noise=0.05)
        budget = 2
        res = solvers.lambda_search(sys_, budget=budget)
        assert np.count_nonzero(res.beta) <= budget
        floor = solvers.LAMBDA_FLOOR_FRACTION * 2.0 * np.abs(sys_.corr()).max()
        if res.lambda_final > floor * (1 + 1e-12):
            prev, _ = solvers.lasso_coordinate_descent(
                sys_, res.lambda_final / solvers.DEFAULT_GRID_RATIO)
            assert np.count_nonzero(prev) > budget

    def test_selection_invariant_to_positive_row_rescaling(self, rng):
        sys_ = random_system(rng, rows=30, cols=6, sparsity=3, noise=0.2)
        res = solvers.lambda_search(sys_, budget=3)
        for c in (0.25, 4.0, 3.0):
            scaled = solvers.WeightedSystem(c * sys_.a, c * sys_.b)
            res_c = solvers.lambda_search(scaled, budget=3)
            assert res_c.support == res.support
            # Scaling A alone, as a constant factor on the feature gate
            # would: the grid scales with max|A^T b| and picks the same set.
            columns = solvers.WeightedSystem(c * sys_.a, sys_.b)
            res_c = solvers.lambda_search(columns, budget=3)
            assert res_c.support == res.support
            assert res_c.lambda_final == pytest.approx(c * res.lambda_final, rel=1e-9)


class TestBackfill:
    """Greedy backfill against the same picks made by lstsq over A itself."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_lstsq_over_a_with_singular_restricted_gram(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(30, 8)) * rng.uniform(0.2, 3.0, size=8)
        a[:, 5] = 2.0 * a[:, 2]  # duplicates up to a power-of-two scale, so
        a[:, 7] = 4.0 * a[:, 3]  # G_SS is exactly singular once both are in S
        a[:, 6] = 0.0
        b = a @ rng.normal(size=8) + 0.3 * rng.normal(size=30)
        sys_ = solvers.WeightedSystem(a, b)
        # A floor above lambda_max leaves beta = 0, so backfill picks every column.
        floor_above_lambda_max(monkeypatch)
        # Budget 6 is left out: the sixth pick is between columns 2 and 3,
        # which lie in span(A_S) once 5 and 7 are in, so both scores are
        # rounding noise and either pick is exact.
        for budget in (1, 2, 3, 4, 5, 7, 8):
            with warnings.catch_warnings():
                warnings.simplefilter("error", scipy.linalg.LinAlgWarning)
                res = solvers.lambda_search(sys_, budget)
            assert not res.beta.any()
            assert res.support == greedy_backfill(a, b, [], min(budget, 7))
            assert res.budget_warning == (budget == 8)
            want = subset_residual(a, b, res.support)
            assert res.residual_norm == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_lstsq_over_a_on_nearly_collinear_columns(self, seed, monkeypatch):
        # Column 5 is column 2 plus a 1e-9 perturbation: cond(A_S) is about
        # 1e9 once both are in S, so cond(G_SS) is about 1e18 and the normal
        # equations alone would drop the direction that tells them apart.
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(30, 8)) * rng.uniform(0.2, 3.0, size=8)
        a[:, 5] = a[:, 2] + 1e-9 * rng.normal(size=30)
        b = a @ rng.normal(size=8) + 0.3 * rng.normal(size=30)
        sys_ = solvers.WeightedSystem(a, b)
        floor_above_lambda_max(monkeypatch)
        for budget in range(1, 9):
            res = solvers.lambda_search(sys_, budget)
            assert res.support == greedy_backfill(a, b, [], budget)
            # The fit weighs the near-duplicate pair by about +-1e7, so either
            # way of forming b - A_S w cancels to about 1e-7 relative.
            want = subset_residual(a, b, res.support)
            assert res.residual_norm == pytest.approx(want, rel=1e-6)

    def test_lasso_support_is_kept_and_extended(self, rng, monkeypatch):
        sys_ = random_system(rng, rows=40, cols=7, sparsity=2, noise=0.05)
        lam = solvers.lambda_search(sys_, budget=1).lambda_final
        # Start the grid at (about) the budget-1 lambda.
        monkeypatch.setattr(solvers, "LAMBDA_FLOOR_FRACTION",
                            lam / (2.0 * np.abs(sys_.corr()).max()))
        res = solvers.lambda_search(sys_, budget=5)
        start = np.flatnonzero(res.beta).tolist()
        assert 1 <= len(start) < 5
        assert res.support == greedy_backfill(sys_.a, sys_.b, start, 5)


def streamed(a, b, sizes):
    """(A, b) fed to a SystemStream in row blocks of the given sizes."""
    stream = solvers.SystemStream()
    edges = np.cumsum([0, *sizes])
    assert edges[-1] == len(b)
    for lo, hi in zip(edges[:-1], edges[1:]):
        stream.add(solvers.WeightedSystem(a[lo:hi], b[lo:hi]))
    return stream.system()


class TestSystemStream:
    @pytest.mark.parametrize("seed", range(6))
    def test_selection_matches_the_dense_system(self, seed):
        # The first block has fewer rows than columns + 1.
        rng = np.random.default_rng(seed)
        sys_ = random_system(rng, rows=60, cols=8, sparsity=4, noise=0.3,
                             scale_cols=True)
        r = streamed(sys_.a, sys_.b, [3, 17, 1, 39])
        assert r.a.shape == (9, 8)
        beta = rng.normal(size=8)
        assert np.linalg.norm(r.b - r.a @ beta) == pytest.approx(
            np.linalg.norm(sys_.b - sys_.a @ beta), rel=1e-12)
        for budget in range(1, 9):
            got = solvers.lambda_search(r, budget)
            want = solvers.lambda_search(sys_, budget)
            assert got.support == want.support
            assert got.lambda_final == pytest.approx(want.lambda_final, rel=1e-9)
            assert got.residual_norm == pytest.approx(want.residual_norm, rel=1e-9)

    def test_bit_identical_columns_merge_across_blocks(self, rng):
        a = rng.normal(size=(30, 6))
        a[:, 4] = a[:, 1]
        a[:, 5] = a[:, 1]
        r = streamed(a, rng.normal(size=30), [4, 10, 16])
        assert r.first_copy.tolist() == [0, 1, 2, 3, 1, 1]
        assert not np.array_equal(r.a[:, 1], r.a[:, 4])  # R's copies differ

    def test_columns_equal_in_the_first_block_only_do_not_merge(self, rng):
        # 1, 3 and 5 agree on the first block; on the second only 3 and 5 do.
        a = rng.normal(size=(20, 6))
        a[:8, 3] = a[:8, 1]
        a[:, 5] = a[:, 3]
        a[:8, 4] = a[:8, 0]
        r = streamed(a, rng.normal(size=20), [8, 12])
        assert r.first_copy.tolist() == [0, 1, 2, 3, 4, 3]

    def test_zero_column_stays_exactly_zero(self, rng):
        a = rng.normal(size=(40, 5))
        a[:, 2] = 0.0
        a[:, 4] = 0.0
        r = streamed(a, rng.normal(size=40), [2, 20, 18])
        assert not r.a[:, [2, 4]].any()
        assert r.col_sq_norms[[0, 1, 3]].all()
        assert r.first_copy.tolist() == [0, 1, 2, 3, 4]

    def test_only_all_zero_columns_pair_unread(self, rng):
        # Column 4's squared norm underflows to zero, but it is not all zero;
        # columns 5 and 6 share their minimum and a zero maximum but differ.
        a = rng.normal(size=(20, 7))
        a[:, [1, 3]] = 0.0
        a[:, 4] = 1e-170
        a[:, 5] = a[:, 6] = -np.abs(rng.normal(size=20))
        a[0, [5, 6]] = 0.0
        a[1, 6] /= 2.0
        a[2, [5, 6]] = -10.0
        assert (a[:, 4] ** 2).sum() == 0.0
        assert solvers._narrow_copies(None, a).tolist() == [0, 1, 2, 1, 4, 5, 6]
        first = np.array([0, 1, 2, 1, 1, 5, 5])
        assert solvers._narrow_copies(first, a).tolist() == [0, 1, 2, 1, 4, 5, 6]

    @pytest.mark.parametrize("seed", range(6))
    def test_backfill_on_nearly_collinear_columns(self, seed, monkeypatch):
        # TestBackfill's near-duplicate pair, through the factor: its
        # columns keep cond(A_S), about 1e9, so the picks still match lstsq
        # over A itself.
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(30, 8)) * rng.uniform(0.2, 3.0, size=8)
        a[:, 5] = a[:, 2] + 1e-9 * rng.normal(size=30)
        b = a @ rng.normal(size=8) + 0.3 * rng.normal(size=30)
        r = streamed(a, b, [5, 25])
        floor_above_lambda_max(monkeypatch)
        for budget in range(1, 9):
            res = solvers.lambda_search(r, budget)
            assert res.support == greedy_backfill(a, b, [], budget)
            want = subset_residual(a, b, res.support)
            assert res.residual_norm == pytest.approx(want, rel=1e-6)

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError, match="no rows"):
            solvers.SystemStream().system()

    @pytest.mark.parametrize("case", ["short_first_block", "zero_columns",
                                      "twin_columns", "wide"])
    @pytest.mark.parametrize("seed", range(3))
    def test_factor_is_byte_equal_to_numpy_qr(self, case, seed):
        # "wide" has more than 128 columns, where LAPACK's QR is blocked and
        # its block size comes from the workspace size.  numpy and scipy
        # each ship their own OpenBLAS, whose blocked updates split across
        # threads differently, so that case is pinned to one BLAS thread.
        if case == "wide" and os.environ.get("OPENBLAS_NUM_THREADS") != "1":
            pytest.skip("blocked QR bits match numpy's only with OPENBLAS_NUM_THREADS=1")
        rng = np.random.default_rng(seed)
        rows, cols, sizes = {"short_first_block": (60, 8, [3, 17, 1, 39]),
                             "zero_columns": (40, 6, [2, 20, 18]),
                             "twin_columns": (30, 6, [4, 10, 16]),
                             "wide": (400, 140, [150, 250])}[case]
        a = rng.normal(size=(rows, cols))
        if case == "zero_columns":
            a[:, [2, 4]] = 0.0
        if case == "twin_columns":
            a[:, 4] = a[:, 5] = a[:, 1]
        b = rng.normal(size=rows)
        edges = np.cumsum([0, *sizes])
        blocks = [(a[lo:hi], b[lo:hi]) for lo, hi in zip(edges[:-1], edges[1:])]
        # A pruning stage streams column-major blocks; odd seeds do too.
        order = "F" if seed % 2 else "C"
        stream = solvers.SystemStream()
        for block_a, block_b in blocks:
            stream.add(solvers.WeightedSystem(np.asarray(block_a, order=order), block_b))
        want = qr_fold(blocks)
        assert stream.r.shape == want.shape and stream.r.tobytes() == want.tobytes()

    def test_failed_factorisation_raises(self, rng, monkeypatch):
        def dgeqrf(a, lwork=None, overwrite_a=False):
            return a, np.zeros(min(a.shape)), np.zeros(1), -2

        monkeypatch.setattr(scipy.linalg.lapack, "dgeqrf", dgeqrf)
        with pytest.raises(np.linalg.LinAlgError, match="dgeqrf failed with info=-2"):
            solvers.SystemStream().add(solvers.WeightedSystem(rng.normal(size=(5, 3)),
                                                              rng.normal(size=5)))


class TestLeastSquaresRefit:
    def test_recovers_generating_filters(self, rng):
        rows, kept, kh, kw, c_out = 60, 3, 3, 3, 4
        patches = rng.normal(size=(rows, kept * kh * kw))
        true_w = rng.normal(size=(c_out, kept, kh, kw))
        targets = patches @ true_w.reshape(c_out, -1).T
        res = solvers.least_squares_refit(patches, targets, (kh, kw))
        np.testing.assert_allclose(res.weights, true_w, atol=1e-8)
        assert res.damping == 0.0

    def test_zero_targets_zero_weights(self, rng):
        patches = rng.normal(size=(20, 8))
        res = solvers.least_squares_refit(patches, np.zeros((20, 2)), (2, 2))
        np.testing.assert_allclose(res.weights, 0.0, atol=1e-12)

    def test_matches_qr_oracle_residual(self, rng):
        patches = rng.normal(size=(50, 12))
        targets = rng.normal(size=(50, 3))
        res = solvers.least_squares_refit(patches, targets, (2, 2))
        pred = patches @ res.weights.reshape(3, -1).T
        got = np.linalg.norm(targets - pred)

        q, r = np.linalg.qr(patches)
        w_qr = np.linalg.solve(r, q.T @ targets)
        want = np.linalg.norm(targets - patches @ w_qr)
        assert abs(got - want) < 1e-9

    def test_rank_deficient_escalates_damping(self, rng):
        col = rng.normal(size=(30, 1))
        patches = np.hstack([col, col, col, col])  # rank 1, 4 columns
        targets = rng.normal(size=(30, 1))
        res = solvers.least_squares_refit(patches, targets, (2, 2))
        assert res.damping > 0.0
        assert np.isfinite(res.weights).all()

    def test_residual_orthogonality(self, rng):
        patches = rng.normal(size=(80, 18))
        targets = rng.normal(size=(80, 4))
        res = solvers.least_squares_refit(patches, targets, (3, 3))
        w = res.weights.reshape(4, -1).T
        normal_residual = patches.T @ (targets - patches @ w)
        scale = np.linalg.norm(patches.T @ targets)
        assert np.linalg.norm(normal_residual) <= res.damping * np.linalg.norm(w) \
            + 1e-8 * scale

    def test_shape_validation(self, rng):
        with pytest.raises(ValueError, match="disagree on rows"):
            solvers.least_squares_refit(rng.normal(size=(5, 4)),
                                        rng.normal(size=(6, 2)), (2, 2))
        with pytest.raises(ValueError, match="do not split"):
            solvers.least_squares_refit(rng.normal(size=(5, 5)),
                                        rng.normal(size=(5, 2)), (2, 2))
