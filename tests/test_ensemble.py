"""Aggregation against sort-based and direct-formula oracles."""

from __future__ import annotations

import math

import numpy as np
import pytest

from gendt.ensemble import (
    EmptyMatrix,
    LengthMismatch,
    PredictionMatrix,
    aggregate,
    error_stats,
    rmse,
)
from gendt.errors import EmptyInput


def sort_oracle_column(column: list[float]) -> tuple[float, float]:
    """Median via full sort (even counts average the central pair) and
    population standard deviation via the direct formula."""
    ordered = sorted(column)
    k = len(ordered)
    if k % 2:
        med = ordered[k // 2]
    else:
        med = (ordered[k // 2 - 1] + ordered[k // 2]) / 2
    mean = math.fsum(column) / k
    sd = math.sqrt(math.fsum((v - mean) ** 2 for v in column) / k)
    return med, sd


def random_matrix(rng, k=None, width=None) -> PredictionMatrix:
    k = k or int(rng.integers(1, 12))
    width = width or int(rng.integers(1, 51))
    rows = tuple(tuple(rng.normal(0, 10, width).tolist()) for _ in range(k))
    return PredictionMatrix(rows)


def test_single_row_identity():
    est = aggregate(PredictionMatrix(((1.5, -2.0, 3.25),)))
    assert est.median.tolist() == [1.5, -2.0, 3.25]
    assert est.sd.tolist() == [0.0, 0.0, 0.0]


def test_odd_k_order_statistic():
    est = aggregate(PredictionMatrix(((1.0,), (2.0,), (100.0,))))
    assert est.median.tolist() == [2.0]


def test_even_k_midpoint():
    est = aggregate(PredictionMatrix(((1.0,), (2.0,), (3.0,), (10.0,))))
    assert est.median.tolist() == [2.5]


def test_matches_sort_oracle_on_random_matrices():
    rng = np.random.default_rng(42)
    for _ in range(100):
        matrix = random_matrix(rng)
        est = aggregate(matrix)
        for j in range(matrix.horizon):
            column = [row[j] for row in matrix.rows]
            med, sd = sort_oracle_column(column)
            assert est.median[j] == med  # exact, not approximate
            assert est.sd[j] == pytest.approx(sd, abs=1e-12)


def test_row_permutation_invariance():
    rng = np.random.default_rng(5)
    for _ in range(50):
        matrix = random_matrix(rng, k=int(rng.integers(2, 10)))
        est = aggregate(matrix)
        perm = rng.permutation(matrix.attempts_used)
        shuffled = aggregate(PredictionMatrix(tuple(matrix.rows[i] for i in perm)))
        assert shuffled.median.tolist() == est.median.tolist()
        assert shuffled.sd.tolist() == est.sd.tolist()


def test_median_robust_to_single_row_replacement():
    """Replacing one row moves each median no further than an adjacent order
    statistic of the original column."""
    rng = np.random.default_rng(9)
    for _ in range(50):
        k = int(rng.integers(3, 11))
        matrix = random_matrix(rng, k=k, width=int(rng.integers(1, 10)))
        corrupt_row = tuple(rng.uniform(-1e6, 1e6, matrix.horizon).tolist())
        victim = int(rng.integers(0, k))
        rows = list(matrix.rows)
        rows[victim] = corrupt_row
        est = aggregate(PredictionMatrix(tuple(rows)))
        for j in range(matrix.horizon):
            column = sorted(row[j] for row in matrix.rows)
            if k % 2:
                m = k // 2
                lo, hi = column[m - 1], column[m + 1]
            else:
                m = k // 2 - 1
                lo, hi = column[max(m - 1, 0)], column[min(m + 2, k - 1)]
            assert lo <= est.median[j] <= hi


def test_empty_matrix_rejected():
    with pytest.raises(EmptyMatrix):
        PredictionMatrix(())


def test_ragged_rows_rejected():
    with pytest.raises(LengthMismatch):
        PredictionMatrix(((1.0, 2.0), (1.0,)))


def test_error_stats_identity():
    assert error_stats(np.subtract([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])) == (0.0, 0.0)


def test_error_stats_constant_offset():
    err_avg, err_std = error_stats(np.subtract([1.0, 2.0, 3.0], [2.0, 3.0, 4.0]))
    assert err_avg == pytest.approx(1.0, abs=1e-15)
    assert err_std == pytest.approx(0.0, abs=1e-15)


def test_error_stats_matches_direct_formula():
    rng = np.random.default_rng(12)
    median = rng.normal(0, 3, 100).tolist()
    truth = rng.normal(0, 3, 100).tolist()
    err_avg, err_std = error_stats(np.subtract(truth, median))
    e = [abs(t - m) for t, m in zip(truth, median)]
    mean = math.fsum(e) / len(e)
    std = math.sqrt(math.fsum((v - mean) ** 2 for v in e) / len(e))
    assert err_avg == pytest.approx(mean, abs=1e-12)
    assert err_std == pytest.approx(std, abs=1e-12)


def test_rmse_identical_is_zero():
    assert rmse(np.subtract([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])) == 0.0


def test_rmse_three_four():
    assert rmse([3.0, 4.0]) == pytest.approx(math.sqrt(25 / 2), abs=1e-12)


def test_rmse_matches_direct_formula():
    rng = np.random.default_rng(33)
    a = rng.normal(0, 2, 100).tolist()
    b = rng.normal(0, 2, 100).tolist()
    direct = math.sqrt(math.fsum((x - y) ** 2 for x, y in zip(a, b)) / len(a))
    assert rmse(np.subtract(a, b)) == pytest.approx(direct, abs=1e-12)


def test_rmse_symmetric_and_at_least_mae():
    rng = np.random.default_rng(2)
    for _ in range(30):
        n = int(rng.integers(1, 40))
        a = rng.normal(0, 5, n)
        b = rng.normal(0, 5, n)
        assert rmse(a - b) == rmse(b - a)
        mae = sum(abs(x - y) for x, y in zip(a, b)) / n
        assert rmse(a - b) >= mae - 1e-12


def test_rmse_rows_equal_one_dimensional_rmse_bitwise():
    """An epoch scores the median and every attempt from one stacked
    difference array; each row's value must be the 1-D value bit for bit."""
    rng = np.random.default_rng(8)
    for _ in range(50):
        errors = rng.normal(0, 3, (int(rng.integers(1, 12)), int(rng.integers(1, 300))))
        assert rmse(errors).tolist() == [rmse(row) for row in errors]


def test_rmse_validation():
    with pytest.raises(EmptyInput):
        rmse([])
    with pytest.raises(EmptyInput):
        rmse(np.empty((3, 0)))
    with pytest.raises(EmptyInput):
        error_stats([])


def test_max_error_bounds_err_avg():
    rng = np.random.default_rng(6)
    median = rng.normal(0, 1, 50).tolist()
    truth = rng.normal(0, 1, 50).tolist()
    err_avg, _ = error_stats(np.subtract(truth, median))
    assert max(abs(t - m) for t, m in zip(truth, median)) >= err_avg
