import math

import numpy as np
import pytest

from convexlab.experiments import ExperimentConfig, run_experiment
from convexlab.storage import load_calibration


@pytest.fixture(scope="session")
def calibration_small(tmp_path_factory):
    """The measured constant c0_hat at test scale (n=64, N=256), measured once
    by the lab's own calibrate-c0 and read back from its record file."""
    path = tmp_path_factory.mktemp("calibration") / "small.json"
    run_experiment(
        ExperimentConfig(
            "calibrate-c0", seed=2024, n=64, N=256, trials=100,
            overrides={"points_per_body": 1000}, output_path=str(path),
        )
    )
    return load_calibration(str(path)).c0_hat


# Accuracy of gauss.upper_orthant against 40-digit values: relative for
# rho > 0, in units of sf(h) sf(k) for rho < 0 (test_gauss.TestSheppardOrthant,
# measured worst 2.2e-14).  test_tolerant's exact-tail check allows it.
ORTHANT_RTOL = 5e-14


# -- independent scalar oracles (series-based, no reuse of package paths) -----


def series_normal_cdf(x: float) -> float:
    """High-precision cdf oracle: Taylor series for erf, valid for |x| <= 8."""
    z = x / math.sqrt(2.0)
    total = 0.0
    term = z
    n = 0
    while abs(term) > 1e-22 and n < 500:
        total += term / (2 * n + 1)
        n += 1
        term *= -z * z / n
    erf = 2.0 / math.sqrt(math.pi) * total
    return 0.5 * (1.0 + erf)


def two_proportion_z(hits_a: int, total_a: int, hits_b: int, total_b: int) -> float:
    """Pooled two-sample z statistic for the difference of two frequencies."""
    pooled = (hits_a + hits_b) / (total_a + total_b)
    se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / total_a + 1.0 / total_b))
    return (hits_a / total_a - hits_b / total_b) / se


def homogeneity_pvalue(keys_a, keys_b, min_expected: float = 5.0) -> float:
    """Chi-square homogeneity p-value of two samples of hashable outcomes.

    Outcomes whose expected count falls below `min_expected` in either sample
    are pooled into one cell.
    """
    from collections import Counter

    from scipy.stats import chi2_contingency

    count_a, count_b = Counter(keys_a), Counter(keys_b)
    share = min(len(keys_a), len(keys_b)) / (len(keys_a) + len(keys_b))
    table, pooled = [], [0, 0]
    for key in set(count_a) | set(count_b):
        cell = [count_a[key], count_b[key]]
        if sum(cell) * share < min_expected:
            pooled = [pooled[0] + cell[0], pooled[1] + cell[1]]
        else:
            table.append(cell)
    if sum(pooled):
        table.append(pooled)
    if len(table) < 2:
        return 1.0
    return float(chi2_contingency(np.array(table).T, correction=False).pvalue)


def bisect_quantile(p: float, cdf=series_normal_cdf) -> float:
    lo, hi = -12.0, 12.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def separated_by_direction_scan(y, points, directions: int = 10_000) -> bool:
    """Brute-force 2-D separating-hyperplane search over a dense angle grid."""
    y = np.asarray(y, dtype=float)
    points = np.asarray(points, dtype=float)
    assert y.shape == (2,)
    angles = np.linspace(0.0, 2.0 * math.pi, directions, endpoint=False)
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    margins = dirs @ y - (points @ dirs.T).max(axis=0)
    return bool((margins > 1e-7).any())
