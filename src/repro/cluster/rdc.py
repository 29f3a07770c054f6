"""Randomized Dependence Coefficient (RDC) [Lopez-Paz et al. 2013].

DeepDB uses pairwise RDC to decide which column groups are (nearly)
independent and can be split under a product node.  RDC is the largest
canonical correlation between random nonlinear projections of the copula
transforms of the two variables; it detects nonlinear dependence that
plain correlation misses.
"""

from __future__ import annotations

import numpy as np


def _copula_transform(values: np.ndarray) -> np.ndarray:
    """Empirical CDF transform (ranks scaled to (0, 1])."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    ranks[order] = np.arange(1, len(values) + 1)
    return ranks / len(values)


def _random_features(
    u: np.ndarray, k: int, scale: float, rng: np.random.Generator
) -> np.ndarray:
    """Sine features of random affine projections of the copula values."""
    aug = np.column_stack([u, np.ones_like(u)])
    w = rng.normal(scale=scale, size=(2, k))
    return np.sin(aug @ w)


def _max_canonical_correlation(
    fx: np.ndarray, fy: np.ndarray, regularization: float = 1e-6
) -> float:
    """Largest canonical correlation between two feature blocks."""
    # scipy is imported on first use, not with the package: it adds
    # ~40 MB to every process that imports repro.
    from scipy import linalg

    n = fx.shape[0]
    fx = fx - fx.mean(axis=0)
    fy = fy - fy.mean(axis=0)
    cxx = fx.T @ fx / n + regularization * np.eye(fx.shape[1])
    cyy = fy.T @ fy / n + regularization * np.eye(fy.shape[1])
    cxy = fx.T @ fy / n
    # Solve the generalized eigenproblem for rho^2 via whitening.
    lx = linalg.cholesky(cxx, lower=True)
    ly = linalg.cholesky(cyy, lower=True)
    m = linalg.solve_triangular(lx, cxy, lower=True)
    m = linalg.solve_triangular(ly, m.T, lower=True).T
    sv = linalg.svdvals(m)
    return float(np.clip(sv[0], 0.0, 1.0)) if len(sv) else 0.0


def rdc(
    x: np.ndarray,
    y: np.ndarray,
    rng: np.random.Generator,
    num_features: int = 20,
    scale: float = 1.0 / 6.0,
) -> float:
    """RDC dependence score between two 1-D variables, in [0, 1]."""
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if len(x) != len(y):
        raise ValueError("x and y must have the same length")
    if len(x) < 3 or np.all(x == x[0]) or np.all(y == y[0]):
        return 0.0
    fx = _random_features(_copula_transform(x), num_features, scale, rng)
    fy = _random_features(_copula_transform(y), num_features, scale, rng)
    return _max_canonical_correlation(fx, fy)


def rdc_matrix(
    data: np.ndarray,
    rng: np.random.Generator,
    num_features: int = 20,
    max_rows: int = 2000,
) -> np.ndarray:
    """Pairwise RDC matrix over the columns of ``data`` (subsampled)."""
    data = np.asarray(data, dtype=np.float64)
    if data.shape[0] > max_rows:
        idx = rng.choice(data.shape[0], size=max_rows, replace=False)
        data = data[idx]
    n_cols = data.shape[1]
    out = np.eye(n_cols)
    for i in range(n_cols):
        for j in range(i + 1, n_cols):
            score = rdc(data[:, i], data[:, j], rng, num_features)
            out[i, j] = out[j, i] = score
    return out
