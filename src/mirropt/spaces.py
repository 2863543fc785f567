"""Finite-dimensional primal/dual vector arithmetic and norms.

Everything lives in R^n with the dot product as the pairing between a
space and its dual.  Primal and dual vectors share the same concrete
representation (a float64 ndarray) but are kept apart by naming; the
norm indices (p for primal, q = p/(p-1) for dual) carry the geometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import NDArray

Vector = NDArray[np.float64]
PrimalVector = Vector
DualVector = Vector

__all__ = [
    "Vector",
    "PrimalVector",
    "DualVector",
    "NormIndex",
    "as_vector",
    "pairing",
    "pairings",
    "lp_norm",
    "lp_norms",
    "bregman",
    "finite_difference_gradient",
]

DEFAULT_FD_STEP = 1e-5


@dataclass(frozen=True)
class NormIndex:
    """A norm exponent p in (1, inf) together with its conjugate q."""

    p: float

    def __post_init__(self):
        if not (1.0 < self.p < np.inf):
            raise ValueError(f"norm index p must lie in (1, inf), got {self.p}")

    @property
    def q(self) -> float:
        return self.p / (self.p - 1.0)


def as_vector(x, name: str = "vector") -> Vector:
    """Validate and convert input to a finite 1-d float64 array."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"{name} must be one-dimensional with length >= 1")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def pairing(u: DualVector, x: PrimalVector) -> float:
    """Canonical pairing <u, x> = sum_i u_i x_i."""
    u = np.asarray(u, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if u.shape != x.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {x.shape}")
    return float(u @ x)


def pairings(U: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Row-wise pairings <U_k, X_k> of two (n, d) stacks.

    Each row is one dot product, as in pairing, so every value equals
    pairing(U[k], X[k]) bit for bit.
    """
    U = np.asarray(U, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    if U.shape != X.shape or U.ndim != 2:
        raise ValueError(f"pairings needs two (n, d) stacks of one shape: {U.shape} vs {X.shape}")
    return (U[:, None, :] @ X[:, :, None])[:, 0, 0]


def lp_norm(x: Vector, p: float) -> float:
    """l_p norm for p in [1, inf]; p = inf gives the max norm."""
    x = np.asarray(x, dtype=np.float64)
    if p == np.inf:
        return float(np.max(np.abs(x)))
    if p < 1:
        raise ValueError(f"lp_norm requires p >= 1, got {p}")
    if p == 1:
        return float(np.sum(np.abs(x)))
    if p == 2:
        return float(np.linalg.norm(x))
    return float(np.sum(np.abs(x) ** p) ** (1.0 / p))


def lp_norms(X: np.ndarray, p: float) -> np.ndarray:
    """Row-wise lp_norm of an (n, d) stack, equal to lp_norm row by row bit for bit.

    The sums run over the last axis, row by row as lp_norm's; the root
    1/p is taken per scalar, since numpy's array power may round it
    differently from the scalar power lp_norm uses.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"lp_norms needs an (n, d) stack, got shape {X.shape}")
    if p == np.inf:
        return np.max(np.abs(X), axis=-1)
    if p < 1:
        raise ValueError(f"lp_norm requires p >= 1, got {p}")
    if p == 1:
        return np.sum(np.abs(X), axis=-1)
    if p == 2:
        return np.sqrt(pairings(X, X))
    return np.array([s ** (1.0 / p) for s in np.sum(np.abs(X) ** p, axis=-1)])


def bregman(
    h_value_at: Callable[[Vector], float],
    h_grad_at: Callable[[Vector], Vector],
    x: Vector,
    x0: Vector,
) -> float:
    """Bregman divergence D_h(x, x0) = h(x) - h(x0) - <grad h(x0), x - x0>."""
    x = np.asarray(x, dtype=np.float64)
    x0 = np.asarray(x0, dtype=np.float64)
    g0 = np.asarray(h_grad_at(x0), dtype=np.float64)
    if not np.all(np.isfinite(g0)):
        raise ValueError("gradient of h is undefined (non-finite) at x0")
    return float(h_value_at(x)) - float(h_value_at(x0)) - pairing(g0, x - x0)


def finite_difference_gradient(
    f: Callable[[Vector], float],
    x: Vector,
    step: float = DEFAULT_FD_STEP,
) -> DualVector:
    """Central-difference gradient, the oracle for analytic gradient checks."""
    if step <= 0:
        raise ValueError("finite-difference step must be positive")
    x = np.asarray(x, dtype=np.float64)
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        fp = float(f(x + e))
        fm = float(f(x - e))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError(f"non-finite function value near coordinate {i}")
        g[i] = (fp - fm) / (2.0 * step)
    return g
