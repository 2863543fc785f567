"""Entropy-regularized discrete optimal transport via the smoothed dual.

The dual objective

    h(u, v) = r log sum_{ij} exp((u_i + v_j - c_ij) / r) - <mu, u> - <nu, v>

is convex and smooth.  The solver runs it with L = 1/r and the Euclidean
DGF; a sampled-Hessian check measured about 0.98/r in l2 (and about 4/r
in the sup norm).  Driving its gradient to l1-norm epsilon / (8 ||C||_inf)
with r = epsilon / (2 log mn) and rounding the softmax plan to exact
feasibility yields a plan whose cost is within epsilon of optimal.  A
tiny exact LP oracle (endpoint evaluation for 2x2, basic-solution
enumeration up to 12 cells) supplies the reference optimum for the
accuracy checks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .dgf import euclidean
from .methods import run_concat
from .objectives import SmoothObjective
from .spaces import Vector

__all__ = [
    "OTInstance",
    "TransportPlan",
    "OTDualObjective",
    "ot_dual_value",
    "ot_dual_grad",
    "plan_from_dual",
    "round_plan",
    "solve_ot",
    "lp_oracle",
    "instance_from_descriptor",
]

MARGINAL_TOL = 1e-12
FEASIBILITY_TOL = 1e-10
DEFAULT_EVAL_CAP = 2 ** 20


@dataclass
class OTInstance:
    """Cost matrix plus strictly positive probability marginals."""

    C: np.ndarray
    mu: Vector
    nu: Vector

    def __post_init__(self):
        self.C = np.asarray(self.C, dtype=np.float64)
        self.mu = np.asarray(self.mu, dtype=np.float64)
        self.nu = np.asarray(self.nu, dtype=np.float64)
        m, n = self.C.shape
        if self.mu.shape != (m,) or self.nu.shape != (n,):
            raise ValueError("marginal lengths must match the cost matrix")
        if np.any(self.C < 0):
            raise ValueError("cost entries must be nonnegative")
        if np.any(self.mu <= 0) or np.any(self.nu <= 0):
            raise ValueError("marginals must have full support")
        if abs(self.mu.sum() - 1.0) > MARGINAL_TOL or abs(self.nu.sum() - 1.0) > MARGINAL_TOL:
            raise ValueError("marginals must each sum to 1")

    @property
    def shape(self) -> Tuple[int, int]:
        return self.C.shape

    def to_descriptor(self) -> dict:
        return {"C": self.C.tolist(), "mu": self.mu.tolist(), "nu": self.nu.tolist()}


def instance_from_descriptor(desc: dict) -> OTInstance:
    return OTInstance(
        C=np.asarray(desc["C"], dtype=np.float64),
        mu=np.asarray(desc["mu"], dtype=np.float64),
        nu=np.asarray(desc["nu"], dtype=np.float64),
    )


@dataclass
class TransportPlan:
    X: np.ndarray
    feasible: bool = False

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        if np.any(self.X < -MARGINAL_TOL):
            raise ValueError("transport plan has negative entries")

    def marginal_residual(self, inst: OTInstance) -> float:
        return float(
            np.max(np.abs(self.X.sum(axis=1) - inst.mu))
            + np.max(np.abs(self.X.sum(axis=0) - inst.nu))
        )


def _log_weights(inst: OTInstance, r: float, u: Vector, v: Vector) -> np.ndarray:
    return (u[:, None] + v[None, :] - inst.C) / r


def ot_dual_value(inst: OTInstance, r: float, u: Vector, v: Vector) -> float:
    if r <= 0:
        raise ValueError("temperature r must be positive")
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    z = _log_weights(inst, r, u, v)
    m = float(np.max(z))
    lse = m + math.log(float(np.sum(np.exp(z - m))))
    return r * lse - float(inst.mu @ u) - float(inst.nu @ v)


def ot_dual_grad(inst: OTInstance, r: float, u: Vector, v: Vector) -> Tuple[Vector, Vector]:
    """(softmax-plan marginals) minus (mu, nu); both blocks sum to zero."""
    if r <= 0:
        raise ValueError("temperature r must be positive")
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    z = _log_weights(inst, r, u, v)
    z = z - np.max(z)
    P = np.exp(z)
    P /= P.sum()
    return P.sum(axis=1) - inst.mu, P.sum(axis=0) - inst.nu


def plan_from_dual(inst: OTInstance, r: float, u: Vector, v: Vector) -> TransportPlan:
    """Normalized Gibbs kernel X = B / sum(B); entries sum to 1."""
    if r <= 0:
        raise ValueError("temperature r must be positive")
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    z = _log_weights(inst, r, u, v)
    z = z - np.max(z)
    B = np.exp(z)
    return TransportPlan(X=B / B.sum())


def round_plan(inst: OTInstance, plan: TransportPlan) -> TransportPlan:
    """Row-cap, column-cap, rank-one fix; output is exactly feasible.

    The total l1 movement is at most twice the input's marginal
    violation, so the rounding cannot spoil an accurate dual solve.
    """
    X = np.asarray(plan.X, dtype=np.float64)
    if np.any(X < 0):
        raise ValueError("round_plan requires a nonnegative plan")
    rows = X.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        row_scale = np.where(rows > 0, np.minimum(1.0, inst.mu / rows), 1.0)
    X1 = X * row_scale[:, None]
    cols = X1.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        col_scale = np.where(cols > 0, np.minimum(1.0, inst.nu / cols), 1.0)
    X2 = X1 * col_scale[None, :]
    err_r = inst.mu - X2.sum(axis=1)
    err_c = inst.nu - X2.sum(axis=0)
    s = err_r.sum()
    if s > 0:
        X2 = X2 + np.outer(err_r, err_c) / s
    return TransportPlan(X=X2, feasible=True)


@dataclass
class OTDualObjective(SmoothObjective):
    """The dual h as a smooth objective on the stacked variable z = (u, v).

    L = 1/r is the constant the solver uses with the Euclidean DGF; a
    sampled-Hessian check measured about 0.98/r in l2 and about 4/r in
    the sup norm.
    """

    inst: OTInstance
    r: float

    def __post_init__(self):
        if self.r <= 0:
            raise ValueError("temperature r must be positive")
        self.kind = "ot-dual"
        self.norm_p = np.inf
        self.L = 1.0 / self.r
        self.x_star = None
        self.f_star = None
        self._m, self._n = self.inst.shape

    def split(self, z: Vector) -> Tuple[Vector, Vector]:
        z = self._check_dim(z, self._m + self._n)
        return z[: self._m], z[self._m:]

    def value(self, z: Vector) -> float:
        u, v = self.split(z)
        return ot_dual_value(self.inst, self.r, u, v)

    def grad(self, z: Vector) -> Vector:
        u, v = self.split(z)
        gu, gv = ot_dual_grad(self.inst, self.r, u, v)
        return np.concatenate([gu, gv])

    def to_descriptor(self) -> dict:
        d = self.inst.to_descriptor()
        d["kind"] = self.kind
        d["r"] = self.r
        return d


class _CountingObjective(SmoothObjective):
    """Wrapper that counts gradient evaluations for the solver budget."""

    def __init__(self, base: SmoothObjective):
        self.base = base
        self.kind = base.kind
        self.L = base.L
        self.norm_p = base.norm_p
        self.x_star = base.x_star
        self.f_star = base.f_star
        self.grad_evals = 0

    def value(self, x):
        return self.base.value(x)

    def grad(self, x):
        self.grad_evals += 1
        return self.base.grad(x)


@dataclass
class OTResult:
    plan: TransportPlan
    cost: float
    report: dict

    def to_json_dict(self) -> dict:
        return {
            "cost": self.cost,
            "N": self.report["N"],
            "grad_l1": self.report["grad_l1"],
            "plan": self.plan.X.tolist(),
            "report": self.report,
        }


def solve_ot(inst: OTInstance, eps: float, eval_cap: int = DEFAULT_EVAL_CAP) -> OTResult:
    """Accuracy-epsilon transport plan via the smoothed-dual pipeline.

    Sets r = eps / (2 log mn), runs the value-stage/gradient-stage
    concatenation on h from (0, 0), doubling N until
    ||grad h||_1 <= eps / (8 ||C||_inf), then rounds the softmax plan.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    m, n = inst.shape
    if m * n < 2:
        raise ValueError("instance must have at least two cells")
    r = eps / (2.0 * math.log(m * n))
    c_max = float(np.max(np.abs(inst.C)))
    grad_tol = math.inf if c_max == 0.0 else eps / (8.0 * c_max)

    h = _CountingObjective(OTDualObjective(inst, r=r))
    phi = euclidean()
    z0 = np.zeros(m + n)
    N = 1
    while True:
        run = run_concat(h, phi, phi, z0, N, L=h.L, sigma1=1.0, sigma2=1.0)
        z = run.final_x
        # grad h(q_N), already evaluated by the run; no uncounted extra call.
        grad_l1 = float(np.sum(np.abs(run.dual_amd.dual_traj.f_grads[-1])))
        if grad_l1 <= grad_tol:
            break
        if h.grad_evals >= eval_cap:
            raise RuntimeError(
                f"gradient-evaluation budget {eval_cap} exhausted at N={N} "
                f"(grad l1 = {grad_l1:.3e}, tol = {grad_tol:.3e})"
            )
        N *= 2

    u, v = h.base.split(z)
    raw = plan_from_dual(inst, r, u, v)
    rounded = round_plan(inst, raw)
    cost = float(np.sum(inst.C * rounded.X))
    report = {
        "N": N,
        "r": r,
        "grad_l1": grad_l1,
        "grad_tol": grad_tol,
        "grad_evals": h.grad_evals,
        "rounding_l1": float(np.sum(np.abs(rounded.X - raw.X))),
        "rounding_l1_bound": 2.0 * grad_l1,
        "suboptimality_bound": r * math.log(m * n) + 2.0 * c_max * grad_l1,
        "marginal_residual": rounded.marginal_residual(inst),
    }
    return OTResult(plan=rounded, cost=cost, report=report)


def _lp_oracle_2x2(inst: OTInstance) -> float:
    mu, nu, C = inst.mu, inst.nu, inst.C
    lo = max(0.0, mu[0] + nu[0] - 1.0)
    hi = min(mu[0], nu[0])

    def cost(t):
        X = np.array([[t, mu[0] - t], [nu[0] - t, mu[1] - (nu[0] - t)]])
        return float(np.sum(C * X))

    return min(cost(lo), cost(hi))


def _lp_oracle_enumerate(inst: OTInstance) -> float:
    """Minimum over basic feasible solutions with m+n-1 support cells."""
    m, n = inst.shape
    cells = list(itertools.product(range(m), range(n)))
    rhs = np.concatenate([inst.mu, inst.nu])
    best = math.inf
    for support in itertools.combinations(cells, m + n - 1):
        A = np.zeros((m + n, len(support)))
        for idx, (i, j) in enumerate(support):
            A[i, idx] = 1.0
            A[m + j, idx] = 1.0
        sol, residual, rank, _ = np.linalg.lstsq(A, rhs, rcond=None)
        if np.max(np.abs(A @ sol - rhs)) > 1e-9:
            continue
        if np.any(sol < -1e-9):
            continue
        cost = float(sum(inst.C[i, j] * x for (i, j), x in zip(support, sol)))
        best = min(best, cost)
    if not math.isfinite(best):
        raise RuntimeError("no basic feasible solution found")
    return best


def lp_oracle(inst: OTInstance) -> float:
    """Exact optimal transport cost for tiny instances."""
    m, n = inst.shape
    if m == 2 and n == 2:
        return _lp_oracle_2x2(inst)
    if m * n <= 12:
        return _lp_oracle_enumerate(inst)
    raise ValueError("lp_oracle supports 2x2 or up to 12 cells")
