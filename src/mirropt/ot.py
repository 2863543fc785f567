"""Entropy-regularized discrete optimal transport via the smoothed dual.

The dual objective

    h(u, v) = r log sum_{ij} exp((u_i + v_j - c_ij) / r) - <mu, u> - <nu, v>

is convex and smooth: its Hessian is (1/r) times the covariance, under
the softmax plan, of u_i + v_j, so h is (1/r)-smooth in l2 (the norm of
the solver's Euclidean DGF) and (4/r)-smooth in the sup norm.  Driving
its gradient to l1-norm epsilon / (8 ||C||_inf) with
r = epsilon / (2 log mn) and rounding the softmax plan to exact
feasibility yields a plan whose cost is within epsilon of optimal.

The Gibbs kernel is separable, exp((u_i + v_j - c_ij) / r) =
e^{u_i/r} K_ij e^{v_j/r} with K = exp(-C/r), so the gradient and the
plan are taken in this scaling form: K once per solve, then two
matrix-vector products and m + n exponentials per gradient.  The log
domain (shift by the max, exponentiate, normalize) is kept where K
would lose floats: when C.max()/r exceeds -log(tiny) (some K_ij would
not be a normal float), and, as a backstop, when the scaled total is
not finite or so small that entries within 2^-52 of the largest could
underflow.  Both rules depend only on (C, r, u, v), so the gradient is a
pure function of the point.  The rounding and suboptimality bounds use
only the gradient at the returned point, so the solver stops at the
first gradient it evaluates within tolerance.  A tiny exact LP oracle
(basic-solution enumeration up to 12 cells) supplies the reference
optimum for the accuracy checks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .dgf import euclidean
from .methods import AMDPath, run_dual_amd
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
_TINY = np.finfo(np.float64).tiny
# exp(-x) is a normal float for every x <= _LOG_TINY (about 708.4).
_LOG_TINY = -math.log(_TINY)


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
        if not (np.isfinite(self.C).all() and np.isfinite(self.mu).all() and np.isfinite(self.nu).all()):
            raise ValueError("costs and marginals must be finite")
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


def ot_dual_value(inst: OTInstance, r: float, u: Vector, v: Vector) -> float:
    if r <= 0:
        raise ValueError("temperature r must be positive")
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    z = (u[:, None] + v[None, :] - inst.C) / r
    m = float(np.max(z))
    lse = m + math.log(float(np.sum(np.exp(z - m))))
    return r * lse - float(inst.mu @ u) - float(inst.nu @ v)


def _gibbs(inst: OTInstance, r: float, u: Vector, v: Vector, out: np.ndarray) -> np.ndarray:
    """Normalized Gibbs kernel exp((u_i + v_j - c_ij) / r) / sum, computed in out.

    The log-domain kernel: shift by the max, exponentiate, normalize.
    """
    np.add(u[:, None], v[None, :], out=out)
    out -= inst.C
    out /= r
    out -= out.max()
    np.exp(out, out=out)
    out /= out.sum()
    return out


def _scaling_kernel(inst: OTInstance, r: float) -> Optional[np.ndarray]:
    """K = exp(-C/r) if every entry is a normal float, else None (the gate)."""
    if inst.C.max() / r > _LOG_TINY:
        return None
    K = np.divide(inst.C, -r)
    return np.exp(K, out=K)


def ot_dual_grad(inst: OTInstance, r: float, u: Vector, v: Vector) -> Tuple[Vector, Vector]:
    """(softmax-plan marginals) minus (mu, nu); both blocks sum to zero."""
    g = OTDualObjective(inst, r=r).grad(np.concatenate([u, v]))
    return g[: inst.shape[0]], g[inst.shape[0]:]


def plan_from_dual(inst: OTInstance, r: float, u: Vector, v: Vector) -> TransportPlan:
    """Normalized Gibbs kernel X = B / sum(B); entries sum to 1."""
    return OTDualObjective(inst, r=r)._plan(np.concatenate([u, v]))


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

    L = 1/r in l2 (norm_p = 2), the norm of the solver's Euclidean DGF;
    the sup-norm constant is 4/r (see smoothness_constant).  The scaling
    kernel K = exp(-C/r) is formed once, here; the log-domain buffer is
    allocated on the first gradient that needs it.
    """

    inst: OTInstance
    r: float

    def __post_init__(self):
        if self.r <= 0:
            raise ValueError("temperature r must be positive")
        self.kind = "ot-dual"
        self.norm_p = 2.0
        self.L = 1.0 / self.r
        self.x_star = None
        self.f_star = None
        self._m, self._n = self.inst.shape
        self._K = _scaling_kernel(self.inst, self.r)
        self._mu_nu = np.concatenate([self.inst.mu, self.inst.nu])
        self._blocks = np.array([0, self._m])  # where u and v start in z
        self._block_of = np.repeat([0, 1], [self._m, self._n])
        self._floor = self._m * self._n * 2.0 ** 52 * _TINY
        self._buffer = None  # log-domain kernel, reused once allocated

    def split(self, z: Vector) -> Tuple[Vector, Vector]:
        z = self._check_dim(z, self._m + self._n)
        return z[: self._m], z[self._m:]

    def value(self, z: Vector) -> float:
        u, v = self.split(z)
        return ot_dual_value(self.inst, self.r, u, v)

    def grad(self, z: Vector) -> Vector:
        """Row sums, then column sums, of the normalized Gibbs kernel at z, minus (mu, nu)."""
        z = self._check_dim(z, self._m + self._n)
        g = np.empty(z.size)
        if self._scaling(z, g) is None:
            m = self._m
            if self._buffer is None:
                self._buffer = np.empty(self.inst.shape)
            P = _gibbs(self.inst, self.r, z[:m], z[m:], self._buffer)
            P.sum(axis=1, out=g[:m])
            P.sum(axis=0, out=g[m:])
        g -= self._mu_nu
        return g

    def _scaling(self, z: Vector, g: Vector) -> Optional[Tuple[Vector, float]]:
        """The scaling form at z = (u, v): marginals into g, and (e, tot); None for the log domain.

        e = exp((z - block max)/r) stacks a = exp((u - max u)/r) and
        b = exp((v - max v)/r), one exp over m + n entries; the Gibbs
        kernel is a_i K_ij b_j / tot.  g gets the row sums a * (K @ b),
        then the column sums (a @ K) * b, both divided by their total tot.
        None when K is None (the gate) or tot is not finite or below
        m n 2^52 tiny (the backstop): above that floor every entry within
        2^-52 of the largest is a normal float, and the terms lost to
        underflow sum to at most 2^-52 tot.  g is then left part-written.
        """
        K, m = self._K, self._m
        if K is None:
            return None
        e = np.maximum.reduceat(z, self._blocks)[self._block_of]
        np.subtract(z, e, out=e)
        e /= self.r
        np.exp(e, out=e)
        a, b = e[:m], e[m:]
        row = np.matmul(K, b, out=g[:m])
        row *= a
        tot = np.add.reduce(row)
        if not self._floor <= tot < math.inf:
            return None
        col = np.matmul(a, K, out=g[m:])
        col *= b
        g /= tot
        return e, tot

    def _plan(self, z: Vector) -> TransportPlan:
        """plan_from_dual at z = (u, v), in the form the gradient at z takes."""
        z = self._check_dim(z, self._m + self._n)
        m = self._m
        s = self._scaling(z, np.empty(z.size))
        if s is None:
            return TransportPlan(X=_gibbs(self.inst, self.r, z[:m], z[m:], np.empty(self.inst.shape)))
        e, tot = s
        X = self._K * e[:m, None]
        X *= e[None, m:]
        X /= tot
        return TransportPlan(X=X)

    def to_descriptor(self) -> dict:
        d = self.inst.to_descriptor()
        d["kind"] = self.kind
        d["r"] = self.r
        return d


class _Certified(Exception):
    """Raised by _CountingObjective at the first gradient within tolerance."""


class _CountingObjective(SmoothObjective):
    """The wrapper every gradient of solve_ot goes through: it counts, caps and certifies.

    Call eval_cap + 1 raises RuntimeError before evaluating.  The first
    gradient g with ||g||_1 <= grad_tol certifies its own point: the point
    and that norm are kept in z and grad_l1, and _Certified ends the
    search.  Since ||g||_2 <= ||g||_1, the one-dot screen g @ g <= tol^2
    (looser by 1e-9, more than the rounding of both sums for m + n below
    10^6) skips the l1 norm on almost every gradient; nan passes neither.
    """

    def __init__(self, base: SmoothObjective, grad_tol: float, eval_cap: int):
        self.base = base
        self.kind = base.kind
        self.L = base.L
        self.norm_p = base.norm_p
        self.x_star = base.x_star
        self.f_star = base.f_star
        self.grad_tol = grad_tol
        self.eval_cap = eval_cap
        self._screen = grad_tol * grad_tol * (1.0 + 1e-9)
        self.grad_evals = 0
        self.z: Optional[Vector] = None
        self.grad_l1 = math.inf

    def value(self, x):
        return self.base.value(x)

    def grad(self, x):
        if self.grad_evals >= self.eval_cap:
            raise RuntimeError(
                f"gradient-evaluation budget {self.eval_cap} exhausted before a gradient "
                f"reached l1 norm {self.grad_tol:.3e}"
            )
        self.grad_evals += 1
        g = self.base.grad(x)
        if g @ g <= self._screen:
            grad_l1 = float(np.sum(np.abs(g)))
            if grad_l1 <= self.grad_tol:
                self.z, self.grad_l1 = x, grad_l1
                raise _Certified
        return g


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

    Sets r = eps / (2 log mn) and runs the value-stage/gradient-stage
    concatenation on h from (0, 0), doubling N, until a gradient with
    ||grad h||_1 <= eps / (8 ||C||_inf) is evaluated; the softmax plan at
    that gradient's point is rounded.  The AMD stage's iterates before x_N
    do not depend on N, so every attempt reads its x_N off one shared
    AMDPath and only the dual-AMD stage reruns.  Gradients are scanned in
    the order they are evaluated (the path's x_0 .. x_{N-1}, then the
    attempt's q_0 .. q_N), and the first within tolerance ends the search:
    report["N"] is that attempt's horizon and report["grad_evals"] the
    exact count of gradient calls.  The call past eval_cap is refused:
    RuntimeError, with exactly eval_cap gradients spent.
    """
    if not 0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    m, n = inst.shape
    if m * n < 2:
        raise ValueError("instance must have at least two cells")
    r = eps / (2.0 * math.log(m * n))
    c_max = float(np.max(np.abs(inst.C)))
    grad_tol = math.inf if c_max == 0.0 else eps / (8.0 * c_max)

    h = _CountingObjective(OTDualObjective(inst, r=r), grad_tol, eval_cap)
    phi = euclidean()
    path = AMDPath(h, phi, np.zeros(m + n), L=h.L, sigma=1.0)
    N = 1
    try:
        while True:
            run_dual_amd(h, phi, path.output(N), N, L=h.L, sigma=1.0)
            N *= 2
    except _Certified:
        pass

    grad_l1 = h.grad_l1
    raw = h.base._plan(h.z)
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
    if inst.C.size <= 12:
        return _lp_oracle_enumerate(inst)
    raise ValueError("lp_oracle supports up to 12 cells")
