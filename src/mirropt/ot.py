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
plan are taken in this scaling form alone: K once per solve, then two
matrix-vector products and m + n exponentials per gradient.  When the
scaled total at a point fails its floor (past C.max()/r = -log(tiny)
some K_ij are not normal floats, and a point far from 0 can leave every
term tiny), K is rebuilt in place at that point, the anchor, and each
later gradient scales the rebuilt kernel by exp((z - anchor)/r): the
absorption step of stabilized scaling (Schmitzer 2019; Peyre-Cuturi
2019, ch. 4).  So a gradient is a function of the point and of the
anchor, which only a failed floor moves; the stop gradient and the plan
at its point read the same anchor.  The rounding and suboptimality
bounds use only the gradient at the returned point, so the solver stops
at the first gradient it evaluates within tolerance, whatever path led
there: it doubles dual-AMD's horizon and restarts each attempt from the
last one's final iterate, and switches to the AMD + dual-AMD
concatenation from 0 at a horizon computed from the instance, where the
concatenation's bound certifies (solve_ot, _fallback_horizon).  A tiny
exact LP oracle (basic-solution enumeration, up to _LP_ORACLE_CELLS
cells) supplies the reference optimum for the accuracy checks.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .dgf import euclidean
from .methods import _amd_steps, _dual_amd_steps, theta_sequence
from .objectives import SmoothObjective
from .spaces import Vector, _as_matrix, _json_int, _positive_finite, as_vector

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
_LP_ORACLE_CELLS = 12  # the largest instance lp_oracle enumerates: C(12, 6) = 924 supports at 3 x 4
DEFAULT_EVAL_CAP = 2 ** 20  # solve_ot's gradient budget, and the largest N of a run config or --N
_TINY = np.finfo(np.float64).tiny


@dataclass
class OTInstance:
    """Cost matrix plus strictly positive probability marginals."""

    C: np.ndarray
    mu: Vector
    nu: Vector

    def __post_init__(self):
        self.C, self.mu, self.nu = _as_matrix(self.C, "C"), as_vector(self.mu, "mu"), as_vector(self.nu, "nu")
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
    """Build an instance from {C, mu, nu}; every entry must be a finite JSON number."""
    return OTInstance(C=desc["C"], mu=desc["mu"], nu=desc["nu"])


@dataclass
class TransportPlan:
    X: np.ndarray
    feasible: bool = False

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        if np.any(self.X < -MARGINAL_TOL):
            raise ValueError("transport plan has negative entries")

    def marginal_residual(self, inst: OTInstance) -> float:
        if self.X.shape != inst.shape:
            raise ValueError(f"marginal_residual requires a plan of shape {inst.shape}, got {self.X.shape}")
        return float(
            np.max(np.abs(self.X.sum(axis=1) - inst.mu))
            + np.max(np.abs(self.X.sum(axis=0) - inst.nu))
        )


def _dual_point(inst: OTInstance, u: Vector, v: Vector) -> Tuple[Vector, Vector]:
    """(u, v) as float64 arrays, refused unless u has shape (m,) and v (n,)."""
    (m, n), u, v = inst.shape, np.asarray(u, dtype=np.float64), np.asarray(v, dtype=np.float64)
    if u.shape != (m,) or v.shape != (n,):
        raise ValueError(f"dual point must be u of shape ({m},) and v of shape ({n},), got {u.shape} and {v.shape}")
    return u, v


def ot_dual_value(inst: OTInstance, r: float, u: Vector, v: Vector) -> float:
    _positive_finite(r=r)
    u, v = _dual_point(inst, u, v)
    out = np.empty(inst.shape)
    lse = _shifted_exp(inst, r, u, v, out) + math.log(float(np.sum(out)))
    return r * lse - float(inst.mu @ u) - float(inst.nu @ v)


def _shifted_exp(inst: OTInstance, r: float, u: Vector, v: Vector, out: np.ndarray) -> float:
    """exp(z - max z) with z_ij = (u_i + v_j - c_ij) / r, computed in out; returns max z."""
    np.add(u[:, None], v[None, :], out=out)
    out -= inst.C
    out /= r
    top = float(out.max())
    out -= top
    np.exp(out, out=out)
    return top


def ot_dual_grad(inst: OTInstance, r: float, u: Vector, v: Vector) -> Tuple[Vector, Vector]:
    """(softmax-plan marginals) minus (mu, nu); both blocks sum to zero."""
    g = OTDualObjective(inst, r=r).grad(np.concatenate(_dual_point(inst, u, v)))
    return g[: inst.shape[0]], g[inst.shape[0]:]


def plan_from_dual(inst: OTInstance, r: float, u: Vector, v: Vector) -> TransportPlan:
    """Normalized Gibbs kernel X = B / sum(B); entries sum to 1."""
    return OTDualObjective(inst, r=r)._plan(np.concatenate(_dual_point(inst, u, v)))


def round_plan(inst: OTInstance, plan: TransportPlan) -> TransportPlan:
    """Row-cap, column-cap, rank-one fix: returns a new, exactly feasible plan; the input is untouched.

    The total l1 movement is at most twice the input's marginal
    violation, so the rounding cannot spoil an accurate dual solve.  The
    rank-one fix err_r err_c^T / s is added in eight row blocks, so beside
    its input the rounding holds the new plan and one block.
    """
    X = np.asarray(plan.X, dtype=np.float64)
    if X.shape != inst.shape:
        raise ValueError(f"round_plan requires a plan of shape {inst.shape}, got {X.shape}")
    # Two reductions, no m x n mask: a nan fails both comparisons.
    if not (X.min() >= 0 and X.max() < math.inf):
        raise ValueError("round_plan requires a nonnegative, finite plan")
    rows = X.sum(axis=1)
    # A subnormal sum overflows the quotient to inf, and min(1, inf) = 1 is the scale.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        row_scale = np.where(rows > 0, np.minimum(1.0, inst.mu / rows), 1.0)
    X2 = X * row_scale[:, None]
    cols = X2.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        col_scale = np.where(cols > 0, np.minimum(1.0, inst.nu / cols), 1.0)
    X2 *= col_scale[None, :]
    err_r = inst.mu - X2.sum(axis=1)
    err_c = inst.nu - X2.sum(axis=0)
    s = err_r.sum()
    if s > 0:
        rows_per_block = -(-X2.shape[0] // 8)
        for i in range(0, X2.shape[0], rows_per_block):
            fix = np.multiply.outer(err_r[i:i + rows_per_block], err_c)
            X2[i:i + rows_per_block] += np.divide(fix, s, out=fix)
    return TransportPlan(X=X2, feasible=True)


@dataclass
class OTDualObjective(SmoothObjective):
    """The dual h as a smooth objective on the stacked variable z = (u, v).

    L = 1/r in l2 (norm_p = 2), the norm of the solver's Euclidean DGF;
    the sup-norm constant is 4/r (see smoothness_constant).  The scaling
    kernel K = exp(-C/r) is formed once, here, with no anchor.  A gradient
    or plan whose scaled total fails the floor (_scaling) rebuilds K in
    place at its point z', K_ij = exp((u'_i + v'_j - c_ij)/r - max), and
    from then on every gradient and plan at z scales K by exp((z - z')/r).
    """

    inst: OTInstance
    r: float

    def __post_init__(self):
        _positive_finite(r=self.r)
        self.kind = "ot-dual"
        self.norm_p = 2.0
        self.L = 1.0 / self.r
        self.x_star = None
        self.f_star = None
        self._m, self._n = self.inst.shape
        with np.errstate(over="ignore"):  # at a subnormal r, C_ij / r overflows to inf: K_ij = 0
            self._K = np.exp(np.divide(self.inst.C, -self.r))
        self._anchor = None  # the point K was last rebuilt at; None while K = exp(-C/r)
        self._mu_nu = np.concatenate([self.inst.mu, self.inst.nu])
        self._blocks = np.array([0, self._m])  # where u and v start in z
        self._block_of = np.repeat([0, 1], [self._m, self._n])
        self._floor = self._m * self._n * 2.0 ** 52 * _TINY

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
        self._scaling(z, g)
        g -= self._mu_nu
        return g

    def _scaling(self, z: Vector, g: Vector) -> Tuple[Vector, float]:
        """The scaling form at z = (u, v): marginals into g, and (e, tot).

        With d = z - anchor (z itself while there is none), e =
        exp((d - block max)/r) stacks a and b, one exp over m + n entries,
        each at most 1; the Gibbs kernel is a_i K_ij b_j / tot.  g gets the
        row sums a * (K @ b), then the column sums (a @ K) * b, both divided
        by their total tot.  The floor: tot finite and at least m n 2^52
        tiny.  Each term lost to underflow, in K or in a product, is below
        tiny, so the lost terms sum to at most 2^-52 tot and every entry
        within 2^-52 of the largest is a normal float.  On a failed floor K
        is rebuilt in place at the anchor z and the form retaken: then
        a = b = 1 and the largest entry of K is exactly 1, so tot >= 1
        passes whenever m n < 2^970.  Where some (u_i + v_j - c_ij)/r is
        not finite (a nan or infinite z) K is kept and g is nan, as is tot.
        """
        K, m = self._K, self._m
        d = z if self._anchor is None else z - self._anchor
        e = np.maximum.reduceat(d, self._blocks)[self._block_of]
        np.subtract(d, e, out=e)
        e /= self.r
        np.exp(e, out=e)
        a, b = e[:m], e[m:]
        np.matmul(K, b, out=g[:m])
        np.matmul(a, K, out=g[m:])
        g *= e  # a * (K @ b), then (a @ K) * b
        tot = np.add.reduce(g[:m])
        if not self._floor <= tot < math.inf:
            u, v = z[:m], z[m:]
            with np.errstate(over="ignore"):  # an overflowing bound means no rebuild
                bounds = np.array([u.min() + v.min() - self.inst.C.max(), u.max() + v.max()]) / self.r
            if np.isfinite(bounds).all():  # so is every exponent (u_i + v_j - c_ij)/r, and K stays finite
                _shifted_exp(self.inst, self.r, u, v, K)
                self._anchor = z.copy()
                return self._scaling(z, g)
            g.fill(math.nan)
            return e, math.nan
        g /= tot
        return e, tot

    def _plan(self, z: Vector) -> TransportPlan:
        """plan_from_dual at z = (u, v), in the form and from the anchor the gradient at z takes."""
        z = self._check_dim(z, self._m + self._n)
        e, tot = self._scaling(z, np.empty(z.size))
        X = self._K * e[: self._m, None]
        X *= e[None, self._m:]
        X /= tot
        return TransportPlan(X=X)

    def to_descriptor(self) -> dict:
        d = self.inst.to_descriptor()
        d["kind"] = self.kind
        d["r"] = self.r
        return d


class _CountedGrad:
    """The gradient oracle every evaluation of solve_ot goes through: it counts, caps and screens.

    Call eval_cap + 1 raises RuntimeError before evaluating.  A gradient g
    with ||g||_1 <= grad_tol certifies its own point: the point and that
    norm are kept in z and grad_l1, and solve_ot stops at the first.  Since
    ||g||_2 <= ||g||_1, the one-dot screen g @ g <= tol^2 (looser by 1e-9,
    more than the rounding of both sums for m + n below 10^6) skips the l1
    norm on almost every gradient; nan passes neither.
    """

    def __init__(self, grad, grad_tol: float, eval_cap: int):
        self.grad = grad
        self.grad_tol = grad_tol
        self.eval_cap = eval_cap
        self._screen = grad_tol * grad_tol * (1.0 + 1e-9)
        self.grad_evals = 0
        self.min_sq = math.inf  # smallest g @ g since the caller last reset it
        self.z: Optional[Vector] = None
        self.grad_l1 = math.inf

    def __call__(self, x: Vector) -> Vector:
        if self.grad_evals >= self.eval_cap:
            raise RuntimeError(
                f"gradient-evaluation budget {self.eval_cap} exhausted before a gradient "
                f"reached l1 norm {self.grad_tol:.3e}"
            )
        self.grad_evals += 1
        g = self.grad(x)
        sq = g @ g
        if sq < self.min_sq:
            self.min_sq = sq
        if sq <= self._screen:
            grad_l1 = float(np.add.reduce(np.abs(g)))
            if grad_l1 <= self.grad_tol:
                self.z, self.grad_l1 = x, grad_l1
        return g


@dataclass
class OTResult:
    """The rounded plan, its cost and the report; history has one row per attempt.

    Each history row is a dict: N, start ("path": x_N of an N-step AMD run
    from 0, or "restart": the previous attempt's q_N), grad_evals (the
    gradients the attempt evaluated, its AMD run's included), min_grad_l2
    (the smallest l2 norm among them), seconds, and certified (true on the
    last row of a solve only).  A "path" row evaluates N + 1 gradients for
    AMD, at x_0 .. x_N, and N for dual-AMD, at q_1 .. q_N, since q_0 = x_N;
    a "restart" row starts from the previous attempt's last point and its
    gradient, so it evaluates N, at q_1 .. q_N.  A certified row stops at
    its first gradient within tolerance.  The history is kept out of
    to_json_dict, whose bytes are deterministic.  When the budget runs
    out, the RuntimeError carries the rows so far, the interrupted
    attempt's last, as .history.
    """

    plan: TransportPlan
    cost: float
    report: dict
    history: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "cost": self.cost,
            "N": self.report["N"],
            "grad_l1": self.report["grad_l1"],
            "plan": self.plan.X.tolist(),
            "report": self.report,
        }


def _fallback_horizon(inst: OTInstance, r: float, grad_tol: float, L: float, limit: int) -> int:
    """N_c: the smallest power of two N with theta_N^2 >= sqrt(m + n) L R_z / grad_tol.

    At N_c the concatenation from z = 0 certifies, whatever the instance:
    1. At a minimizer z* = (u, v) the softmax plan has marginals mu and
       nu.  Row i's sum is e^{u_i/r} sum_j e^{(v_j - c_ij)/r} / Z, and the
       sums for rows i and i' differ by a factor of at most
       e^{(max C - min C)/r}, so |u_i - u_i'| <= s_u = (max C - min C) +
       r log(max mu / min mu); likewise |v_j - v_j'| <= s_v with nu.
    2. h is invariant under separate shifts of u and of v, so centring
       each block at its midrange gives a minimizer with
       ||z*||_2 <= R_z = sqrt(m (s_u/2)^2 + n (s_v/2)^2).
    3. run_concat from y_0 = 0 (x_0 = 0, sigma = 1) bounds
       (1/2)||grad h(q_N)||_2^2 <= L^2 (1/2)||z*||_2^2 / theta_N^4, and
       ||g||_1 <= sqrt(m + n) ||g||_2, so ||grad h(q_N)||_1 <= grad_tol
       once theta_N^2 reaches the threshold.
    With grad_tol = inf every gradient certifies and N_c = 1.  The bounds
    theta_N = theta_{N-1} in [a, a + log a], a = (N+1)/2, are there so that
    a tiny grad_tol computes no long sequence: theta is computed only where
    they leave the comparison open.  The search ends at the first power of
    two >= limit: before an attempt at N >= 2 solve_ot has spent at least
    N + 1 gradients, so with limit = eval_cap no attempt at N >= limit starts.
    A wrong N_c would only change the worst-case count, never a
    certificate.  The fallback attempt reruns AMD from 0, so its AMD stage
    spends N + 1 gradients, at x_0 .. x_N, and its dual-AMD stage N more.
    """
    if grad_tol == math.inf:
        return 1
    m, n = inst.shape
    c_range = float(inst.C.max() - inst.C.min())
    s_u = c_range + r * math.log(inst.mu.max() / inst.mu.min())
    s_v = c_range + r * math.log(inst.nu.max() / inst.nu.min())
    R_z = math.sqrt(m * (s_u / 2) ** 2 + n * (s_v / 2) ** 2)
    target = math.sqrt(m + n) * L * R_z / grad_tol
    N = 1
    while N < limit:
        a = (N + 1) / 2
        if (a + math.log(a)) ** 2 >= target and (a * a >= target or theta_sequence(N).sq(N) >= target):
            break
        N *= 2
    return N


def solve_ot(inst: OTInstance, eps: float, eval_cap: int = DEFAULT_EVAL_CAP) -> OTResult:
    """Accuracy-epsilon transport plan via the smoothed-dual pipeline.

    Sets r = eps / (2 log mn) and runs dual-AMD on h, doubling N, until a
    gradient with ||grad h||_1 <= eps / (8 ||C||_inf) is evaluated; the
    softmax plan at that gradient's point is rounded.  Attempt N = 1
    starts from x_1 of AMD from (0, 0).  Each later attempt below the
    fallback horizon N_c (_fallback_horizon) restarts from the previous
    attempt's last iterate q_N: dual-AMD never increases h along an
    attempt, since its energy V_0 = v_0 (h(q_0) - h(q_N)) dominates
    V_N >= 0.  From N_c on each attempt is the value-stage/gradient-stage
    concatenation: N steps of AMD from (0, 0), then dual-AMD from their
    x_N.  The attempt at N_c certifies, so the chain keeps the
    concatenation's worst case.  Both methods are stepped through their
    generators, which yield each gradient as it is evaluated; the first
    within tolerance ends the search: report["N"] is that attempt's horizon
    and report["grad_evals"] the exact count of gradient calls.  An attempt
    hands its last point and gradient on: AMD's x_N to dual-AMD as q_0, and
    dual-AMD's q_N to the next restart, so no gradient is taken twice.  The
    call past eval_cap is refused: RuntimeError, with exactly eval_cap
    gradients spent and the history so far as its history attribute.  Every
    gradient and the raw plan take the scaling form from one kernel K, which
    a failed floor re-anchors in place (OTDualObjective._scaling), so the
    stop gradient and the raw plan read the same anchor.  Only
    the current point is kept, so a solve holds the kernel plus O(m + n)
    iterates while stepping, whatever N (and O(N) theta scalars); K is then
    released, and the finish holds two m x n arrays: the raw plan and the
    rounded plan, and once rounded the raw plan's buffer takes
    |rounded - raw| and then C * rounded.  An eps whose r or grad_tol
    underflows to 0 is refused (ValueError); an infinite L = 1/r is not.
    """
    _positive_finite(eps=eps)
    if _json_int(eval_cap, "eval_cap") < 1:  # a nan or fractional cap would cut N_c to 1
        raise ValueError(f"eval_cap must be at least 1, got {eval_cap}")
    m, n = inst.shape
    if m * n < 2:
        raise ValueError("instance must have at least two cells")
    r = eps / (2.0 * math.log(m * n))
    c_max = float(inst.C.max())  # C >= 0, so this is ||C||_inf
    grad_tol = math.inf if c_max == 0.0 else eps / (8.0 * c_max)
    if r == 0.0 or grad_tol == 0.0:
        raise ValueError(f"eps = {eps!r} is too small: r = eps / (2 log mn) = {r!r} or "
                         f"grad_tol = eps / (8 max C) = {grad_tol!r} underflows to 0")

    h = OTDualObjective(inst, r=r)
    grad = _CountedGrad(h.grad, grad_tol, eval_cap)
    N_c = _fallback_horizon(inst, r, grad_tol, h.L, eval_cap)
    mirror, step = euclidean()._mirror_map, 1.0 / h.L
    history = []
    N, q, fg = 1, None, None
    while True:
        restart = 1 < N < N_c
        t0, evals0, grad.min_sq = time.perf_counter(), grad.grad_evals, math.inf
        th = theta_sequence(N)
        try:
            if not restart:
                for q, _, fg, _ in _amd_steps(grad, mirror, np.zeros(m + n), th, step):
                    if grad.z is not None:
                        break
            if grad.z is None:
                for q, _, fg, _ in _dual_amd_steps(grad, mirror, q, fg, th, step):
                    if grad.z is not None:
                        break
        except RuntimeError as e:
            e.history = history  # the budget ran out; the finally clause adds this attempt's row
            raise
        finally:
            history.append({
                "N": N,
                "start": "restart" if restart else "path",
                "grad_evals": grad.grad_evals - evals0,
                "min_grad_l2": math.sqrt(grad.min_sq),
                "seconds": time.perf_counter() - t0,
                "certified": grad.z is not None,
            })
        if grad.z is not None:
            break
        N *= 2

    grad_l1, grad_evals = grad.grad_l1, grad.grad_evals
    raw = h._plan(grad.z)
    del h, grad  # the kernel, anchored or not, goes before rounding
    rounded = round_plan(inst, raw)
    work = raw.X  # the raw plan is dead once rounded: its buffer takes |rounded - raw|, then C * rounded
    rounding_l1 = float(np.sum(np.abs(np.subtract(rounded.X, work, out=work), out=work)))
    cost = float(np.sum(np.multiply(inst.C, rounded.X, out=work)))
    report = {
        "N": N,
        "r": r,
        "grad_l1": grad_l1,
        "grad_tol": grad_tol,
        "grad_evals": grad_evals,
        "rounding_l1": rounding_l1,
        "rounding_l1_bound": 2.0 * grad_l1,
        "suboptimality_bound": r * math.log(m * n) + 2.0 * c_max * grad_l1,
        "marginal_residual": rounded.marginal_residual(inst),
    }
    return OTResult(plan=rounded, cost=cost, report=report, history=history)


def lp_oracle(inst: OTInstance) -> float:
    """Exact optimal transport cost of an instance of at most _LP_ORACLE_CELLS cells:
    the minimum over basic feasible solutions with m+n-1 support cells."""
    if inst.C.size > _LP_ORACLE_CELLS:
        raise ValueError(f"lp_oracle supports up to {_LP_ORACLE_CELLS} cells")
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
