"""Closed-form methods: MD, dual-MD, AMD, dual-AMD, and their concatenation.

AMD drives the dual variable with accumulated gradients weighted by the
theta sequence and keeps the primal iterate inside the convex hull of
the mirrored points; its mirror dual (dual-AMD) reduces psi*(grad f)
instead of the function value.  Running AMD for N steps and then
dual-AMD from its output yields the 1/theta_N^4 gradient-magnitude
rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .cfom import CoefficientSchedule, DualTrajectory, Trajectory, _check_finite
from .dgf import DGF
from .objectives import SmoothObjective
from .spaces import DualVector, PrimalVector, Vector, bregman

__all__ = [
    "ThetaSequence",
    "theta_sequence",
    "MethodRun",
    "run_md",
    "run_dual_md",
    "run_amd",
    "run_dual_amd",
    "run_concat",
    "amd_schedule",
    "sample_relative_convexity",
]


@dataclass(frozen=True)
class ThetaSequence:
    """Nesterov-type scalars with theta_i^2 - theta_i = theta_{i-1}^2.

    theta_j = 0 for every j <= -1 (index arithmetic in dual-AMD reaches
    j = -3), theta_0 = 1, and theta_N = theta_{N-1}.
    """

    N: int
    values: np.ndarray  # theta_0 .. theta_N

    def __getitem__(self, j: int) -> float:
        if j <= -1:
            return 0.0
        return float(self.values[j])

    def sq(self, j: int) -> float:
        t = self[j]
        return t * t


# theta_0, theta_1, ... of the recurrence, as far as any call has needed.
# An extension is built aside and published by rebinding, never appended
# in place, so concurrent callers each see a consistent prefix.
_THETA_PREFIX = np.ones(1)


def theta_sequence(N: int) -> ThetaSequence:
    global _THETA_PREFIX
    if N < 1:
        raise ValueError("N >= 1 required")
    prefix = _THETA_PREFIX
    if prefix.size < N:
        ext = prefix.tolist()
        for _ in range(prefix.size, N):
            ext.append(0.5 * (1.0 + math.sqrt(1.0 + 4.0 * ext[-1] ** 2)))
        prefix = _THETA_PREFIX = np.array(ext)
    vals = np.empty(N + 1)
    vals[:N] = prefix[:N]
    vals[N] = vals[N - 1]
    return ThetaSequence(N=N, values=vals)


def sample_relative_convexity(
    h_major,
    h_minor,
    lam: float,
    dim: int,
    trials: int = 100,
    magnitude: float = 1.0,
    seed: int = 0,
) -> float:
    """Smallest sampled midpoint-convexity gap of lam*h_major - h_minor.

    A sanity check (necessary, not sufficient) for the stepsize
    hypothesis of MD and dual-MD; negative values beyond roundoff mean
    the supplied lam is too small.
    """
    rng = np.random.default_rng(seed)
    worst = math.inf
    for _ in range(trials):
        x = magnitude * rng.standard_normal(dim)
        y = magnitude * rng.standard_normal(dim)
        mid = 0.5 * (x + y)

        def d(z):
            return lam * float(h_major(z)) - float(h_minor(z))

        worst = min(worst, 0.5 * d(x) + 0.5 * d(y) - d(mid))
    return worst


@dataclass
class MethodRun:
    """Outcome of a closed-form method run.

    Holds either a primal trajectory (MD, AMD) or a dual one (dual-MD,
    dual-AMD); a concatenated run carries both.  `bound` is the
    certified final bound when the needed reference (x_star or f_star)
    is available.
    """

    method: str
    traj: Optional[Trajectory] = None
    dual_traj: Optional[DualTrajectory] = None
    bound: Optional[float] = None
    theta: Optional[ThetaSequence] = None
    L: Optional[float] = None
    sigma: Optional[float] = None

    @property
    def final_x(self) -> Vector:
        if self.dual_traj is not None:
            return self.dual_traj.qs[-1]
        return self.traj.xs[-1]


def _md_loop(F, G, alpha: float, u0: Vector, N: int, u_label: str):
    """The one recurrence behind MD and its mirror dual:

        u_{k+1} = u_k - alpha G(w_k),   w_{k+1} = F(u_{k+1}),   w_0 = F(u_0).

    MD runs it with (F, G) = (grad phi*, grad f), dual-MD with
    (grad f, grad psi*).  Returns the lists of u, w and G(w).
    """
    if not 0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    if N < 1:
        raise ValueError("N >= 1 required")
    us = [np.asarray(u0, dtype=np.float64)]
    ws = [F(us[0])]
    gs = [G(ws[0])]
    for k in range(N):
        us.append(_check_finite(us[k] - alpha * gs[k], u_label, k + 1))
        ws.append(F(us[-1]))
        gs.append(G(ws[-1]))
    return us, ws, gs


def _f_grad(f: SmoothObjective):
    return lambda x: np.asarray(f.grad(x), dtype=np.float64)


def run_md(
    f: SmoothObjective,
    g: DGF,
    alpha: float,
    y0: DualVector,
    N: int,
) -> MethodRun:
    """Mirror descent: y_{k+1} = y_k - alpha grad f(x_k), x_{k+1} = grad phi*(y_{k+1})."""
    ys, xs, f_grads = _md_loop(g.conjugate_grad, _f_grad(f), alpha, y0, N, "dual iterate y")
    bound = None
    if f.x_star is not None:
        bound = bregman(g.value, g.grad, f.x_star, xs[0]) / (alpha * N)
    traj = Trajectory(xs=xs, ys=ys, f_grads=f_grads, mirrors=list(xs))
    return MethodRun(method="md", traj=traj, bound=bound)


def run_dual_md(
    f: SmoothObjective,
    g: DGF,
    alpha: float,
    q0: PrimalVector,
    N: int,
) -> MethodRun:
    """Dual mirror descent: q_{k+1} = q_k - alpha grad psi*(r_k), r_{k+1} = grad f(q_{k+1})."""
    qs, f_grads, mirrors = _md_loop(_f_grad(f), g.conjugate_grad, alpha, q0, N, "primal iterate q")
    bound = None
    if f.f_star is not None:
        bound = (f.value(qs[0]) - f.f_star) / (alpha * N)
    dual_traj = DualTrajectory(qs=qs, rs=list(f_grads), f_grads=f_grads, mirrors=mirrors)
    return MethodRun(method="dual-md", dual_traj=dual_traj, bound=bound)


def _constants(f: SmoothObjective, g: DGF, L: Optional[float], sigma: Optional[float]):
    """(L, sigma), defaulting to f.L and g.sigma; each must be positive and finite."""
    L = f.L if L is None else L
    sigma = g.sigma if sigma is None else sigma
    if not (0 < L < math.inf and 0 < sigma < math.inf):
        raise ValueError("L and sigma must be positive and finite")
    return L, sigma


def _amd_iterates(f: SmoothObjective, g: DGF, y0: DualVector, N: int, L: float, sigma: float):
    """AMD's recurrence from y0: x_0..x_N, y_0..y_N, grad phi*(y_0..y_N), grad f(x_0..x_{N-1}).

    theta_N = theta_{N-1}; no gradient is taken at x_N.
    """
    vals = theta_sequence(N).values
    sq = [0.0] + (vals * vals).tolist()  # sq[j + 1] = theta_j^2, theta_{-1} = 0
    step = sigma / L
    ys = [np.asarray(y0, dtype=np.float64)]
    mirrors = [g.conjugate_grad(ys[0])]
    xs = [mirrors[0]]
    f_grads: List[Vector] = []
    grad, conjugate_grad = f.grad, g.conjugate_grad
    for k in range(N):
        fg = np.asarray(grad(xs[k]), dtype=np.float64)
        f_grads.append(fg)
        y = np.multiply(step * (sq[k + 1] - sq[k]), fg)
        np.subtract(ys[k], y, out=y)
        ys.append(_check_finite(y, "dual iterate y", k + 1))
        mirrors.append(conjugate_grad(y))
        # x_{k+1} from x_k and the mirrors, with theta_{k+1}^2 = sq[k + 2]
        sq_next = sq[k + 2]
        x = np.multiply(sq[k + 1] / sq_next, xs[k])
        t = np.multiply((sq_next - sq[k + 1]) / sq_next, mirrors[k + 1])
        x += t
        np.subtract(mirrors[k + 1], mirrors[k], out=t)
        t *= (sq[k + 1] - sq[k]) / sq_next
        x += t
        xs.append(_check_finite(x, "primal iterate x", k + 1))
    return xs, ys, mirrors, f_grads


def run_amd(
    f: SmoothObjective,
    g: DGF,
    y0: DualVector,
    N: int,
    L: Optional[float] = None,
    sigma: Optional[float] = None,
) -> MethodRun:
    """Accelerated mirror descent with the equality theta sequence."""
    L, sigma = _constants(f, g, L, sigma)
    xs, ys, mirrors, f_grads = _amd_iterates(f, g, y0, N, L, sigma)
    f_grads.append(np.asarray(f.grad(xs[N]), dtype=np.float64))
    th = theta_sequence(N)
    bound = None
    if f.x_star is not None:
        bound = L * bregman(g.value, g.grad, f.x_star, xs[0]) / (sigma * th.sq(N))
    traj = Trajectory(xs=xs, ys=ys, f_grads=f_grads, mirrors=mirrors)
    return MethodRun(method="amd", traj=traj, bound=bound, theta=th, L=L, sigma=sigma)


def amd_schedule(N: int, L: float, sigma: float) -> CoefficientSchedule:
    """The CFOM coefficient families whose execution reproduces run_amd."""
    # sq[j + 2] = theta_j^2, with theta_j = 0 for j <= -1.  Entry k of the
    # vectors below belongs to step k -> k+1, which fills row k + 1 of a and b.
    vals = theta_sequence(N).values
    sq = np.concatenate([np.zeros(2), vals * vals])
    k = np.arange(N)
    sq_km2, sq_km1, sq_k, sq_kp1 = sq[k], sq[k + 1], sq[k + 2], sq[k + 3]
    # b[k+1, s] for s < k: (1/theta_k^2 - 1/theta_{k+1}^2)(theta_{s-1}^2 - theta_{s-2}^2),
    # a rank-1 tail whose factors the schedule keeps (its column factor is 0 at s = 0).
    row, col = 1.0 / sq_k - 1.0 / sq_kp1, sq_km1 - sq_km2
    try:
        a = np.zeros((N + 1, N + 1))
        b = np.zeros((N + 1, N + 1))
        b[1:, :N] = np.tril(np.outer(row, col), -1)
    except MemoryError:
        raise ValueError(f"schedule with N = {N} is too large") from None
    b[0, 0] = -1.0
    a[k + 1, k] = (sigma / L) * (sq_k - sq_km1)
    b[k + 1, k] = (sq_k - sq_km2) / sq_k - (sq_km1 - sq_km2) / sq_kp1
    b[k + 1, k + 1] = -(sq_kp1 - sq_km1) / sq_kp1
    return CoefficientSchedule(N=N, a=a, b=b, tail=(row, col))


def run_dual_amd(
    f: SmoothObjective,
    g: DGF,
    q0: PrimalVector,
    N: int,
    L: Optional[float] = None,
    sigma: Optional[float] = None,
) -> MethodRun:
    """Gradient-magnitude-reducing mirror dual of AMD, in closed form.

    The initialization g_0 = grad f(q_0) / theta_{N-1}^2 and
    r_0 = (theta_N^2 - theta_{N-2}^2) / theta_N^2 * grad f(q_0) is the
    one forced by r_0 = -b_{N,N} grad f(q_0) of the mirror dual.
    """
    L, sigma = _constants(f, g, L, sigma)
    th = theta_sequence(N)
    # w[i] = theta_{N-i}^2, with theta_j = 0 for j <= -1.
    w = (th.values * th.values)[::-1].tolist() + [0.0, 0.0, 0.0]
    step = sigma / L
    q0 = np.asarray(q0, dtype=np.float64)
    qs = [q0]
    f_grads = [np.asarray(f.grad(q0), dtype=np.float64)]
    rs = [(w[0] - w[2]) / w[0] * f_grads[0]]
    gk = f_grads[0] / w[1]
    mirrors = [g.conjugate_grad(rs[0])]
    grad, conjugate_grad = f.grad, g.conjugate_grad
    q, fg, mirror = q0, f_grads[0], mirrors[0]
    for k in range(N):
        w1, w2, w3 = w[k + 1], w[k + 2], w[k + 3]
        # q_{k+1} = q_k - step (w1 - w2) mirror_k
        t = np.multiply(step * (w1 - w2), mirror)
        q = _check_finite(np.subtract(q, t, out=t), "primal iterate q", k + 1)
        qs.append(q)
        fg_next = np.asarray(grad(q), dtype=np.float64)
        f_grads.append(fg_next)
        # g_{k+1} = g_k + (grad f(q_{k+1}) - grad f(q_k)) / w1
        g_next = np.subtract(fg_next, fg)
        g_next /= w1
        g_next += gk
        # r_{k+1} = r_k + (w1 - w2)(g_{k+1} - g_k) + (w2 - w3) g_{k+1}
        r = np.subtract(g_next, gk)
        r *= w1 - w2
        r += rs[k]
        t = np.multiply(w2 - w3, g_next)
        r += t
        rs.append(_check_finite(r, "dual iterate r", k + 1))
        mirror = conjugate_grad(r)
        mirrors.append(mirror)
        fg, gk = fg_next, g_next
    bound = None
    if f.f_star is not None:
        bound = (L / (sigma * th.sq(N))) * (f.value(qs[0]) - f.f_star)
    dual_traj = DualTrajectory(qs=qs, rs=rs, f_grads=f_grads, mirrors=mirrors)
    return MethodRun(method="dual-amd", dual_traj=dual_traj, bound=bound, theta=th, L=L, sigma=sigma)


@dataclass
class ConcatRun:
    """AMD stage followed by a dual-AMD stage started at the AMD output."""

    amd: MethodRun
    dual_amd: MethodRun
    bound: Optional[float] = None

    @property
    def final_x(self) -> Vector:
        return self.dual_amd.dual_traj.qs[-1]


def run_concat(
    f: SmoothObjective,
    phi: DGF,
    psi: DGF,
    y0: DualVector,
    N: int,
    L: Optional[float] = None,
    sigma1: Optional[float] = None,
    sigma2: Optional[float] = None,
) -> ConcatRun:
    """N steps of AMD from y0, then N steps of dual-AMD from q_0 = x_N."""
    first = run_amd(f, phi, y0, N, L=L, sigma=sigma1)
    second = run_dual_amd(f, psi, first.traj.xs[-1], N, L=first.L, sigma=sigma2)
    bound = None
    if f.x_star is not None:
        d0 = bregman(phi.value, phi.grad, f.x_star, first.traj.xs[0])
        bound = first.L * first.L * d0 / (first.sigma * second.sigma * first.theta.sq(N) ** 2)
    return ConcatRun(amd=first, dual_amd=second, bound=bound)
