"""Closed-form methods: MD, dual-MD, AMD, dual-AMD, and their concatenation.

AMD drives the dual variable with accumulated gradients weighted by the
theta sequence and keeps the primal iterate inside the convex hull of
the mirrored points; its mirror dual (dual-AMD) reduces psi*(grad f)
instead of the function value.  Running AMD for N steps and then
dual-AMD from its output yields the 1/theta_N^4 gradient-magnitude
rate.

_start is the one place a run of any of the four methods is set up, with its
bound, from the first step it takes; the runners collect its steps (_collect),
and `mirropt run` and `certify` evaluate their trace rows while the steps come.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .cfom import CoefficientSchedule, DualTrajectory, Trajectory, _check_finite
from .dgf import DGF
from .objectives import SmoothObjective
from .spaces import DualVector, PrimalVector, Vector, _positive_finite, bregman

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

    theta_j = 0 for every j <= -1, theta_0 = 1, and theta_N = theta_{N-1}.
    Built by theta_sequence, a pure function with O(N) work per call.  The
    squares are one table, _sq[j + 2] = theta_j^2 for j = -2..N, which
    AMD's schedule and steps read, and dual-AMD's steps read reversed.
    """

    N: int
    values: np.ndarray  # theta_0 .. theta_N
    _sq: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_sq", np.concatenate([np.zeros(2), np.square(self.values)]))

    def __getitem__(self, j: int) -> float:
        return 0.0 if j <= -1 else float(self.values[j])

    def sq(self, j: int) -> float:
        return 0.0 if j <= -1 else float(self._sq[j + 2])


def theta_sequence(N: int) -> ThetaSequence:
    """theta_0 .. theta_N, computed afresh: a pure function with O(N) work per call."""
    if N < 1:
        raise ValueError("N >= 1 required")
    vals = [1.0]
    for _ in range(1, N):
        vals.append(0.5 * (1.0 + math.sqrt(1.0 + 4.0 * vals[-1] ** 2)))
    return ThetaSequence(N=N, values=np.array(vals + [vals[-1]]))  # theta_N = theta_{N-1}


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


def _md_loop(F, G, alpha: float, u: Vector, N: int, u_label: str):
    """The one recurrence behind MD and its mirror dual:

        u_{k+1} = u_k - alpha G(w_k),   w_{k+1} = F(u_{k+1}),   w_0 = F(u_0).

    MD runs it with (F, G) = (grad phi*, grad f), dual-MD with
    (grad f, grad psi*), from u_0 = u, a float64 array.  Yields (u_k, w_k,
    G(w_k)) for k = 0..N; only the current step's vectors are held.
    """
    if not 0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    if N < 1:
        raise ValueError("N >= 1 required")
    w = F(u)
    gw = G(w)
    yield u, w, gw
    for k in range(N):
        u = _check_finite(u - alpha * gw, u_label, k + 1)
        w = F(u)
        gw = G(w)
        yield u, w, gw


def run_md(
    f: SmoothObjective,
    g: DGF,
    alpha: float,
    y0: DualVector,
    N: int,
) -> MethodRun:
    """Mirror descent: y_{k+1} = y_k - alpha grad f(x_k), x_{k+1} = grad phi*(y_{k+1})."""
    return _collect(*_start("md", f, g, y0, N, alpha=alpha))


def run_dual_md(
    f: SmoothObjective,
    g: DGF,
    alpha: float,
    q0: PrimalVector,
    N: int,
) -> MethodRun:
    """Dual mirror descent: q_{k+1} = q_k - alpha grad psi*(r_k), r_{k+1} = grad f(q_{k+1})."""
    return _collect(*_start("dual-md", f, g, q0, N, alpha=alpha))


def _constants(f: SmoothObjective, g: DGF, L: Optional[float], sigma: Optional[float]):
    """(L, sigma), defaulting to f.L and g.sigma; each must be positive and finite."""
    L = f.L if L is None else L
    sigma = g.sigma if sigma is None else sigma
    _positive_finite(L=L, sigma=sigma)
    return L, sigma


def _energy_weights(th: ThetaSequence, L: float, sigma: float, dual: bool) -> list:
    """AMD's energy weights over th = theta_sequence(N), i = 0..N: u_i = (sigma / L) theta_i^2
    for U_k or, when dual, v_i = L / (sigma theta_{N-i}^2) for dual-AMD's V_k."""
    return [L / (sigma * th.sq(th.N - i)) if dual else (sigma / L) * th.sq(i) for i in range(th.N + 1)]


def _amd_steps(grad, conjugate_grad, y: DualVector, th: ThetaSequence, step: float):
    """AMD's recurrence over th = theta_sequence(N), step = sigma / L: yields (x_k, y_k,
    grad f(x_k), grad phi*(y_k)) for k = 0..N, so it evaluates N + 1 gradients, at x_0 .. x_N.

    y_0 = y, a float64 array; theta_N = theta_{N-1}.  Only the current step's vectors are held.
    """
    sq = th._sq.tolist()  # sq[j + 2] = theta_j^2
    x = mirror = conjugate_grad(y)
    for k in range(th.N):
        fg = grad(x)
        yield x, y, fg, mirror
        sq_prev, sq_k, sq_next = sq[k + 1], sq[k + 2], sq[k + 3]  # theta_{k-1}^2, theta_k^2, theta_{k+1}^2
        y_next = np.multiply(step * (sq_k - sq_prev), fg)
        np.subtract(y, y_next, out=y_next)
        y = _check_finite(y_next, "dual iterate y", k + 1)
        mirror_next = conjugate_grad(y)
        # x_{k+1} from x_k and the mirrors
        x_next = np.multiply(sq_k / sq_next, x)
        t = np.multiply((sq_next - sq_k) / sq_next, mirror_next)
        x_next += t
        np.subtract(mirror_next, mirror, out=t)
        t *= (sq_k - sq_prev) / sq_next
        x_next += t
        x, mirror = _check_finite(x_next, "primal iterate x", k + 1), mirror_next
    yield x, y, grad(x), mirror


def run_amd(
    f: SmoothObjective,
    g: DGF,
    y0: DualVector,
    N: int,
    L: Optional[float] = None,
    sigma: Optional[float] = None,
) -> MethodRun:
    """Accelerated mirror descent with the equality theta sequence."""
    return _collect(*_start("amd", f, g, y0, N, L=L, sigma=sigma))


def amd_schedule(N: int, L: float, sigma: float) -> CoefficientSchedule:
    """The CFOM coefficient families whose execution reproduces run_amd."""
    return _amd_schedule(theta_sequence(N), L, sigma)


def _amd_schedule(th: ThetaSequence, L: float, sigma: float) -> CoefficientSchedule:
    """amd_schedule over th = theta_sequence(N)."""
    # sq[j + 2] = theta_j^2.  Entry k of the vectors below belongs to
    # step k -> k+1, which fills row k + 1 of a and b.
    N, sq = th.N, th._sq
    k = np.arange(N)
    sq_km2, sq_km1, sq_k, sq_kp1 = sq[k], sq[k + 1], sq[k + 2], sq[k + 3]
    # b[k+1, s] for s < k: (1/theta_k^2 - 1/theta_{k+1}^2)(theta_{s-1}^2 - theta_{s-2}^2),
    # a rank-1 tail whose factors the schedule keeps (its column factor is 0 at s = 0).
    row, col = 1.0 / sq_k - 1.0 / sq_kp1, sq_km1 - sq_km2
    a = np.zeros((N + 1, N + 1))
    b = np.zeros((N + 1, N + 1))
    b[1:, :N] = np.tril(np.outer(row, col), -1)
    b[0, 0] = -1.0
    a[k + 1, k] = (sigma / L) * (sq_k - sq_km1)
    b[k + 1, k] = (sq_k - sq_km2) / sq_k - (sq_km1 - sq_km2) / sq_kp1
    b[k + 1, k + 1] = -(sq_kp1 - sq_km1) / sq_kp1
    return CoefficientSchedule(N=N, a=a, b=b, tail=(row, col))


def _dual_amd_steps(grad, conjugate_grad, q0: PrimalVector, fg0: DualVector, th: ThetaSequence, step: float):
    """Dual-AMD's recurrence from q0, whose gradient fg0 the caller gives, over
    th = theta_sequence(N), with step = sigma / L: yields (q_k, r_k, grad f(q_k), grad psi*(r_k))
    for k = 0..N, so it evaluates N gradients, at q_1 .. q_N.

    Only the current step's vectors are held.
    """
    # w[i] = theta_{N-i}^2 for i = 0..N + 2: AMD's table reversed.
    N, w = th.N, th._sq[::-1].tolist()
    q, fg = q0, fg0
    r = (w[0] - w[2]) / w[0] * fg
    gk = fg / w[1]
    mirror = conjugate_grad(r)
    yield q, r, fg, mirror
    for k in range(N):
        w1, w2, w3 = w[k + 1], w[k + 2], w[k + 3]
        # q_{k+1} = q_k - step (w1 - w2) mirror_k
        t = np.multiply(step * (w1 - w2), mirror)
        q = _check_finite(np.subtract(q, t, out=t), "primal iterate q", k + 1)
        fg_next = grad(q)
        # g_{k+1} = g_k + (grad f(q_{k+1}) - grad f(q_k)) / w1
        g_next = np.subtract(fg_next, fg)
        g_next /= w1
        g_next += gk
        # r_{k+1} = r_k + (w1 - w2)(g_{k+1} - g_k) + (w2 - w3) g_{k+1}
        r_next = np.subtract(g_next, gk)
        r_next *= w1 - w2
        r_next += r
        t = np.multiply(w2 - w3, g_next)
        r_next += t
        r = _check_finite(r_next, "dual iterate r", k + 1)
        mirror = conjugate_grad(r)
        fg, gk = fg_next, g_next
        yield q, r, fg, mirror


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
    return _collect(*_start("dual-amd", f, g, q0, N, L=L, sigma=sigma))


def _start(method: str, f: SmoothObjective, g: DGF, start: Vector, N: int, alpha: Optional[float] = None,
           L: Optional[float] = None, sigma: Optional[float] = None, fg0: Optional[DualVector] = None,
           th: Optional[ThetaSequence] = None):
    """The one set-up of an N-step run of method from start (y_0, or q_0 on a dual
    run): (run, steps).  steps yields (point, dual, grad f(point), mirror) for
    k = 0..N; the first is taken here, so run, its MethodRun with no trajectory
    yet, has its bound set from point_0: the certified bound on the final value,
    D_phi(x*, x_0) / (alpha N) for MD, L D_phi(x*, x_0) / (sigma theta_N^2) for AMD,
    the same with f(q_0) - f* for the duals, and None without x* (f* on a dual run).

    start is copied once, so no row is the caller's array.  The mirror map is
    g._mirror_map: for an unshifted p = 2 DGF each step's mirror is its y_k (r_k) itself.

    MD checks alpha and N at its first step.  AMD checks (L, sigma), then takes
    grad f(q_0) on a dual run unless fg0 is given, then theta_sequence(N) unless th is.
    """
    dual, md = method.startswith("dual"), method in ("md", "dual-md")
    run, mirror = MethodRun(method=method), g._mirror_map
    start = np.array(start, dtype=np.float64)  # the run's own copy

    def grad(x):
        return np.asarray(f.grad(x), dtype=np.float64)

    if md and dual:
        steps = ((q, fg, fg, m) for q, fg, m in _md_loop(grad, mirror, alpha, start, N, "primal iterate q"))
    elif md:
        steps = ((x, y, fg, x) for y, x, fg in _md_loop(mirror, grad, alpha, start, N, "dual iterate y"))
    else:
        L, sigma = _constants(f, g, L, sigma)
        if dual and fg0 is None:
            fg0 = grad(start)
        th = theta_sequence(N) if th is None else th
        run.theta, run.L, run.sigma = th, L, sigma
        steps = (_dual_amd_steps(grad, mirror, start, fg0, th, sigma / L) if dual
                 else _amd_steps(grad, mirror, start, th, sigma / L))
    first = next(steps)
    ref = f.f_star if dual else f.x_star
    if ref is not None:
        gap = f.value(first[0]) - ref if dual else bregman(g.value, g.grad, ref, first[0])
        if md:
            run.bound = gap / (alpha * N)
        else:  # Dual-AMD forms its factor first, AMD divides last: each keeps its bytes.
            run.bound = (L / (sigma * th.sq(N))) * gap if dual else L * gap / (sigma * th.sq(N))
    return run, itertools.chain([first], steps)


def _collect(run: MethodRun, steps) -> MethodRun:
    """run with the trajectory of its steps, collected as lists (a vector yielded in two
    families, as an identity mirror is, stored once)."""
    cols = list(map(list, zip(*steps)))
    if run.method.startswith("dual"):
        run.dual_traj = DualTrajectory(*cols)
    else:
        run.traj = Trajectory(*cols)
    return run


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
    """N steps of AMD from y0, then N of dual-AMD from x_N and AMD's grad f(x_N): 2N + 1 gradients."""
    first = run_amd(f, phi, y0, N, L=L, sigma=sigma1)
    second = _collect(*_start("dual-amd", f, psi, first.final_x, N, L=first.L, sigma=sigma2,
                              fg0=first.traj.f_grads[-1], th=first.theta))
    bound = None
    if f.x_star is not None:
        d0 = bregman(phi.value, phi.grad, f.x_star, first.traj.xs[0])
        bound = first.L * first.L * d0 / (first.sigma * second.sigma * first.theta.sq(N) ** 2)
    return ConcatRun(amd=first, dual_amd=second, bound=bound)
