"""Seeded inputs, operations and output checks for the three workloads.

Each workload builds its inputs from the seed alone, exposes a fixed list
of operations (``run(i)``), and checks every output (``check``) against a
computation made here, apart from mirropt, or against a property the
method must have.  Operations call mirropt through module attributes
(``ot.solve_ot``, not an imported name), so the tracer's patches apply.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil

import numpy as np

from mirropt import certificates, cfom, cli, methods, ot
from mirropt.dgf import squared_lp
from mirropt.objectives import DiagQuadratic
from mirropt.spaces import NormIndex

# ---------------------------------------------------------------- helpers


def theta(N: int) -> np.ndarray:
    """theta_0..theta_N with theta_i^2 - theta_i = theta_{i-1}^2, theta_N = theta_{N-1}."""
    th = np.empty(N + 1)
    th[0] = 1.0
    for i in range(1, N):
        th[i] = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * th[i - 1] ** 2))
    th[N] = th[N - 1]
    return th


def lp(x: np.ndarray, p: float) -> float:
    return float(np.sum(np.abs(x) ** p) ** (1.0 / p))


def half_sq_grad(x: np.ndarray, p: float) -> np.ndarray:
    """Gradient of (1/2)||x||_p^2."""
    n = lp(x, p)
    return np.zeros_like(x) if n == 0.0 else n ** (2.0 - p) * np.sign(x) * np.abs(x) ** (p - 1.0)


def rel_err(got, want) -> float:
    """Worst max|a - b| / (1 + max|b|) over paired iterates."""
    if len(got) != len(want):
        return math.inf
    return max(float(np.max(np.abs(a - b)) / (1.0 + np.max(np.abs(b)))) for a, b in zip(got, want))


class Workload:
    """A fixed list of operations (labels[i], run(i)) and the checks of their outputs."""

    name = ""
    counted_grads: list = []  # (class, module) whose grad calls make grad_evals
    size_class: list = []     # per operation, where a layer is split by input size
    trace_bytes: list = []    # per operation, bytes of the trace file it wrote

    def check(self, i: int, rnd: int, out) -> list:
        raise NotImplementedError

    def final_check(self) -> list:
        """(operation, round, problem) found after the timed rounds."""
        return []

    def close(self) -> None:
        pass


# ---------------------------------------------------------------- ot-solve

# (m, n, cost, eps).  m*n from 1e3 (mirror map and step loops ~40% of the
# time) to 4e4 (the dual gradient ~80%).  Each case is one fixed instance,
# drawn once from OT_BASE_SEED; the run's seed permutes its rows and
# columns.  Fresh random instances of these sizes move the N at which the
# doubling search stops on about one case in 25 per seed, which moved
# wall_s by up to 20% between seeds; a permuted instance poses the same
# problem, so N, grad_evals and the work per run repeat on every seed.
# Each eps leaves a factor of at least 2.7 between grad_l1 and its
# tolerance at the accepted N and at N/2.
OT_CASES = [
    (32, 32, "euclid", 0.1),
    (25, 40, "euclid", 0.08),
    (40, 60, "uniform", 0.07),
    (48, 48, "euclid", 0.05),
    (30, 50, "uniform", 0.03),
    (100, 100, "uniform", 0.06),
    (100, 200, "uniform", 0.07),
    (200, 200, "uniform", 0.07),
    (100, 100, "euclid", 0.1),
]
OT_BASE_SEED = 2311
SMALL_CELLS = 2500


def ot_instance(rng: np.random.Generator, m: int, n: int, cost: str) -> ot.OTInstance:
    """Marginals with weights in [0.5, 1.5]; uniform costs, or distances between
    uniform points in the unit square scaled to max 1."""
    mu = rng.uniform(0.5, 1.5, m)
    nu = rng.uniform(0.5, 1.5, n)
    if cost == "uniform":
        C = rng.uniform(0.0, 1.0, (m, n))
    else:
        X = rng.uniform(0.0, 1.0, (m, 2))
        Y = rng.uniform(0.0, 1.0, (n, 2))
        C = np.sqrt(((X[:, None, :] - Y[None, :, :]) ** 2).sum(-1))
        C /= C.max()
    return ot.OTInstance(C=C, mu=mu / mu.sum(), nu=nu / nu.sum())


def permuted(inst: ot.OTInstance, rng: np.random.Generator) -> ot.OTInstance:
    rows, cols = rng.permutation(inst.shape[0]), rng.permutation(inst.shape[1])
    return ot.OTInstance(C=inst.C[rows][:, cols], mu=inst.mu[rows], nu=inst.nu[cols])


def lp_optimum(inst: ot.OTInstance) -> float:
    """Exact transport cost from scipy's HiGHS LP solver."""
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    m, n = inst.shape
    cells = np.arange(m * n)
    rows = np.concatenate([cells // n, m + cells % n])
    A = coo_matrix((np.ones(2 * m * n), (rows, np.concatenate([cells, cells]))),
                   shape=(m + n, m * n)).tocsr()
    res = linprog(inst.C.ravel(), A_eq=A, b_eq=np.concatenate([inst.mu, inst.nu]),
                  bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float(res.fun)


def check_plan(inst: ot.OTInstance, eps: float, res) -> tuple:
    """Problems found in one solve_ot result, and the plan's cost."""
    X = np.asarray(res.plan.X)
    problems = []
    if X.shape != inst.shape or not np.all(np.isfinite(X)):
        return ["plan has the wrong shape or non-finite entries"], math.nan
    # round_plan's rank-one step adds err_r err_c^T / s, where the marginal
    # errors are exact only up to rounding of the marginal sums, so entries
    # may fall below zero by a few units in the last place of max(mu, nu).
    floor = -4.0 * np.finfo(float).eps * max(inst.mu.max(), inst.nu.max())
    if X.min() < floor:
        problems.append(f"plan has a negative entry {X.min():.3e} < {floor:.1e}")
    marg = max(float(np.max(np.abs(X.sum(axis=1) - inst.mu))),
               float(np.max(np.abs(X.sum(axis=0) - inst.nu))))
    if marg > 1e-10:
        problems.append(f"marginal error {marg:.3e} > 1e-10")
    cost = float(np.sum(inst.C * X))
    if abs(cost - res.cost) > 1e-12 * max(1.0, abs(cost)):
        problems.append(f"reported cost {res.cost!r} differs from the plan's {cost!r}")
    tol = eps / (8.0 * float(inst.C.max()))
    rep = res.report
    if abs(rep["grad_tol"] - tol) > 1e-12 * tol:
        problems.append(f"grad_tol {rep['grad_tol']!r} is not eps / (8 max C) = {tol!r}")
    if not rep["grad_l1"] <= rep["grad_tol"]:
        problems.append(f"grad_l1 {rep['grad_l1']:.3e} > grad_tol {rep['grad_tol']:.3e}")
    return problems, cost


def check_cost(cost: float, opt: float, eps: float) -> list:
    if not (opt - 1e-9 <= cost <= opt + eps):
        return [f"cost {cost!r} outside [LP* - 1e-9, LP* + eps] with LP* = {opt!r}"]
    return []


class OTSolve(Workload):
    """One operation is one solve_ot(inst, eps)."""

    name = "ot-solve"
    counted_grads = [(ot.OTDualObjective, "ot")]

    def __init__(self, seed: int, workdir: str):
        self.cases = [
            (permuted(ot_instance(np.random.default_rng([OT_BASE_SEED, i]), m, n, cost),
                      np.random.default_rng([seed, i])), eps)
            for i, (m, n, cost, eps) in enumerate(OT_CASES)
        ]
        self.labels = [f"{m}x{n}-{cost}-eps{eps}" for m, n, cost, eps in OT_CASES]
        self.size_class = ["small" if m * n <= SMALL_CELLS else "large" for m, n, _, _ in OT_CASES]
        self.costs = [[] for _ in OT_CASES]  # (round, cost) per operation

    def run(self, i: int):
        inst, eps = self.cases[i]
        return ot.solve_ot(inst, eps)

    def check(self, i: int, rnd: int, out) -> list:
        inst, eps = self.cases[i]
        problems, cost = check_plan(inst, eps, out)
        self.costs[i].append((rnd, cost))
        return problems

    def final_check(self) -> list:
        """Costs outside [LP* - 1e-9, LP* + eps], with LP* from HiGHS."""
        out = []
        for i, (inst, eps) in enumerate(self.cases):
            opt = lp_optimum(inst)
            for rnd, cost in self.costs[i]:
                out.extend((i, rnd, p) for p in check_cost(cost, opt, eps))
        return out


# ---------------------------------------------------------- duality-check

# (schedule, N, p, dim, trials).  AMD schedules use u_i = (sigma/L) theta_i^2;
# random schedules satisfy the row-sum condition and take an increasing
# positive u.  Trials are set so that each check takes 0.05-0.2 s.
DUALITY_CASES = [
    ("amd", 10, 2.0, 8, 40),
    ("amd", 20, 1.5, 6, 30),
    ("amd", 30, 2.0, 4, 20),
    ("amd", 40, 1.5, 4, 16),
    ("random", 8, 1.5, 10, 40),
    ("random", 16, 2.0, 8, 30),
    ("random", 24, 1.5, 6, 24),
    ("random", 32, 2.0, 4, 20),
    ("random", 40, 2.0, 3, 16),
]
DUALITY_TOL = 1e-9
CONTROL_V_SCALE = 1.1


def random_valid_schedule(rng: np.random.Generator, N: int) -> cfom.CoefficientSchedule:
    a = np.zeros((N + 1, N + 1))
    b = np.zeros((N + 1, N + 1))
    b[0, 0] = -1.0
    for k in range(1, N + 1):
        a[k, :k] = rng.standard_normal(k)
        row = rng.standard_normal(k + 1)
        row[-1] -= row.sum()
        b[k, : k + 1] = row
    return cfom.CoefficientSchedule(N=N, a=a, b=b)


class DualityCheck(Workload):
    """One operation is one check_mirror_duality call."""

    name = "duality-check"

    def __init__(self, seed: int, workdir: str):
        self.cases = []
        for i, (kind, N, p, dim, trials) in enumerate(DUALITY_CASES):
            rng = np.random.default_rng([seed, i])
            L = float(rng.uniform(0.5, 3.0))
            sigma = p - 1.0
            if kind == "amd":
                s = methods.amd_schedule(N, L, sigma)
                u = ((sigma / L) * theta(N) ** 2).tolist()
            else:
                s = random_valid_schedule(rng, N)
                u = np.cumsum(rng.uniform(0.05, 1.0, N + 1)).tolist()
            check_seed = int(rng.integers(2 ** 31))
            self.cases.append(dict(s=s, u=u, L=L, sigma=sigma, trials=trials, dim=dim,
                                   norm=NormIndex(p), seed=check_seed))
        self.labels = [f"{k}-N{N}-p{p}-dim{d}-x{t}" for k, N, p, d, t in DUALITY_CASES]
        # No oracle runs here: the count is of the sampled gradient vectors
        # (A_i and B_i, i = 0..N) that stand in for grad f and grad phi*.
        self.sampled_gradients = sum(t * 2 * (N + 1) for _, N, _, _, t in DUALITY_CASES)

    def _check(self, c: dict, v=None, trials=None):
        return certificates.check_mirror_duality(
            c["s"], c["u"], c["L"], c["sigma"], trials=trials or c["trials"], dim=c["dim"],
            norm=c["norm"], tol=DUALITY_TOL, seed=c["seed"], v=v)

    def run(self, i: int):
        return self._check(self.cases[i])

    def check(self, i: int, rnd: int, out) -> list:
        c = self.cases[i]
        problems = check_duality_report(out, c["trials"])
        if rnd == 0:
            # Control: wrong conjugate weights must break the identity.
            N = c["s"].N
            v = [CONTROL_V_SCALE / c["u"][N - k] for k in range(N + 1)]
            problems += check_duality_control(self._check(c, v=v, trials=2))
        return problems


def check_duality_report(rep, trials: int) -> list:
    if rep.trials != trials:
        return [f"report covers {rep.trials} trials, expected {trials}"]
    if not (rep.ok and rep.max_residual <= DUALITY_TOL):
        return [f"duality residual {rep.max_residual:.3e} > {DUALITY_TOL} "
                f"({len(rep.failures)} failing trials)"]
    return []


def check_duality_control(rep) -> list:
    if not rep.failures:
        return ["perturbed conjugate weights were not reported as failures"]
    return []


# ------------------------------------------------------------ run-certify

# (method, N, d, p, N_h).  Each case runs `mirropt run` + `mirropt certify`
# for the method, both schedule executors on amd_schedule(N) beside the
# closed-form AMD / dual-AMD runners, and to_h_matrix at N_h, which is
# O(N_h^3) Python and kept small enough not to swamp the case.  The cases
# are sized so that a round takes about 1.2 s: a 30 s run then times each
# case about 20 times, which its median needs on a machine whose speed
# swings by 10-20% from one second to the next.
RC_CASES = [
    ("amd", 200, 1000, 2.0, 40),
    ("dual-amd", 100, 500, 1.5, 30),
    ("md", 120, 800, 2.0, 20),
    ("dual-md", 80, 1000, 1.5, 40),
    ("amd", 60, 300, 1.5, 30),
    ("dual-amd", 150, 200, 2.0, 20),
    ("md", 50, 600, 1.5, 40),
    ("dual-md", 120, 400, 2.0, 30),
    ("amd", 100, 100, 2.0, 20),
]
TRACE_TOL = 1e-9
BOUND_SLACK = 1e-9
H_TOL = 1e-12


class RunCertify(Workload):
    """One operation is one case: run + certify, executors, mirror dual, H."""

    name = "run-certify"
    counted_grads = [(DiagQuadratic, "objectives")]

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.seed = seed
        self.cases = []
        for i, (method, N, d, p, Nh) in enumerate(RC_CASES):
            rng = np.random.default_rng([seed, i])
            dvec = rng.uniform(0.2, 4.0, d)
            b = rng.standard_normal(d)
            start = rng.standard_normal(d)
            L, sigma = float(dvec.max()), p - 1.0
            cfg = {
                "method": method,
                "objective": {"kind": "diag-quadratic", "d": dvec.tolist(), "b": b.tolist(), "p": p},
                "dgf": {"kind": "euclidean"} if p == 2.0 else {"kind": "squared-lp", "p": p},
                "N": N,
                ("q0" if method.startswith("dual") else "y0"): start.tolist(),
            }
            if method in ("md", "dual-md"):
                cfg["alpha"] = sigma / L
            cfg_path = os.path.join(workdir, f"case{i}.json")
            with open(cfg_path, "w") as fh:
                json.dump(cfg, fh)
            self.cases.append(dict(method=method, N=N, p=p, Nh=Nh, d=dvec, b=b, start=start,
                                   L=L, sigma=sigma, alpha=cfg.get("alpha"), cfg=cfg_path,
                                   trace=os.path.join(workdir, f"case{i}.csv")))
        self.labels = [f"{m}-N{N}-d{d}-p{p}-Nh{Nh}" for m, N, d, p, Nh in RC_CASES]
        self.trace_bytes = [0] * len(self.cases)

    def run(self, i: int):
        c = self.cases[i]
        out = {}
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            out["rc_run"] = cli.main(["run", "--config", c["cfg"], "--out", c["trace"],
                                      "--seed", str(self.seed)])
            out["rc_certify"] = cli.main(["certify", "--trace", c["trace"], "--config", c["cfg"]])
        f = DiagQuadratic(d=c["d"], b=c["b"], norm_p=c["p"])
        g = squared_lp(c["p"])
        s = methods.amd_schedule(c["N"], c["L"], c["sigma"])
        out["executor"] = cfom.run_cfom(s, f, g, c["start"])
        out["executor_dual"] = cfom.run_mirror_dual(s, f, g, c["start"])
        out["closed"] = methods.run_amd(f, g, c["start"], c["N"])
        out["closed_dual"] = methods.run_dual_amd(f, g, c["start"], c["N"])
        sh = methods.amd_schedule(c["Nh"], c["L"], c["sigma"])
        out["H"] = cfom.to_h_matrix(sh, L=c["L"], form="primal")
        out["H_dual"] = cfom.to_h_matrix(cfom.mirror_dual_schedule(sh), L=c["L"], form="dual")
        return out

    def check(self, i: int, rnd: int, out) -> list:
        c = self.cases[i]
        self.trace_bytes[i] = os.path.getsize(c["trace"]) if os.path.exists(c["trace"]) else 0
        problems = []
        if out["rc_run"] != 0 or out["rc_certify"] != 0:
            problems.append(f"run exit {out['rc_run']}, certify exit {out['rc_certify']}")
        problems += check_executors(out)
        problems += check_h(out["H"], out["H_dual"])
        try:
            with open(c["trace"]) as fh:
                text = fh.read()
        except OSError as e:
            return problems + [f"cannot read the trace: {e}"]
        problems += check_trace(c, text, out)
        if rnd == 0:
            problems += self.check_certify_rejects(c, text)
        return problems

    def check_certify_rejects(self, c: dict, text: str) -> list:
        """certify must exit 2 on a copy of the trace with one digit changed."""
        bad = os.path.join(self.workdir, "corrupted.csv")
        with open(bad, "w") as fh:
            fh.write(change_one_digit(text))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(["certify", "--trace", bad, "--config", c["cfg"]])
        return [] if rc == 2 else [f"certify exited {rc} on a corrupted trace, expected 2"]

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def change_one_digit(text: str) -> str:
    """Change the leading digit of f(x_0) or f(q_0), the first data row.

    certify compares values to 1e-9 (1 + |v|), so a late row whose f is
    below 1e-9 can change by a factor and pass; f of the start cannot.
    """
    lines = text.split("\n")
    j = next(j for j, ln in enumerate(lines) if ln and not ln.startswith(("#", "k,")))
    cols = lines[j].split(",")
    f = cols[1]
    pos = next(k for k, ch in enumerate(f) if ch in "123456789")
    cols[1] = f[:pos] + str(int(f[pos]) % 9 + 1) + f[pos + 1:]
    lines[j] = ",".join(cols)
    return "\n".join(lines)


def check_executors(out: dict) -> list:
    problems = []
    ex, cf = out["executor"], out["closed"].traj
    exd, cfd = out["executor_dual"], out["closed_dual"].dual_traj
    for what, got, want in [("x", ex.xs, cf.xs), ("y", ex.ys, cf.ys),
                            ("q", exd.qs, cfd.qs), ("r", exd.rs, cfd.rs)]:
        err = rel_err(got, want)
        if not err <= 1e-10:
            problems.append(f"executor {what} differs from the closed form by {err:.3e}")
    return problems


def check_h(H: np.ndarray, H_dual: np.ndarray) -> list:
    anti = np.asarray(H)[::-1, ::-1].T
    if H_dual.shape != anti.shape:
        return ["dual H has the wrong shape"]
    err = float(np.max(np.abs(H_dual - anti)))
    if not err <= H_TOL * max(1.0, float(np.max(np.abs(anti)))):
        return [f"dual H differs from the anti-transpose of H by {err:.3e}"]
    return []


def f_value(c: dict, x: np.ndarray) -> float:
    return 0.5 * float(np.sum(c["d"] * (x - c["b"]) ** 2))


def f_grad(c: dict, x: np.ndarray) -> np.ndarray:
    return c["d"] * (x - c["b"])


def reference_path(c: dict, out: dict):
    """Iterates the trace's rows are evaluated at, and psi*(r_k) for dual methods.

    MD and dual-MD are recomputed here; AMD and dual-AMD use the closed-form
    runs that check_executors compares with the schedule executors.
    """
    q = c["p"] / (c["p"] - 1.0)
    if c["method"] == "amd":
        return out["closed"].traj.xs, None
    if c["method"] == "dual-amd":
        dt = out["closed_dual"].dual_traj
        return dt.qs, [0.5 * lp(r, q) ** 2 for r in dt.rs]
    alpha, x = c["alpha"], c["start"]
    if c["method"] == "md":
        y = x
        xs = [half_sq_grad(y, q)]
        for _ in range(c["N"]):
            y = y - alpha * f_grad(c, xs[-1])
            xs.append(half_sq_grad(y, q))
        return xs, None
    qs = [x]
    for _ in range(c["N"]):
        qs.append(qs[-1] - alpha * half_sq_grad(f_grad(c, qs[-1]), q))
    return qs, [0.5 * lp(f_grad(c, x), q) ** 2 for x in qs]


def parse_trace(c: dict, text: str):
    """Data rows of a `mirropt run` CSV trace as floats (None for empty cells)."""
    header = [ln for ln in text.splitlines() if ln.startswith("#")]
    if f"# method={c['method']}" not in header or f"# N={c['N']}" not in header:
        raise ValueError("trace header does not match the case")
    rows = [[float(v) if v else None for v in ln.split(",")]
            for ln in text.splitlines() if ln and not ln.startswith(("#", "k,"))]
    if len(rows) != c["N"] + 1:
        raise ValueError(f"trace has {len(rows)} rows, expected {c['N'] + 1}")
    return rows


def check_rows(c: dict, rows: list, out: dict) -> list:
    """f, ||grad f||_q and psi*(r_k) in every row against values computed here."""
    q = c["p"] / (c["p"] - 1.0)
    xs, psi = reference_path(c, out)
    for k, row in enumerate(rows):
        want = [f_value(c, xs[k]), lp(f_grad(c, xs[k]), q), None if psi is None else psi[k]]
        for got, w in zip(row[1:4], want):
            if (got is None) != (w is None) or (w is not None and not abs(got - w) <= TRACE_TOL * (1.0 + abs(w))):
                return [f"trace row {k}: {row[1:4]} differs from {want}"]
    return []


def final_bound(c: dict) -> float:
    """The paper's bound on the final value, with theta computed here.

    AMD: f(x_N) - f* <= L D_phi(x*, x_0) / (sigma theta_N^2); MD: D_phi(x*, x_0) / (alpha N).
    dual-AMD: psi*(grad f(q_N)) <= L (f(q_0) - f*) / (sigma theta_N^2);
    dual-MD: (f(q_0) - f*) / (alpha N).  Here f* = 0 and x* = b.
    """
    p, N, L, sigma = c["p"], c["N"], c["L"], c["sigma"]
    q = p / (p - 1.0)
    th_N = theta(N)[N]
    if c["method"] in ("amd", "md"):
        x0, xstar = half_sq_grad(c["start"], q), c["b"]
        gap = 0.5 * lp(xstar, p) ** 2 - 0.5 * lp(x0, p) ** 2 - float(half_sq_grad(x0, p) @ (xstar - x0))
    else:
        gap = f_value(c, c["start"])
    if c["method"] in ("amd", "dual-amd"):
        return L * gap / (sigma * th_N ** 2)
    return gap / (c["alpha"] * N)


def final_value(c: dict, rows: list) -> float:
    """f(x_N) - f* for primal methods, psi*(grad f(q_N)) = ||grad f(q_N)||_q^2 / 2 for dual ones."""
    return rows[-1][1] if c["method"] in ("amd", "md") else 0.5 * rows[-1][2] ** 2


def check_bound(c: dict, rows: list) -> list:
    value, bound = final_value(c, rows), final_bound(c)
    if not value <= bound + BOUND_SLACK:
        return [f"final value {value:.6e} above the bound {bound:.6e}"]
    return []


def check_trace(c: dict, text: str, out: dict) -> list:
    try:
        rows = parse_trace(c, text)
    except ValueError as e:
        return [str(e)]
    return check_rows(c, rows, out) + check_bound(c, rows)


WORKLOADS = {w.name: w for w in (OTSolve, DualityCheck, RunCertify)}
