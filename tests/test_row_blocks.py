"""Row-blocked trace rows and energy certificates against the per-row code.

The reference functions below evaluate f, ||grad f||_q, psi*, the pairings
and the brackets one row at a time, as the CLI and the certificates did
before they worked on blocks of rows.  The blocked code must give the same
floats, compared with ==, whatever the block size.
"""

import tracemalloc

import numpy as np
import pytest

from mirropt import certificates, cli, methods
from mirropt.cfom import run_cfom, run_mirror_dual
from mirropt.dgf import euclidean, squared_lp
from mirropt.objectives import DenseQuadratic, DiagQuadratic
from mirropt.spaces import lp_norm, lp_norms, pairing, pairings

DIM = 5


def _d_f(fx, fx2, g2, x, x2):
    return fx - fx2 - pairing(g2, x - x2)


def ref_coco_brackets(pts, duals, traj, f_vals, conj_vals, L, sigma, g):
    out = []
    for k in range(len(pts) - 1):
        coco_f = (
            _d_f(f_vals[k], f_vals[k + 1], traj.f_grads[k + 1], pts[k], pts[k + 1])
            - lp_norm(traj.f_grads[k] - traj.f_grads[k + 1], g.q) ** 2 / (2.0 * L)
        )
        coco_conj = (
            conj_vals[k] - conj_vals[k + 1]
            - pairing(duals[k] - duals[k + 1], traj.mirrors[k + 1])
            - sigma / 2.0 * lp_norm(traj.mirrors[k + 1] - traj.mirrors[k], g.p) ** 2
        )
        out.append((coco_f, coco_conj))
    return out


def ref_primal_energy_trace(traj, x, u, f, g, L, sigma):
    N = len(traj.xs) - 1
    u = [float(v) for v in u]
    x = np.asarray(x, dtype=np.float64)
    fx = f.value(x)
    f_vals = [f.value(xi) for xi in traj.xs]
    phi_conj = [g.conjugate_value(yi) for yi in traj.ys]
    brackets = ref_coco_brackets(traj.xs, traj.ys, traj, f_vals, phi_conj, L, sigma, g)
    e0 = g.value(x) + phi_conj[0] - pairing(traj.ys[0], x)
    e0 -= u[0] * _d_f(fx, f_vals[0], traj.f_grads[0], x, traj.xs[0])
    energies, decrements = [e0], []
    for k, (coco_f, coco_conj) in enumerate(brackets):
        cvx = _d_f(fx, f_vals[k + 1], traj.f_grads[k + 1], x, traj.xs[k + 1])
        decrements.append({"convexity": cvx, "coco_f": coco_f, "coco_conjugate": coco_conj})
        energies.append(energies[-1] - (u[k + 1] - u[k]) * cvx - u[k] * coco_f - coco_conj)
    fenchel = g.value(x) + phi_conj[N] - pairing(traj.ys[N], x)
    pairing_vec = traj.ys[N] - traj.ys[0]
    prev = 0.0
    for i in range(N + 1):
        pairing_vec = pairing_vec + (u[i] - prev) * traj.f_grads[i]
        prev = u[i]
    value_term = u[N] * (f_vals[N] - fx)
    final_terms = {
        "value_term": value_term,
        "fenchel_residual": fenchel,
        "pairing_term": pairing(pairing_vec, x),
        "pairing_vector_norm": lp_norm(pairing_vec, 2),
        "U_A": energies[N] - value_term - fenchel - pairing(pairing_vec, x),
        "certified_bound": (g.value(x) + phi_conj[0] - pairing(traj.ys[0], x)) / u[N],
    }
    return energies, decrements, final_terms


def ref_dual_energy_trace(traj, v, f, g, L, sigma):
    N = len(traj.qs) - 1
    v = [float(x) for x in v]
    f_vals = [f.value(qi) for qi in traj.qs]
    psi_conj = [g.conjugate_value(ri) for ri in traj.rs]
    brackets = ref_coco_brackets(traj.qs, traj.rs, traj, f_vals, psi_conj, L, sigma, g)
    energies, decrements = [v[0] * (f_vals[0] - f_vals[N])], []
    for k, (coco_f, coco_conj) in enumerate(brackets):
        cvx = _d_f(f_vals[N], f_vals[k], traj.f_grads[k], traj.qs[N], traj.qs[k])
        decrements.append({"convexity": cvx, "coco_f": coco_f, "coco_conjugate": coco_conj})
        energies.append(energies[-1] - (v[k + 1] - v[k]) * cvx - v[k + 1] * coco_f - coco_conj)
    d_psi_conj_0_r0 = -psi_conj[0] + pairing(traj.rs[0], traj.mirrors[0])
    final_terms = {
        "psi_conj_final": psi_conj[N],
        "bregman_zero_r0": d_psi_conj_0_r0,
        "V_B": energies[N] - psi_conj[N] - d_psi_conj_0_r0,
        "certified_bound": energies[0],
    }
    return energies, decrements, final_terms


def ref_trace_rows(run, f, g):
    q = g.q
    rows = []
    if run.traj is not None:
        tr = run.traj
        energies = None
        if run.method == "amd" and f.x_star is not None:
            th = run.theta
            u = [(run.sigma / run.L) * th.sq(i) for i in range(th.N + 1)]
            energies = ref_primal_energy_trace(tr, f.x_star, u, f, g, run.L, run.sigma)[0]
        for k in range(len(tr.xs)):
            rows.append((k, f.value(tr.xs[k]), lp_norm(tr.f_grads[k], q), None,
                         energies[k] if energies is not None else None, run.bound))
    else:
        tr = run.dual_traj
        energies = None
        if run.method == "dual-amd" and not g.shifted:
            th = run.theta
            v = [run.L / (run.sigma * th.sq(th.N - i)) for i in range(th.N + 1)]
            energies = ref_dual_energy_trace(tr, v, f, g, run.L, run.sigma)[0]
        for k in range(len(tr.qs)):
            rows.append((k, f.value(tr.qs[k]), lp_norm(tr.f_grads[k], q), g.conjugate_value(tr.rs[k]),
                         energies[k] if energies is not None else None, run.bound))
    return rows


def _objective(kind, p, rng):
    if kind == "diag":
        return DiagQuadratic(d=rng.uniform(0.2, 4.0, DIM), b=rng.standard_normal(DIM), norm_p=p)
    M = rng.standard_normal((DIM, DIM))
    return DenseQuadratic(A=M @ M.T / DIM, b=rng.standard_normal(DIM))


# (objective kind, p, shifted DGF); dense-quadratic declares L for p = 2 only.
SETUPS = [("diag", 2.0, False), ("diag", 1.5, False), ("diag", 2.0, True), ("diag", 1.5, True),
          ("dense", 2.0, False), ("dense", 2.0, True)]
# Below, at (N + 1 = 16 rows, N = 16 steps) and above one block of 16.
HORIZONS = [5, 15, 16, 40]
BLOCKS = [certificates.ROW_BLOCK, 1, 7]


def _runs(method, kind, p, shifted, N, seed):
    rng = np.random.default_rng(seed)
    f = _objective(kind, p, rng)
    g = squared_lp(p, x0=rng.standard_normal(DIM) if shifted else None)
    start = rng.standard_normal(DIM)
    if method in ("md", "dual-md"):
        runner = methods.run_md if method == "md" else methods.run_dual_md
        return runner(f, g, g.sigma / f.L, start, N), f, g
    runner = methods.run_amd if method == "amd" else methods.run_dual_amd
    return runner(f, g, start, N), f, g


@pytest.mark.parametrize("method", ["amd", "dual-amd", "md", "dual-md"])
@pytest.mark.parametrize("kind, p, shifted", SETUPS)
def test_trace_rows_equal_per_row_reference(method, kind, p, shifted, monkeypatch):
    for N in HORIZONS:
        run, f, g = _runs(method, kind, p, shifted, N, seed=N)
        want = ref_trace_rows(run, f, g)
        for block in BLOCKS:
            monkeypatch.setattr(certificates, "ROW_BLOCK", block)
            assert cli._trace_rows(run, f, g) == want, (N, block)


def _schedule_trajectories(kind, p, shifted, N, seed):
    """A primal and a dual run of the AMD schedule's executor, rows of one array."""
    rng = np.random.default_rng(seed)
    f = _objective(kind, p, rng)
    g = squared_lp(p, x0=rng.standard_normal(DIM) if shifted else None)
    s = methods.amd_schedule(N, f.L, g.sigma)
    start = rng.standard_normal(DIM)
    return run_cfom(s, f, g, start), run_mirror_dual(s, f, g, start), f, g


@pytest.mark.parametrize("kind, p, shifted", SETUPS)
def test_energy_traces_equal_per_row_reference(kind, p, shifted, monkeypatch):
    for N in HORIZONS:
        primal, dual, f, g = _schedule_trajectories(kind, p, shifted, N, seed=100 + N)
        u = np.cumsum(np.linspace(0.5, 2.0, N + 1))
        v = [1.0 / u[N - i] for i in range(N + 1)]
        want_p = ref_primal_energy_trace(primal, f.x_star + 0.1, u, f, g, f.L, g.sigma)
        want_d = None if shifted else ref_dual_energy_trace(dual, v, f, g, f.L, g.sigma)
        for block in BLOCKS:
            monkeypatch.setattr(certificates, "ROW_BLOCK", block)
            et = certificates.primal_energy_trace(primal, f.x_star + 0.1, u, f, g)
            assert (et.energies, et.decrements, et.final_terms) == want_p, (N, block)
            if want_d is not None:
                et = certificates.dual_energy_trace(dual, v, f, g)
                assert (et.energies, et.decrements, et.final_terms) == want_d, (N, block)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 1.0, np.inf])
@pytest.mark.parametrize("d", [1, 3, 8, 17, 1000])
def test_row_wise_helpers_equal_per_row_functions(p, d):
    rng = np.random.default_rng(d)
    X = rng.standard_normal((9, d)) * np.logspace(-8, 8, 9)[:, None]
    U = rng.standard_normal((9, d))
    assert lp_norms(X, p).tolist() == [lp_norm(x, p) for x in X]
    assert pairings(U, X).tolist() == [pairing(u, x) for u, x in zip(U, X)]
    if 1.0 < p <= 2.0:
        for g in (squared_lp(p), squared_lp(p, x0=rng.standard_normal(d))):
            assert g.conjugate_values(X).tolist() == [g.conjugate_value(x) for x in X]
        f = DiagQuadratic(d=rng.uniform(0.1, 3.0, d), b=rng.standard_normal(d), norm_p=p)
        assert f.values(X).tolist() == [f.value(x) for x in X]
    if d <= 100:
        M = rng.standard_normal((d, d))
        f = DenseQuadratic(A=M @ M.T, b=rng.standard_normal(d))
        assert f.values(X).tolist() == [f.value(x) for x in X]


def test_trace_rows_memory_is_bounded_by_the_block():
    """At N = 200 and d = 1000 a full stack of one family is 1.5 MiB; the
    blocked rows stay well below that."""
    rng = np.random.default_rng(3)
    d, N = 1000, 200
    f = DiagQuadratic(d=rng.uniform(0.2, 4.0, d), b=rng.standard_normal(d))
    g = euclidean()
    run = methods.run_amd(f, g, rng.standard_normal(d), N)
    cli._trace_rows(run, f, g)
    tracemalloc.start()
    try:
        cli._trace_rows(run, f, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2 ** 20
