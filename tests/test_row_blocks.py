"""Row-blocked trace rows and energy certificates against the per-row code.

The reference functions below evaluate f, ||grad f||_q, psi*, the pairings
and the brackets one row at a time, as the CLI and the certificates did
before they worked on blocks of rows.  The blocked code must give the same
floats, compared with ==, whatever the block size.
"""

import json
import tracemalloc

import numpy as np
import pytest

from mirropt import certificates, cli, methods
from mirropt.cfom import run_cfom, run_mirror_dual
from mirropt.dgf import DGF, squared_lp
from mirropt.objectives import DenseQuadratic, DiagQuadratic, LogSumExp
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
    if kind == "lse":
        return LogSumExp(r=0.5, n=DIM)
    M = rng.standard_normal((DIM, DIM))
    return DenseQuadratic(A=M @ M.T / DIM, b=rng.standard_normal(DIM))


# (objective kind, p, shifted DGF); dense-quadratic declares L for p = 2 only.
ENERGY_SETUPS = [("diag", 2.0, False), ("diag", 1.5, False), ("diag", 2.0, True), ("diag", 1.5, True),
                 ("dense", 2.0, False), ("dense", 2.0, True)]
# Log-sum-exp has no x* or f*: amd rows with no energy or bound, dual-amd's V_k with no bound.
SETUPS = ENERGY_SETUPS + [("lse", 2.0, False), ("lse", 1.5, True)]
# Below, at (N + 1 = 16 rows, N = 16 steps) and above one block of 16.
HORIZONS = [5, 15, 16, 40]
BLOCKS = [certificates.ROW_BLOCK, 1, 7]


def _config(method, kind, p, shifted, N, seed):
    """A run config for the CLI, with the objective and DGF it describes."""
    rng = np.random.default_rng(seed)
    f = _objective(kind, p, rng)
    g = squared_lp(p, x0=rng.standard_normal(DIM) if shifted else None)
    cfg = {"method": method, "objective": f.to_descriptor(), "dgf": g.to_descriptor(), "N": N,
           "q0" if method.startswith("dual") else "y0": rng.standard_normal(DIM).tolist()}
    if method in ("md", "dual-md"):
        cfg["alpha"] = g.sigma / f.L
    return cfg, f, g


def _collected(cfg, f, g):
    """The configured method's MethodRun, from its runner."""
    method, N = cfg["method"], cfg["N"]
    start = np.asarray(cfg["q0" if method.startswith("dual") else "y0"])
    if method in ("md", "dual-md"):
        runner = methods.run_md if method == "md" else methods.run_dual_md
        return runner(f, g, cfg["alpha"], start, N)
    runner = methods.run_amd if method == "amd" else methods.run_dual_amd
    return runner(f, g, start, N)


def _as_rows(cols_and_bound):
    """The rows `run` writes, (k, f, grad-q-norm, psi* or None, energy or None, bound),
    from cli._rows' value columns and bound."""
    cols, bound = cols_and_bound
    return [(k, *(None if c is None else c[k] for c in cols), bound) for k in range(len(cols[0]))]


@pytest.mark.parametrize("method", ["amd", "dual-amd", "md", "dual-md"])
@pytest.mark.parametrize("kind, p, shifted", SETUPS)
def test_trace_rows_equal_per_row_reference(method, kind, p, shifted, monkeypatch):
    """The rows `run` and `certify` evaluate while the method steps equal the
    per-row reference on the runner's collected run, whatever the block size."""
    for N in HORIZONS:
        cfg, f, g = _config(method, kind, p, shifted, N, seed=N)
        want = ref_trace_rows(_collected(cfg, f, g), f, g)
        for block in BLOCKS:
            monkeypatch.setattr(certificates, "ROW_BLOCK", block)
            assert _as_rows(cli._run_from_config(cfg)[1]) == want, (N, block)


@pytest.mark.parametrize("method", ["amd", "dual-amd", "md", "dual-md"])
@pytest.mark.parametrize("kind, p, shifted", SETUPS)
def test_streamed_rows_equal_collected_rows(method, kind, p, shifted, monkeypatch):
    """The rows `run` and `certify` evaluate while the method steps equal
    cli._rows on the steps of the runner's collected run, whatever the block size."""
    for N in HORIZONS:
        cfg, f, g = _config(method, kind, p, shifted, N, seed=N)
        run = _collected(cfg, f, g)
        if method.startswith("dual"):
            tr = run.dual_traj
            steps = list(zip(tr.qs, tr.rs, tr.f_grads, tr.mirrors))
        else:
            tr = run.traj
            steps = list(zip(tr.xs, tr.ys, tr.f_grads, tr.mirrors))
        for block in BLOCKS:
            monkeypatch.setattr(certificates, "ROW_BLOCK", block)
            collected = _as_rows(cli._rows(run, steps, f, g))
            assert _as_rows(cli._run_from_config(cfg)[1]) == collected, (N, block)


@pytest.mark.parametrize("method, conj_rows", [("amd", 1), ("dual-amd", 1), ("md", 0), ("dual-md", 1)])
def test_trace_rows_evaluate_each_row_once(method, conj_rows, monkeypatch):
    """f, and the conjugate DGF (phi* in AMD's energies, psi* on dual runs),
    see each of the N + 1 rows once: the rows reuse the energy trace's values."""
    N = 20
    cfg, f, g = _config(method, "diag", 1.5, False, N, seed=4)
    rows = {"f": 0, "conj": 0}
    f_values, conj_values = type(f).values, DGF.conjugate_values

    def counted_f(self, X):
        rows["f"] += len(X)
        return f_values(self, X)

    def counted_conj(self, Y):
        rows["conj"] += len(Y)
        return conj_values(self, Y)

    monkeypatch.setattr(type(f), "values", counted_f)
    monkeypatch.setattr(DGF, "conjugate_values", counted_conj)
    cli._run_from_config(cfg)
    assert rows == {"f": N + 1, "conj": conj_rows * (N + 1)}


def _schedule_trajectories(kind, p, shifted, N, seed):
    """A primal and a dual run of the AMD schedule's executor, rows of one array."""
    rng = np.random.default_rng(seed)
    f = _objective(kind, p, rng)
    g = squared_lp(p, x0=rng.standard_normal(DIM) if shifted else None)
    s = methods.amd_schedule(N, f.L, g.sigma)
    start = rng.standard_normal(DIM)
    return run_cfom(s, f, g, start), run_mirror_dual(s, f, g, start), f, g


@pytest.mark.parametrize("kind, p, shifted", ENERGY_SETUPS)
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


@pytest.mark.parametrize("N", [0, 1, 15, 16, 17, 40])
def test_windows_equal_the_stacked_rows(N, monkeypatch):
    """Each window holds the rows np.asarray would stack, float64 from int steps too,
    ROW_BLOCK + 1 of them (fewer in the last), each starting at the last row of the one before."""
    rows = [(np.arange(3) + k, np.full((2, 2), -k)) for k in range(N + 1)]
    for block in BLOCKS:
        monkeypatch.setattr(certificates, "ROW_BLOCK", block)
        start = 0
        for window in certificates._windows(rows):
            n = len(window[0])
            assert n <= block + 1 and (n == block + 1 or start + n == N + 1)
            for j, fam in enumerate(window):
                want = np.asarray([r[j] for r in rows[start:start + n]], dtype=np.float64)
                assert fam.dtype == np.float64 and fam.tobytes() == want.tobytes(), (N, block, start)
            start += n - 1
        assert start == N


def test_windows_hold_one_window_of_rows():
    """The windows are filled in place: over four families at d = 10,000, taken as a
    method yields them and read as the consumers read them, the traced peak stays
    below 1.5 windows, the buffers, the step at hand and the one being made."""
    d, N = 10_000, 100

    def steps():
        for k in range(N + 1):
            yield tuple(np.full(d, float(k + j)) for j in range(4))

    window = (certificates.ROW_BLOCK + 1) * 4 * d * 8
    tracemalloc.start()
    try:
        for P, Y, G, M in certificates._windows(steps()):
            assert P[-1, 0] + 3 == M[-1, 0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * window, peak / window


@pytest.mark.parametrize("method", ["amd", "md", "dual-md", "dual-amd"])
def test_run_and_certify_memory_is_bounded_by_the_block(method, tmp_path, capsys):
    """At N = 2,000 and d = 1,000 one family of a run is 15 MiB, and the runners'
    four lists 61 MiB; run and certify evaluate every method while it steps,
    into one window of rows filled in place, so that on amd, md and dual-md
    neither holds 2 MiB.  dual-amd's energies read its last point, so until it
    comes its rows keep copies of two families: at most 2.25 of them."""
    rng = np.random.default_rng(6)
    d, N = 1000, 2000
    dvec = rng.uniform(0.2, 4.0, d)
    cfg = {"method": method, "objective": {"kind": "diag-quadratic", "d": dvec.tolist(),
                                           "b": rng.standard_normal(d).tolist()},
           "N": N, "q0" if method.startswith("dual") else "y0": rng.standard_normal(d).tolist()}
    if method in ("md", "dual-md"):
        cfg["alpha"] = 1.0 / float(dvec.max())
    bound = 2.25 * (N + 1) * d * 8 if method == "dual-amd" else 2 * 2 ** 20
    path, trace = tmp_path / "cfg.json", str(tmp_path / "t.csv")
    path.write_text(json.dumps(cfg))
    for argv in (["run", "--config", str(path), "--out", trace], ["certify", "--trace", trace, "--config", str(path)]):
        tracemalloc.start()
        try:
            code = cli.main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and peak < bound, (argv[0], code, peak / ((N + 1) * d * 8))


def test_dual_energy_trace_holds_no_copy_of_the_run():
    """dual_energy_trace compares against its own q_N, so on a whole run it
    keeps no copy of the points and gradients: at N = 2,000 and d = 50 its
    traced peak stays below 1.5 families of the run."""
    rng = np.random.default_rng(8)
    d, N = 50, 2000
    f = DiagQuadratic(d=rng.uniform(0.2, 4.0, d), b=rng.standard_normal(d))
    g = squared_lp(2.0)
    traj = run_mirror_dual(methods.amd_schedule(N, f.L, g.sigma), f, g, rng.standard_normal(d))
    v = methods._energy_weights(methods.theta_sequence(N), f.L, g.sigma, True)
    tracemalloc.start()
    try:
        et = certificates.dual_energy_trace(traj, v, f, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert et.max_increase() <= 1e-9 * max(1.0, abs(et.energies[0]))
    assert peak < 1.5 * (N + 1) * d * 8, peak / ((N + 1) * d * 8)
