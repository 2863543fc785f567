import functools
import json

import numpy as np
import pytest

from mirropt import ot
from mirropt.cfom import load_schedule, run_dual_cfom, save_schedule
from mirropt.cli import main
from mirropt.dgf import euclidean
from mirropt.methods import amd_schedule, run_dual_amd
from mirropt.objectives import DiagQuadratic

from conftest import random_valid_schedule


AMD_CONFIG = {
    "method": "amd",
    "objective": {"kind": "diag-quadratic", "d": [1.0, 4.0], "b": [0.0, 0.0]},
    "dgf": {"kind": "euclidean"},
    "N": 20,
    "y0": [1.0, 1.0],
}


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def test_run_amd_trace(tmp_path, capsys):
    cfg = _write(tmp_path / "cfg.json", AMD_CONFIG)
    out = tmp_path / "trace.csv"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    header = [ln for ln in lines if ln.startswith("#")]
    rows = [ln for ln in lines if not ln.startswith("#") and not ln.startswith("k,")]
    assert len(rows) == 21
    assert any("method=amd" in h for h in header)
    ks = [int(r.split(",")[0]) for r in rows]
    assert ks == list(range(21))
    bounds = {r.split(",")[5] for r in rows}
    assert len(bounds) == 1  # bound column constant
    energies = [float(r.split(",")[4]) for r in rows]
    assert all(b <= a + 1e-9 for a, b in zip(energies, energies[1:]))


def test_run_is_deterministic(tmp_path):
    cfg = _write(tmp_path / "cfg.json", AMD_CONFIG)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["run", "--config", cfg, "--out", str(out1), "--seed", "7"]) == 0
    assert main(["run", "--config", cfg, "--out", str(out2), "--seed", "7"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_run_invalid_json_exits_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o.csv")]) == 1


def test_run_rejects_n_zero(tmp_path, capsys):
    doc = dict(AMD_CONFIG, N=0)
    cfg = _write(tmp_path / "cfg.json", doc)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 1
    assert "N >= 1 required" in capsys.readouterr().err


def test_certify_roundtrip_and_tamper(tmp_path):
    cfg = _write(tmp_path / "cfg.json", AMD_CONFIG)
    out = tmp_path / "trace.csv"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert main(["certify", "--trace", str(out), "--config", cfg]) == 0
    lines = out.read_text().splitlines()
    parts = lines[-1].split(",")
    parts[1] = format(float(parts[1]) + 0.5, ".17g")
    lines[-1] = ",".join(parts)
    out.write_text("\n".join(lines) + "\n")
    assert main(["certify", "--trace", str(out), "--config", cfg]) == 2
    # A converged run's last f is far below 1e-9; a changed leading digit
    # there must fail too, so the comparison is relative.
    cfg = _write(tmp_path / "cfg200.json", dict(AMD_CONFIG, N=200))
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert main(["certify", "--trace", str(out), "--config", cfg]) == 0
    lines = out.read_text().splitlines()
    parts = lines[-1].split(",")
    assert parts[1].startswith("6.43")
    for changed in ("7" + parts[1][1:], "nan"):
        lines[-1] = ",".join([parts[0], changed] + parts[2:])
        out.write_text("\n".join(lines) + "\n")
        assert main(["certify", "--trace", str(out), "--config", cfg]) == 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_run_divergence_exits_4(tmp_path, capsys):
    # L far below the true constant 4: AMD diverges (non-finite y at k = 80).
    cfg = _write(tmp_path / "cfg.json", dict(AMD_CONFIG, N=200, L=0.001))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 4
    assert "numerical failure" in capsys.readouterr().err


def test_duality_check_amd(tmp_path):
    rep = tmp_path / "rep.json"
    code = main([
        "duality-check", "--schedule", "amd", "--N", "8",
        "--trials", "100", "--tol", "1e-9", "--out", str(rep),
    ])
    assert code == 0
    doc = json.loads(rep.read_text())
    assert doc["max_residual"] <= 1e-9
    assert doc["trials"] == 100


def test_duality_check_random_schedule_file(tmp_path, rng):
    s = random_valid_schedule(5, rng)
    path = tmp_path / "s.json"
    save_schedule(s, str(path))
    assert main(["duality-check", "--schedule", str(path), "--trials", "100"]) == 0


def test_duality_check_mismatched_v_exits_3():
    assert main([
        "duality-check", "--schedule", "amd", "--N", "5",
        "--trials", "20", "--perturb-v", "0.1",
    ]) == 3


def test_duality_check_malformed_schedule(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2")
    assert main(["duality-check", "--schedule", str(bad)]) == 1


def test_dualize_involution(tmp_path, rng):
    s = random_valid_schedule(6, rng)
    p0 = tmp_path / "s.json"
    p1 = tmp_path / "d.json"
    p2 = tmp_path / "dd.json"
    save_schedule(s, str(p0))
    assert main(["dualize", "--schedule", str(p0), "--out", str(p1)]) == 0
    assert main(["dualize", "--schedule", str(p1), "--out", str(p2)]) == 0
    assert json.loads(p0.read_text()) == json.loads(p2.read_text())


def test_dualize_amd_matches_closed_form(tmp_path, rng):
    f = DiagQuadratic(d=[1.0, 3.0], b=[0.2, -0.4])
    N = 7
    s = amd_schedule(N, f.L, 1.0)
    p0 = tmp_path / "amd.json"
    p1 = tmp_path / "dual.json"
    save_schedule(s, str(p0))
    assert main(["dualize", "--schedule", str(p0), "--out", str(p1)]) == 0
    dual = load_schedule(str(p1))
    q0 = np.array([0.9, -1.1])
    dt = run_dual_cfom(dual, f, euclidean(), q0)
    closed = run_dual_amd(f, euclidean(), q0, N, L=f.L, sigma=1.0)
    for a, b in zip(dt.qs, closed.dual_traj.qs):
        assert np.allclose(a, b, rtol=1e-10, atol=1e-10)


def test_dualize_empty_schedule(tmp_path):
    p0 = tmp_path / "s.json"
    p0.write_text(json.dumps({"N": 3, "a": [], "b": []}))
    p1 = tmp_path / "d.json"
    assert main(["dualize", "--schedule", str(p0), "--out", str(p1)]) == 0
    doc = json.loads(p1.read_text())
    assert doc["a"] == []
    assert doc["b"] == [[3, 3, -1.0]]  # the carried b(0,0) = -1 lands at (N,N)


OT_INSTANCE = {"C": [[0.0, 1.0], [1.0, 0.0]], "mu": [0.5, 0.5], "nu": [0.5, 0.5]}


def test_ot_command(tmp_path, capsys):
    inst = _write(tmp_path / "inst.json", OT_INSTANCE)
    out = tmp_path / "res.json"
    assert main(["ot", "--instance", inst, "--eps", "0.05", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["cost"] <= 0.05
    X = np.array(doc["plan"])
    assert np.max(np.abs(X.sum(axis=1) - 0.5)) <= 1e-10
    assert np.max(np.abs(X.sum(axis=0) - 0.5)) <= 1e-10
    assert "gap=" in capsys.readouterr().out


def test_ot_budget_exhausted_exits_4(tmp_path, monkeypatch, capsys):
    rng = np.random.default_rng(0)
    doc = {"C": rng.uniform(0, 1, (30, 30)).tolist(),
           "mu": [1.0 / 30] * 30, "nu": [1.0 / 30] * 30}
    inst = _write(tmp_path / "inst.json", doc)
    monkeypatch.setattr(ot, "solve_ot", functools.partial(ot.solve_ot, eval_cap=100))
    assert main(["ot", "--instance", inst, "--eps", "0.001", "--out", str(tmp_path / "o.json")]) == 4
    assert "budget 100 exhausted" in capsys.readouterr().err


def test_ot_rejects_bad_marginals(tmp_path):
    doc = dict(OT_INSTANCE, mu=[0.6, 0.5])
    inst = _write(tmp_path / "inst.json", doc)
    assert main(["ot", "--instance", inst, "--eps", "0.1", "--out", str(tmp_path / "o.json")]) == 1


def test_ot_rejects_bad_eps(tmp_path):
    inst = _write(tmp_path / "inst.json", OT_INSTANCE)
    assert main(["ot", "--instance", inst, "--eps", "-0.1", "--out", str(tmp_path / "o.json")]) == 1


def test_unknown_subcommand_exits_1():
    assert main(["frobnicate"]) == 1
