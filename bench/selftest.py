"""Self-test of the benchmark's output checks.

Each check must pass on a genuine output and fail on a corrupted copy:
a plan with one entry moved, a trace with one digit changed, and so on.
Run from the repository root:

    python3 bench/selftest.py

Exits 0 when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads as W  # noqa: E402
from mirropt import cli  # noqa: E402

FAILURES = []


def expect(label: str, problems: list, should_fail: bool) -> None:
    ok = bool(problems) == should_fail
    print(f"{'PASS' if ok else 'FAIL'}: {label}" + (f" -> {problems[0]}" if problems else ""))
    if not ok:
        FAILURES.append(label)


def ot_checks(workdir: str) -> None:
    work = W.OTSolve(seed=7, workdir=workdir)
    inst, eps = work.cases[0]
    res = work.run(0)
    opt = W.lp_optimum(inst)
    problems, cost = W.check_plan(inst, eps, res)
    expect("ot: genuine plan", problems + W.check_cost(cost, opt, eps), False)

    moved = copy.deepcopy(res)
    X = moved.plan.X
    j = int(X[0].argmax())  # the row's largest entry, so the move is not below tolerance
    X[0, (j + 1) % X.shape[1]] += X[0, j]
    X[0, j] = 0.0
    expect("ot: largest entry of a row moved to the next column", W.check_plan(inst, eps, moved)[0], True)

    neg = copy.deepcopy(res)
    neg.plan.X[0, 0] = -1e-9
    expect("ot: one negative entry", W.check_plan(inst, eps, neg)[0], True)

    cost_off = copy.deepcopy(res)
    cost_off.cost += 1e-6
    expect("ot: reported cost differs from the plan", W.check_plan(inst, eps, cost_off)[0], True)

    grad = copy.deepcopy(res)
    grad.report["grad_l1"] = 2.0 * grad.report["grad_tol"]
    expect("ot: grad_l1 above grad_tol", W.check_plan(inst, eps, grad)[0], True)

    expect("ot: cost above LP* + eps", W.check_cost(opt + 1.01 * eps, opt, eps), True)
    expect("ot: cost below LP*", W.check_cost(opt - 1e-6, opt, eps), True)


def duality_checks(workdir: str) -> None:
    work = W.DualityCheck(seed=7, workdir=workdir)
    rep = work.run(0)
    trials = work.cases[0]["trials"]
    expect("duality: genuine report", W.check_duality_report(rep, trials), False)

    bad = copy.deepcopy(rep)
    bad.max_residual = 1e-8
    bad.failures = [{"trial": 0, "U": 1.0, "V": 1.0 + 1e-8, "residual": 1e-8}]
    expect("duality: residual above 1e-9", W.check_duality_report(bad, trials), True)
    expect("duality: wrong trial count", W.check_duality_report(rep, trials + 1), True)

    c = work.cases[0]
    N = c["s"].N
    v = [W.CONTROL_V_SCALE / c["u"][N - k] for k in range(N + 1)]
    control = work._check(c, v=v, trials=2)
    expect("duality: genuine control", W.check_duality_control(control), False)
    expect("duality: control that reports no failure", W.check_duality_control(rep), True)


def run_certify_checks(workdir: str) -> None:
    work = W.RunCertify(seed=7, workdir=workdir)
    for i in (0, 1, 2, 3):  # amd, dual-amd, md, dual-md
        c = work.cases[i]
        out = work.run(i)
        with open(c["trace"]) as fh:
            text = fh.read()
        method = c["method"]
        expect(f"run-certify {method}: genuine case", work.check(i, 0, out), False)
        expect(f"run-certify {method}: trace with one digit changed",
               W.check_trace(c, W.change_one_digit(text), out), True)
        rows = W.parse_trace(c, text)
        expect(f"run-certify {method}: genuine final value", W.check_bound(c, rows), False)
        above = 2.0 * W.final_bound(c) + 1e-6
        rows[-1][1 if method in ("amd", "md") else 2] = (
            above if method in ("amd", "md") else (2.0 * above) ** 0.5)
        expect(f"run-certify {method}: final value above the bound", W.check_bound(c, rows), True)

    out = work.run(0)
    bad = copy.deepcopy(out)
    bad["executor"].xs[-1][0] += 1e-6
    expect("run-certify: executor iterate moved", W.check_executors(bad), True)
    bad = copy.deepcopy(out)
    bad["executor_dual"].rs[1][0] += 1e-6
    expect("run-certify: dual executor iterate moved", W.check_executors(bad), True)
    H_dual = out["H_dual"].copy()
    H_dual[-1, 0] += 1e-9
    expect("run-certify: dual H entry moved", W.check_h(out["H"], H_dual), True)
    bad = dict(out, rc_certify=2)
    expect("run-certify: certify exit 2", work.check(0, 1, bad), True)

    c = work.cases[0]
    with open(c["trace"]) as fh:
        text = fh.read()
    saved = cli.main
    cli.main = lambda argv=None: 0  # a certify that accepts anything
    try:
        expect("run-certify: certify accepting a corrupted trace",
               work.check_certify_rejects(c, text), True)
    finally:
        cli.main = saved
    work.close()


def main() -> int:
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".selftest-") as tmp:
        ot_checks(tmp)
        duality_checks(tmp)
        run_certify_checks(os.path.join(tmp, "rc"))
    print(f"{len(FAILURES)} check(s) misbehaved" if FAILURES else "all checks behave")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
