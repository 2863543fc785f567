"""Command-line front end.

Subcommands:
    run            execute a configured method, emit a CSV trace
    certify        re-run a config and verify an emitted trace against it
    duality-check  sample the energy-duality identity on a schedule
    dualize        write the mirror-dual of a schedule file
    ot             solve a transport instance to accuracy eps

Exit codes: 0 success, 1 usage or I/O error, 2 certified-bound violation,
3 duality residual above tolerance, 4 numerical failure (a non-finite
iterate, or the OT gradient-evaluation budget exhausted).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import certificates, cfom, methods, ot
from .dgf import dgf_from_descriptor, euclidean
from .objectives import objective_from_descriptor
from .spaces import lp_norms

BOUND_SLACK = 1e-9


def _fmt(x) -> str:
    if x is None:
        return ""
    return format(float(x), ".17g")


class UsageError(Exception):
    pass


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise UsageError(f"cannot read {path}: {e}")


# method -> (runner, key of its start point in the config)
_METHODS = {"amd": (methods.run_amd, "y0"), "dual-amd": (methods.run_dual_amd, "q0"),
            "md": (methods.run_md, "y0"), "dual-md": (methods.run_dual_md, "q0")}


def _number(x) -> float:
    """A JSON number as a float; a string, boolean or list is refused."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise TypeError(f"expected a number, got {x!r}")
    return float(x)


def _run_from_config(cfg: dict):
    """Execute the configured method; returns (run, f, g)."""
    try:
        method = cfg["method"]
        f = objective_from_descriptor(cfg["objective"])
        g = dgf_from_descriptor(cfg.get("dgf", {"kind": "euclidean"}))
        N = int(cfg["N"])
        L, sigma = (None if cfg.get(k) is None else _number(cfg[k]) for k in ("L", "sigma"))
        alpha = _number(cfg["alpha"]) if method in ("md", "dual-md") else None
    except (KeyError, ValueError, TypeError, OverflowError) as e:
        raise UsageError(f"bad config: {e}")
    if N < 1:
        raise UsageError("N >= 1 required")
    if method not in _METHODS:
        raise UsageError(f"unknown method {method!r}")
    runner, key = _METHODS[method]
    start = np.asarray(cfg[key] if key in cfg else np.zeros(_dim(cfg)), dtype=np.float64)
    if method in ("md", "dual-md"):
        return runner(f, g, alpha, start, N), f, g
    return runner(f, g, start, N, L=L, sigma=sigma), f, g


def _dim(cfg: dict) -> int:
    desc = cfg["objective"]
    if "b" in desc:
        return len(desc["b"])
    if "n" in desc:
        return int(desc["n"])
    raise UsageError("cannot infer dimension; provide y0/q0 explicitly")


def _trace_rows(run, f, g):
    """Rows of (k, f, grad-q-norm, psi*(r_k) or None, energy or None, bound).

    The per-row values are evaluated on blocks of rows (certificates.ROW_BLOCK).
    Where the run has an energy trace, f and psi* are the values it was
    built from, so each is evaluated once per row.
    """
    trace = None
    if run.traj is not None:
        tr, pts = run.traj, run.traj.xs
        if run.method == "amd" and f.x_star is not None:
            th = run.theta
            u = [(run.sigma / run.L) * th.sq(i) for i in range(th.N + 1)]
            trace = certificates.primal_energy_trace(tr, f.x_star, u, f, g, L=run.L, sigma=run.sigma)
    else:
        tr, pts = run.dual_traj, run.dual_traj.qs
        # Dual energies need psi*(0) = 0; a shifted DGF leaves the column empty.
        if run.method == "dual-amd" and not g.shifted:
            th = run.theta
            v = [run.L / (run.sigma * th.sq(th.N - i)) for i in range(th.N + 1)]
            trace = certificates.dual_energy_trace(tr, v, f, g, L=run.L, sigma=run.sigma)
    n = len(pts)
    psi = [None] * n
    if run.dual_traj is not None:
        psi = certificates.by_row_block(g.conjugate_values, tr.rs) if trace is None else trace.conjugate_values
    f_vals = certificates.by_row_block(f.values, pts) if trace is None else trace.f_values
    energies = [None] * n if trace is None else trace.energies
    norms = certificates.by_row_block(lambda G: lp_norms(G, g.q), tr.f_grads)
    return list(zip(range(n), f_vals, norms, psi, energies, [run.bound] * n))


def _write_trace(path, cfg, run, f, g, seed):
    rows = _trace_rows(run, f, g)
    lines = [
        f"# method={run.method}",
        f"# N={len(rows) - 1}",
        f"# L={_fmt(run.L if run.L is not None else f.L)}",
        f"# sigma={_fmt(run.sigma if run.sigma is not None else g.sigma)}",
        f"# p={_fmt(g.p)}",
        f"# seed={seed}",
        "k,f,grad_norm_q,psi_conj_r,energy,bound",
    ]
    for k, fv, gn, pc, en, bd in rows:
        lines.append(f"{k},{_fmt(fv)},{_fmt(gn)},{_fmt(pc)},{_fmt(en)},{_fmt(bd)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return rows


def _bound_violated(run, f, g) -> bool:
    if run.bound is None:
        return False
    if run.traj is not None:
        final = f.value(run.traj.xs[-1]) - (f.f_star if f.f_star is not None else f.value(run.traj.xs[-1]))
        return final > run.bound + BOUND_SLACK
    final = g.conjugate_value(run.dual_traj.rs[-1])
    return final > run.bound + BOUND_SLACK


def cmd_run(args) -> int:
    cfg = _load_json(args.config)
    run, f, g = _run_from_config(cfg)
    _write_trace(args.out, cfg, run, f, g, args.seed)
    if _bound_violated(run, f, g):
        print("certified bound violated", file=sys.stderr)
        return 2
    print(f"wrote {args.out}")
    return 0


def cmd_certify(args) -> int:
    cfg = _load_json(args.config)
    run, f, g = _run_from_config(cfg)
    rows = _trace_rows(run, f, g)
    try:
        with open(args.trace) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as e:
        raise UsageError(f"cannot read {args.trace}: {e}")
    data = [ln for ln in lines if not ln.startswith("#") and not ln.startswith("k,")]
    if len(data) != len(rows):
        raise UsageError("trace row count does not match config")
    prev_energy = None
    for ln, row in zip(data, rows):
        parts = ln.split(",")
        if len(parts) != len(row):
            raise UsageError(f"trace row has {len(parts)} columns, expected {len(row)}")
        vals = [float(p) if p else None for p in parts]
        for got, want in zip(vals, row):
            if (got is None) != (want is None):
                raise UsageError("trace column shape mismatch")
            # Relative, not 1e-9 (1 + |want|): values below 1e-9 must match
            # too.  Written as "not <=" so that a nan in the trace fails.
            if got is not None and not abs(got - float(want)) <= 1e-9 * abs(float(want)):
                print(f"trace mismatch at k={row[0]}", file=sys.stderr)
                return 2
        energy = vals[4]
        if energy is not None and prev_energy is not None and energy > prev_energy + BOUND_SLACK:
            print(f"energy increased at k={row[0]}", file=sys.stderr)
            return 2
        prev_energy = energy
    if _bound_violated(run, f, g):
        print("certified bound violated", file=sys.stderr)
        return 2
    print("trace certified")
    return 0


def cmd_duality_check(args) -> int:
    rng = np.random.default_rng(args.seed)
    if args.schedule == "amd":
        if args.N is None:
            raise UsageError("--N is required with the amd keyword")
        L, sigma = 1.0, 1.0
        s = methods.amd_schedule(args.N, L, sigma)
        th = methods.theta_sequence(args.N)
        u = [(sigma / L) * th.sq(i) for i in range(args.N + 1)]
    else:
        s = cfom.load_schedule(args.schedule)
        L, sigma = 1.0, 1.0
        u = np.cumsum(rng.uniform(0.1, 1.0, s.N + 1)).tolist()
    v = None
    if args.perturb_v:
        v = [(1.0 + args.perturb_v) / u[s.N - i] for i in range(s.N + 1)]
    report = certificates.check_mirror_duality(
        s, u, L, sigma, trials=args.trials, dim=args.dim,
        tol=args.tol, seed=args.seed, v=v,
    )
    doc = report.to_json_dict()
    text = json.dumps(doc, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0 if report.ok else 3


def cmd_dualize(args) -> int:
    s = cfom.load_schedule(args.schedule)
    cfom.save_schedule(cfom.mirror_dual_schedule(s), args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_ot(args) -> int:
    doc = _load_json(args.instance)
    if args.eps <= 0:
        raise UsageError("eps must be positive")
    try:
        inst = ot.instance_from_descriptor(doc)
    except ValueError as e:
        raise UsageError(f"bad instance: {e}")
    result = ot.solve_ot(inst, args.eps)
    with open(args.out, "w") as fh:
        json.dump(result.to_json_dict(), fh, indent=1)
        fh.write("\n")
    if inst.C.size <= 12:
        gap = result.cost - ot.lp_oracle(inst)
        print(f"cost={_fmt(result.cost)} N={result.report['N']} gap={_fmt(gap)}")
    else:
        print(f"cost={_fmt(result.cost)} N={result.report['N']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="mirropt")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("run", help="execute a configured method, emit a CSV trace")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn="cmd_run")

    p = sub.add_parser("certify", help="verify a trace file against its config")
    p.add_argument("--trace", required=True)
    p.add_argument("--config", required=True)
    p.set_defaults(fn="cmd_certify")

    p = sub.add_parser("duality-check", help="sample the energy-duality identity")
    p.add_argument("--schedule", required=True, help="schedule JSON path or the keyword 'amd'")
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--dim", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--perturb-v", type=float, default=0.0,
                   help="relative perturbation of the conjugate weights (breaks the identity)")
    p.set_defaults(fn="cmd_duality_check")

    p = sub.add_parser("dualize", help="write the mirror dual of a schedule")
    p.add_argument("--schedule", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn="cmd_dualize")

    p = sub.add_parser("ot", help="solve a transport instance to accuracy eps")
    p.add_argument("--instance", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn="cmd_ot")
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built at the first command: building it
    costs more than most commands' own work.  It names each handler,
    looked up in this module when a command runs, so that a wrapper set
    on a cmd_* function (as a profiler sets) runs."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    try:
        return globals()[args.fn](args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (FloatingPointError, RuntimeError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
