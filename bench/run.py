"""mirropt benchmark: one workload per run, closed loop, checked outputs.

Usage (from the repository root):

    python3 bench/run.py --workload ot-solve --seed 1 --seconds 20 --trace 0

Workloads: ot-solve, duality-check, run-certify (see bench/README.md).
With --trace 0 the run is measured with tracing off and prints the
end-to-end metrics; with --trace 1 it alternates untraced and traced
rounds and prints the per-layer metrics.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import os

# One BLAS thread: the benchmark is one closed-loop caller on a 2-core box.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(HERE, ".run")
WORKLOAD_NAMES = ("ot-solve", "duality-check", "run-certify")
SETUP_PROBES = 3  # before the first round
PROBE_EVERY = 3   # rounds between the set-up probes that follow
PROBE_TIMEOUT_S = 60


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true",
                    help="import and build the inputs, print 'ready', exit (set-up timing)")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def build(workload: str, seed: int):
    """Import mirropt from this checkout and generate the workload's inputs."""
    if not os.path.isfile(os.path.join(SRC, "mirropt", "__init__.py")):
        raise SystemExit(f"error: mirropt sources not found under {SRC}")
    sys.path[:0] = [SRC, HERE]
    import mirropt

    if not os.path.abspath(mirropt.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported mirropt from {mirropt.__file__}, not {SRC}")
    import workloads

    workdir = os.path.join(RUN_DIR, f"{workload}-{seed}-{os.getpid()}")
    return workloads.WORKLOADS[workload](seed, workdir)


def probe_setup(args) -> float:
    """Time from spawning a process to its inputs being ready."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--probe-setup"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    try:
        _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit("error: set-up probe did not exit")
    if line.strip() != "ready" or proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed:\n{err}")
    return elapsed


class Runner:
    """Runs whole rounds of the workload's operations and checks each output."""

    def __init__(self, work):
        from tracer import Tracer, method_patches

        self.work = work
        self.n_ops = len(work.labels)
        self.counter = Tracer()
        self.count_patches = [
            p for cls, module in work.counted_grads
            for p in method_patches(cls, module, ["grad"], self.counter.counter)
        ]
        self.attempted = 0
        self.failed = set()      # (operation, round)
        self.incorrect = set()   # (operation, round) whose output failed a check
        self.problems = []

    def _fail(self, i, rnd, msg, wrong_output):
        self.failed.add((i, rnd))
        if wrong_output:
            self.incorrect.add((i, rnd))
        if len(self.problems) < 20:
            self.problems.append(f"{self.work.labels[i]} round {rnd}: {msg}")

    def round(self, rnd: int, patches, tracer=None):
        """One pass over every operation; returns (seconds per op, oracle calls)."""
        from tracer import patched

        times, calls = [], 0
        for i in range(self.n_ops):
            self.counter.counts.clear()
            if tracer is not None:
                tracer.op = i
            out, error = None, None
            with patched(patches):
                t0 = time.perf_counter()
                try:
                    out = self.work.run(i)
                except Exception as e:  # a program failure counts the operation as failed
                    error = e
                dt = time.perf_counter() - t0
            self.attempted += 1
            times.append(dt)
            calls += sum(self.counter.counts.values())
            if error is not None:
                self._fail(i, rnd, f"{type(error).__name__}: {error}", False)
                continue
            for msg in self.work.check(i, rnd, out):
                self._fail(i, rnd, msg, True)
            del out
        return times, calls

    def finish(self):
        for i, rnd, msg in self.work.final_check():
            self._fail(i, rnd, msg, True)
        self.work.close()
        for msg in self.problems:
            print(f"problem: {msg}", file=sys.stderr)


def run_measured(args, work) -> dict:
    runner = Runner(work)
    op_times = [[] for _ in range(runner.n_ops)]
    round_s, round_calls = [], []
    deadline = time.perf_counter() + args.seconds
    # Set-up probes are spread over the run, like the rounds, so that both
    # medians see the same phases of a machine whose speed drifts.
    setup_s = [probe_setup(args) for _ in range(SETUP_PROBES)]
    rnd = 0
    while True:
        times, calls = runner.round(rnd, runner.count_patches)
        for i, dt in enumerate(times):
            op_times[i].append(dt)
        round_s.append(sum(times))
        round_calls.append(calls)
        rnd += 1
        if rnd % PROBE_EVERY == 0:
            setup_s.append(probe_setup(args))
        if time.perf_counter() >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    runner.finish()
    if work.counted_grads:
        grad_evals = round_calls[0]
        repeatable = all(c == grad_evals for c in round_calls)
    else:
        grad_evals, repeatable = work.sampled_gradients, True
    for i, label in enumerate(work.labels):
        print(f"op {label}: median {statistics.median(op_times[i]):.4f} s "
              f"over {len(op_times[i])} rounds", file=sys.stderr)
    print("round seconds: " + " ".join(f"{t:.3f}" for t in round_s), file=sys.stderr)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "wall_s": (statistics.median(round_s), "s"),
        "op_s.p50": (statistics.median(statistics.median(t) for t in op_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
        "grad_evals": (grad_evals, "count"),
    }
    correct = not runner.incorrect and repeatable
    if not repeatable:
        print(f"problem: oracle calls differ between rounds: {round_calls}", file=sys.stderr)
    return result(correct, runner, metrics)


def run_traced(args, work) -> dict:
    from tracer import Tracer
    import layers

    runner = Runner(work)
    tracer = Tracer()
    patches = layers.trace_patches(tracer)
    untraced_s, traced_s = [], []
    totals = layers.Totals()
    deadline = time.perf_counter() + args.seconds
    rnd = 0
    while True:
        # Alternate which of the pair goes first, so warm-up and drift fall on both.
        for traced in ((False, True) if rnd % 4 == 0 else (True, False)):
            if traced:
                tracer.reset()
                times, _ = runner.round(rnd + traced, patches, tracer)
                traced_s.append(sum(times))
                totals.add(tracer, work)
            else:
                times, _ = runner.round(rnd + traced, runner.count_patches)
                untraced_s.append(sum(times))
        if rnd == 0:
            os.makedirs(RUN_DIR, exist_ok=True)
            tracer.dump(os.path.join(RUN_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"))
        rnd += 2
        if time.perf_counter() >= deadline:
            break
    runner.finish()
    overhead = statistics.median(traced_s) / statistics.median(untraced_s) - 1.0
    metrics = totals.metrics(work, overhead)
    with open(os.path.join(RUN_DIR, f"layers-{args.workload}-seed{args.seed}.json"), "w") as fh:
        json.dump({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, fh, indent=1)
    return result(not runner.incorrect, runner, metrics)


def result(correct: bool, runner: Runner, metrics: dict) -> dict:
    return {
        "correct": bool(correct),
        "attempted": runner.attempted,
        "failed": len(runner.failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.probe_setup:
        work = build(args.workload, args.seed)
        print("ready", flush=True)
        work.close()
        return 0
    work = build(args.workload, args.seed)
    out = run_traced(args, work) if args.trace else run_measured(args, work)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
