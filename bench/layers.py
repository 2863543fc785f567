"""Which mirropt functions the traced run wraps, and the per-layer metrics.

Spans: public functions of ot, methods, dgf, cfom, certificates and cli,
plus the oracle and mirror-map methods (the objectives' grad,
OTDualObjective.grad/value, DGF).  Counts only: public functions of
spaces, which are called too often for a span each.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import NAME, PARENT, function_patches, method_patches
from workloads import RC_CASES

SPAN_MODULES = ("ot", "methods", "dgf", "cfom", "certificates", "cli")
OT_GRAD = "ot.OTDualObjective.grad"
OBJECTIVES = ("DiagQuadratic", "DenseQuadratic", "LogSumExp")

# run-certify's schedule sizes: to_h_matrix runs at N_h, mirror_dual_schedule
# at N_h and (inside run_mirror_dual) at the case's N.
TO_H_NS = sorted({Nh for *_, Nh in RC_CASES})
MIRROR_DUAL_NS = sorted({N for _, N, *_ in RC_CASES} | set(TO_H_NS))

# name, unit, better
PER_LAYER = [
    ("ot.grad.calls", "count", "lower"),
    ("ot.attempts", "count", "lower"),
    ("ot.useful_eval_share", "ratio", "higher"),
    ("ot.grad.us_per_call.small", "us", "lower"),
    ("ot.grad.us_per_call.large", "us", "lower"),
    ("ot.finish.s", "s", "lower"),
    ("methods.self_us_per_step", "us", "lower"),
    ("methods.run_amd.us_per_step", "us", "lower"),
    ("methods.run_dual_amd.us_per_step", "us", "lower"),
    ("dgf.conjugate_grad.calls", "count", "lower"),
    ("dgf.conjugate_grad.us_per_call.p2", "us", "lower"),
    ("dgf.conjugate_grad.us_per_call.p1_5", "us", "lower"),
    ("cfom.run_cfom.us_per_step", "us", "lower"),
    ("cfom.run_mirror_dual.us_per_step", "us", "lower"),
    *[(f"cfom.to_h_matrix.s.N{N}", "s", "lower") for N in TO_H_NS],
    *[(f"cfom.mirror_dual_schedule.s.N{N}", "s", "lower") for N in MIRROR_DUAL_NS],
    ("certificates.evaluate_U.us_per_call", "us", "lower"),
    ("certificates.evaluate_V.us_per_call", "us", "lower"),
    ("certificates.duality_transform.us_per_call", "us", "lower"),
    ("certificates.scenarios", "count", "lower"),
    ("certificates.primal_energy_trace.s", "s", "lower"),
    ("certificates.dual_energy_trace.s", "s", "lower"),
    ("cli.run.s", "s", "lower"),
    ("cli.certify.s", "s", "lower"),
    ("cli.trace_bytes", "B", "lower"),
    ("spaces.lp_norm.calls", "count", "lower"),
    ("objectives.grad.calls", "count", "lower"),
    ("trace.overhead", "ratio", "lower"),
]


def _p_tag(args) -> str:
    return "p" + format(args[0].p, "g").replace(".", "_")


TAGS = {
    "cfom.to_h_matrix": lambda a: a[0].N,
    "cfom.mirror_dual_schedule": lambda a: a[0].N,
    "dgf.DGF.conjugate_grad": _p_tag,
}
STEPS = {
    "methods.run_amd": lambda a: a[3],
    "methods.run_dual_amd": lambda a: a[3],
    "cfom.run_cfom": lambda a: a[0].N,
    "cfom.run_mirror_dual": lambda a: a[0].N,
}


def trace_patches(tracer) -> list:
    """Patches that put spans and counters on the layers' public functions."""
    from mirropt import dgf, objectives, ot

    def span(name, fn):
        return tracer.span(name, fn, TAGS.get(name), STEPS.get(name))

    patches = []
    for module in SPAN_MODULES:
        patches += function_patches("mirropt", module, span)
    patches += function_patches("mirropt", "spaces", tracer.counter)
    patches += method_patches(ot.OTDualObjective, "ot", ["grad", "value"], span)
    patches += method_patches(dgf.DGF, "dgf",
                              ["value", "grad", "conjugate_value", "conjugate_grad"], span)
    for cls in OBJECTIVES:
        patches += method_patches(getattr(objectives, cls), "objectives", ["grad"], span)
    return patches


def ot_attempts(spans) -> tuple:
    """(dual-gradient calls inside solve_ot, those inside each solve's last run_concat)."""
    solve_of = [-1] * len(spans)
    concat_of = [-1] * len(spans)
    last_concat = {}
    for i, rec in enumerate(spans):
        parent = rec[PARENT]
        solve_of[i] = i if rec[NAME] == "ot.solve_ot" else (solve_of[parent] if parent >= 0 else -1)
        concat_of[i] = i if rec[NAME] == "methods.run_concat" else (concat_of[parent] if parent >= 0 else -1)
        if rec[NAME] == "methods.run_concat" and solve_of[i] >= 0:
            last_concat[solve_of[i]] = i
    total = useful = 0
    for i, rec in enumerate(spans):
        if rec[NAME] == OT_GRAD and solve_of[i] >= 0:
            total += 1
            useful += concat_of[i] == last_concat.get(solve_of[i])
    return total, useful


class Totals:
    """Span summaries and counts summed over the traced rounds."""

    def __init__(self):
        self.rows = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "steps": 0})
        self.counts = defaultdict(int)
        self.rounds = 0
        self.solve_grads = 0
        self.useful_grads = 0
        self.trace_bytes = 0

    def add(self, tracer, work) -> None:
        for key, row in tracer.summary().items():
            acc = self.rows[key]
            for field, v in row.items():
                acc[field] += v
        for name, n in tracer.counts.items():
            self.counts[name] += n
        total, useful = ot_attempts(tracer.spans)
        self.solve_grads += total
        self.useful_grads += useful
        self.trace_bytes += sum(work.trace_bytes)
        self.rounds += 1

    def _sum(self, field, names, tag=None, ops=None) -> float:
        return sum(row[field] for (name, t, op), row in self.rows.items()
                   if name in names and (tag is None or t == tag) and (ops is None or op in ops))

    def per_call(self, names, scale=1.0, tag=None, ops=None) -> float:
        calls = self._sum("calls", names, tag, ops)
        return scale * self._sum("s", names, tag, ops) / calls if calls else 0.0

    def per_step(self, names, field="s") -> float:
        steps = self._sum("steps", names)
        return 1e6 * self._sum(field, names) / steps if steps else 0.0

    def per_round(self, names) -> float:
        return self._sum("calls", names) / self.rounds

    def metrics(self, work, overhead: float) -> dict:
        units = {name: unit for name, unit, _ in PER_LAYER}
        small = {i for i, c in enumerate(work.size_class) if c == "small"}
        large = {i for i, c in enumerate(work.size_class) if c == "large"}
        solves = self._sum("calls", {"ot.solve_ot"})
        amd = {"methods.run_amd", "methods.run_dual_amd"}
        v = {
            "ot.grad.calls": self.per_round({OT_GRAD}),
            "ot.attempts": self._sum("calls", {"methods.run_concat"}) / solves if solves else 0.0,
            "ot.useful_eval_share": self.useful_grads / self.solve_grads if self.solve_grads else 0.0,
            "ot.grad.us_per_call.small": self.per_call({OT_GRAD}, 1e6, ops=small),
            "ot.grad.us_per_call.large": self.per_call({OT_GRAD}, 1e6, ops=large),
            "ot.finish.s": (self._sum("s", {"ot.plan_from_dual", "ot.round_plan"}) / solves
                            if solves else 0.0),
            "methods.self_us_per_step": self.per_step(amd, "self_s"),
            "methods.run_amd.us_per_step": self.per_step({"methods.run_amd"}),
            "methods.run_dual_amd.us_per_step": self.per_step({"methods.run_dual_amd"}),
            "dgf.conjugate_grad.calls": self.per_round({"dgf.DGF.conjugate_grad"}),
            "dgf.conjugate_grad.us_per_call.p2": self.per_call({"dgf.DGF.conjugate_grad"}, 1e6, "p2"),
            "dgf.conjugate_grad.us_per_call.p1_5": self.per_call({"dgf.DGF.conjugate_grad"}, 1e6, "p1_5"),
            "cfom.run_cfom.us_per_step": self.per_step({"cfom.run_cfom"}),
            "cfom.run_mirror_dual.us_per_step": self.per_step({"cfom.run_mirror_dual"}),
            "certificates.evaluate_U.us_per_call": self.per_call({"certificates.evaluate_U"}, 1e6),
            "certificates.evaluate_V.us_per_call": self.per_call({"certificates.evaluate_V"}, 1e6),
            "certificates.duality_transform.us_per_call":
                self.per_call({"certificates.duality_transform"}, 1e6),
            "certificates.scenarios": self.per_round({"certificates.evaluate_U"}),
            "certificates.primal_energy_trace.s": self.per_call({"certificates.primal_energy_trace"}),
            "certificates.dual_energy_trace.s": self.per_call({"certificates.dual_energy_trace"}),
            "cli.run.s": self.per_call({"cli.cmd_run"}),
            "cli.certify.s": self.per_call({"cli.cmd_certify"}),
            "cli.trace_bytes": self.trace_bytes / self.rounds,
            "spaces.lp_norm.calls": self.counts["spaces.lp_norm"] / self.rounds,
            "objectives.grad.calls": self.per_round({f"objectives.{c}.grad" for c in OBJECTIVES}),
            "trace.overhead": overhead,
        }
        for N in TO_H_NS:
            v[f"cfom.to_h_matrix.s.N{N}"] = self.per_call({"cfom.to_h_matrix"}, tag=N)
        for N in MIRROR_DUAL_NS:
            v[f"cfom.mirror_dual_schedule.s.N{N}"] = self.per_call({"cfom.mirror_dual_schedule"}, tag=N)
        return {name: (v[name], units[name]) for name, _, _ in PER_LAYER}
