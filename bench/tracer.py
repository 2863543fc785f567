"""Spans and call counts recorded from outside mirropt.

The tracer wraps public functions and methods of the package under every
name a caller can look them up by (``mirropt.methods.run_concat`` and the
``run_concat`` that ``mirropt.ot`` imported are one function, patched in
both places), so nothing under ``src/`` changes.  Spans are kept in
memory as small lists and summarised per layer; ``dump`` writes them out.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# Span record fields.
NAME, START, END, PARENT, OP, TAG, STEPS = range(7)


class Tracer:
    """In-memory span recorder plus plain call counters.

    ``op`` is the index of the benchmark operation in progress; every span
    opened during it carries that index, so layers can be split by the
    operation's input size.
    """

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.counts = defaultdict(int)
        self.op = -1

    def reset(self) -> None:
        self.spans = []
        self.stack = []
        self.counts.clear()  # counter wrappers hold this dict

    def span(self, name, fn, tag_of=None, steps_of=None):
        """Wrap fn so that each call records a span named name."""

        def wrapper(*args, **kwargs):
            stack = self.stack
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                   tag_of(args) if tag_of else None,
                   steps_of(args) if steps_of else 0]
            stack.append(len(self.spans))
            self.spans.append(rec)
            rec[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()

        return wrapper

    def counter(self, name, fn):
        """Wrap fn so that each call increments counts[name]."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def summary(self) -> dict:
        """Per (name, tag, op): calls, inclusive and self seconds, steps."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        out: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "steps": 0})
        for i, rec in enumerate(self.spans):
            row = out[(rec[NAME], rec[TAG], rec[OP])]
            dur = rec[END] - rec[START]
            row["calls"] += 1
            row["s"] += dur
            row["self_s"] += dur - child[i]
            row["steps"] += rec[STEPS]
        return out

    def dump(self, path: str) -> None:
        """Write the recorded spans, one JSON array per line."""
        with open(path, "w") as fh:
            fh.write("# name, start_s, end_s, parent, op, tag, steps\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _package_modules(package: str) -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


def _public_functions(module) -> list:
    names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
    return [n for n in names
            if inspect.isfunction(getattr(module, n, None))
            and getattr(module, n).__module__ == module.__name__]


@contextmanager
def patched(patches):
    """Apply (owner, attribute, replacement) triples; restore on exit."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, new in patches:
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


def function_patches(package: str, module_name: str, make_wrapper) -> list:
    """Patches replacing a module's public functions under every name they are bound to.

    make_wrapper(qualified_name, fn) returns the replacement.
    """
    module = sys.modules[f"{package}.{module_name}"]
    out = []
    for fname in _public_functions(module):
        orig = getattr(module, fname)
        new = make_wrapper(f"{module_name}.{fname}", orig)
        for m in _package_modules(package):
            for attr, val in list(vars(m).items()):
                if val is orig:
                    out.append((m, attr, new))
    return out


def method_patches(cls, module_name: str, method_names, make_wrapper) -> list:
    """Patches replacing methods defined on cls (not inherited ones)."""
    out = []
    for mname in method_names:
        orig = cls.__dict__[mname]
        out.append((cls, mname, make_wrapper(f"{module_name}.{cls.__name__}.{mname}", orig)))
    return out
