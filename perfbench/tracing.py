"""Spans around orbcalc's public functions, recorded from outside the package.

Each wrapper is installed at the attribute its callers look up: a function
another module binds with ``from .x import f`` is wrapped in that module
(``orbcalc.catalog.sigma``), not only where it is defined.  A wrapper calls
straight through to the original and appends one span
``(name, start, end, parent)``; spans stay in memory until the traced section
ends.  Self time is a span's duration minus the durations of its direct
children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict
from typing import Iterator

# (owner, attribute, span name); an owner "module:Class" names a class.
TRACE_POINTS = (
    ("orbcalc.dedekind", "sigma", "dedekind.sigma"),
    ("orbcalc.catalog", "sigma", "catalog.sigma"),
    ("orbcalc.catalog", "mu_anticanonical", "catalog.mu_anticanonical"),
    ("orbcalc.invariants", "hrr_milnor_check", "invariants.hrr_milnor_check"),
    ("orbcalc.invariants", "bubble_energy_from_mu", "invariants.bubble_energy_from_mu"),
    ("orbcalc.invariants", "bubble_count_bounds", "invariants.bubble_count_bounds"),
    ("orbcalc.invariants", "chi_orb_from_chi", "invariants.chi_orb_from_chi"),
    ("orbcalc.enumerator", "enumerate_configurations", "enumerator.enumerate_configurations"),
    ("orbcalc.enumerator", "check_config", "enumerator.check_config"),
    ("orbcalc.enumerator:EnumerationResult", "to_json_dict", "enumerator.to_json_dict"),
    ("orbcalc.enumerator:EnumerationResult", "to_json", "enumerator.to_json"),
    ("orbcalc.enumerator:EnumerationResult", "to_text", "enumerator.to_text"),
    ("orbcalc.enumerator", "rational_to_json", "rationals.rational_to_json"),
    ("orbcalc.invariants", "rational_to_json", "rationals.rational_to_json"),
    ("orbcalc.cli", "rational_to_json", "rationals.rational_to_json"),
    ("orbcalc.enumerator", "format_rational", "rationals.format_rational"),
    ("orbcalc.invariants", "format_rational", "rationals.format_rational"),
    ("orbcalc.cli", "format_rational", "rationals.format_rational"),
)


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Records nested spans; ``spans[i] = (name, start, end, parent index or -1)``."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        return traced

    def call(self, name: str, fn, *args):
        """Run ``fn(*args)`` inside a span of its own; for the harness's own spans."""
        return self.wrap(name, fn)(*args)

    def summary(self) -> "SpanSummary":
        return SpanSummary(self.spans)


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every trace point for the duration of the block, then restore it."""
    saved = []
    try:
        for owner_path, attr, name in TRACE_POINTS:
            owner = _owner(owner_path)
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class SpanSummary:
    """Calls, total time, self time and durations per span name, from finished spans."""

    def __init__(self, spans) -> None:
        self.spans = spans
        child_time = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)
        for (name, start, end, _), children in zip(spans, child_time):
            self.calls[name] += 1
            self.total_s[name] += end - start
            self.self_s[name] += end - start - children
            self.durations[name].append(end - start)

    def children_named(self, parent_name: str, child_name: str) -> int:
        """Number of ``child_name`` spans whose direct parent is a ``parent_name`` span."""
        return sum(
            1
            for name, _, _, parent in self.spans
            if name == child_name and parent >= 0 and self.spans[parent][0] == parent_name
        )
