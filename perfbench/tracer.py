"""Span tracing installed from outside the package.

The benchmark wraps the package's public functions at every module
attribute that binds them, records one span per call (name, start, end,
parent) plus counters derived from the call's arguments and result, and
puts the original function objects back afterwards. Nothing inside
``src/`` knows about it, so an untraced run executes exactly the code a
user runs.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

PACKAGE = "mvcnn"


@dataclass(frozen=True)
class Probe:
    """One function to wrap.

    target is "module:attr" or "module:Class.method". name gives the
    span name for a call (default: the span_name field); counters maps a
    call's (args, kwargs, result) to (counter, amount) pairs.
    """

    target: str
    span_name: str
    name: Callable | None = None
    counters: Callable | None = None


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.counters = defaultdict(int)
        self._stack = []

    def call(self, name, fn, args, kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)

    def count(self, name, amount):
        self.counters[name] += amount

    def self_times(self) -> dict:
        """Seconds per span name, minus the time covered by child spans.

        Calls run on one thread, so children nest inside their parent and
        the covered part of a parent is the sum of its children.
        """
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - covered[i]
        return dict(out)

    def durations(self, name) -> list:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def root_seconds(self, since: int = 0) -> float:
        """Total duration of spans with no parent, from span index since on."""
        return sum(
            end - start for _, start, end, parent in self.spans[since:] if parent < 0
        )


def _resolve(target):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _bindings(owner, attr):
    """Every (namespace, name) in the package that binds owner.attr's object."""
    original = owner.__dict__[attr]
    if isinstance(owner, type):
        return original, [(owner, attr)]
    found = []
    for mod_name, module in sorted(sys.modules.items()):
        if module is None or not (
            mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")
        ):
            continue
        for name, value in vars(module).items():
            if value is original:
                found.append((module, name))
    return original, found


def snapshot(probes) -> dict:
    """Map every binding of every probed function to its current object."""
    out = {}
    for probe in probes:
        original, found = _bindings(*_resolve(probe.target))
        for namespace, name in found:
            out[(namespace, name)] = original
    return out


def untouched(bindings: dict) -> bool:
    """True when every binding still holds the object recorded in snapshot()."""
    return all(
        namespace.__dict__[name] is original
        for (namespace, name), original in bindings.items()
    )


class Instrumented:
    """Context manager: wrap every probe for one tracer, then restore."""

    def __init__(self, tracer: Tracer, probes):
        self.tracer = tracer
        self.probes = probes
        self._saved = []

    def _wrapper(self, probe, original):
        tracer = self.tracer

        def wrapper(*args, **kwargs):
            name = probe.name(args, kwargs) if probe.name else probe.span_name
            result = tracer.call(name, original, args, kwargs)
            if probe.counters:
                for counter, amount in probe.counters(args, kwargs, result):
                    tracer.count(counter, amount)
            return result

        return wrapper

    def __enter__(self):
        for probe in self.probes:
            original, found = _bindings(*_resolve(probe.target))
            wrapper = self._wrapper(probe, original)
            for namespace, name in found:
                self._saved.append((namespace, name, original))
                setattr(namespace, name, wrapper)
        return self.tracer

    def __exit__(self, *exc):
        for namespace, name, original in reversed(self._saved):
            setattr(namespace, name, original)
        self._saved.clear()
        return False
