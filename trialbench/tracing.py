"""Per-module timing and counts, taken by wrapping pinnet's public calls from outside.

``Tracer.installed()`` replaces, for the duration of a ``with`` block, each
module-level name through which one layer calls the next (the names as the
caller looks them up), and restores them afterwards:

- ``harness`` -> ``build_system``, ``evolve``, ``simulate_multi``,
  ``export_trajectory_csv``, ``export_errors_csv``;
- ``ga`` -> ``solve_min_gain``, ``check_gain``;
- ``GaReport.write_csv``;
- ``numpy.linalg.eigvalsh`` and ``eigh`` as ``stability`` reaches them, which
  are only counted.

Every other wrapped call is a span. Spans nest on a stack, so a span's self time is
its duration minus the time of the spans it directly encloses. The tracer
keeps per-name sums, not individual spans.
"""

from __future__ import annotations

import contextlib
import os
import time
from collections import defaultdict

import numpy as np

import pinnet.ga
import pinnet.harness
import pinnet.stability


class _Proxy:
    """Delegates attribute reads to ``target`` except for the given overrides."""

    def __init__(self, target, **overrides):
        self.__dict__.update(overrides)
        self._target = target

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    """Sums of span time, child time and call counts, keyed by span name."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.child_seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.eigensolves = 0
        self.evaluations = 0
        self.steps = 0
        self.export_bytes = 0
        self._stack: list[str] = []

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` so each call is timed as a span called ``name``."""

        def wrapped(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            self._stack.append(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                self.seconds[name] += elapsed
                self.calls[name] += 1
                if parent is not None:
                    self.child_seconds[parent] += elapsed
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapped

    def self_seconds(self, name: str) -> float:
        return self.seconds[name] - self.child_seconds[name]

    def _count_evaluations(self, args, kwargs, result) -> None:
        # evolve evaluates the initial population and one brood per generation;
        # no workload turns on adaptive_penalty, which would add a re-evaluation.
        cfg = args[0] if args else kwargs["cfg"]
        self.evaluations += cfg.population_size * (cfg.generations + 1)

    def _count_steps(self, args, kwargs, result) -> None:
        self.steps += len(result.times) - 1

    def _count_bytes(self, args, kwargs, result) -> None:
        path = args[1] if len(args) > 1 else kwargs["path"]
        self.export_bytes += os.path.getsize(path)

    def _counting(self, fn):
        def wrapped(*args, **kwargs):
            self.eigensolves += 1
            return fn(*args, **kwargs)

        return wrapped

    @contextlib.contextmanager
    def installed(self):
        """Patch the layer boundaries, run the block, then restore every name."""
        harness, ga, stability = pinnet.harness, pinnet.ga, pinnet.stability
        linalg = _Proxy(
            np.linalg,
            eigvalsh=self._counting(np.linalg.eigvalsh),
            eigh=self._counting(np.linalg.eigh),
        )
        numpy_seen_by_stability = _Proxy(np, linalg=linalg)
        patches = [
            (harness, "build_system", self.span("build", harness.build_system)),
            (harness, "evolve", self.span("search", harness.evolve, self._count_evaluations)),
            (harness, "simulate_multi",
             self.span("simulate", harness.simulate_multi, self._count_steps)),
            (harness, "export_trajectory_csv",
             self.span("export", harness.export_trajectory_csv, self._count_bytes)),
            (harness, "export_errors_csv",
             self.span("export", harness.export_errors_csv, self._count_bytes)),
            (ga, "solve_min_gain", self.span("solve", ga.solve_min_gain)),
            (ga, "check_gain", self.span("solve", ga.check_gain)),
            (ga.GaReport, "write_csv", self.span("report_csv", ga.GaReport.write_csv)),
            (stability, "np", numpy_seen_by_stability),
        ]
        saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in patches]
        try:
            for owner, name, value in patches:
                setattr(owner, name, value)
            yield self
        finally:
            for owner, name, value in saved:
                setattr(owner, name, value)
