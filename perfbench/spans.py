"""In-memory spans around dospsim's public callables, for the traced run.

A :class:`Tracer` replaces each callable that ``dosp.run`` and
``cli.run_experiment`` look up at call time (schedule methods, module-level
samplers, objective methods, the analysis helpers and ``run`` itself) with a
wrapper that records one span per call: name, start, end, parent span and
operation id.  Spans stay in parallel lists until the benchmark ends; the
originals are put back when the ``installed`` block exits.

A span's self time is its duration minus the durations of its direct
children.  Calls are strictly nested on one thread, so the children of a span
never overlap and their summed durations are exactly the covered part.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
from dataclasses import dataclass
from time import perf_counter_ns

_MISSING = object()


@dataclass
class LayerTotals:
    """Per span name: number of calls, summed duration and self time (ns)."""

    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0


class Tracer:
    """Spans of one traced phase, as parallel lists indexed by span id."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.t0s: list[int] = []
        self.t1s: list[int] = []
        self.run_work: dict[int, tuple[int, int]] = {}  # run span -> (horizon, R)
        self.counts: dict[str, int] = {}
        self.op = -1
        self._stack = [-1]

    # -- recording ---------------------------------------------------------

    def _count(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(amount)

    def wrap(self, fn, name: str, after=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``after(span_id, args, kwargs, result)`` runs once the span has
        closed, so counting costs land in the parent's self time.
        """
        names, parents, ops, t0s, t1s, stack = (
            self.names, self.parents, self.ops, self.t0s, self.t1s, self._stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(name)
            parents.append(stack[-1])
            ops.append(self.op)
            t0s.append(0)
            t1s.append(0)
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                t0s[sid] = t0
                t1s[sid] = t1
            if after is not None:
                after(sid, args, kwargs, out)
            return out

        return traced

    @contextlib.contextmanager
    def operation(self, op_id: int):
        """Root span ``bench.op`` around one timed benchmark operation."""
        self.op = op_id
        sid = len(self.names)
        self.names.append("bench.op")
        self.parents.append(self._stack[-1])
        self.ops.append(op_id)
        self.t1s.append(0)
        self._stack.append(sid)
        self.t0s.append(perf_counter_ns())
        try:
            yield
        finally:
            self.t1s[sid] = perf_counter_ns()
            self._stack.pop()
            self.op = -1

    # -- installing the wrappers -------------------------------------------

    def _targets(self, lib):
        """(owner, attribute, span name, after-hook) for each wrapped callable."""
        run_sig = inspect.signature(lib.dosp.run)

        def run_after(sid, args, kwargs, out):
            bound = run_sig.bind(*args, **kwargs)
            bound.apply_defaults()
            self.run_work[sid] = (int(bound.arguments["horizon"]),
                                  int(bound.arguments["replications"]))

        def draws(key):
            return lambda sid, args, kwargs, out: self._count(key, out.size)

        def masks_after(sid, args, kwargs, out):
            nonempty = out.any(axis=-1)
            self._count("exchange.node_steps", nonempty.size)
            self._count("exchange.nonempty", nonempty.sum())

        def csv_after(sid, args, kwargs, out):
            path = args[0] if args else kwargs["path"]
            self._count("analysis.write_csv.bytes", os.path.getsize(path))

        targets = [
            (lib.schedules.PowerLawSchedule, "beta", "schedules.beta", None),
            (lib.schedules.PowerLawSchedule, "gamma", "schedules.gamma", None),
            (lib.dosp, "sample_array", "perturbation.sample_array",
             draws("perturbation.draws")),
            (lib.dosp, "sample_masks", "exchange.sample_masks", masks_after),
        ]
        for cls in (lib.objectives.QuadraticToy, lib.objectives.PowerControlPF):
            targets += [
                (cls, "sample_state", "objectives.sample_state",
                 draws("objectives.sample_state.draws")),
                (cls, "observe", "objectives.observe", None),
                (cls, "global_utility", "objectives.global_utility", None),
                (cls, "exact_sample_gradient",
                 "objectives.exact_sample_gradient", None),
            ]
        for owner in (lib.dosp, lib.cli, lib.analysis, lib.pkg):
            targets.append((owner, "run", "dosp.run", run_after))
        targets += [
            (lib.analysis, "reference_optimum", "analysis.reference_optimum", None),
            (lib.analysis, "divergence", "analysis.divergence", None),
            (lib.analysis, "write_utility_csv", "analysis.write_csv", csv_after),
            (lib.analysis, "write_divergence_csv", "analysis.write_csv", csv_after),
            (lib.cli, "run_experiment", "cli.run_experiment", None),
        ]
        return targets

    @contextlib.contextmanager
    def installed(self, lib):
        """Wrap every target callable of the imported ``lib`` for the block."""
        saved = []
        try:
            for owner, attr, name, after in self._targets(lib):
                saved.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
                setattr(owner, attr, self.wrap(getattr(owner, attr), name, after))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                if original is _MISSING:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def self_ns(self) -> list[int]:
        """Self time of every span, indexed like the span lists."""
        child = [0] * len(self.names)
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.t1s[sid] - self.t0s[sid]
        return [t1 - t0 - c for t0, t1, c in zip(self.t0s, self.t1s, child)]

    def totals(self) -> dict[str, LayerTotals]:
        """Calls, duration and self time summed per span name."""
        out: dict[str, LayerTotals] = {}
        for name, t0, t1, own in zip(self.names, self.t0s, self.t1s,
                                     self.self_ns()):
            agg = out.setdefault(name, LayerTotals())
            agg.calls += 1
            agg.total_ns += t1 - t0
            agg.self_ns += own
        return out

    def subtree_self_ns(self, root_name: str) -> tuple[int, int, dict[str, int]]:
        """Account the time of every ``root_name`` span to its subtree.

        Returns (summed duration of the root spans, summed self time of the
        root spans and all their descendants, that self time per span name).
        The first two are equal when the span tree is consistent.
        """
        own = self.self_ns()
        root_of = [-1] * len(self.names)
        for sid, (name, parent) in enumerate(zip(self.names, self.parents)):
            if name == root_name:
                root_of[sid] = sid
            elif parent >= 0:
                root_of[sid] = root_of[parent]
        duration = sum(self.t1s[s] - self.t0s[s]
                       for s, n in enumerate(self.names) if n == root_name)
        by_name: dict[str, int] = {}
        for sid, root in enumerate(root_of):
            if root >= 0:
                by_name[self.names[sid]] = by_name.get(self.names[sid], 0) + own[sid]
        return duration, sum(by_name.values()), by_name

    def write_csv(self, path) -> None:
        """One line per span: id, parent, op, name, start and end in ns
        relative to the first span's start."""
        base = min(self.t0s, default=0)
        with open(path, "w") as fh:
            fh.write("id,parent,op,name,start_ns,end_ns\n")
            for sid, (parent, op, name, t0, t1) in enumerate(
                    zip(self.parents, self.ops, self.names, self.t0s, self.t1s)):
                fh.write(f"{sid},{parent},{op},{name},{t0 - base},{t1 - base}\n")
