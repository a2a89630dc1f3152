"""In-memory span tracer wrapped around repro's layer entry points.

The tracer never edits the program: :meth:`Tracer.install` replaces public
methods and functions with timing wrappers from the outside, so a traced
pass runs exactly the code an untraced pass runs.  Each wrapped call records
one span (name, start, end, parent span, spec id, phase) plus the counts the
call's arguments or result carry.  Spans stay in memory and are written out
once, at the end of the pass (:meth:`Tracer.dump`).

A span is named ``<layer>.<operation>``; its layer is the part before the
dot.  Its *self time* is its duration minus the time its child spans cover,
so the self times of a nested tree add up to the duration of its roots.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional

#: The program's layers, in pipeline order; every span belongs to one.
LAYERS = (
    "faults",
    "lowered",
    "analysis",
    "core",
    "faultsim",
    "patterns",
    "wrp",
    "api",
    "store",
)


class Span:
    """One timed call into a layer."""

    __slots__ = ("name", "start", "end", "parent", "spec", "phase", "child", "meta")

    def __init__(self, name: str, start: float, parent: int, spec: str, phase: str):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.spec = spec
        self.phase = phase
        self.child = 0.0
        self.meta: Dict[str, Any] = {}

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "spec": self.spec,
            "phase": self.phase,
            "self_s": self.self_time,
        }


#: Reads counts off one traced call: ``(span, args, kwargs, result)``.
Recorder = Callable[[Span, tuple, dict, Any], None]


class Tracer:
    """Collects spans; :attr:`spec` and :attr:`phase` label the spans opened next."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.enabled = True
        self.spec = ""
        self.phase = "setup"
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else -1
        record = Span(name, time.perf_counter(), parent, self.spec, self.phase)
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()
            if parent >= 0:
                self.spans[parent].child += record.duration

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Run a block (the benchmark's own output checks) untraced."""
        previous, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = previous

    def wrap(self, name: str, fn: Callable, record: Optional[Recorder] = None) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            with tracer.span(name) as span:
                result = fn(*args, **kwargs)
            if record is not None:
                record(span, args, kwargs, result)
            return result

        return traced

    # ------------------------------------------------------------------ #
    def install(self) -> None:
        """Wrap the layer entry points of the imported ``repro`` package.

        Classes are patched for the life of the process; the benchmark runs
        one pass per process, so nothing is ever unpatched.
        """
        import repro.api.executor as executor_module
        import repro.pipeline.session as session_module
        from repro import PipelineReport, Session
        from repro.core import OptimizationResult
        from repro.faultsim import CoverageExperiment
        from repro.wrp import MultiWeightReport, MultiWeightSet

        for attr, name, record in (
            ("add", "faults.build", _record_fault_count),
            ("lowered", "lowered.compile", None),
            ("required_length", "analysis.length", None),
            ("optimize", "core.optimize", _record_result),
            ("quantized_weights", "core.quantize", None),
            ("fault_simulate", "faultsim.sim", _record_fault_sim),
            ("self_test", "patterns.selftest", None),
            ("build_weight_sets", "wrp.build_sets", _record_result),
            ("multi_weight_self_test", "wrp.playback", None),
        ):
            self._patch(Session, attr, name, record)

        # The session's estimator: every COP evaluation, scalar or batched,
        # goes through its batched entry point.
        self._patch(type(Session().estimator), "detection_probabilities_batch", "analysis.cop", _record_cop)

        # Public functions as the executor and the session look them up.
        self._patch(executor_module, "build_plan", "api.plan")
        self._patch(session_module, "collapsed_fault_list", "faults.collapse")
        self._patch(session_module, "remove_redundant", "faults.prune", _record_pruned)

        for artifact in (
            PipelineReport,
            OptimizationResult,
            CoverageExperiment,
            MultiWeightSet,
            MultiWeightReport,
        ):
            artifact.to_dict = self.wrap("api.serialize", artifact.to_dict)
            artifact.from_dict = classmethod(
                self.wrap("api.serialize", artifact.from_dict.__func__)
            )

    def _patch(self, owner: Any, attr: str, name: str, record: Optional[Recorder] = None) -> None:
        # An entry point a later version of the program no longer has is
        # left untraced: its layer then reports 0 instead of the run failing.
        if hasattr(owner, attr):
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), record))

    def attach_store(self, store: Any) -> None:
        """Wrap one store handle's accounted read and write."""
        store.load = self.wrap("store.load", store.load)
        store.put = self.wrap("store.put", store.put)

    # ------------------------------------------------------------------ #
    def select(self, names: Iterable[str] = (), phases: Iterable[str] = ("setup", "timed")) -> List[Span]:
        """Spans of the given phases, optionally only those with the given names."""
        wanted = set(names)
        allowed = set(phases)
        return [
            span
            for span in self.spans
            if span.phase in allowed and (not wanted or span.name in wanted)
        ]

    def total(self, name: str, phases: Iterable[str] = ("setup", "timed")) -> float:
        """Summed duration of the spans called ``name``."""
        return sum(span.duration for span in self.select((name,), phases))

    def self_by_layer(self, phases: Iterable[str] = ("setup", "timed")) -> Dict[str, float]:
        """Summed self time per layer."""
        times = {layer: 0.0 for layer in LAYERS}
        for span in self.select(phases=phases):
            times[span.layer] = times.get(span.layer, 0.0) + span.self_time
        return times

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([span.to_dict() for span in self.spans], handle)


def maybe_span(tracer: Optional[Tracer], name: str):
    """``tracer.span(name)``, or a no-op context for an untraced pass."""
    return nullcontext() if tracer is None else tracer.span(name)


def _record_fault_count(span: Span, args: tuple, kwargs: dict, key: str) -> None:
    session = args[0]
    span.meta["count"] = len(session.faults(key))


def _record_pruned(span: Span, args: tuple, kwargs: dict, kept: list) -> None:
    span.meta["pruned"] = len(args[1]) - len(kept)


def _record_result(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.meta["result"] = result


def _record_fault_sim(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.meta["result"] = result
    span.meta["batch_size"] = int(kwargs.get("batch_size", 2048))


def _record_cop(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    circuit = args[1]
    rows = len(args[3] if len(args) > 3 else kwargs["weights"])
    span.meta["rows"] = rows
    span.meta["net_rows"] = rows * circuit.n_nets


__all__ = ["LAYERS", "Span", "Tracer", "maybe_span"]
