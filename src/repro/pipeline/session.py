"""The pipeline façade: analyze → optimize → quantize → fault-simulate → self-test.

The paper's workflow is a pipeline — testability analysis (COP), input
probability optimization, quantization to a realisable weight grid,
fault-simulated validation, and finally the weighted-random *self test* of
section 5.2 (LFSR weighting network + MISR signature, the
:meth:`Session.self_test` stage).

Since the job-spec API (:mod:`repro.api`) the declarative description of
that pipeline lives in :class:`repro.api.spec.PipelineSpec` and the
execution in :func:`repro.api.executor.execute_spec`; :class:`Session` is
the in-process **convenience layer**: it keeps the loose-kwargs constructor,
builds the equivalent spec (:meth:`Session.spec`) and delegates
:meth:`Session.run` to the executor, while caching the expensive
intermediates across stages and runs:

* the **lowered-circuit IR** (:mod:`repro.lowered`) is compiled exactly once
  per circuit and consumed by every stage (the analysis engine, the
  optimizer's estimator and the fault simulator all hang off the same
  artifact); :meth:`Session.lowerings` / :attr:`Session.total_lowerings`
  expose the compile counter so callers (and the CI smoke check) can assert
  the reuse,
* the **fault list** (collapsed, redundancy-filtered by default) is built
  once per circuit,
* the **baseline analysis** and the **optimization result** are cached, so
  e.g. test-length, coverage and CPU-time reporting all use the same run —
  exactly as one PROTEST run feeds all of the paper's optimized-test numbers.

Seed semantics: the session's ``seed`` is a *root* seed.  Randomized stages
derive per-stage, per-circuit working seeds from it via
:func:`repro.api.spec.derive_seed` (``SeedSequence``-based), so the
fault-simulation and self-test stages of one circuit — and the same stages
of different circuits — never share a pattern stream, yet every run is
reproducible from the one root value.  Pass an explicit ``seed`` to a stage
method to bypass the derivation.

Typical use::

    from repro import Session, s1_comparator

    session = Session(confidence=0.999)
    session.add(s1_comparator(width=12), key="s1")
    report = session.run("s1", n_patterns=4_000)
    print(report.summary())
    print(json.dumps(report.to_dict()))   # JSON artifact, exact round trip
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..analysis.compiled import BatchedCopEstimator
from ..analysis.detection import CopDetectionEstimator, DetectionProbabilityEstimator
from ..analysis.redundancy import remove_redundant
from ..api import serialize as _serialize
from ..api.serialize import tagged_dict, untag
from ..api.spec import (
    AnalysisConfig,
    FaultSimConfig,
    MultiWeightConfig,
    OptimizeConfig,
    PipelineSpec,
    QuantizeConfig,
    SelfTestConfig,
    derive_seed,
)
from ..circuit.netlist import Circuit
from ..core.optimizer import OptimizationResult, WeightOptimizer
from ..core.quantize import quantize_weights
from ..core.testlength import required_test_length
from ..faults.collapse import collapsed_fault_list
from ..faults.model import Fault
from ..faultsim.coverage import CoverageExperiment, random_pattern_coverage
from ..lowered import LoweredCircuit, compile_count, compile_lowered
from ..patterns.bilbo import SelfTestReport, SelfTestSession
from ..wrp import MultiWeightReport, MultiWeightSet, run_multi_weight_session
from ..wrp import build_weight_sets as _build_weight_sets

__all__ = ["Session", "PipelineReport"]

#: Cached BIST sessions kept per circuit (LRU).  Each session pins its
#: pattern matrix and fault-free net values, so the cache is bounded — unlike
#: coverage experiments, which only hold detection indices.
_SELFTEST_CACHE_LIMIT = 8

#: Artifact keys that describe the machine the report was produced on, not
#: the mathematical result; :meth:`PipelineReport.canonical_dict` drops them
#: so serial/parallel/cross-process runs of the same spec compare equal.
#: (Shared with the content-addressed store via :mod:`repro.api.serialize`.)
_VOLATILE_KEYS = _serialize.VOLATILE_KEYS
_scrub_volatile = _serialize.scrub_volatile


@dataclass
class PipelineReport:
    """Outcome of one pipeline job — the JSON-serializable result artifact.

    Stages a spec skipped leave their fields ``None`` (an analysis-only job
    reports only the workload numbers and ``conventional_length``).

    Attributes:
        key: job label (session key / spec label).
        circuit_name: name of the circuit under test.
        n_gates / n_inputs / n_faults: workload size.
        input_names: primary input net names, in circuit input order (what
            the appendix listings and weight exports key on).
        seed: root seed the stage seeds were derived from.
        conventional_length: required test length of the equiprobable test.
        optimized_length: required test length after optimization.
        weights / quantized_weights: optimized input probabilities (raw and
            snapped to the realisable grid).
        n_patterns: pattern budget of the fault-simulated validation.
        conventional_coverage / optimized_coverage: fault coverage (percent)
            of ``n_patterns`` conventional / optimized random patterns.
        optimization: the underlying (cached) optimization result.
        conventional_experiment / optimized_experiment: the full coverage
            experiments (per-fault first-detection indices), from which
            coverage curves and undetected-fault counts derive.
        self_test: report of the BIST stage, when the spec requested it.
        self_test_fault: the fault injected into the self-test run (``None``
            for a clean run); with an injection, ``self_test.passed`` False
            means the signature exposed the fault.
        multi_weight: report of the multi-weight-set BIST stage
            (:class:`repro.wrp.MultiWeightReport`), when the spec declared
            it; serialized only when present, so artifacts of specs without
            the stage keep their historical wire form.
        lowerings: lowering compilations attributed to this circuit — 1 for a
            fresh circuit, 0 when the content-addressed cache already held
            the structure.
        seconds: wall-clock time of the run (volatile; excluded from
            :meth:`canonical_dict`).
    """

    key: str
    circuit_name: str
    n_gates: int
    n_inputs: int
    n_faults: int
    input_names: List[str] = field(default_factory=list)
    seed: int = 0
    conventional_length: Optional[int] = None
    optimized_length: Optional[int] = None
    weights: Optional[np.ndarray] = None
    quantized_weights: Optional[np.ndarray] = None
    n_patterns: Optional[int] = None
    conventional_coverage: Optional[float] = None
    optimized_coverage: Optional[float] = None
    optimization: Optional[OptimizationResult] = None
    conventional_experiment: Optional[CoverageExperiment] = None
    optimized_experiment: Optional[CoverageExperiment] = None
    self_test: Optional[SelfTestReport] = None
    self_test_fault: Optional[Fault] = None
    multi_weight: Optional[MultiWeightReport] = None
    lowerings: int = 0
    seconds: float = 0.0

    @property
    def improvement_factor(self) -> float:
        """How many times shorter the optimized test is (≥ 1 when it helps)."""
        if self.conventional_length is None or self.optimized_length is None:
            return float("nan")
        if self.optimized_length <= 0:
            return float("inf")
        return self.conventional_length / self.optimized_length

    def summary(self) -> str:
        """One-paragraph human-readable report (skipped stages elided)."""
        parts = []
        if self.conventional_length is not None:
            parts.append(f"conventional N ≈ {self.conventional_length:,}")
        if self.optimized_length is not None:
            parts.append(
                f"optimized N ≈ {self.optimized_length:,} "
                f"(x{self.improvement_factor:,.0f})"
            )
        if self.conventional_coverage is not None:
            line = (
                f"with {self.n_patterns:,} patterns "
                f"coverage {self.conventional_coverage:.1f}%"
            )
            if self.optimized_coverage is not None:
                line += f" → {self.optimized_coverage:.1f}%"
            parts.append(line)
        if self.self_test is not None:
            if self.self_test_fault is not None:
                verdict = (
                    "injected fault detected"
                    if not self.self_test.passed
                    else "injected fault MISSED"
                )
            else:
                verdict = "pass" if self.self_test.passed else "FAIL"
            parts.append(
                f"self-test signature 0x{self.self_test.signature:x} ({verdict})"
            )
        if self.multi_weight is not None:
            sets = self.multi_weight.weight_sets
            parts.append(
                f"multi-weight k={sets.k} length {sets.multi_set_length:,} "
                f"vs single {sets.single_set_length:,}"
            )
        parts.append(
            f"({self.lowerings} lowering{'s' if self.lowerings != 1 else ''})"
        )
        return f"{self.circuit_name}: " + ", ".join(parts)

    # ------------------------------------------------------------------ #
    # Serialization (job-spec API artifact)
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable artifact dict (exact round trip)."""
        from ..api.serialize import encode_optional_array

        payload = tagged_dict(
            "pipeline_report",
            {
                "key": self.key,
                "circuit_name": self.circuit_name,
                "n_gates": int(self.n_gates),
                "n_inputs": int(self.n_inputs),
                "n_faults": int(self.n_faults),
                "input_names": list(self.input_names),
                "seed": int(self.seed),
                "conventional_length": _opt_int(self.conventional_length),
                "optimized_length": _opt_int(self.optimized_length),
                "weights": encode_optional_array(self.weights),
                "quantized_weights": encode_optional_array(self.quantized_weights),
                "n_patterns": _opt_int(self.n_patterns),
                "conventional_coverage": _opt_float(self.conventional_coverage),
                "optimized_coverage": _opt_float(self.optimized_coverage),
                "optimization": _opt_dict(self.optimization),
                "conventional_experiment": _opt_dict(self.conventional_experiment),
                "optimized_experiment": _opt_dict(self.optimized_experiment),
                "self_test": _opt_dict(self.self_test),
                "self_test_fault": (
                    None if self.self_test_fault is None else self.self_test_fault.to_list()
                ),
                "lowerings": int(self.lowerings),
                "seconds": float(self.seconds),
            },
        )
        if self.multi_weight is not None:
            payload["multi_weight"] = self.multi_weight.to_dict()
        return payload

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PipelineReport":
        """Rebuild a report from :meth:`to_dict` output (validated).

        Rejects unknown ``schema_version`` values and unknown fields with
        :class:`repro.api.serialize.SchemaError`.
        """
        from ..api.serialize import decode_optional_array

        payload = untag(
            data,
            "pipeline_report",
            required=(
                "key",
                "circuit_name",
                "n_gates",
                "n_inputs",
                "n_faults",
                "input_names",
                "seed",
            ),
            optional=(
                "conventional_length",
                "optimized_length",
                "weights",
                "quantized_weights",
                "n_patterns",
                "conventional_coverage",
                "optimized_coverage",
                "optimization",
                "conventional_experiment",
                "optimized_experiment",
                "self_test",
                "self_test_fault",
                "multi_weight",
                "lowerings",
                "seconds",
            ),
        )
        optimization = payload["optimization"]
        conventional_experiment = payload["conventional_experiment"]
        optimized_experiment = payload["optimized_experiment"]
        self_test = payload["self_test"]
        return cls(
            key=str(payload["key"]),
            circuit_name=str(payload["circuit_name"]),
            n_gates=int(payload["n_gates"]),
            n_inputs=int(payload["n_inputs"]),
            n_faults=int(payload["n_faults"]),
            input_names=[str(n) for n in payload["input_names"]],
            seed=int(payload["seed"]),
            conventional_length=_opt_int(payload["conventional_length"]),
            optimized_length=_opt_int(payload["optimized_length"]),
            weights=decode_optional_array(payload["weights"]),
            quantized_weights=decode_optional_array(payload["quantized_weights"]),
            n_patterns=_opt_int(payload["n_patterns"]),
            conventional_coverage=_opt_float(payload["conventional_coverage"]),
            optimized_coverage=_opt_float(payload["optimized_coverage"]),
            optimization=(
                None if optimization is None else OptimizationResult.from_dict(optimization)
            ),
            conventional_experiment=(
                None
                if conventional_experiment is None
                else CoverageExperiment.from_dict(conventional_experiment)
            ),
            optimized_experiment=(
                None
                if optimized_experiment is None
                else CoverageExperiment.from_dict(optimized_experiment)
            ),
            self_test=None if self_test is None else SelfTestReport.from_dict(self_test),
            self_test_fault=(
                None
                if payload["self_test_fault"] is None
                else Fault.from_list(payload["self_test_fault"])
            ),
            multi_weight=(
                None
                if payload["multi_weight"] is None
                else MultiWeightReport.from_dict(payload["multi_weight"])
            ),
            lowerings=int(payload["lowerings"] or 0),
            seconds=float(payload["seconds"] or 0.0),
        )

    def canonical_dict(self) -> Dict[str, Any]:
        """The artifact dict minus volatile fields (timings, compile counts).

        Two runs of the same spec — serial or parallel, same or different
        process — must produce equal canonical dicts; the batch-executor
        tests assert exactly that.
        """
        return _scrub_volatile(self.to_dict())


def _opt_int(value: Optional[int]) -> Optional[int]:
    return None if value is None else int(value)


def _opt_float(value: Optional[float]) -> Optional[float]:
    return None if value is None else float(value)


def _opt_dict(value) -> Optional[Dict[str, Any]]:
    return None if value is None else value.to_dict()


@dataclass
class _Entry:
    """Per-circuit pipeline state tracked by a :class:`Session`."""

    key: str
    circuit: Circuit
    faults: List[Fault]
    lowered: Optional[LoweredCircuit] = None
    lowerings: int = 0
    baseline_probs: Optional[np.ndarray] = None
    optimization: Optional[OptimizationResult] = None
    coverage_cache: Dict[Tuple, CoverageExperiment] = field(default_factory=dict)
    selftest_cache: Dict[Tuple, SelfTestSession] = field(default_factory=dict)
    multi_weight_cache: Dict[Tuple, MultiWeightSet] = field(default_factory=dict)


class Session:
    """Convenience wrapper over the job-spec pipeline, compiling once.

    The declarative face of the pipeline is :class:`repro.api.PipelineSpec`;
    a session translates its loose constructor kwargs into the typed stage
    configs, hands out the equivalent spec via :meth:`spec`, and delegates
    :meth:`run` to :func:`repro.api.execute_spec` — while caching fault
    lists, lowerings, baseline analyses, optimizations and coverage runs
    across stages and repeated runs.

    Args:
        confidence: required probability of detecting every modelled fault
            (shared by the test-length computations and the optimizer).
        estimator: detection-probability estimator used by the analysis and
            optimization stages; defaults to the batched compiled COP engine
            (:class:`~repro.analysis.compiled.BatchedCopEstimator`).  Specs
            name estimators (``"batched"``/``"scalar"``); other estimator
            objects remain a session-only runtime override.
        max_sweeps: coordinate-descent sweep budget of the optimizer.
        alpha: optimizer convergence threshold (relative improvement).
        bounds: allowed interval for each input probability.
        seed: *root* seed; the fault-simulation and self-test stages derive
            per-stage, per-circuit seeds from it
            (:func:`repro.api.spec.derive_seed`).
        quantization_step: grid the optimized weights are snapped to.
        drop_redundant: remove faults proven/estimated undetectable from the
            default fault list (the paper's coverage convention).  Explicit
            ``faults`` passed to :meth:`add` are used as-is.
        partition_size: PPSFP fault partition size for the fault-simulation
            stage (``None`` = one partition spanning all active faults).
        store: optional content-addressed artifact store — anything
            :func:`repro.store.open_store` accepts (an
            :class:`~repro.store.ArtifactStore`, a directory path, or a
            ``worker_ref`` dict).  :meth:`run` consults it before executing
            and persists its reports into it, so repeated runs of one spec
            across sessions, processes or machines cost one store read.
    """

    def __init__(
        self,
        confidence: float = 0.999,
        estimator: Optional[DetectionProbabilityEstimator] = None,
        max_sweeps: int = 8,
        alpha: float = 0.01,
        bounds: Tuple[float, float] = (0.05, 0.95),
        seed: int = 1987,
        quantization_step: float = 0.05,
        drop_redundant: bool = True,
        partition_size: Optional[int] = None,
        store: Optional[Any] = None,
    ):
        if not 0.0 < confidence < 1.0:
            raise ValueError("confidence must lie strictly between 0 and 1")
        self.confidence = confidence
        self.estimator: DetectionProbabilityEstimator = (
            estimator if estimator is not None else BatchedCopEstimator()
        )
        self.max_sweeps = max_sweeps
        self.alpha = alpha
        self.bounds = bounds
        self.seed = seed
        self.quantization_step = quantization_step
        self.drop_redundant = drop_redundant
        self.partition_size = partition_size
        from ..store import open_store

        self.store = open_store(store)
        self._entries: Dict[str, _Entry] = {}

    # ------------------------------------------------------------------ #
    # Spec translation (the declarative face)
    # ------------------------------------------------------------------ #
    @classmethod
    def from_spec(cls, spec: PipelineSpec) -> "Session":
        """A fresh session configured exactly like ``spec`` describes.

        Stage configs the spec omits fall back to the stage defaults, so the
        session can still serve ad-hoc calls for those stages.
        """
        optimize = spec.optimize if spec.optimize is not None else OptimizeConfig()
        quantize = spec.quantize if spec.quantize is not None else QuantizeConfig()
        estimator: DetectionProbabilityEstimator = (
            CopDetectionEstimator()
            if spec.analysis.estimator == "scalar"
            else BatchedCopEstimator()
        )
        # No fault-sim stage declared: simulation legs run elsewhere (e.g.
        # the multi-weight coverage run) take the analysis-stage setting.
        partition_size = (
            spec.fault_sim.partition_size
            if spec.fault_sim is not None
            else spec.analysis.partition_size
        )
        return cls(
            confidence=spec.analysis.confidence,
            estimator=estimator,
            max_sweeps=optimize.max_sweeps,
            alpha=optimize.alpha,
            bounds=tuple(optimize.bounds),
            seed=spec.seed,
            quantization_step=quantize.step,
            drop_redundant=spec.analysis.drop_redundant,
            partition_size=partition_size,
        )

    def _estimator_name(self, strict: bool = True) -> str:
        """The spec name of the session estimator (specs are declarative).

        ``strict=False`` substitutes ``"batched"`` for estimator objects a
        spec cannot name — used by the in-process :meth:`run` path, where
        the session's own estimator object is what actually executes.
        """
        if isinstance(self.estimator, BatchedCopEstimator):
            return "batched"
        if isinstance(self.estimator, CopDetectionEstimator):
            return "scalar"
        if not strict:
            return "batched"
        raise ValueError(
            f"estimator {type(self.estimator).__name__} has no spec name; "
            "a PipelineSpec can only reference the 'batched' or 'scalar' "
            "COP estimators"
        )

    def analysis_config(self, strict: bool = True) -> AnalysisConfig:
        return AnalysisConfig(
            confidence=self.confidence,
            drop_redundant=self.drop_redundant,
            estimator=self._estimator_name(strict=strict),
        )

    def optimize_config(self) -> OptimizeConfig:
        return OptimizeConfig(
            max_sweeps=self.max_sweeps,
            alpha=self.alpha,
            bounds=(float(self.bounds[0]), float(self.bounds[1])),
        )

    def quantize_config(self) -> QuantizeConfig:
        return QuantizeConfig(step=self.quantization_step)

    def spec(
        self,
        key: str,
        n_patterns: Optional[int] = None,
        circuit_ref: Optional[str] = None,
        self_test: Optional[SelfTestConfig] = None,
        multi_weight: Optional[MultiWeightConfig] = None,
        strict: bool = True,
    ) -> PipelineSpec:
        """The declarative :class:`PipelineSpec` equivalent of :meth:`run`.

        Args:
            key: registered circuit key (becomes the spec label).
            n_patterns: fault-simulation pattern budget.  ``None`` defers to
                the executor's resolution: the paper budget for a registry
                ``circuit_ref``, 4000 for an inline netlist (the default
                embedding — the session does not guess a registry entry from
                the key).
            circuit_ref: optional registry key to reference instead of
                embedding the inline netlist dict (smaller spec, same
                structure — the caller asserts the equivalence).
            self_test: optional BIST stage config to append.
            multi_weight: optional multi-weight-set stage config to append.
            strict: raise for estimator objects a spec cannot name;
                ``strict=False`` records ``"batched"`` instead (what
                :meth:`run` uses — in-process execution applies the
                session's own estimator object regardless).
        """
        entry = self._entry(key)
        circuit: Union[str, Dict[str, Any]] = (
            circuit_ref if circuit_ref is not None else entry.circuit.to_dict()
        )
        return PipelineSpec(
            circuit=circuit,
            key=key,
            seed=self.seed,
            analysis=self.analysis_config(strict=strict),
            optimize=self.optimize_config(),
            quantize=self.quantize_config(),
            fault_sim=FaultSimConfig(
                n_patterns=n_patterns,
                partition_size=self.partition_size,
            ),
            self_test=self_test,
            multi_weight=multi_weight,
        )

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def add(
        self,
        circuit: Circuit,
        key: Optional[str] = None,
        faults: Optional[Sequence[Fault]] = None,
    ) -> str:
        """Register a circuit and return its session key.

        Re-adding the same instance — or any *structurally identical*
        circuit (equal :meth:`~repro.circuit.netlist.Circuit.structural_hash`,
        e.g. a fresh rebuild of the same netlist) — under an existing key is
        a no-op that keeps the existing entry and its cached artifacts.  A
        genuinely different structure under the same key is an error, and so
        is re-registering with an explicit ``faults`` list that differs from
        the entry's (a silent no-op would run the wrong fault set).
        """
        key = key if key is not None else circuit.name
        existing = self._entries.get(key)
        if existing is not None:
            if not (
                existing.circuit is circuit
                or existing.circuit.structural_hash() == circuit.structural_hash()
            ):
                raise ValueError(
                    f"session already holds a structurally different circuit "
                    f"under key {key!r}"
                )
            if faults is not None and list(faults) != existing.faults:
                raise ValueError(
                    f"circuit under key {key!r} is already registered with a "
                    "different fault list"
                )
            return key
        if faults is not None:
            fault_list = list(faults)
        else:
            fault_list = collapsed_fault_list(circuit)
            if self.drop_redundant:
                fault_list = remove_redundant(circuit, fault_list)
        self._entries[key] = _Entry(key=key, circuit=circuit, faults=fault_list)
        return key

    def has(self, key: str) -> bool:
        return key in self._entries

    def keys(self) -> List[str]:
        """Registered circuit keys, in registration order."""
        return list(self._entries)

    def _entry(self, key: str) -> _Entry:
        try:
            return self._entries[key]
        except KeyError as exc:
            raise KeyError(
                f"no circuit registered under key {key!r}; call Session.add first"
            ) from exc

    def circuit(self, key: str) -> Circuit:
        return self._entry(key).circuit

    def faults(self, key: str) -> List[Fault]:
        return self._entry(key).faults

    # ------------------------------------------------------------------ #
    # Stage 0: lowering (compiled once, shared by every later stage)
    # ------------------------------------------------------------------ #
    def lowered(self, key: str) -> LoweredCircuit:
        """The circuit's lowered IR, compiling it on first use.

        The compile goes through the content-addressed process cache, so the
        per-circuit :meth:`lowerings` count is 1 for a structure first seen
        here and 0 when another instance already populated the cache.
        """
        entry = self._entry(key)
        if entry.lowered is None:
            before = compile_count()
            entry.lowered = compile_lowered(entry.circuit)
            entry.lowerings += compile_count() - before
        return entry.lowered

    def lowerings(self, key: str) -> int:
        """Lowering compilations performed on behalf of ``key`` so far."""
        return self._entry(key).lowerings

    @property
    def total_lowerings(self) -> int:
        """Lowering compilations performed across all registered circuits.

        After any number of stages/runs this is at most the number of
        distinct circuit structures in the session — the compile-reuse
        invariant the CI smoke check asserts.
        """
        return sum(entry.lowerings for entry in self._entries.values())

    # ------------------------------------------------------------------ #
    # Stage 1: analysis
    # ------------------------------------------------------------------ #
    def detection_probabilities(
        self, key: str, weights: Optional[Sequence[float]] = None
    ) -> np.ndarray:
        """Detection probability of every session fault under ``weights``.

        ``weights=None`` means the conventional equiprobable test (all 0.5);
        that baseline analysis is cached per circuit.
        """
        entry = self._entry(key)
        self.lowered(key)
        if weights is None:
            if entry.baseline_probs is None:
                entry.baseline_probs = self.estimator.detection_probabilities(
                    entry.circuit, entry.faults, [0.5] * entry.circuit.n_inputs
                )
            return entry.baseline_probs
        return self.estimator.detection_probabilities(
            entry.circuit, entry.faults, list(weights)
        )

    def required_length(
        self,
        key: str,
        weights: Optional[Sequence[float]] = None,
        confidence: Optional[float] = None,
    ) -> int:
        """Required random-test length (NORMALIZE) under ``weights``."""
        probs = self.detection_probabilities(key, weights)
        target = self.confidence if confidence is None else confidence
        return required_test_length(probs, target).test_length

    # ------------------------------------------------------------------ #
    # Stage 2: optimization
    # ------------------------------------------------------------------ #
    def optimize(
        self, key: str, max_sweeps: Optional[int] = None
    ) -> OptimizationResult:
        """Optimized input probabilities for a registered circuit (cached).

        The cached result is shared by every stage and report — exactly as
        one PROTEST run feeds all of the paper's optimized-test numbers.

        Args:
            key: session key of the circuit.
            max_sweeps: optional sweep-budget override (ignored once a result
                is cached).
        """
        entry = self._entry(key)
        if entry.optimization is not None:
            return entry.optimization
        self.lowered(key)
        optimizer = WeightOptimizer(
            entry.circuit,
            faults=entry.faults,
            estimator=self.estimator,
            confidence=self.confidence,
            bounds=self.bounds,
            alpha=self.alpha,
            max_sweeps=max_sweeps if max_sweeps is not None else self.max_sweeps,
        )
        entry.optimization = optimizer.optimize(
            quantization_step=self.quantization_step
        )
        return entry.optimization

    # ------------------------------------------------------------------ #
    # Stage 3: quantization
    # ------------------------------------------------------------------ #
    def quantized_weights(self, key: str, step: Optional[float] = None) -> np.ndarray:
        """The optimized weights snapped to the realisable grid.

        With the session's default step this is the (cached) optimization
        result's grid; an explicit ``step`` re-quantizes the raw weights.
        """
        result = self.optimize(key)
        if step is None or step == self.quantization_step:
            return result.quantized_weights
        return quantize_weights(result.weights, step=step, bounds=self.bounds)

    # ------------------------------------------------------------------ #
    # Stage 4: fault-simulated validation
    # ------------------------------------------------------------------ #
    def fault_simulate(
        self,
        key: str,
        n_patterns: int,
        weights: Optional[Sequence[float]] = None,
        seed: Optional[int] = None,
        batch_size: int = 2048,
        fault_group: Optional[int] = None,
        target_coverage: Optional[float] = None,
        partition_size: Optional[int] = None,
    ) -> CoverageExperiment:
        """Fault-simulate ``n_patterns`` (weighted) random patterns (cached).

        ``weights=None`` is the conventional equiprobable test.  ``seed=None``
        uses the per-stage, per-circuit seed derived from the session's root
        seed (``derive_seed(root, "fault_sim", key)``) — reproducible, and
        uncorrelated with every other stage and circuit.  Results are cached
        per ``(n_patterns, weights, seed, target_coverage)`` so a report
        regenerated twice does not repeat the simulation; the underlying
        compiled engine is shared with every other stage through the lowered
        IR.  Patterns are streamed chunkwise (never materialized as one
        matrix); ``target_coverage`` stops the stream early once that
        coverage fraction is reached.  ``partition_size`` defaults to the
        session-level setting; detection results are bit-identical across
        partitionings (only the attached
        :class:`~repro.faultsim.FaultSimStats` differ), but the cache still
        keys on it so the stats stay faithful.
        """
        entry = self._entry(key)
        self.lowered(key)
        seed = self.stage_seed("fault_sim", key) if seed is None else seed
        if partition_size is None:
            partition_size = self.partition_size
        weight_key = None if weights is None else tuple(float(w) for w in weights)
        cache_key = (
            int(n_patterns),
            weight_key,
            int(seed),
            int(batch_size),
            fault_group,
            target_coverage,
            partition_size,
        )
        cached = entry.coverage_cache.get(cache_key)
        if cached is None:
            cached = random_pattern_coverage(
                entry.circuit,
                n_patterns,
                weights=weights,
                faults=entry.faults,
                seed=seed,
                batch_size=batch_size,
                fault_group=fault_group,
                target_coverage=target_coverage,
                partition_size=partition_size,
            )
            entry.coverage_cache[cache_key] = cached
        return cached

    def stage_seed(self, stage: str, key: str) -> int:
        """The derived working seed of one stage for one circuit."""
        return derive_seed(self.seed, stage, key)

    # ------------------------------------------------------------------ #
    # Stage 5: self test (BILBO / signature analysis)
    # ------------------------------------------------------------------ #
    def self_test_session(
        self,
        key: str,
        n_patterns: int,
        weights: Optional[Sequence[float]] = None,
        use_lfsr: bool = False,
        misr_width: Optional[int] = None,
        misr_taps: Optional[Sequence[int]] = None,
        seed: Optional[int] = None,
    ) -> SelfTestSession:
        """The (cached) BIST session for a registered circuit.

        The session runs on the compiled BIST substrate
        (:mod:`repro.patterns.compiled`) and on the same lowered IR as every
        other stage; its pattern matrix, fault-free responses and golden
        signature are computed once and shared by every
        :meth:`self_test` call with the same parameters.  ``seed=None`` uses
        the derived ``derive_seed(root, "self_test", key)`` stage seed.
        """
        entry = self._entry(key)
        self.lowered(key)
        seed = self.stage_seed("self_test", key) if seed is None else seed
        weight_key = None if weights is None else tuple(float(w) for w in weights)
        taps_key = None if misr_taps is None else tuple(misr_taps)
        cache_key = (
            int(n_patterns),
            weight_key,
            bool(use_lfsr),
            misr_width,
            taps_key,
            int(seed),
        )
        session = entry.selftest_cache.pop(cache_key, None)
        if session is None:
            session = SelfTestSession(
                entry.circuit,
                n_patterns,
                weights=weights,
                use_lfsr=use_lfsr,
                misr_width=misr_width,
                misr_taps=misr_taps,
                seed=seed,
            )
        # (Re-)insert as most recently used; a session pins its pattern and
        # fault-free value matrices, so the cache is LRU-bounded.
        entry.selftest_cache[cache_key] = session
        while len(entry.selftest_cache) > _SELFTEST_CACHE_LIMIT:
            entry.selftest_cache.pop(next(iter(entry.selftest_cache)))
        return session

    def self_test(
        self,
        key: str,
        n_patterns: int,
        weights: Optional[Sequence[float]] = None,
        use_lfsr: bool = False,
        misr_width: Optional[int] = None,
        misr_taps: Optional[Sequence[int]] = None,
        seed: Optional[int] = None,
        fault: Optional[Fault] = None,
    ) -> SelfTestReport:
        """Run a (weighted) self test, optionally with a fault injected.

        ``weights`` would typically be :meth:`quantized_weights` mapped onto
        the LFSR grid — the paper's section 5.2 flow.  Repeated calls with
        different ``fault`` arguments reuse the cached session (patterns,
        fault-free simulation and golden signature are computed once).
        Circuits with more primary outputs than the largest tabulated MISR
        width need an explicit ``misr_width`` plus ``misr_taps``.
        """
        session = self.self_test_session(
            key,
            n_patterns,
            weights=weights,
            use_lfsr=use_lfsr,
            misr_width=misr_width,
            misr_taps=misr_taps,
            seed=seed,
        )
        return session.run(fault)

    # ------------------------------------------------------------------ #
    # Stage 6 (optional): multi-weight-set BIST
    # ------------------------------------------------------------------ #
    def build_weight_sets(
        self,
        key: str,
        k: int = 4,
        budget: Optional[int] = None,
        cluster_seed: Optional[int] = None,
        session_seed: Optional[int] = None,
        force: bool = False,
    ) -> MultiWeightSet:
        """Cluster the fault list and optimize one weight set per cluster.

        Delegates to :func:`repro.wrp.build_weight_sets` with the session's
        estimator, optimizer parameters and the cached single-set optimum as
        the baseline, so the expensive base optimization is never repeated.
        ``cluster_seed``/``session_seed`` default to the derived
        ``derive_seed(root, "cluster"/"multi_weight", key)`` stage seeds.
        Results are cached per ``(k, budget, cluster_seed, session_seed)``.
        """
        entry = self._entry(key)
        self.lowered(key)
        if cluster_seed is None:
            cluster_seed = self.stage_seed("cluster", key)
        if session_seed is None:
            session_seed = self.stage_seed("multi_weight", key)
        cache_key = (int(k), budget, int(cluster_seed), int(session_seed))
        cached = entry.multi_weight_cache.get(cache_key)
        if cached is not None and not force:
            return cached
        weight_sets = _build_weight_sets(
            entry.circuit,
            faults=entry.faults,
            k=k,
            estimator=self.estimator,
            confidence=self.confidence,
            bounds=(float(self.bounds[0]), float(self.bounds[1])),
            alpha=self.alpha,
            max_sweeps=self.max_sweeps,
            quantization_step=self.quantization_step,
            cluster_seed=cluster_seed,
            session_seed=session_seed,
            budget=budget,
            base_result=self.optimize(key),
        )
        entry.multi_weight_cache[cache_key] = weight_sets
        return weight_sets

    def multi_weight_self_test(
        self,
        key: str,
        k: int = 4,
        weight_sets: Optional[MultiWeightSet] = None,
        budget: Optional[int] = None,
        scan_chains: Optional[int] = None,
        target_coverage: Optional[float] = None,
        misr_width: Optional[int] = None,
        misr_taps: Optional[Sequence[int]] = None,
        cluster_seed: Optional[int] = None,
        session_seed: Optional[int] = None,
    ) -> MultiWeightReport:
        """Run the multi-weight-set BIST stage for a registered circuit.

        Builds (or reuses) the :class:`~repro.wrp.MultiWeightSet` schedule,
        plays it through the compiled multi-set session and fault-simulates
        the scheduled stream with the session's partition size — the
        in-process face of the spec's ``multi_weight`` stage.
        """
        entry = self._entry(key)
        self.lowered(key)
        if weight_sets is None:
            weight_sets = self.build_weight_sets(
                key,
                k=k,
                budget=budget,
                cluster_seed=cluster_seed,
                session_seed=session_seed,
            )
        return run_multi_weight_session(
            entry.circuit,
            weight_sets,
            faults=entry.faults,
            target_coverage=target_coverage,
            scan_chains=scan_chains,
            partition_size=self.partition_size,
            misr_width=misr_width,
            misr_taps=misr_taps,
        )

    # ------------------------------------------------------------------ #
    # The full pipeline
    # ------------------------------------------------------------------ #
    def run(
        self,
        key: Optional[str] = None,
        n_patterns: int = 4_000,
        self_test: Optional[SelfTestConfig] = None,
        multi_weight: Optional[MultiWeightConfig] = None,
    ) -> Union[PipelineReport, List[PipelineReport]]:
        """Run analyze → optimize → quantize → fault-simulate [→ self-test].

        Builds the declarative :meth:`spec` for the circuit and delegates to
        :func:`repro.api.executor.execute_spec` with this session as the
        (caching) execution context — the convenience-layer contract.

        Args:
            key: a single registered circuit, or ``None`` to run the pipeline
                over every registered circuit (returning a list of reports).
            n_patterns: pattern budget of the fault-simulated validation.
            self_test: optional BIST stage config to append to the run.
            multi_weight: optional multi-weight-set stage config to append.

        The lowered IR is compiled at most once per circuit no matter how
        many stages or repeated runs consume it.
        """
        if key is None:
            return [
                self.run(
                    k,
                    n_patterns=n_patterns,
                    self_test=self_test,
                    multi_weight=multi_weight,
                )
                for k in self.keys()
            ]
        from ..api.executor import execute_spec

        # strict=False: a custom estimator object (a session-only runtime
        # override) cannot be named in the spec, but the in-process executor
        # path uses the session's estimator regardless.
        spec = self.spec(
            key,
            n_patterns=n_patterns,
            self_test=self_test,
            multi_weight=multi_weight,
            strict=False,
        )
        return execute_spec(spec, session=self, store=self.store)
