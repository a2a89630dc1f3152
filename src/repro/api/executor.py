"""Execute one declarative pipeline spec and produce its result artifact.

:func:`execute_spec` is the *execute* layer of the spec → plan → execute →
persist stack, and the single execution path behind every public face of
the pipeline:

* the batch executor (:func:`repro.api.run_jobs`) ships
  :class:`~repro.api.spec.PipelineSpec` dicts to worker processes, each of
  which calls :func:`execute_spec` on a fresh session;
* the convenience layer (:class:`repro.pipeline.Session`) builds the spec
  from its kwargs and calls :func:`execute_spec` with *itself* as the
  execution context, so repeated in-process runs reuse its per-circuit
  state: fault list, lowering, baseline analysis and optimization;
* the job service (:mod:`repro.service`) executes cold submissions here and
  serves warm ones straight from the store.

Execution follows the :class:`~repro.api.plan.ExecutionPlan` emitted by
:func:`~repro.api.plan.build_plan`.  When a store is attached, the executor
first consults the plan's **report key** — a hit short-circuits the whole
run: zero stages execute, zero circuits are lowered, and the artifact is
the previously persisted report, bit-identical under
:meth:`~repro.pipeline.session.PipelineReport.canonical_dict`.  On a cold
run each stored artifact (the optimization, both coverage legs, the weight
sets and the multi-weight report) goes through one load-or-compute step
that consults its stage key first and persists what it computed, so
partially-warm stores still save work.  Either way the result is
deterministic in the spec alone: every randomized stage seeds from
``spec.stage_seed(...)``, so a spec executed serially, in a pool worker, on
another machine, or reassembled from store artifacts produces an identical
canonical dict.
"""

from __future__ import annotations

import time
from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, Optional, Type, TypeVar

import numpy as np

from ..core.optimizer import OptimizationResult
from ..core.quantize import quantize_to_lfsr_grid
from ..faultsim.coverage import CoverageExperiment
from ..patterns.misr import resolve_misr
from .plan import DEFAULT_N_PATTERNS, build_plan, resolve_n_patterns
from .spec import PipelineSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..pipeline.session import PipelineReport, Session
    from ..store import ArtifactStore

__all__ = [
    "DEFAULT_N_PATTERNS",
    "execute_spec",
    "execution_count",
    "executor_stats",
    "resolve_n_patterns",
]

#: Process-wide execution counters.  ``executions`` counts cold
#: :func:`execute_spec` runs (report-level store hits do NOT count);
#: ``stage_runs``/``stage_hits`` count stages computed vs. served from a
#: store.  The ``service`` bench area gates on deltas of these to prove
#: that identical resubmissions execute zero stages.
_STATS: Dict[str, int] = {"executions": 0, "stage_runs": 0, "stage_hits": 0}


def execution_count() -> int:
    """Cold pipeline executions in this process (store hits excluded)."""
    return _STATS["executions"]


def executor_stats() -> Dict[str, int]:
    """Copy of the process-wide execution/stage counters."""
    return dict(_STATS)


def _stage_done(on_stage: Optional[Callable[[str], None]], name: str) -> None:
    _STATS["stage_runs"] += 1
    if on_stage is not None:
        on_stage(name)


_Artifact = TypeVar("_Artifact")


def _load_or_compute(
    store: Optional["ArtifactStore"],
    key: str,
    kind: Type[_Artifact],
    compute: Callable[[], _Artifact],
    on_stage: Optional[Callable[[str], None]],
    stage: Optional[str],
) -> _Artifact:
    """The artifact of type ``kind`` stored under ``key``, or a fresh one.

    A store hit counts a stage hit.  A miss calls ``compute()``, persists
    the artifact under ``key`` and, when ``stage`` names one, counts a run
    of that stage.
    """
    if store is not None:
        cached = store.load(key)
        if isinstance(cached, kind):
            _STATS["stage_hits"] += 1
            return cached
    artifact = compute()
    if store is not None:
        store.put(key, artifact.to_dict())  # type: ignore[attr-defined]
    if stage is not None:
        _stage_done(on_stage, stage)
    return artifact


def execute_spec(
    spec: PipelineSpec,
    session: Optional["Session"] = None,
    store: Optional["ArtifactStore"] = None,
    on_stage: Optional[Callable[[str], None]] = None,
) -> "PipelineReport":
    """Run every stage a spec declares and return the result artifact.

    Args:
        spec: the declarative job description.
        session: optional execution context.  ``None`` builds a fresh
            :class:`~repro.pipeline.Session` from the spec's configs (the
            batch-worker path); passing an existing session reuses its
            per-circuit state (the convenience-layer path — the session's
            configs are expected to match the spec's, which
            :meth:`Session.spec` guarantees).
        store: optional content-addressed artifact store (anything
            :func:`repro.store.open_store` accepts).  A report-level hit
            returns the persisted artifact without executing any stage;
            otherwise stage artifacts are consulted/persisted individually
            and the finished report is written back.
        on_stage: optional progress callback, called with the stage name
            after each executed stage (the job service streams these).
    """
    from ..pipeline.session import PipelineReport, Session
    from ..store import open_store

    store = open_store(store)
    plan = build_plan(spec)
    keys = plan.store_keys()

    if store is not None:
        cached = store.load(keys["report"])
        if isinstance(cached, PipelineReport):
            return cached

    _STATS["executions"] += 1
    if session is None:
        session = Session.from_spec(spec)
    key = plan.label
    start = time.perf_counter()
    if not session.has(key):
        session.add(spec.build_circuit(), key=key)
    circuit = session.circuit(key)
    # A signature register that cannot compact the outputs fails the job
    # before any stage runs (the multi-weight playback uses the default one).
    if spec.self_test is not None:
        resolve_misr(circuit.n_outputs, spec.self_test.misr_width, spec.self_test.misr_taps)
    if spec.multi_weight is not None:
        resolve_misr(circuit.n_outputs)
    session.lowered(key)
    faults = session.faults(key)

    # Stage 1: analysis (always on).
    conventional_length = session.required_length(
        key, confidence=spec.analysis.confidence
    )
    _stage_done(on_stage, "analysis")

    # Stage 2: optimization (deterministic, so the stored entry is shared
    # across specs that differ only in seed/label/fault-sim budget).
    optimization = None
    if spec.optimize is not None:
        optimize = partial(session.optimize, key, max_sweeps=spec.optimize.max_sweeps)
        optimization = _load_or_compute(
            store, keys["optimize.result"], OptimizationResult, optimize, on_stage, "optimize"
        )

    # Stage 3: quantization (pure arithmetic on the optimization artifact,
    # whose embedded grid is this spec's: the quantize config is part of the
    # optimize key, and the session is configured from the spec).
    quantized = None
    if spec.quantize is not None:
        if spec.quantize.lfsr_resolution is not None:
            quantized = quantize_to_lfsr_grid(
                optimization.weights, resolution=spec.quantize.lfsr_resolution
            )
        else:
            quantized = optimization.quantized_weights
        _stage_done(on_stage, "quantize")

    # Stage 4: fault-simulated validation (conventional, then optimized).
    n_patterns = plan.n_patterns
    conventional_experiment = None
    optimized_experiment = None
    if spec.fault_sim is not None:
        config = spec.fault_sim
        simulate = partial(
            session.fault_simulate,
            key,
            n_patterns,
            seed=plan.stage("fault_sim").seed,
            batch_size=config.batch_size,
            target_coverage=config.target_coverage,
            partition_size=config.partition_size,
        )
        conventional_experiment = _load_or_compute(
            store,
            keys["fault_sim.conventional"],
            CoverageExperiment,
            simulate,
            on_stage,
            "fault_sim",
        )
        if quantized is not None:
            optimized_experiment = _load_or_compute(
                store,
                keys["fault_sim.optimized"],
                CoverageExperiment,
                partial(simulate, weights=quantized),
                on_stage,
                "fault_sim",
            )

    # Stage 5: self test (BILBO / signature analysis; never stored alone).
    self_test_report = None
    if spec.self_test is not None:
        config = spec.self_test
        fault = None
        if config.inject_hardest and faults:
            probabilities = session.detection_probabilities(key)
            fault = faults[int(np.argmin(probabilities))]
        self_test_report = session.self_test(
            key,
            config.n_patterns,
            weights=quantized if config.weighted else None,
            use_lfsr=config.use_lfsr,
            misr_width=config.misr_width,
            misr_taps=config.misr_taps,
            seed=plan.stage("self_test").seed,
            fault=fault,
        )
        _stage_done(on_stage, "self_test")

    # Stage 6 (optional): multi-weight-set BIST (clustered weight sets,
    # reseeded multi-polynomial LFSRs, scheduled playback).
    multi_weight_report = None
    if spec.multi_weight is not None:
        from ..wrp import MultiWeightReport, MultiWeightSet

        config = spec.multi_weight
        build = partial(
            session.build_weight_sets,
            key,
            k=config.k,
            budget=config.budget,
            cluster_seed=spec.stage_seed("cluster"),
            session_seed=plan.stage("multi_weight").seed,
        )

        def play() -> "MultiWeightReport":
            # A stored weight set counts as a stage hit; building one is part
            # of this stage's run, not a run of its own.
            weight_sets = _load_or_compute(
                store, keys["multi_weight.weight_sets"], MultiWeightSet, build, on_stage, None
            )
            return session.multi_weight_self_test(
                key,
                weight_sets=weight_sets,
                scan_chains=config.scan_chains,
                target_coverage=config.target_coverage,
            )

        multi_weight_report = _load_or_compute(
            store, keys["multi_weight.result"], MultiWeightReport, play, on_stage, "multi_weight"
        )

    report = PipelineReport(
        key=key,
        circuit_name=circuit.name,
        n_gates=circuit.n_gates,
        n_inputs=circuit.n_inputs,
        n_faults=len(faults),
        input_names=[circuit.net_name(net) for net in circuit.inputs],
        seed=spec.seed,
        conventional_length=conventional_length,
        optimized_length=None if optimization is None else optimization.test_length,
        weights=None if optimization is None else optimization.weights,
        quantized_weights=quantized,
        n_patterns=n_patterns,
        conventional_coverage=_percent(conventional_experiment),
        optimized_coverage=_percent(optimized_experiment),
        optimization=optimization,
        conventional_experiment=conventional_experiment,
        optimized_experiment=optimized_experiment,
        self_test=self_test_report,
        self_test_fault=fault if spec.self_test is not None else None,
        multi_weight=multi_weight_report,
        lowerings=session.lowerings(key),
        seconds=time.perf_counter() - start,
    )
    if store is not None:
        store.put(keys["report"], report.to_dict())
    return report


def _percent(experiment: Optional[CoverageExperiment]) -> Optional[float]:
    return None if experiment is None else 100.0 * experiment.fault_coverage
