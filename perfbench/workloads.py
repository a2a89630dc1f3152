"""The benchmark's workloads, generated from the workload seed.

Each workload is one closed loop with one client: it submits a spec, waits
for the report, checks it outside the timed phase, then submits the next.
The program sees only the generated specs, through the public API
(``PipelineSpec``, ``build_plan``, ``execute_spec``, ``Session``,
``DiskStore``).

* ``hard4`` — one cold full pipeline per hard circuit (s1, s2, c2670,
  c7552) on a pre-registered :class:`~repro.Session`, followed by a
  signature check on a seeded fault sample.
* ``synth6k`` — one generated 6,000-gate netlist, analysis → optimize →
  quantize → a 256-pattern fault simulation.
* ``store_mix`` — 154 submissions over 11 small registry circuits into one
  :class:`~repro.store.DiskStore` that starts empty; 88 are resubmissions.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import time
from contextlib import nullcontext
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import (
    FaultSimConfig,
    MultiWeightConfig,
    ParallelFaultSimulator,
    PipelineReport,
    PipelineSpec,
    SelfTestConfig,
    Session,
    execute_spec,
)
from repro.api import build_plan, canonical_json
from repro.backends import resolve_backend
from repro.circuits import CircuitSource, GeneratorSpec, circuit_keys
from repro.lowered import compile_count
from repro.store import DiskStore

from spans import Tracer, maybe_span

HARD_CIRCUITS = ("s1", "s2", "c2670", "c7552")

#: The synth6k netlist.  Its generator seed is fixed: the optimized length of
#: a generated netlist spreads about 3x from one generator seed to the next
#: (15.0k to 46.8k on seeds 1-3), which no regression bound could absorb.
SYNTH_NETLIST = dict(n_inputs=144, n_gates=6_000, depth=6, min_fanin=2, max_fanin=2, seed=6)
SYNTH_PATTERNS = 256

#: store_mix: every registry circuit but s2, whose fault simulation alone
#: would outweigh the store traffic this workload measures.
STORE_NEW_PER_CIRCUIT = 6
STORE_HITS_PER_CIRCUIT = 8
STORE_PATTERNS = 1_024

#: Faults per circuit in hard4's signature check.
SIGNATURE_SAMPLE = 128


#: Pipeline stages and the spans (with their children) that time them.
STAGE_SPANS = {
    "optimize": ("core.optimize",),
    "fault_sim": ("faultsim.sim",),
    "self_test": ("patterns.selftest",),
    "multi_weight": ("wrp.build_sets", "wrp.playback"),
}


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


class Pass:
    """One pass of a workload: the timed loop, its output checks and counts."""

    def __init__(self, tracer: Optional[Tracer]):
        self.tracer = tracer
        self.latencies: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.digest = hashlib.sha256()
        self.detected = 0
        self.faults = 0
        self.opt_lengths: Dict[str, int] = {}
        self.signature_checks = 0
        self.aliased = 0

    def submit(self, spec_id: str, call: Callable[[], PipelineReport]) -> Optional[PipelineReport]:
        """Time one submission; ``None`` when it raised (counted as failed)."""
        self.attempted += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.spec = spec_id
            tracer.phase = "timed"
        start = time.perf_counter()
        try:
            with maybe_span(tracer, "api.execute"):
                return call()
        except Exception as exc:  # a failed submission is counted, not fatal
            self._fail(spec_id, f"{type(exc).__name__}: {exc}")
            return None
        finally:
            self.latencies.append(time.perf_counter() - start)
            if tracer is not None:
                tracer.phase = "check"

    def check(
        self,
        spec_id: str,
        report: PipelineReport,
        expected: Optional[str] = None,
        extra: Optional[Callable[[], List[str]]] = None,
    ) -> str:
        """Run the output checks on one report; return its canonical JSON."""
        try:
            with nullcontext() if self.tracer is None else self.tracer.paused():
                canonical, errors = self._check_report(report, expected)
            if extra is not None:
                errors += extra()
        except Exception as exc:  # a crashing check fails the submission
            canonical, errors = "", [f"check raised {type(exc).__name__}: {exc}"]
        if errors:
            self._fail(spec_id, "; ".join(errors))
        return canonical

    def _check_report(self, report: PipelineReport, expected: Optional[str]) -> Tuple[str, List[str]]:
        errors: List[str] = []
        canonical = canonical_json(report.canonical_dict())
        again = PipelineReport.from_dict(report.to_dict())
        if canonical_json(again.canonical_dict()) != canonical:
            errors.append("report does not round-trip through to_dict/from_dict")
        if expected is not None and canonical != expected:
            errors.append("store hit differs from the report the spec produced cold")
        if report.optimized_length is not None and report.optimized_length > report.conventional_length:
            errors.append(
                f"optimized length {report.optimized_length} exceeds "
                f"conventional length {report.conventional_length}"
            )
        for name in ("conventional_coverage", "optimized_coverage"):
            value = getattr(report, name)
            if value is not None and not 0.0 <= value <= 100.0:
                errors.append(f"{name} {value} outside [0, 100]")
        self.digest.update(canonical.encode("utf-8"))
        result = report.optimized_experiment.result
        self.detected += len(result.first_detection)
        self.faults += len(result.faults)
        self.opt_lengths.setdefault(report.key, int(report.optimized_length))
        return canonical, errors

    def _fail(self, spec_id: str, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(f"{spec_id}: {message}")

    def signature_check(
        self, session: Session, key: str, spec: PipelineSpec, report: PipelineReport, rng: random.Random
    ) -> List[str]:
        """Sampled faults against the self test's MISR signature.

        A sampled fault the self-test pattern stream detects *aliases* when
        its signature still equals the golden one.  A fault the stream does
        not detect must reproduce the golden signature exactly.
        """
        config = spec.self_test
        selftest = session.self_test_session(
            key,
            config.n_patterns,
            weights=report.quantized_weights if config.weighted else None,
            use_lfsr=config.use_lfsr,
            misr_width=config.misr_width,
            misr_taps=config.misr_taps,
            seed=spec.stage_seed("self_test"),
        )
        faults = session.faults(key)
        sample = [faults[i] for i in sorted(rng.sample(range(len(faults)), min(SIGNATURE_SAMPLE, len(faults))))]
        detected = ParallelFaultSimulator(session.circuit(key), faults=sample).run(selftest.patterns()).first_detection
        errors = []
        for fault in sample:
            outcome = selftest.run(fault)
            self.signature_checks += 1
            if fault in detected:
                self.aliased += outcome.passed
            elif not outcome.passed:
                errors.append(f"undetected fault {fault} changed the signature")
        return errors


class SessionWorkload:
    """Specs run on sessions pre-registered during set-up (hard4, synth6k).

    Set-up builds each spec's plan, circuit, fault list and lowering on a
    :class:`~repro.Session`, so the timed phase is the pipeline alone.
    """

    def __init__(self, specs: List[PipelineSpec], tracer: Optional[Tracer], signature_rng: Optional[random.Random]):
        self.specs = specs
        self.tracer = tracer
        self.signature_rng = signature_rng
        self.prepared: List[Tuple[PipelineSpec, str, str, Session]] = []

    def setup(self) -> None:
        for spec in self.specs:
            spec_id = spec.spec_hash()[:12]
            if self.tracer is not None:
                self.tracer.spec = spec_id
            with maybe_span(self.tracer, "api.plan"):
                plan = build_plan(spec)
            session = Session.from_spec(spec)
            session.add(spec.build_circuit(), key=plan.label)
            session.lowered(plan.label)
            self.prepared.append((spec, spec_id, plan.label, session))

    def run(self, run_pass: Pass) -> None:
        for spec, spec_id, key, session in self.prepared:
            report = run_pass.submit(spec_id, lambda: execute_spec(spec, session=session))
            if report is None:
                continue
            extra = None
            if self.signature_rng is not None:
                extra = lambda: self._signature_check(run_pass, session, key, spec, report)  # noqa: E731
            run_pass.check(spec_id, report, extra=extra)

    def _signature_check(
        self, run_pass: Pass, session: Session, key: str, spec: PipelineSpec, report: PipelineReport
    ) -> List[str]:
        with maybe_span(self.tracer, "patterns.signature_check"):
            return run_pass.signature_check(session, key, spec, report, self.signature_rng)

    def store_counts(self) -> None:
        return None  # no store attached

    def teardown(self) -> None:
        self.prepared.clear()


def hard4(seed: int, tiny: bool, tracer: Optional[Tracer], tmp_dir: str) -> SessionWorkload:
    rng = _rng("hard4", seed)
    if tiny:
        circuits = ("s1", "c2670")
        fault_sim = FaultSimConfig(n_patterns=512)
        self_test = SelfTestConfig(n_patterns=256, inject_hardest=True)
        multi_weight = MultiWeightConfig(k=2)
    else:
        circuits = HARD_CIRCUITS
        fault_sim = FaultSimConfig()  # the paper budgets: 12,000 / 4,000
        self_test = SelfTestConfig(inject_hardest=True)
        multi_weight = MultiWeightConfig(k=4)
    specs = [
        PipelineSpec(
            circuit=circuit,
            seed=rng.randrange(2**31),
            fault_sim=fault_sim,
            self_test=self_test,
            multi_weight=multi_weight,
        )
        for circuit in circuits
    ]
    return SessionWorkload(specs, tracer, signature_rng=_rng("hard4-signature", seed))


def synth6k(seed: int, tiny: bool, tracer: Optional[Tracer], tmp_dir: str) -> SessionWorkload:
    netlist = dict(SYNTH_NETLIST)
    if tiny:
        netlist.update(n_inputs=24, n_gates=300)
    generator = GeneratorSpec(name="synth6k", **netlist)
    spec = PipelineSpec(
        circuit=CircuitSource.generated(generator),
        seed=_rng("synth6k", seed).randrange(2**31),
        fault_sim=FaultSimConfig(n_patterns=SYNTH_PATTERNS),
    )
    return SessionWorkload([spec], tracer, signature_rng=None)


class StoreMix:
    """Closed-loop submissions into one disk store that starts empty.

    Every circuit gets :data:`STORE_NEW_PER_CIRCUIT` new (circuit, root
    seed) pairs — the first runs fully cold, the later ones hit the stored
    optimization and recompute fault simulation — and
    :data:`STORE_HITS_PER_CIRCUIT` resubmissions of one of its earlier
    specs, which are report hits.  The seed fixes the root seeds, the order
    and which spec each resubmission repeats.
    """

    def __init__(self, seed: int, tiny: bool, tracer: Optional[Tracer], tmp_dir: str):
        self.seed = seed
        self.tiny = tiny
        self.tracer = tracer
        self.root = os.path.join(tmp_dir, f"store-{os.getpid()}")
        self.store: Optional[DiskStore] = None
        self.submissions: List[Tuple[PipelineSpec, str]] = []

    def _specs(self) -> List[PipelineSpec]:
        rng = _rng("store_mix", self.seed)
        circuits = [key for key in circuit_keys() if key != "s2"]
        new_per_circuit, hits_per_circuit = STORE_NEW_PER_CIRCUIT, STORE_HITS_PER_CIRCUIT
        if self.tiny:
            circuits, new_per_circuit, hits_per_circuit = ["c432", "c1908"], 2, 2
        fault_sim = FaultSimConfig(n_patterns=STORE_PATTERNS)
        self_test = SelfTestConfig(n_patterns=STORE_PATTERNS)
        sequence: List[PipelineSpec] = []
        for circuit in circuits:
            seeds = rng.sample(range(2**31), new_per_circuit)
            sequence += [
                PipelineSpec(circuit=circuit, seed=root, fault_sim=fault_sim, self_test=self_test)
                for root in seeds
            ]
        rng.shuffle(sequence)
        for circuit in circuits:
            originals = [spec for spec in sequence if spec.circuit == circuit]
            for _ in range(hits_per_circuit):
                original = rng.choice(originals)
                first = sequence.index(original)
                sequence.insert(rng.randint(first + 1, len(sequence)), original)
        return sequence

    def setup(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        self.store = DiskStore(self.root)
        if self.tracer is not None:
            self.tracer.attach_store(self.store)
        for spec in self._specs():
            spec_id = spec.spec_hash()[:12]
            if self.tracer is not None:
                self.tracer.spec = spec_id
            with maybe_span(self.tracer, "api.plan"):
                build_plan(spec)
            self.submissions.append((spec, spec_id))

    def run(self, run_pass: Pass) -> None:
        cold: Dict[str, str] = {}
        for spec, spec_id in self.submissions:
            report = run_pass.submit(spec_id, lambda: execute_spec(spec, store=self.store))
            if report is not None:
                canonical = run_pass.check(spec_id, report, expected=cold.get(spec_id))
                if canonical:
                    cold.setdefault(spec_id, canonical)

    def store_counts(self) -> Dict[str, float]:
        info = self.store.info()
        return {"hits": info["hits"], "misses": info["misses"], "puts": info["puts"], "bytes": info["bytes"]}

    def teardown(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


WORKLOADS = {"hard4": hard4, "synth6k": synth6k, "store_mix": StoreMix}


def backend_name() -> str:
    """The kernel backend a spec that names none resolves to."""
    return resolve_backend(None).name


# ---------------------------------------------------------------------- #
# Per-layer metrics of one traced pass
# ---------------------------------------------------------------------- #
def _distinct(spans: List[Any], key: str) -> List[Any]:
    seen: Dict[int, Any] = {}
    for span in spans:
        result = span.meta.get(key)
        if result is not None:
            seen.setdefault(id(result), (result, span.meta))
    return list(seen.values())


def _fault_patterns(result: Any, batch_size: int) -> int:
    stats = result.stats
    n_patterns = result.n_patterns
    return sum(
        size * max(0, min(batch_size, n_patterns - index * batch_size))
        for index, size in enumerate(stats.active_sizes)
    )


def layer_metrics(
    tracer: Tracer,
    run_pass: Pass,
    wall_s: float,
    stats_before: Dict[str, int],
    stats_after: Dict[str, int],
    store: Optional[Dict[str, float]],
) -> Dict[str, float]:
    """Per-layer times and counts of one traced pass (see README.md)."""
    total = tracer.total
    self_s = tracer.self_by_layer()
    timed_self = tracer.self_by_layer(phases=("timed",))
    metrics: Dict[str, float] = {}

    build = tracer.select(("faults.build",))
    metrics["faults.build_s"] = total("faults.build")
    metrics["faults.count"] = sum(span.meta.get("count", 0) for span in build)
    metrics["faults.pruned"] = sum(span.meta.get("pruned", 0) for span in tracer.select(("faults.prune",)))

    metrics["lowered.compile_s"] = total("lowered.compile")
    metrics["lowered.compiles"] = compile_count()

    cop = tracer.select(("analysis.cop",))
    cop_s = total("analysis.cop")
    metrics["analysis.cop_s"] = cop_s
    metrics["analysis.cop_calls"] = len(cop)
    metrics["analysis.cop_rows"] = sum(span.meta["rows"] for span in cop)
    metrics["analysis.net_rows_per_s"] = (
        sum(span.meta["net_rows"] for span in cop) / cop_s if cop_s > 0 else 0.0
    )

    optimize = tracer.select(("core.optimize",))
    results = [result for result, _ in _distinct(optimize, "result")]
    metrics["core.optimize_self_s"] = sum(span.self_time for span in optimize)
    metrics["core.sweeps"] = sum(result.sweeps for result in results)
    metrics["core.hard_faults"] = sum(result.n_hard_faults for result in results)
    metrics["core.quantize_s"] = total("core.quantize")

    experiments = _distinct(tracer.select(("faultsim.sim",)), "result")
    simulated = sum(exp.result.stats.faults_simulated for exp, _ in experiments)
    never_detected = sum(
        (len(exp.result.faults) - len(exp.result.first_detection)) * exp.result.stats.n_batches
        for exp, _ in experiments
    )
    sim_s = total("faultsim.sim")
    fault_patterns = sum(_fault_patterns(exp.result, meta["batch_size"]) for exp, meta in experiments)
    metrics["faultsim.sim_s"] = sim_s
    metrics["faultsim.fault_batches"] = sum(exp.result.stats.n_batches for exp, _ in experiments)
    metrics["faultsim.fault_patterns"] = fault_patterns
    metrics["faultsim.fault_patterns_per_s"] = fault_patterns / sim_s if sim_s > 0 else 0.0
    metrics["faultsim.faults_dropped"] = sum(exp.result.stats.faults_dropped for exp, _ in experiments)
    metrics["faultsim.waste_frac"] = never_detected / simulated if simulated else 0.0

    metrics["patterns.selftest_s"] = total("patterns.selftest")
    metrics["patterns.signature_checks"] = run_pass.signature_checks
    metrics["patterns.aliased"] = run_pass.aliased
    metrics["patterns.signature_check_s"] = total("patterns.signature_check", phases=("check",))

    weight_sets = [result for result, _ in _distinct(tracer.select(("wrp.build_sets",)), "result")]
    metrics["wrp.build_sets_s"] = total("wrp.build_sets")
    metrics["wrp.playback_s"] = total("wrp.playback")
    metrics["wrp.sets"] = sum(sets.k for sets in weight_sets)
    metrics["wrp.scheduled_length"] = sum(sets.multi_set_length for sets in weight_sets)

    executions = stats_after["executions"] - stats_before["executions"]
    metrics["api.plan_s"] = total("api.plan")
    metrics["api.serialize_s"] = total("api.serialize")
    metrics["api.stage_runs"] = stats_after["stage_runs"] - stats_before["stage_runs"]
    metrics["api.stage_hits"] = stats_after["stage_hits"] - stats_before["stage_hits"]
    metrics["api.report_hits"] = run_pass.attempted - executions

    store = store or {"hits": 0, "misses": 0, "puts": 0, "bytes": 0}
    lookups = store["hits"] + store["misses"]
    metrics["store.load_s"] = total("store.load")
    metrics["store.put_s"] = total("store.put")
    metrics["store.hits"] = store["hits"]
    metrics["store.misses"] = store["misses"]
    metrics["store.puts"] = store["puts"]
    metrics["store.bytes_written"] = store["bytes"]
    metrics["store.hit_ratio"] = store["hits"] / lookups if lookups else 0.0

    for layer, seconds in self_s.items():
        metrics[f"{layer}.self_s"] = seconds
    metrics["faultsim.wall_share_pct"] = 100.0 * timed_self["faultsim"] / wall_s
    metrics["core.wall_share_pct"] = 100.0 * timed_self["core"] / wall_s
    return metrics
