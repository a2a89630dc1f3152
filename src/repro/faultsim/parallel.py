"""Fault-parallel x pattern-parallel fault simulation with fault dropping.

This is the workhorse behind Tables 2 and 4 and Figure 2 of the paper: given a
stream of (weighted) random patterns, determine which stuck-at faults are
detected and after how many patterns.  The simulator runs on the compiled
structure-of-arrays engine (:mod:`repro.simulation.compiled`), which itself
consumes the shared lowered-circuit IR (:mod:`repro.lowered`) — creating a
simulator never re-walks the netlist; it picks up the cached lowering (level
kernels, fan-out cones, fanout-free regions) every other engine over the
circuit uses:

* the fault-free circuit is simulated bit-parallel (64 patterns per word)
  through vectorized per-level kernels,
* each batch's still-undetected faults go to the engine in one call, as the
  active fault partitions
  (:meth:`~repro.simulation.compiled.CompiledCircuit.detection_words`).  It
  *traces* every fault to the root of its fanout-free region on the good
  values — activation, then non-controlling side inputs along the region's
  single path, computed once per batch for all nets — and *propagates
  explicitly* only one flip per distinct root, in groups of root flips that
  share one wide value matrix.  Tracing is exact because a region has no
  reconvergence: the fault's effect reaches the rest of the circuit only
  through the root,
* a fault is detected by every pattern for which it flips its root and that
  flip changes some primary output, and detected faults are dropped from
  subsequent batches.

The per-fault interpreted baseline this replaced is preserved as
:class:`repro.faultsim.legacy.LegacyParallelFaultSimulator` and is
differential-tested against this implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..circuit.netlist import Circuit
from ..faults.collapse import collapsed_fault_list
from ..faults.model import Fault
from ..lowered import FaultArrays
from ..simulation.compiled import (
    compile_circuit,
    first_detection_indices,
    popcount_words,
)
from ..simulation.logicsim import WORD_BITS, pack_patterns

__all__ = ["ParallelFaultSimulator", "FaultSimResult", "FaultSimStats"]

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


@dataclass(frozen=True)
class FaultSimStats:
    """Observability counters of one :meth:`ParallelFaultSimulator.run_stream`.

    These make the PPSFP fault-dropping machinery *measurable*: partitioning
    gains show up as shrinking :attr:`active_sizes` and a falling
    :attr:`faults_simulated` total rather than being inferred from wall time.

    Attributes:
        partition_size: configured PPSFP partition size (``None`` = one
            partition spanning the whole active set).
        n_batches: pattern batches simulated against at least one live fault.
        faults_simulated: total fault-batch simulations, i.e. the sum of the
            active-set size over all batches.
        faults_dropped: faults physically removed from the active partition
            arrays by inter-batch compaction.
        active_sizes: active-set size at the start of each simulated batch.
    """

    partition_size: Optional[int]
    n_batches: int
    faults_simulated: int
    faults_dropped: int
    active_sizes: Tuple[int, ...]

    def to_dict(self) -> Dict:
        """JSON-serializable artifact dict (job-spec API)."""
        from ..api.serialize import tagged_dict

        return tagged_dict(
            "fault_sim_stats",
            {
                # Constant wire key of the removed engine selection: stored
                # blobs still load and report dicts stay byte-identical.
                "backend": "numpy",
                "partition_size": self.partition_size,
                "n_batches": int(self.n_batches),
                "faults_simulated": int(self.faults_simulated),
                "faults_dropped": int(self.faults_dropped),
                "active_sizes": [int(size) for size in self.active_sizes],
            },
        )

    @classmethod
    def from_dict(cls, data: Dict) -> "FaultSimStats":
        """Rebuild stats from :meth:`to_dict` output (validated)."""
        from ..api.serialize import untag

        payload = untag(
            data,
            "fault_sim_stats",
            required=(
                "backend",
                "n_batches",
                "faults_simulated",
                "faults_dropped",
                "active_sizes",
            ),
            optional=("partition_size",),
        )
        partition_size = payload["partition_size"]
        return cls(
            partition_size=None if partition_size is None else int(partition_size),
            n_batches=int(payload["n_batches"]),
            faults_simulated=int(payload["faults_simulated"]),
            faults_dropped=int(payload["faults_dropped"]),
            active_sizes=tuple(int(size) for size in payload["active_sizes"]),
        )

    def merged_with(self, other: "FaultSimStats") -> "FaultSimStats":
        """Counters of two back-to-back runs combined."""
        return FaultSimStats(
            partition_size=(
                self.partition_size
                if self.partition_size == other.partition_size
                else None
            ),
            n_batches=self.n_batches + other.n_batches,
            faults_simulated=self.faults_simulated + other.faults_simulated,
            faults_dropped=self.faults_dropped + other.faults_dropped,
            active_sizes=self.active_sizes + other.active_sizes,
        )


@dataclass
class FaultSimResult:
    """Result of a fault simulation run.

    Attributes:
        faults: the faults that were simulated (collapsed list).
        first_detection: maps each detected fault to the (0-based) index of the
            first pattern that detects it.
        n_patterns: total number of patterns applied.
        stats: optional run counters (:class:`FaultSimStats`).  Excluded from
            equality — two runs are "the same result" when they agree on the
            detection outcome, whatever partitioning produced it.
    """

    faults: List[Fault]
    first_detection: Dict[Fault, int]
    n_patterns: int
    stats: Optional[FaultSimStats] = field(default=None, compare=False)

    @property
    def detected(self) -> List[Fault]:
        return [f for f in self.faults if f in self.first_detection]

    @property
    def undetected(self) -> List[Fault]:
        return [f for f in self.faults if f not in self.first_detection]

    @property
    def fault_coverage(self) -> float:
        """Fraction of simulated faults detected by the full pattern set."""
        if not self.faults:
            return 1.0
        return len(self.first_detection) / len(self.faults)

    def coverage_at(self, n_patterns: int) -> float:
        """Fault coverage achieved by the first ``n_patterns`` patterns."""
        if not self.faults:
            return 1.0
        detected = sum(1 for idx in self.first_detection.values() if idx < n_patterns)
        return detected / len(self.faults)

    def coverage_curve(self, points: Sequence[int]) -> List[Tuple[int, float]]:
        """Fault coverage after each pattern count in ``points``."""
        return [(n, self.coverage_at(n)) for n in points]

    def to_dict(self) -> Dict:
        """JSON-serializable artifact dict (job-spec API).

        Faults are encoded once as ``[net, stuck_value, gate]`` triples and
        the first-detection map as ``[fault_index, pattern_index]`` pairs
        into that list, so the artifact stays compact while the decoded
        result is exactly equal to the original (same faults, same indices).
        """
        from ..api.serialize import tagged_dict

        index_of = {fault: i for i, fault in enumerate(self.faults)}
        payload = {
            "faults": [fault.to_list() for fault in self.faults],
            "first_detection": sorted(
                [index_of[fault], int(idx)]
                for fault, idx in self.first_detection.items()
            ),
            "n_patterns": int(self.n_patterns),
        }
        if self.stats is not None:
            payload["stats"] = self.stats.to_dict()
        return tagged_dict("fault_sim_result", payload)

    @classmethod
    def from_dict(cls, data: Dict) -> "FaultSimResult":
        """Rebuild a result from :meth:`to_dict` output (validated)."""
        from ..api.serialize import untag

        payload = untag(
            data,
            "fault_sim_result",
            required=("faults", "first_detection", "n_patterns"),
            optional=("stats",),
        )
        faults = [Fault.from_list(entry) for entry in payload["faults"]]
        first_detection = {
            faults[int(fault_index)]: int(pattern_index)
            for fault_index, pattern_index in payload["first_detection"]
        }
        stats = payload["stats"]
        return cls(
            faults,
            first_detection,
            int(payload["n_patterns"]),
            stats=None if stats is None else FaultSimStats.from_dict(stats),
        )

    def merged_with(self, other: "FaultSimResult") -> "FaultSimResult":
        """Combine two runs over the *same* fault list applied back to back.

        ``other``'s patterns are assumed to follow this result's patterns, so
        its first-detection indices are shifted by ``self.n_patterns``.
        """
        if self.faults != other.faults:
            raise ValueError("results cover different fault lists")
        combined = dict(self.first_detection)
        for fault, idx in other.first_detection.items():
            if fault not in combined:
                combined[fault] = idx + self.n_patterns
        stats = None
        if self.stats is not None and other.stats is not None:
            stats = self.stats.merged_with(other.stats)
        return FaultSimResult(
            self.faults,
            combined,
            self.n_patterns + other.n_patterns,
            stats=stats,
        )


class ParallelFaultSimulator:
    """Fault-parallel x pattern-parallel fault simulator (compiled engine).

    Args:
        circuit: circuit under test.
        faults: fault list; defaults to the collapsed stuck-at list.
        fault_group: number of fanout-free-region root flips propagated
            together per group; ``None``, the only size the pipeline uses,
            picks the adaptive one
            (:func:`~repro.simulation.compiled.flip_group_size`).  Detection
            results never depend on it; tests fix it to put group
            boundaries where they want them.
        partition_size: PPSFP-style fault partition size for
            :meth:`run_stream` — the active fault set is processed in
            partitions of at most this many faults, and detected faults are
            physically compacted out of the partition arrays between
            batches.  ``None`` keeps one partition spanning the active set.
            Detection results are invariant under this choice.
    """

    def __init__(
        self,
        circuit: Circuit,
        faults: Optional[Sequence[Fault]] = None,
        fault_group: Optional[int] = None,
        partition_size: Optional[int] = None,
    ):
        self.circuit = circuit
        self.faults: List[Fault] = (
            list(faults) if faults is not None else collapsed_fault_list(circuit)
        )
        self.fault_group = fault_group
        if partition_size is not None and partition_size < 1:
            raise ValueError(f"partition_size must be positive, got {partition_size!r}")
        self.partition_size = partition_size
        # One compile per circuit structure process-wide: the engine (and
        # the lowering underneath it) comes from the content-addressed cache.
        self._engine = compile_circuit(circuit)
        self.lowered = self._engine.lowered
        self._arrays = FaultArrays.from_faults(self.faults)

    def _site_level_order(self) -> np.ndarray:
        """Fault indices stably sorted by fault-site logic level.

        Partitions of nearby faults share fanout-free regions and fan-out
        cones.  The order does not affect results, only locality.
        """
        return np.argsort(self._engine.net_level[self._arrays.net], kind="stable")

    # ------------------------------------------------------------------ #
    # Public entry points
    # ------------------------------------------------------------------ #
    def run(
        self,
        patterns: np.ndarray,
        drop_detected: bool = True,
        batch_size: int = 2048,
    ) -> FaultSimResult:
        """Fault-simulate a pattern matrix.

        Args:
            patterns: boolean array ``(n_patterns, n_inputs)``.
            drop_detected: drop faults from later batches once detected
                (the normal mode; disable only for diagnostics).
            batch_size: patterns per bit-parallel batch (rounded up to a
                multiple of 64 internally).

        Returns:
            a :class:`FaultSimResult` with first-detection indices.
        """
        return self.run_stream(
            [np.asarray(patterns, dtype=bool)],
            drop_detected=drop_detected,
            batch_size=batch_size,
        )

    def run_stream(
        self,
        chunks: Iterable[np.ndarray],
        drop_detected: bool = True,
        batch_size: int = 2048,
        target_coverage: Optional[float] = None,
    ) -> FaultSimResult:
        """Fault-simulate a stream of pattern chunks.

        Detection results are identical to materializing the stream into one
        matrix and calling :meth:`run` — chunk and batch boundaries never
        affect per-pattern detection — but only one chunk is held in memory
        at a time, and the stream can stop early once a coverage target is
        reached.

        Args:
            chunks: iterable of boolean pattern matrices applied back to
                back (e.g. ``WeightedPatternGenerator.generate_stream``).
            drop_detected: drop faults from later batches once detected.
            batch_size: patterns per bit-parallel batch.
            target_coverage: optional fault-coverage fraction; when reached
                (checked after each chunk) the remaining chunks are not
                consumed and :attr:`FaultSimResult.n_patterns` reflects only
                the patterns actually applied.  ``None`` consumes the whole
                stream, matching :meth:`run` exactly.

        Returns:
            a :class:`FaultSimResult` with first-detection indices, the
            number of patterns consumed from the stream and the run's
            :class:`FaultSimStats` counters.
        """
        engine = self._engine
        n_faults = len(self.faults)
        # PPSFP active set: fault indices, site-level sorted, physically
        # compacted between batches — dropped faults vanish from the arrays
        # instead of being masked, so later batches never touch them.
        active = self._site_level_order()
        first_det = np.full(n_faults, -1, dtype=np.int64)
        applied = 0
        n_batches = 0
        faults_simulated = 0
        faults_dropped = 0
        active_sizes: List[int] = []

        for chunk in chunks:
            chunk = np.asarray(chunk, dtype=bool)
            chunk_len = chunk.shape[0]
            if active.size:
                for start in range(0, chunk_len, batch_size):
                    if active.size == 0:
                        break
                    batch = chunk[start : start + batch_size]
                    batch_len = batch.shape[0]
                    n_words = (batch_len + WORD_BITS - 1) // WORD_BITS
                    good = engine.simulate_words(pack_patterns(batch))
                    n_batches += 1
                    active_sizes.append(int(active.size))
                    faults_simulated += int(active.size)
                    partition_size = (
                        self.partition_size
                        if self.partition_size is not None
                        else int(active.size)
                    )
                    partitions = [
                        active[p_start : p_start + partition_size]
                        for p_start in range(0, int(active.size), partition_size)
                    ]
                    detections = engine.detection_words(
                        [self._arrays.take(partition) for partition in partitions],
                        good,
                        _valid_mask(batch_len, n_words),
                        self.fault_group,
                    )
                    for partition, detection in zip(partitions, detections):
                        firsts = first_detection_indices(detection)
                        hit = firsts >= 0
                        if hit.any():
                            # Without dropping a fault stays active after
                            # detection; never let a later batch overwrite
                            # the first index.
                            hit_idx = partition[hit]
                            fresh = first_det[hit_idx] < 0
                            first_det[hit_idx[fresh]] = (
                                applied + start + firsts[hit][fresh]
                            )
                    if drop_detected:
                        before = int(active.size)
                        active = active[first_det[active] < 0]
                        faults_dropped += before - int(active.size)
            applied += chunk_len
            if (
                target_coverage is not None
                and n_faults
                and int((first_det >= 0).sum()) / n_faults >= target_coverage
            ):
                break
        first_detection = {
            self.faults[fi]: int(first_det[fi])
            for fi in range(n_faults)
            if first_det[fi] >= 0
        }
        stats = FaultSimStats(
            partition_size=self.partition_size,
            n_batches=n_batches,
            faults_simulated=faults_simulated,
            faults_dropped=faults_dropped,
            active_sizes=tuple(active_sizes),
        )
        return FaultSimResult(list(self.faults), first_detection, applied, stats=stats)

    def detection_counts(
        self, patterns: np.ndarray, batch_size: int = 2048
    ) -> np.ndarray:
        """Number of patterns detecting each fault (no fault dropping).

        Dividing by the number of patterns yields the Monte-Carlo estimate of
        the detection probabilities ``p_f(X)`` used as a validation estimator
        for the PROTEST-style analysis.
        """
        patterns = np.asarray(patterns, dtype=bool)
        n_patterns = patterns.shape[0]
        engine = self._engine
        counts = np.zeros(len(self.faults), dtype=np.int64)
        for start in range(0, n_patterns, batch_size):
            batch = patterns[start : start + batch_size]
            batch_len = batch.shape[0]
            n_words = (batch_len + WORD_BITS - 1) // WORD_BITS
            (detection,) = engine.detection_words(
                [self._arrays],
                engine.simulate_words(pack_patterns(batch)),
                _valid_mask(batch_len, n_words),
                self.fault_group,
            )
            counts += popcount_words(detection)
        return counts

    def detects(self, fault: Fault, pattern: Sequence[bool]) -> bool:
        """True if a single pattern detects ``fault`` (convenience for tests)."""
        result = ParallelFaultSimulator(self.circuit, [fault]).run(
            np.asarray([pattern], dtype=bool)
        )
        return fault in result.first_detection


def _valid_mask(n_patterns: int, n_words: int) -> np.ndarray:
    mask = np.full(n_words, _ALL_ONES, dtype=np.uint64)
    remainder = n_patterns % WORD_BITS
    if remainder:
        mask[-1] = (np.uint64(1) << np.uint64(remainder)) - np.uint64(1)
    return mask


def _first_set_bit(words: np.ndarray) -> int:
    """Index of the first set bit in a little-endian word array."""
    for wi, word in enumerate(words):
        value = int(word)
        if value:
            return wi * WORD_BITS + (value & -value).bit_length() - 1
    raise ValueError("no bit set")
