"""Fault-set partitioning: multiple weight sets (paper section 5.3).

The paper notes a limitation of a single optimized distribution: when two
faults both have very low detection probabilities *and* their test sets are far
apart in Hamming distance, no single distribution serves both.  "The problem
can be solved by partitioning the fault set, and by computing different optimal
input probabilities for each part" — proposed there but left unimplemented
("such pathological circuits didn't occur").  This module implements that
extension:

1. optimize a single distribution for the whole fault set (the baseline the
   partitioned test has to beat),
2. identify the faults that remain hard under it,
3. group those hard faults by their *direction signature* — for every primary
   input, does raising the input probability help or hurt the fault?  Faults
   with opposing signatures are exactly the conflicting pairs of section 5.3,
4. optimize one dedicated distribution per group,
5. assign every fault to the session that detects it best, drop sessions
   that no fault chose, and size the rest *jointly*
   (:func:`~repro.core.testlength.joint_schedule`): the overall test applies
   the sessions back to back, so every session's patterns count against
   every fault, and the total meets the confidence as a whole.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..analysis.compiled import BatchedCopEstimator
from ..analysis.detection import (
    DetectionProbabilityEstimator,
    batch_detection_probabilities,
    cofactor_batch,
)
from ..circuit.netlist import Circuit
from ..faults.collapse import collapsed_fault_list
from ..faults.model import Fault
from .optimizer import OptimizationResult, WeightOptimizer
from .testlength import joint_schedule, normalize, sort_faults

__all__ = ["WeightSession", "PartitionedResult", "optimize_partitioned"]


@dataclass
class WeightSession:
    """One weight set of a partitioned test together with its target faults."""

    weights: np.ndarray
    test_length: int
    target_faults: List[Fault]
    optimization: OptimizationResult


@dataclass
class PartitionedResult:
    """A multi-distribution random test.

    Attributes:
        sessions: the individual weight sets, in application order.
        total_test_length: sum of the per-session test lengths.
        single_session_length: test length the best *single* distribution found
            by the plain optimizer would need (for comparison).
        single_session: the underlying single-distribution optimization result.
    """

    sessions: List[WeightSession]
    total_test_length: int
    single_session_length: int
    single_session: OptimizationResult

    @property
    def n_sessions(self) -> int:
        return len(self.sessions)

    @property
    def improvement_over_single(self) -> float:
        """Factor by which partitioning shortens the test (>1 when it helps)."""
        if self.total_test_length <= 0:
            return float("inf")
        return self.single_session_length / self.total_test_length


def _direction_signatures(
    circuit: Circuit,
    faults: Sequence[Fault],
    estimator: DetectionProbabilityEstimator,
    weights: np.ndarray,
) -> np.ndarray:
    """Sign of ``p_f(X,1|i) - p_f(X,0|i)`` for every (fault, input) pair.

    +1 means raising the input probability helps the fault, -1 means it hurts;
    conflicting faults have strongly anti-correlated signature rows.  All
    ``2 x n_inputs`` cofactor analyses run as one batch (row-wise input pins),
    exactly like the optimizer's PREPARE step.
    """
    batch, overrides = cofactor_batch(circuit, weights)
    rows = batch_detection_probabilities(
        circuit, list(faults), batch, estimator, overrides
    )
    return np.sign(rows[1::2] - rows[0::2]).T


def _group_by_signature(signatures: np.ndarray, max_groups: int) -> List[List[int]]:
    """Greedy clustering of signature rows into at most ``max_groups`` groups."""
    groups: List[List[int]] = []
    centroids: List[np.ndarray] = []
    for index in range(signatures.shape[0]):
        signature = signatures[index]
        best_group = None
        best_agreement = -np.inf
        for gi, centroid in enumerate(centroids):
            agreement = float(np.dot(signature, centroid))
            if agreement > best_agreement:
                best_agreement = agreement
                best_group = gi
        if best_group is not None and (best_agreement >= 0.0 or len(groups) >= max_groups):
            groups[best_group].append(index)
            centroids[best_group] = centroids[best_group] + signature
        else:
            groups.append([index])
            centroids.append(signature.copy())
    return groups


def optimize_partitioned(
    circuit: Circuit,
    faults: Optional[Sequence[Fault]] = None,
    estimator: Optional[DetectionProbabilityEstimator] = None,
    confidence: float = 0.999,
    max_sessions: int = 4,
    min_hard_faults: int = 8,
    **optimizer_kwargs,
) -> PartitionedResult:
    """Compute a partitioned (multi-distribution) weighted random test.

    Args:
        circuit: circuit under test.
        faults: fault list (defaults to the collapsed stuck-at list).
        estimator: detection probability estimator shared by all sessions.
        confidence: required probability that the whole multi-session test
            detects every fault.
        max_sessions: maximum number of weight sets.
        min_hard_faults: how many of the hardest faults (under the single
            optimized distribution) are considered for partitioning at least.
        optimizer_kwargs: forwarded to :class:`WeightOptimizer` (``alpha``,
            ``max_sweeps``, ``bounds`` ...).
    """
    estimator = estimator if estimator is not None else BatchedCopEstimator()
    all_faults: List[Fault] = (
        list(faults) if faults is not None else collapsed_fault_list(circuit)
    )

    # Step 1: the single-distribution baseline.
    single_optimizer = WeightOptimizer(
        circuit, faults=all_faults, estimator=estimator, confidence=confidence, **optimizer_kwargs
    )
    single = single_optimizer.optimize()

    def _session_for(weights: np.ndarray, optimization: OptimizationResult) -> WeightSession:
        return WeightSession(
            weights=weights,
            test_length=optimization.test_length,
            target_faults=list(all_faults),
            optimization=optimization,
        )

    if max_sessions <= 1:
        session = _session_for(single.weights, single)
        return PartitionedResult([session], single.test_length, single.test_length, single)

    # Step 2: the faults still hard under the single distribution.
    probs_single = estimator.detection_probabilities(circuit, all_faults, single.weights)
    sorted_faults, sorted_probs, _ = sort_faults(all_faults, probs_single)
    if sorted_probs.size == 0:
        session = _session_for(single.weights, single)
        return PartitionedResult([session], single.test_length, single.test_length, single)
    norm = normalize(sorted_probs, confidence)
    n_hard = max(min(norm.n_hard_faults, len(sorted_faults)), min(min_hard_faults, len(sorted_faults)))
    hard_faults = sorted_faults[:n_hard]

    # Step 3: group the hard faults by direction signature.
    signatures = _direction_signatures(circuit, hard_faults, estimator, single.weights)
    groups = _group_by_signature(signatures, max_sessions)

    # Step 4: one dedicated distribution per group.
    session_results: List[OptimizationResult] = []
    for group in groups:
        group_faults = [hard_faults[i] for i in group]
        optimizer = WeightOptimizer(
            circuit,
            faults=group_faults,
            estimator=estimator,
            confidence=confidence,
            **optimizer_kwargs,
        )
        session_results.append(optimizer.optimize(initial_weights=single.weights))

    # Step 5: assign every fault to its best session and size the sessions.
    per_session_probs = [
        estimator.detection_probabilities(circuit, all_faults, result.weights)
        for result in session_results
    ]
    prob_matrix = np.vstack(per_session_probs)  # (n_sessions, n_faults)
    assignment = np.argmax(prob_matrix, axis=0)

    # Each kept session warm-starts from its members' own requirement; the
    # joint schedule then counts every session's patterns against every
    # fault (faults no session detects are redundant under all of them).
    kept = [s for s in range(len(session_results)) if np.any(assignment == s)]
    start_lengths = []
    for session_index in kept:
        member_probs = prob_matrix[session_index, assignment == session_index]
        positive = np.sort(member_probs[member_probs > 0.0])
        start_lengths.append(normalize(positive, confidence).test_length)
    detectable = prob_matrix.max(axis=0) > 0.0
    lengths = joint_schedule(
        prob_matrix[kept][:, detectable], confidence, start_lengths
    )
    sessions = [
        WeightSession(
            weights=session_results[s].weights,
            test_length=length,
            target_faults=[all_faults[i] for i in np.nonzero(assignment == s)[0]],
            optimization=session_results[s],
        )
        for s, length in zip(kept, lengths)
    ]

    # Fall back to the single distribution if partitioning did not help.
    total = int(sum(lengths))
    if total >= single.test_length:
        sessions = [_session_for(single.weights, single)]
        total = single.test_length
    return PartitionedResult(
        sessions=sessions,
        total_test_length=total,
        single_session_length=single.test_length,
        single_session=single,
    )
