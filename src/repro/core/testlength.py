"""Test-length computation and hard-fault selection (SORT / NORMALIZE).

Section 4 of the paper: given the current detection probabilities, the
procedure SORT orders the fault list by increasing probability (removing known
redundancies) and NORMALIZE determines

* the minimum number ``N`` of random patterns such that the objective
  ``J_N = Σ exp(-N p_f)`` drops below the threshold ``Q`` derived from the
  required confidence, and
* the number ``nf`` of *relevant* (hardest) faults — observation (1): faults
  with comfortably higher detection probabilities contribute nothing
  numerically to the objective, so the per-input optimization only needs to
  look at the hard subset.

NORMALIZE uses the paper's lower/upper bounds ``l(z, M)`` and ``u(z, M)`` so
the sums never have to run over the full fault list, and an interval search on
``M`` (here: exponential growth followed by binary search).

:func:`joint_schedule` is NORMALIZE for several weight sets played back to
back: the per-set lengths whose *cumulative* exposure meets the confidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .objective import objective_from_confidence

__all__ = [
    "NormalizeResult",
    "sort_faults",
    "normalize",
    "required_test_length",
    "joint_schedule",
]

#: A fault whose objective term is below this fraction of the threshold Q
#: divided by the fault count is considered numerically irrelevant.
_RELEVANCE_FRACTION = 1e-6

#: Hard cap on the returned test length (prevents unbounded searches when a
#: fault is effectively undetectable); roughly "more patterns than any BIST
#: session could ever apply".
MAX_TEST_LENGTH = 10**15


@dataclass
class NormalizeResult:
    """Outcome of NORMALIZE.

    Attributes:
        test_length: minimum N with ``J_N <= Q`` (capped at
            :data:`MAX_TEST_LENGTH`).
        n_hard_faults: the paper's ``nf`` — how many of the hardest faults
            still contribute numerically to the objective at ``N``.
        objective: the objective value ``J_N`` actually achieved at ``N``.
        threshold: the threshold ``Q`` that was targeted.
        capped: True if the search hit :data:`MAX_TEST_LENGTH` (some fault is
            essentially undetectable under the current distribution).
    """

    test_length: int
    n_hard_faults: int
    objective: float
    threshold: float
    capped: bool = False


def sort_faults(
    faults: Sequence, detection_probs: Sequence[float]
) -> Tuple[List, np.ndarray, List]:
    """SORT: order faults by increasing detection probability.

    Faults with probability exactly zero are treated as (estimated) redundant
    and separated out, mirroring "all known redundancies are removed".

    Returns:
        ``(sorted_faults, sorted_probs, redundant_faults)``.
    """
    probs = np.asarray(list(detection_probs), dtype=float)
    if len(faults) != probs.size:
        raise ValueError("faults and detection probabilities differ in length")
    order = np.argsort(probs, kind="stable")
    sorted_faults = [faults[i] for i in order]
    sorted_probs = probs[order]
    detectable_mask = sorted_probs > 0.0
    redundant = [f for f, keep in zip(sorted_faults, detectable_mask) if not keep]
    kept_faults = [f for f, keep in zip(sorted_faults, detectable_mask) if keep]
    return kept_faults, sorted_probs[detectable_mask], redundant


def _objective_with_bounds(sorted_probs: np.ndarray, n_patterns: float, threshold: float) -> Tuple[float, bool]:
    """Evaluate ``J_N`` using the paper's truncation bounds.

    Returns ``(value_or_lower_bound, decided_below)`` where ``decided_below``
    is True when the upper bound ``u(z, N)`` already certifies ``J_N <= Q`` and
    False means the returned value is a lower bound ``l(z, N)`` that may or may
    not exceed ``Q`` (the caller compares it to ``Q`` itself).
    """
    n_faults = sorted_probs.size
    if n_faults == 0:
        return 0.0, True
    # z: number of leading (hardest) faults whose terms are not yet negligible.
    # exp(-N p) <= cutoff  <=>  p >= ln(1/cutoff) / N.
    cutoff = max(threshold, 1e-300) * _RELEVANCE_FRACTION / n_faults
    limit = np.log(1.0 / cutoff) / max(n_patterns, 1.0)
    z = int(np.searchsorted(sorted_probs, limit, side="right"))
    z = max(z, 1)
    with np.errstate(under="ignore"):
        lower = float(np.exp(-n_patterns * sorted_probs[:z]).sum())
    if z >= n_faults:
        return lower, lower <= threshold
    with np.errstate(under="ignore"):
        tail_bound = (n_faults - z) * float(np.exp(-n_patterns * sorted_probs[z]))
    upper = lower + tail_bound
    if upper <= threshold:
        return upper, True
    return lower, False


def normalize(
    sorted_probs: Sequence[float],
    confidence: float = 0.999,
) -> NormalizeResult:
    """NORMALIZE: minimum test length and hard-fault count for a confidence.

    Args:
        sorted_probs: detection probabilities sorted ascending, all > 0
            (produced by :func:`sort_faults`).
        confidence: required probability that every fault is detected.
    """
    probs = np.asarray(list(sorted_probs), dtype=float)
    threshold = objective_from_confidence(confidence)
    if probs.size == 0:
        return NormalizeResult(1, 0, 0.0, threshold)
    if np.any(probs <= 0.0):
        raise ValueError("normalize requires strictly positive probabilities; "
                         "remove redundant faults first (sort_faults does this)")
    if np.any(np.diff(probs) < 0.0):
        raise ValueError("probabilities must be sorted ascending")

    def below(n: float) -> bool:
        value, decided = _objective_with_bounds(probs, n, threshold)
        return value <= threshold if not decided else True

    # Exponential search for an upper bracket, then binary search for the
    # smallest integer N with J_N <= Q.
    low, high = 1, 1
    capped = False
    while not below(high):
        if high >= MAX_TEST_LENGTH:
            capped = True
            break
        low = high
        high = min(high * 4, MAX_TEST_LENGTH)
    if capped:
        n_final = MAX_TEST_LENGTH
    else:
        while low < high:
            mid = (low + high) // 2
            if below(mid):
                high = mid
            else:
                low = mid + 1
        n_final = high

    with np.errstate(under="ignore"):
        terms = np.exp(-float(n_final) * probs)
    objective = float(terms.sum())
    cutoff = max(threshold, 1e-300) * _RELEVANCE_FRACTION / probs.size
    n_hard = int(np.count_nonzero(terms > cutoff))
    n_hard = max(n_hard, 1)
    return NormalizeResult(n_final, n_hard, objective, threshold, capped)


def required_test_length(
    detection_probs: Sequence[float], confidence: float = 0.999
) -> NormalizeResult:
    """Convenience: SORT (dropping zeros) followed by NORMALIZE."""
    probs = np.asarray(list(detection_probs), dtype=float)
    positive = np.sort(probs[probs > 0.0])
    return normalize(positive, confidence)


def joint_schedule(
    probs: np.ndarray,
    confidence: float,
    start_lengths: Sequence[int],
) -> List[int]:
    """Minimum per-set lengths whose *cumulative* exposure meets a confidence.

    The single-set NORMALIZE bounds ``J_N = Σ_f exp(-N p_f) <= Q``.  When a
    session plays several weight sets in sequence the per-fault exposure is
    additive in the exponent, so the schedule objective is::

        J(N_1, ..., N_k) = Σ_f exp(-Σ_s N_s p_{f,s}) <= Q

    — every pattern a set plays counts against *every* fault, not only the
    cluster the set was optimized for.  This is exactly where the multi-set
    architecture beats the naive per-cluster sum: a set tuned for one
    cluster's hard faults still sweeps up the easy remainder of the others.

    Starting from a feasible schedule (the per-cluster requirements, doubled
    until globally feasible), each set is shaved to its minimal integer length
    by cyclic binary search.  The objective is convex in the schedule, every
    pass is monotone non-increasing, and the result is deterministic.

    Args:
        probs: ``(n_sets, n_faults)`` detection probabilities of every fault
            under each set's weights.
        confidence: required probability that every fault is detected by the
            full schedule.
        start_lengths: per-set warm-start lengths (each cluster's own
            single-set requirement).
    """
    matrix = np.asarray(probs, dtype=float)
    if matrix.ndim != 2:
        raise ValueError(f"expected a (n_sets, n_faults) matrix, got {matrix.shape}")
    n_sets = matrix.shape[0]
    if n_sets != len(start_lengths):
        raise ValueError(
            f"expected {n_sets} start lengths, got {len(start_lengths)}"
        )
    if n_sets == 0:
        raise ValueError("cannot schedule zero weight sets")
    threshold = objective_from_confidence(confidence)

    def objective(lengths: np.ndarray) -> float:
        with np.errstate(under="ignore"):
            return float(np.exp(-(lengths @ matrix)).sum())

    lengths = np.array(
        [min(max(1, int(length)), MAX_TEST_LENGTH) for length in start_lengths],
        dtype=float,
    )
    if matrix.shape[1] == 0:
        return [1] * n_sets
    # Per-cluster feasibility does not imply joint feasibility (k clusters at
    # threshold Q each can sum to k*Q); double until the schedule is feasible.
    while objective(lengths) > threshold:
        if lengths.max() >= MAX_TEST_LENGTH:
            # Some fault is essentially undetectable under every set; report
            # the capped schedule like NORMALIZE reports a capped length.
            break
        lengths = np.minimum(lengths * 2.0, MAX_TEST_LENGTH)

    for _ in range(32):
        changed = False
        for s in range(n_sets):
            low, high = 1, int(lengths[s])
            while low < high:
                mid = (low + high) // 2
                trial = lengths.copy()
                trial[s] = mid
                if objective(trial) <= threshold:
                    high = mid
                else:
                    low = mid + 1
            if high < int(lengths[s]):
                lengths[s] = high
                changed = True
        if not changed:
            break
    return [int(length) for length in lengths]
