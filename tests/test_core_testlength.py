"""Tests for SORT / NORMALIZE (test-length computation and hard-fault selection)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    MAX_TEST_LENGTH,
    normalize,
    objective_from_confidence,
    objective_value,
    required_test_length,
    sort_faults,
)
from repro.faults import Fault


class TestSort:
    def test_orders_by_probability_and_removes_zeros(self):
        faults = [Fault(i, False) for i in range(4)]
        probs = [0.5, 0.0, 0.01, 0.2]
        sorted_faults, sorted_probs, redundant = sort_faults(faults, probs)
        assert list(sorted_probs) == [0.01, 0.2, 0.5]
        assert sorted_faults[0] == faults[2]
        assert redundant == [faults[1]]

    def test_stable_for_equal_probabilities(self):
        faults = [Fault(i, False) for i in range(3)]
        sorted_faults, _, _ = sort_faults(faults, [0.5, 0.5, 0.5])
        assert sorted_faults == faults

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sort_faults([Fault(0, False)], [0.1, 0.2])


class TestNormalize:
    def test_single_fault_closed_form(self):
        """For one fault, N must satisfy exp(-N p) <= -ln(c), i.e.
        N >= ln(1/Q)/p; normalize returns the smallest such integer."""
        p = 0.01
        confidence = 0.999
        result = normalize([p], confidence)
        threshold = objective_from_confidence(confidence)
        expected = int(np.ceil(np.log(1.0 / threshold) / p))
        assert abs(result.test_length - expected) <= 1
        assert result.objective <= threshold

    def test_result_is_minimal(self):
        probs = sorted([0.004, 0.01, 0.3, 0.6])
        result = normalize(probs, 0.99)
        threshold = objective_from_confidence(0.99)
        assert objective_value(probs, result.test_length) <= threshold
        assert objective_value(probs, result.test_length - 1) > threshold

    def test_harder_faults_need_longer_tests(self):
        easy = normalize([0.1, 0.2, 0.5], 0.999)
        hard = normalize([0.0001, 0.2, 0.5], 0.999)
        assert hard.test_length > easy.test_length

    def test_higher_confidence_needs_longer_tests(self):
        probs = [0.01, 0.05]
        assert normalize(probs, 0.9999).test_length > normalize(probs, 0.9).test_length

    def test_hard_fault_count_excludes_easy_faults(self):
        probs = sorted([1e-4] * 3 + [0.5] * 100)
        result = normalize(probs, 0.999)
        assert 1 <= result.n_hard_faults <= 10

    def test_cap_reached_for_impossible_faults(self):
        result = normalize([1e-16], 0.999)
        assert result.capped
        assert result.test_length == MAX_TEST_LENGTH

    def test_rejects_unsorted_probabilities(self):
        with pytest.raises(ValueError, match="sorted"):
            normalize([0.5, 0.1], 0.999)

    def test_rejects_zero_probability(self):
        with pytest.raises(ValueError, match="positive"):
            normalize([0.0, 0.5], 0.999)

    def test_empty_fault_list(self):
        result = normalize([], 0.999)
        assert result.test_length == 1
        assert result.n_hard_faults == 0

    @given(
        probs=st.lists(st.floats(1e-4, 0.9), min_size=1, max_size=30),
        confidence=st.sampled_from([0.9, 0.99, 0.999]),
    )
    @settings(max_examples=60)
    def test_returned_length_meets_threshold(self, probs, confidence):
        ordered = sorted(probs)
        result = normalize(ordered, confidence)
        threshold = objective_from_confidence(confidence)
        assert objective_value(ordered, result.test_length) <= threshold * (1 + 1e-5)
        assert 1 <= result.n_hard_faults <= len(ordered)


class TestRequiredTestLength:
    def test_drops_zero_probability_faults(self):
        result = required_test_length([0.0, 0.1, 0.5], 0.999)
        finite = required_test_length([0.1, 0.5], 0.999)
        assert result.test_length == finite.test_length

    def test_matches_paper_scale_for_comparator_style_probability(self):
        """A fault with detection probability 2^-24 (the S1 equality chain)
        needs on the order of 10^8 patterns — the magnitude of Table 1."""
        result = required_test_length([2.0**-24], 0.999)
        assert 10**7 < result.test_length < 10**9


class TestJointSchedule:
    def test_partitioned_sessions_meet_confidence_jointly(self):
        from repro.analysis.compiled import BatchedCopEstimator
        from repro.bench.areas.ablations import conflicting_detectors_circuit
        from repro.core import optimize_partitioned
        from repro.faults import collapsed_fault_list

        circuit = conflicting_detectors_circuit(10)
        faults = collapsed_fault_list(circuit)
        partitioned = optimize_partitioned(circuit, faults=faults, max_sessions=2, max_sweeps=6)
        assert partitioned.n_sessions == 2
        estimator = BatchedCopEstimator()
        probs = np.vstack(
            [
                estimator.detection_probabilities(circuit, faults, session.weights)
                for session in partitioned.sessions
            ]
        )
        lengths = np.array([session.test_length for session in partitioned.sessions])
        exposure = (lengths @ probs)[probs.max(axis=0) > 0.0]
        # The sessions played back to back reach the confidence as a whole.
        assert np.exp(-exposure).sum() <= objective_from_confidence(0.999)
        assert partitioned.total_test_length == int(lengths.sum())
