"""Differential suite: the one kernel engine against its scalar oracles.

COP analysis and fault simulation run on the vectorized numpy kernels of
:mod:`repro.simulation.compiled` and :mod:`repro.analysis.compiled`.  On every
registry circuit and on seeded synthetic netlists their results must equal
the independent reference implementations *exactly*:

* word-domain logic values vs. the scalar evaluator
  (:func:`repro.simulation.evaluate`), on every net;
* fault-detection words vs. the per-fault interpreted simulator
  (:class:`repro.faultsim.LegacyParallelFaultSimulator`) and, on a sample,
  the scalar fault injector (:func:`repro.faultsim.serial.fault_detected_by`);
* float64 COP signal probabilities (with a PREPARE-style pinned input),
  net/pin observabilities and detection probabilities vs. the scalar
  :mod:`repro.analysis` path.

The same file checks the :mod:`repro.backends` shim that names the engine,
and that specs written while a backend was selectable still decode.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from repro.analysis import (
    CopDetectionEstimator,
    compile_cop,
    observabilities,
    signal_probabilities,
)
from repro.api.serialize import SchemaError
from repro.api.spec import AnalysisConfig, FaultSimConfig
from repro.backends import ENGINE_NAME, resolve_backend
from repro.circuits.generator import GeneratorSpec, generate_circuit
from repro.circuits.registry import build_circuit, circuit_keys
from repro.faults import collapsed_fault_list, full_fault_list
from repro.faultsim import LegacyParallelFaultSimulator, ParallelFaultSimulator
from repro.faultsim.serial import fault_detected_by
from repro.lowered import compile_lowered
from repro.simulation import compile_circuit, evaluate, pack_patterns
from repro.simulation.compiled import first_detection_indices, popcount_words

#: Seeded synthetic netlists run alongside the registry circuits.
SYNTH_SPECS = (
    GeneratorSpec(n_inputs=8, n_gates=40, depth=6, seed=101, name="synth40"),
    GeneratorSpec(
        n_inputs=6, n_gates=25, depth=5, min_fanin=1, max_fanin=3, seed=404, name="synth25"
    ),
    GeneratorSpec(n_inputs=12, n_gates=120, depth=10, seed=202, name="synth120"),
    GeneratorSpec(n_inputs=10, n_gates=80, depth=8, max_fanin=5, seed=505, name="synth80"),
    GeneratorSpec(n_inputs=16, n_gates=300, depth=12, seed=303, name="synth300"),
    GeneratorSpec(n_inputs=20, n_gates=500, depth=14, seed=606, name="synth500"),
)

DIFFERENTIAL_LABELS = tuple(circuit_keys()) + tuple(s.name for s in SYNTH_SPECS)


@lru_cache(maxsize=None)
def _circuit(label):
    for spec in SYNTH_SPECS:
        if spec.name == label:
            return generate_circuit(spec)
    return build_circuit(label)


def _patterns(circuit, n_patterns, seed=5):
    rng = np.random.default_rng(seed)
    return rng.random((n_patterns, circuit.n_inputs)) < 0.5


def _strided(faults, limit):
    if len(faults) <= limit:
        return list(faults)
    return list(faults[:: max(1, len(faults) // limit)])


def _budget(circuit):
    """(n_patterns, fault limit) scaled down for the big circuits."""
    if circuit.n_gates > 1000:
        return 96, 48
    if circuit.n_gates > 500:
        return 128, 96
    return 130, 120


def _valid_mask(n_patterns, n_words):
    """Per-word mask of the bits that hold real patterns."""
    mask = np.full(n_words, np.uint64(0xFFFFFFFFFFFFFFFF), dtype=np.uint64)
    tail = n_patterns % 64
    if tail:
        mask[-1] = np.uint64((1 << tail) - 1)
    return mask


def _bit(words, pattern):
    return bool((int(words[pattern // 64]) >> (pattern % 64)) & 1)


@pytest.mark.parametrize("label", DIFFERENTIAL_LABELS)
class TestDifferential:
    def test_logic_simulation_matches_scalar_evaluator(self, label):
        circuit = _circuit(label)
        n_patterns, _ = _budget(circuit)
        patterns = _patterns(circuit, n_patterns)
        words = compile_circuit(circuit).simulate_words(pack_patterns(patterns))
        for p, pattern in enumerate(patterns):
            values = evaluate(circuit, list(pattern))
            for net in range(circuit.n_nets):
                assert _bit(words[net], p) == values[net], (p, net)

    def test_fault_detection_matches_reference_simulators(self, label):
        circuit = _circuit(label)
        n_patterns, limit = _budget(circuit)
        patterns = _patterns(circuit, n_patterns, seed=7)
        engine = compile_circuit(circuit)
        words = pack_patterns(patterns)
        good = engine.simulate_words(words)
        n_words = words.shape[1]
        # The full (uncollapsed) list exercises branch-fault pin injection.
        for faults in (
            _strided(collapsed_fault_list(circuit), limit),
            _strided(full_fault_list(circuit), limit),
        ):
            detection = engine.fault_batch_detection(
                faults, good, n_words, _valid_mask(n_patterns, n_words)
            )
            legacy = LegacyParallelFaultSimulator(circuit, faults)
            assert np.array_equal(
                popcount_words(detection), legacy.detection_counts(patterns)
            )
            reference = legacy.run(patterns, drop_detected=False)
            first = first_detection_indices(detection)
            for i, fault in enumerate(faults):
                expected = reference.first_detection.get(fault, -1)
                assert int(first[i]) == expected, fault
            for i, fault in enumerate(faults[:12]):
                for p in range(6):
                    assert _bit(detection[i], p) == fault_detected_by(
                        circuit, fault, list(patterns[p])
                    ), (fault, p)

    def test_cop_analysis_matches_scalar_path(self, label):
        circuit = _circuit(label)
        engine = compile_cop(circuit)
        rng = np.random.default_rng(11)
        weights = rng.uniform(0.05, 0.95, size=(3, circuit.n_inputs))
        # One row pins an input: the PREPARE cofactor path must match too.
        overrides = [None, {circuit.inputs[0]: 1.0}, None]
        probs = engine.signal_probabilities_batch(weights, overrides)
        net_obs, pin_obs = engine.observabilities_batch(probs)
        for row in range(weights.shape[0]):
            expected = signal_probabilities(circuit, weights[row], overrides[row])
            assert np.array_equal(probs[row], expected)
            scalar = observabilities(circuit, expected)
            assert np.array_equal(net_obs[row], scalar.net)
            for (gate, position), value in scalar.pin.items():
                assert pin_obs[row, engine.pin_slot_of(gate, position)] == value

    def test_detection_probabilities_match_scalar_estimator(self, label):
        circuit = _circuit(label)
        engine = compile_cop(circuit)
        _, limit = _budget(circuit)
        rng = np.random.default_rng(13)
        weights = rng.uniform(0.05, 0.95, size=(2, circuit.n_inputs))
        scalar = CopDetectionEstimator()
        for faults in (
            _strided(collapsed_fault_list(circuit), limit),
            _strided(full_fault_list(circuit), limit),
        ):
            batch = engine.detection_probabilities_batch(faults, engine.analyze(weights))
            for row in range(weights.shape[0]):
                expected = scalar.detection_probabilities(circuit, faults, weights[row])
                assert np.array_equal(batch[row], expected)


@pytest.mark.parametrize("label", ("s1", "c432", "synth40"))
def test_run_matches_legacy_simulator_end_to_end(label):
    circuit = _circuit(label)
    patterns = _patterns(circuit, 320, seed=3)
    compiled = ParallelFaultSimulator(circuit).run(patterns, batch_size=128)
    legacy = LegacyParallelFaultSimulator(circuit).run(patterns, batch_size=128)
    assert compiled == legacy
    assert compiled.stats.to_dict()["backend"] == ENGINE_NAME


def test_simulation_and_analysis_share_one_lowering():
    circuit = _circuit("c432")
    lowered = compile_lowered(circuit)
    assert compile_circuit(circuit).lowered is lowered
    assert compile_cop(circuit).lowered is lowered
    assert compile_lowered(circuit) is lowered


class TestEngineName:
    def test_default_is_the_numpy_engine(self):
        assert resolve_backend().name == ENGINE_NAME == "numpy"

    def test_engine_resolves_by_name(self):
        assert resolve_backend("numpy").name == ENGINE_NAME

    @pytest.mark.parametrize("name", ["numba", "cuda", ""])
    def test_other_names_rejected(self, name):
        with pytest.raises(ValueError, match="only engine"):
            resolve_backend(name)


@pytest.mark.parametrize("config_cls", [AnalysisConfig, FaultSimConfig])
class TestLegacyBackendWireFields:
    def test_written_as_constants(self, config_cls):
        payload = config_cls().to_dict()
        assert payload["backend"] is None
        assert payload["allow_fallback"] is False
        assert not hasattr(config_cls(), "backend")
        assert not hasattr(config_cls(), "allow_fallback")

    @pytest.mark.parametrize("backend", [None, "numpy", "numba"])
    @pytest.mark.parametrize("allow_fallback", [False, True])
    def test_old_values_decode_to_the_default(self, config_cls, backend, allow_fallback):
        payload = {
            **config_cls().to_dict(),
            "backend": backend,
            "allow_fallback": allow_fallback,
        }
        restored = config_cls.from_dict(payload)
        assert restored == config_cls()
        assert restored.to_dict() == config_cls().to_dict()

    def test_payload_without_backend_fields_decodes(self, config_cls):
        payload = config_cls().to_dict()
        del payload["backend"], payload["allow_fallback"]
        assert config_cls.from_dict(payload) == config_cls()

    @pytest.mark.parametrize(
        "fields", [{"backend": "cuda"}, {"backend": 1}, {"allow_fallback": "yes"}]
    )
    def test_invalid_values_rejected(self, config_cls, fields):
        with pytest.raises(SchemaError):
            config_cls.from_dict({**config_cls().to_dict(), **fields})
