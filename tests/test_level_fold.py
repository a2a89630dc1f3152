"""Differential test of the level-kernel fold on a hand-built netlist.

Every kernel of :mod:`repro.simulation.compiled` gathers its operands
pin-major and folds them with binary ufunc calls: a uniform kernel folds
``k - 1`` whole slices, a mixed-arity kernel folds pin ``j`` only into the
gates that have a ``j``-th input.  The netlist below puts the awkward cases
into a few kernels:

* one level-1 AND kernel mixing a BUF, 2-input and 5-input AND/NAND gates and
  a gate that reads one net on two pins (with a branch fault on that pin);
* a 3-input XNOR;
* stem faults whose driver lies inside another fault's cone, so a group
  containing both must re-force the stem after its driver kernel runs.

Logic values must equal the scalar evaluator, and detection words and
faulty output words must be the same at every fault-group size as for
single-fault groups and as for the per-fault legacy simulator.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuit import CircuitBuilder
from repro.faults import Fault, full_fault_list
from repro.faultsim import LegacyParallelFaultSimulator
from repro.faultsim.serial import simulate_with_fault
from repro.lowered import OP_AND, OP_XOR
from repro.simulation import compile_circuit, evaluate, pack_patterns

from .helpers import all_patterns


def _fold_circuit():
    builder = CircuitBuilder("fold_mix")
    a, b, c, d, e, f, g = (builder.input(name) for name in "abcdefg")
    # Level 1, base op AND: arities 1, 2, 5, 2, 5 and 3.
    n_buf = builder.buf(a, name="n_buf")
    n_and2 = builder.and_(a, b, name="n_and2")
    n_and5 = builder.and_(a, b, c, d, e, name="n_and5")
    n_nand2 = builder.nand(c, d, name="n_nand2")
    n_nand5 = builder.nand(b, c, d, e, f, name="n_nand5")
    n_twice = builder.and_(f, f, g, name="n_twice")
    n_xnor3 = builder.xnor(a, c, g, name="n_xnor3")
    # Level 2 and beyond: a mixed 3/2-input AND kernel and reconvergence.
    n_or = builder.or_(n_buf, n_nand2, name="n_or")
    n_join = builder.and_(n_and2, n_and5, n_xnor3, name="n_join")
    n_pair = builder.nand(n_nand5, n_twice, name="n_pair")
    n_mix = builder.xor(n_or, n_pair, name="n_mix")
    n_top = builder.nor(n_join, n_mix, n_twice, name="n_top")
    builder.output(n_buf, "y_buf")
    builder.output(n_join, "y_join")
    builder.output(n_mix, "y_mix")
    builder.output(n_top, "y_top")
    return builder.build()


@pytest.fixture(scope="module")
def circuit():
    return _fold_circuit()


@pytest.fixture(scope="module")
def engine(circuit):
    return compile_circuit(circuit)


@pytest.fixture(scope="module")
def patterns(circuit):
    return all_patterns(circuit.n_inputs)  # 128 patterns = 2 full words


@pytest.fixture(scope="module")
def good(engine, patterns):
    return engine.simulate_words(pack_patterns(patterns))


def _driver(circuit, name):
    net = circuit.net_index(name)
    return next(gi for gi, gate in enumerate(circuit.gates) if gate.output == net)


def _faults(circuit):
    """The full fault list, led by a stem fault and a stem inside its cone."""
    leader = [
        Fault(circuit.net_index("n_and2"), True),
        Fault(circuit.net_index("n_join"), False),
        Fault(circuit.net_index("f"), False, gate=_driver(circuit, "n_twice")),
    ]
    return leader + [fault for fault in full_fault_list(circuit) if fault not in leader]


def _grouped(method, faults, good, group):
    n_words = good.shape[1]
    blocks = [
        method(faults[start : start + group], good, n_words)
        for start in range(0, len(faults), group)
    ]
    return np.concatenate(blocks, axis=-2)


def test_netlist_exercises_the_fold_cases(circuit, engine):
    (mixed,) = [k for k in engine.kernels if k.level == 1 and k.op == OP_AND]
    # BUF, 2-input AND/NAND, the 3-pin gate, 5-input AND/NAND: descending.
    assert not mixed.uniform and mixed.pin_counts.tolist() == [6, 5, 3, 2, 2]
    assert any(
        k.op == OP_XOR and k.uniform and k.fanin.shape[0] == 3 and k.has_invert
        for k in engine.kernels
    )
    twice = circuit.gates[_driver(circuit, "n_twice")]
    assert list(twice.inputs).count(circuit.net_index("f")) == 2
    join_driver = _driver(circuit, "n_join")
    assert join_driver in engine.cone_gates(circuit.net_index("n_and2")).tolist()


def test_logic_values_match_scalar_evaluator(circuit, patterns, good):
    expected = np.zeros_like(good)
    for p, pattern in enumerate(patterns):
        values = evaluate(circuit, list(pattern))
        for net in range(circuit.n_nets):
            if values[net]:
                expected[net, p // 64] |= np.uint64(1 << (p % 64))
    assert np.array_equal(good, expected)


@pytest.mark.parametrize("group", [1, 3, 64])
def test_detection_matches_single_fault_groups_and_legacy(circuit, engine, good, group):
    faults = _faults(circuit)
    detection = _grouped(engine.fault_batch_detection, faults, good, group)
    single = _grouped(engine.fault_batch_detection, faults, good, 1)
    legacy = LegacyParallelFaultSimulator(circuit, faults)
    reference = np.stack(
        [legacy._detection_words(fault, good, good.shape[1]) for fault in faults]
    )
    assert np.array_equal(detection, single)
    assert np.array_equal(detection, reference)
    assert reference.any(axis=1).sum() > len(faults) // 2


@pytest.fixture(scope="module")
def scalar_output_words(circuit, patterns):
    """Faulty output words from the scalar fault injector, one block per fault."""
    blocks = []
    for fault in _faults(circuit):
        responses = [
            [simulate_with_fault(circuit, fault, list(pattern))[out] for out in circuit.outputs]
            for pattern in patterns
        ]
        blocks.append(pack_patterns(np.array(responses)))
    return np.stack(blocks, axis=1)


@pytest.mark.parametrize("group", [1, 3, 64])
def test_output_words_match_single_fault_groups_and_scalar(
    circuit, engine, good, scalar_output_words, group
):
    faults = _faults(circuit)
    words = _grouped(engine.fault_output_words, faults, good, group)
    single = _grouped(engine.fault_output_words, faults, good, 1)
    assert np.array_equal(words, single)
    assert np.array_equal(words, scalar_output_words)
