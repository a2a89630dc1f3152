"""Critical path tracing inside fanout-free regions, on a hand-built netlist.

The compiled fault simulator propagates one flip per fanout-free-region root
and traces every fault to its root on the good values.  The netlist below
puts the awkward cases of that split into one small circuit:

* ``s`` is a root twice over: a primary output and a fan-out stem;
* ``p`` is a primary output read by one gate, a root only by the output rule;
* ``dd`` is read twice by one gate (``tw``) and by nothing else, so it is a
  root, and it carries branch faults on that gate;
* XNOR, OR, NOR, BUF and NOT gates sit on region paths;
* ``dang`` has no reader, and a constant gate feeds a region path;
* ``n1``, ``z`` and ``t1`` are fanout-1 nets inside regions (stem faults);
* the root ``j1`` is driven from inside the cone of the root ``m``, so a
  group flipping both must force ``j1``'s flip again after its writer gate runs;
* 200 patterns leave the last word partial.

Detection words and faulty output words must equal the per-fault legacy
simulator and the scalar fault injector at every group size, and whole runs
must not depend on the group size or the partition size.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuit import CircuitBuilder
from repro.faults import Fault, full_fault_list
from repro.faultsim import (
    LegacyParallelFaultSimulator,
    ParallelFaultSimulator,
    fault_detected_by,
)
from repro.faultsim.serial import simulate_with_fault
from repro.lowered import FaultArrays
from repro.simulation import compile_circuit, pack_patterns

N_PATTERNS = 200  # three full words and a partial fourth
GROUPS = [1, 3, 64]


def _ffr_circuit():
    builder = CircuitBuilder("ffr_mix")
    a, b, c, d, e, f, g, h, i = (builder.input(name) for name in "abcdefghi")
    k1 = builder.const1(name="k1")
    s = builder.and_(a, b, name="s")
    m = builder.or_(d, e, name="m")
    dd = builder.xor(a, i, name="dd")
    builder.nand(b, c, name="dang")
    p = builder.and_(h, k1, name="p")
    n1 = builder.nor(s, c, name="n1")
    n2 = builder.buf(s, name="n2")
    j2 = builder.xnor(m, f, g, name="j2")
    tw = builder.and_(dd, dd, e, name="tw")
    z = builder.and_(p, i, name="z")
    j1 = builder.nand(m, n1, name="j1")
    t1 = builder.not_(j2, name="t1")
    j3 = builder.nor(j1, t1, name="j3")
    j4 = builder.xor(j1, n2, tw, name="j4")
    out1 = builder.or_(j3, z, name="out1")
    for net in (s, p, j4, out1):
        builder.output(net)
    return builder.build()


def _writer(circuit, name):
    net = circuit.net_index(name)
    return next(gi for gi, gate in enumerate(circuit.gates) if gate.output == net)


@pytest.fixture(scope="module")
def circuit():
    return _ffr_circuit()


@pytest.fixture(scope="module")
def engine(circuit):
    return compile_circuit(circuit)


@pytest.fixture(scope="module")
def faults(circuit):
    """The full fault list plus branch faults on the twice-read net."""
    twice = [
        Fault(circuit.net_index("dd"), value, gate=_writer(circuit, "tw"))
        for value in (False, True)
    ]
    full = full_fault_list(circuit)
    return full + [fault for fault in twice if fault not in full]


@pytest.fixture(scope="module")
def patterns(circuit):
    rng = np.random.default_rng(1984)
    return rng.random((N_PATTERNS, circuit.n_inputs)) < 0.5


@pytest.fixture(scope="module")
def good(engine, patterns):
    return engine.simulate_words(pack_patterns(patterns))


@pytest.fixture(scope="module")
def valid_mask(good):
    mask = np.full(good.shape[1], np.uint64(0xFFFFFFFFFFFFFFFF))
    mask[-1] = np.uint64((1 << (N_PATTERNS % 64)) - 1)
    return mask


@pytest.fixture(scope="module")
def legacy_words(circuit, faults, good):
    legacy = LegacyParallelFaultSimulator(circuit, faults)
    return np.stack(
        [legacy._detection_words(fault, good, good.shape[1]) for fault in faults]
    )


def test_region_structure(circuit, engine):
    ffr = engine.ffr
    roots = {circuit.net_name(net) for net in np.flatnonzero(ffr.is_root)}
    # Primary outputs, nets read by several pins (twice by one gate counts),
    # and nets without reader; every other net is read exactly once.
    assert roots == {
        "a", "b", "c", "e", "i", "s", "m", "dd", "dang", "p", "j1", "j4", "out1"
    }
    net = circuit.net_index
    assert ffr.root[net("n1")] == net("j1")
    assert ffr.root[net("f")] == net("out1")  # f -> j2 -> t1 -> j3 -> out1
    assert ffr.root[net("k1")] == net("p")
    assert ffr.reader[net("d")] == _writer(circuit, "m") and ffr.pin[net("d")] == 0
    assert ffr.reader[net("n1")] == _writer(circuit, "j1") and ffr.pin[net("n1")] == 1
    # The re-force case: j1's writer gate lies in the fan-out cone of root m.
    assert _writer(circuit, "j1") in engine.cone_gates(net("m")).tolist()


@pytest.mark.parametrize("group", GROUPS)
def test_detection_words_match_legacy(engine, faults, good, valid_mask, legacy_words, group):
    arrays = FaultArrays.from_faults(faults)
    (detection,) = engine.detection_words([arrays], good, valid_mask, group)
    assert np.array_equal(detection, legacy_words & valid_mask[None, :])
    # Partitions share one path pass and one set of root flips.
    parts = [
        arrays.take(np.arange(start, min(start + 7, len(faults))))
        for start in range(0, len(faults), 7)
    ]
    split = engine.detection_words(parts, good, valid_mask, group)
    assert np.array_equal(np.concatenate(split), detection)
    # Detected faults span every kind of site; the padding bits are masked.
    assert detection.any(axis=1).sum() > len(faults) // 2
    assert (legacy_words[:, -1] & ~valid_mask[-1]).any()


def test_engine_entry_point_matches_legacy(engine, faults, good, valid_mask, legacy_words):
    n_words = good.shape[1]
    assert np.array_equal(
        engine.fault_batch_detection(faults, good, n_words, valid_mask),
        legacy_words & valid_mask[None, :],
    )
    assert np.array_equal(engine.fault_batch_detection(faults, good, n_words), legacy_words)


def test_detection_bits_match_scalar_injector(circuit, engine, faults, patterns, good, valid_mask):
    detection = engine.fault_batch_detection(faults, good, good.shape[1], valid_mask)
    for row, fault in enumerate(faults):
        for p in range(0, N_PATTERNS, 3):
            bit = bool((int(detection[row, p // 64]) >> (p % 64)) & 1)
            assert bit == fault_detected_by(circuit, fault, list(patterns[p])), (fault, p)


@pytest.fixture(scope="module")
def scalar_output_words(circuit, faults, patterns):
    """Faulty output words from the scalar fault injector, one block per fault."""
    blocks = []
    for fault in faults:
        responses = [
            [simulate_with_fault(circuit, fault, list(pattern))[out] for out in circuit.outputs]
            for pattern in patterns
        ]
        blocks.append(pack_patterns(np.array(responses)))
    return np.stack(blocks, axis=1)


@pytest.mark.parametrize("group", GROUPS)
def test_output_words_match_scalar_injector(
    engine, faults, good, valid_mask, scalar_output_words, group
):
    words = engine.output_words(FaultArrays.from_faults(faults), good, group)
    assert np.array_equal(words & valid_mask, scalar_output_words)
    assert np.array_equal(
        words, engine.fault_output_words(faults, good, good.shape[1])
    )


@pytest.mark.parametrize("partition_size", [None, 5])
@pytest.mark.parametrize("group", GROUPS)
def test_runs_match_legacy(circuit, faults, patterns, group, partition_size):
    legacy = LegacyParallelFaultSimulator(circuit, faults)
    sim = ParallelFaultSimulator(
        circuit, faults, fault_group=group, partition_size=partition_size
    )
    expected = legacy.run(patterns, batch_size=128)
    result = sim.run(patterns, batch_size=128)
    assert result.first_detection == expected.first_detection
    assert np.array_equal(
        sim.detection_counts(patterns, batch_size=128),
        legacy.detection_counts(patterns),
    )


def test_branch_fault_on_unread_net_is_rejected(circuit, engine, good):
    bogus = Fault(circuit.net_index("h"), False, gate=_writer(circuit, "s"))
    with pytest.raises(ValueError, match="does not read"):
        engine.fault_batch_detection([bogus], good, good.shape[1])
