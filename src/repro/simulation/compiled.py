"""Compiled structure-of-arrays (SoA) simulation engine.

:class:`CompiledCircuit` is the ``uint64`` pattern-word interpretation of the
shared lowered-circuit IR (:mod:`repro.lowered`): the levelized SoA arrays —
per-level gate groups, ragged fan-in segments, fan-out cone bitsets,
fanout-free regions — are built once by :func:`repro.lowered.compile_lowered`
(content-addressed, cached process-wide) and this engine only derives the
word-domain kernels from them, so the hot loops of true-value simulation and
fault simulation run as a handful of vectorized kernels per logic level
instead of a Python loop (with dict lookups) per gate:

* gates are grouped into *level kernels* keyed by ``(level, base op)`` where
  the base ops are AND, OR and XOR -- NAND/NOR/XNOR/NOT fold into a per-gate
  inversion mask and BUF is a 1-input AND.  Each kernel evaluates all of its
  gates with one ``gather -> fold -> invert -> scatter`` sequence over
  64-pattern ``uint64`` words (:meth:`LevelKernel.evaluate`, shared by
  true-value and fault simulation); the fold combines the operands pin by
  pin with in-place binary ufunc calls, planned once per kernel,
* faults are simulated by **critical path tracing inside fanout-free
  regions** (FFRs; Abramovici, Menon & Miller 1984).  A region is a tree of
  nets read exactly once that ends at a *root*: a primary output, a net
  without reader, or a net read by several pins.  A fault's effect can only
  leave its region through the root, so a pattern detects the fault iff

  - the fault is *activated* (a stem's good value differs from the stuck
    value; a branch fault changes its gate's output, evaluated locally),
  - the effect travels the region's single path to the root: every gate on
    it has non-controlling side inputs (AND/NAND sides 1, OR/NOR sides 0;
    XOR, XNOR, BUF and NOT always pass), and
  - flipping the root is observed at some primary output.

  The first two terms are *traced* on the fault-free values: one pass per
  pattern batch computes every net's path words (:meth:`CompiledCircuit.
  path_words`), exact because the side inputs of a region path never depend
  on the fault (nothing reconverges before the root).  Only the third term is
  *propagated explicitly*: one flip (``~good``) per distinct root runs
  through the level kernels, **fault-parallel x pattern-parallel** — a group
  of roots shares one wide value matrix in which every root owns a
  contiguous block of pattern words, and the union of the group's fan-out
  cones selects the sub-kernels that are re-evaluated.  The faulty outputs
  follow from the same flips: ``good ^ (root-flip output diff & the fault's
  activation-and-path words)``.

The engine is exact: for every net and pattern it computes precisely the same
values and detections as the scalar reference simulators
(:mod:`repro.simulation.eventsim`, :mod:`repro.faultsim.serial`), which the
test suite asserts on reference circuits and randomized netlists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..circuit.netlist import Circuit
from ..faults.model import Fault
from ..lowered import (
    OP_AND,
    OP_OR,
    OP_XOR,
    FanoutFreeRegions,
    FaultArrays,
    LevelGroup,
    LoweredCircuit,
    compile_lowered,
)

__all__ = [
    "CompiledCircuit",
    "LevelKernel",
    "compile_circuit",
    "flip_group_size",
    "first_detection_indices",
    "popcount_words",
]

WORD_BITS = 64
_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)
_ZERO = np.uint64(0)

#: Target width (in 64-pattern words) of one fault-parallel value matrix;
#: the adaptive group size packs this many columns regardless of batch size.
_TARGET_COLUMNS = 4096

#: Upper bound on the adaptive number of root flips per group.  Larger groups
#: mean fewer kernel passes but a larger union fan-out cone per group (more
#: gather traffic).  Measured on s2 (4,384 collapsed faults in 662 regions,
#: 12,000 random patterns in 2,048-pattern batches, 2 vCPUs): 1 flip per
#: group takes 3.9-4.0 s, 16 takes 0.46-0.54 s, 32 0.32-0.36 s, 64
#: 0.29-0.35 s, 128 0.28-0.35 s and 256 0.32-0.33 s.  The curve is flat from
#: 32 up, so the bound stays at 64.
_MAX_ADAPTIVE_GROUP = 64

_OP_UFUNC = {
    OP_AND: np.bitwise_and,
    OP_OR: np.bitwise_or,
    OP_XOR: np.bitwise_xor,
}


@dataclass
class LevelKernel:
    """All gates of one logic level sharing one base boolean operation.

    A word-domain view of one :class:`repro.lowered.LevelGroup`, with the
    gates reordered by descending arity (gates of one level are independent,
    so the order changes no value).  Row ``j`` of :attr:`fanin` holds every
    gate's ``j``-th input net; thanks to the order, the gates that have a
    ``j``-th input are the first :attr:`pin_counts` ``[j]`` columns, and the
    other columns repeat the gate's first input (gathered, never folded).

    :meth:`evaluate` gathers the operands pin-major, as
    ``(max arity, n_gates, n_words)``, and folds pin ``j`` into the first
    ``pin_counts[j]`` accumulator rows with one in-place binary ufunc call.
    A uniform kernel (every gate with ``k`` inputs, most kernels) folds
    ``k - 1`` whole contiguous slices.
    """

    level: int
    op: int
    gate_ids: np.ndarray  # int32 original gate indices, descending arity
    outputs: np.ndarray  # int32 net ids driven by the gates
    fanin: np.ndarray  # int32 net ids, (max arity, n_gates)
    pin_counts: np.ndarray  # int64 per pin: gates that have that pin
    invert: np.ndarray  # uint64 per gate: all-ones if inverting else 0
    has_invert: bool = field(init=False)
    uniform: bool = field(init=False)

    def __post_init__(self) -> None:
        self.has_invert = bool(self.invert.any())
        self.uniform = bool(self.pin_counts[-1] == self.gate_ids.size)

    @classmethod
    def from_group(cls, group: LevelGroup) -> "LevelKernel":
        order = np.argsort(-group.seg_lengths, kind="stable")
        lengths = group.seg_lengths[order]
        pins = np.arange(int(lengths[0]))[:, None]
        has_pin = pins < lengths[None, :]
        rows = group.seg_starts[order][None, :] + np.where(has_pin, pins, 0)
        return cls(
            level=group.level,
            op=group.op,
            gate_ids=group.gate_ids[order],
            outputs=group.outputs[order],
            fanin=group.fanin_flat[rows],
            pin_counts=has_pin.sum(axis=1),
            invert=np.where(group.invert[order], _ALL_ONES, _ZERO),
        )

    @property
    def ufunc(self) -> np.ufunc:
        return _OP_UFUNC[self.op]

    @property
    def n_gates(self) -> int:
        return int(self.gate_ids.size)

    def evaluate(self, values: np.ndarray, rows: Optional[np.ndarray] = None) -> None:
        """Evaluate the kernel's gates in place on a net-value matrix.

        gather -> fold -> invert -> scatter: the one evaluation path of
        true-value simulation and root-flip propagation.

        Args:
            values: ``uint64`` matrix ``(n_nets, n_columns)``; the operands
                are read from it and the gates' outputs written back.
            rows: optional ascending positions of the gates to evaluate
                (``None`` = all).
        """
        fanin, outputs, invert = self.fanin, self.outputs, self.invert
        pin_counts = self.pin_counts
        if rows is not None:
            fanin, outputs = fanin.take(rows, axis=1), outputs.take(rows)
            if self.has_invert:
                invert = invert.take(rows)
            if not self.uniform:
                # Evaluated gates within each pin's prefix.  (A uniform
                # kernel's counts equal its size; slicing clamps them.)
                pin_counts = rows.searchsorted(pin_counts)
        ops = values.take(fanin, axis=0)
        # Measured: binary ufuncs on row slices run 7-18x faster than one
        # segmented ufunc reduction over the same operands (a 2-input gate
        # over 2,048 words: 1.5 us vs 27.5 us); pin-major slices are
        # contiguous, 2-4x faster again than gate-major strided views at
        # 1-256 words.
        acc = ops[0]
        ufunc = self.ufunc
        for pin in range(1, fanin.shape[0]):
            count = pin_counts[pin]
            ufunc(acc[:count], ops[pin, :count], out=acc[:count])
        if self.has_invert:
            acc ^= invert[:, None]
        values[outputs] = acc


def popcount_words(words: np.ndarray) -> np.ndarray:
    """Number of set bits per row of a 2-D ``uint64`` word matrix."""
    if words.size == 0:
        return np.zeros(words.shape[0], dtype=np.int64)
    as_bytes = np.ascontiguousarray(words).view(np.uint8)
    return np.unpackbits(as_bytes, axis=1).sum(axis=1).astype(np.int64)


def first_detection_indices(detection: np.ndarray) -> np.ndarray:
    """Per row of a detection-word matrix, the index of the first set bit.

    Returns ``-1`` for rows with no bit set.  Bit ``p % 64`` of word
    ``p // 64`` corresponds to pattern ``p`` (little-endian, matching
    :func:`repro.simulation.logicsim.pack_patterns`).
    """
    n_rows = detection.shape[0]
    if n_rows == 0:
        return np.zeros(0, dtype=np.int64)
    nonzero = detection != 0
    has = nonzero.any(axis=1)
    word_idx = np.argmax(nonzero, axis=1)
    words = detection[np.arange(n_rows), word_idx]
    lsb = words & (~words + np.uint64(1))
    bits = np.zeros(n_rows, dtype=np.int64)
    mask = words != 0
    # lsb is a power of two <= 2**63, exactly representable in float64.
    bits[mask] = np.log2(lsb[mask].astype(np.float64)).astype(np.int64)
    return np.where(has, word_idx * WORD_BITS + bits, -1)


def flip_group_size(n_words: int, fault_group: Optional[int] = None) -> int:
    """Root flips propagated together per value matrix.

    ``None`` (what the pipeline uses) picks the adaptive size that fills
    :data:`_TARGET_COLUMNS` pattern words, capped at
    :data:`_MAX_ADAPTIVE_GROUP`.  A ``fault_group`` count fixes the size,
    so tests can place group boundaries; results never depend on it.
    """
    if fault_group is not None:
        return max(1, int(fault_group))
    return max(1, min(_MAX_ADAPTIVE_GROUP, _TARGET_COLUMNS // max(1, n_words)))


#: ``(rows, side nets, flip words)`` per pin position: the side inputs whose
#: non-controlling value gates each row (see :meth:`CompiledCircuit._side_plan`).
_SidePlan = List[Tuple[np.ndarray, np.ndarray, np.ndarray]]


class CompiledCircuit:
    """Word-domain engine over the shared :class:`LoweredCircuit` IR.

    Build via :func:`compile_circuit` (cached on the lowered artifact, which
    is itself content-addressed per circuit structure) or
    :meth:`from_circuit`.
    """

    def __init__(self, lowered: LoweredCircuit):
        self.lowered = lowered
        self.circuit = lowered.circuit
        self.kernels = [LevelKernel.from_group(group) for group in lowered.groups]
        self.gate_kernel = lowered.gate_group
        self.inputs = lowered.inputs
        self.outputs = lowered.outputs
        self.const0_nets = lowered.const0_nets
        self.const1_nets = lowered.const1_nets
        self.gate_output = lowered.gate_output
        self.net_writer_gate = lowered.net_writer_gate
        self.net_level = lowered.net_level
        self.n_nets = lowered.n_nets
        self.n_gates = lowered.n_gates
        self._path_plan: Optional[Tuple[np.ndarray, _SidePlan]] = None

    # ------------------------------------------------------------------ #
    # Compilation
    # ------------------------------------------------------------------ #
    @classmethod
    def from_circuit(cls, circuit: Circuit) -> "CompiledCircuit":
        return cls(compile_lowered(circuit))

    # ------------------------------------------------------------------ #
    # True-value simulation
    # ------------------------------------------------------------------ #
    def simulate_words(self, input_words: np.ndarray) -> np.ndarray:
        """Evaluate the whole circuit on pre-packed 64-pattern words.

        Args:
            input_words: ``uint64`` array of shape ``(n_inputs, n_words)``,
                one row per primary input in :attr:`Circuit.inputs` order.

        Returns:
            ``uint64`` array of shape ``(n_nets, n_words)``.
        """
        input_words = np.asarray(input_words, dtype=np.uint64)
        if input_words.ndim != 2 or input_words.shape[0] != self.inputs.size:
            raise ValueError(
                f"expected {self.inputs.size} input rows, got "
                f"{input_words.shape[0] if input_words.ndim == 2 else input_words.shape}"
            )
        n_words = input_words.shape[1]
        values = np.zeros((self.n_nets, n_words), dtype=np.uint64)
        if self.inputs.size:
            values[self.inputs] = input_words
        if self.const1_nets.size:
            values[self.const1_nets] = _ALL_ONES
        for kern in self.kernels:
            kern.evaluate(values)
        return values

    # ------------------------------------------------------------------ #
    # Fan-out structure (delegated to the shared lowering, caches included)
    # ------------------------------------------------------------------ #
    def cone_gates(self, net: int) -> np.ndarray:
        """Transitive fan-out gate indices of ``net`` (ascending = topological)."""
        return self.lowered.cone_gates(net)

    @property
    def ffr(self) -> FanoutFreeRegions:
        """The circuit's fanout-free regions."""
        return self.lowered.fanout_free_regions()

    # ------------------------------------------------------------------ #
    # Traced part: activation and region paths on the good values
    # ------------------------------------------------------------------ #
    def _side_plan(self, gates: np.ndarray, own: np.ndarray) -> _SidePlan:
        """Side inputs of ``gates``: every fan-in pin not marked in ``own``.

        AND/NAND sides must be 1 and OR/NOR sides 0 (flip word all-ones) for
        a change on the own pins to pass; XOR/XNOR gates pass any change, and
        BUF/NOT have no side input.
        """
        lowered = self.lowered
        pins = lowered.fanin_padded[gates]
        op = lowered.gate_op[gates]
        side = (pins >= 0) & ~own & (op != OP_XOR)[:, None]
        flip = np.where(op == OP_OR, _ALL_ONES, _ZERO)
        plan: _SidePlan = []
        for position in range(pins.shape[1]):
            rows = np.flatnonzero(side[:, position])
            if rows.size:
                plan.append((rows, pins[rows, position], flip[rows, None]))
        return plan

    @staticmethod
    def _side_words(good: np.ndarray, plan: _SidePlan, n_rows: int) -> np.ndarray:
        """Per planned row, the patterns on which every side input is non-controlling."""
        words = np.full((n_rows, good.shape[1]), _ALL_ONES, dtype=np.uint64)
        for rows, nets, flip in plan:
            words[rows] &= good[nets] ^ flip
        return words

    def path_words(self, good: np.ndarray) -> np.ndarray:
        """Per net, the patterns on which flipping it flips its region root.

        The path pass of critical path tracing: each net read exactly once
        passes a change through its reader when the reader's side inputs are
        non-controlling; the pointer-doubling rounds of
        :attr:`FanoutFreeRegions.jumps` chain those steps up to the root.
        Root rows are all-ones.

        Args:
            good: fault-free net values ``(n_nets, n_words)``.
        """
        if self._path_plan is None:
            ffr = self.ffr
            inner = np.flatnonzero(~ffr.is_root)
            own = np.zeros((inner.size, self.lowered.fanin_padded.shape[1]), dtype=bool)
            own[np.arange(inner.size), ffr.pin[inner]] = True
            self._path_plan = (inner, self._side_plan(ffr.reader[inner], own))
        inner, plan = self._path_plan
        paths = np.full(good.shape, _ALL_ONES, dtype=np.uint64)
        if inner.size:
            paths[inner] = self._side_words(good, plan, inner.size)
            for rows, targets in self.ffr.jumps:
                paths[rows] &= paths[targets]
        return paths

    def branch_words(
        self, good: np.ndarray, gates: np.ndarray, nets: np.ndarray
    ) -> np.ndarray:
        """Patterns on which forcing the pins of ``gates`` that read ``nets`` can flip the gate.

        Evaluated locally on the good values: the side inputs must be
        non-controlling, and an XOR/XNOR passes the change only when it reads
        the net on an odd number of pins.  AND this with the activation
        ``good[net] ^ stuck`` to get the gate's output difference.
        """
        own = self.lowered.fault_pins(gates, nets)
        words = self._side_words(good, self._side_plan(gates, own), gates.size)
        even = own.sum(axis=1) % 2 == 0
        words[(self.lowered.gate_op[gates] == OP_XOR) & even] = _ZERO
        return words

    # ------------------------------------------------------------------ #
    # Explicit part: root flips through the level kernels
    # ------------------------------------------------------------------ #
    def root_flip_diffs(
        self, good: np.ndarray, roots: np.ndarray, fault_group: Optional[int] = None
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Propagate one flip per root, in level-ordered groups.

        Args:
            good: fault-free net values ``(n_nets, n_words)``.
            roots: distinct root nets to flip.
            fault_group: root flips per group (:func:`flip_group_size`).

        Yields:
            ``(positions, diff)`` per group: ``positions`` index ``roots``,
            and ``diff`` is the ``(n_outputs, len(positions), n_words)``
            primary-output difference caused by flipping each of those roots.
        """
        group_size = flip_group_size(good.shape[1], fault_group)
        order = np.argsort(self.net_level[roots], kind="stable")
        good_out = good[self.outputs][:, None, :]
        for start in range(0, order.size, group_size):
            positions = order[start : start + group_size]
            yield positions, self._flip_group(good, roots[positions]) ^ good_out

    def _flip_group(self, good: np.ndarray, roots: np.ndarray) -> np.ndarray:
        """Primary-output values with each root flipped in its own word block."""
        n_roots, n_words = roots.size, good.shape[1]
        values = np.tile(good, (1, n_roots))
        blocks = values.reshape(self.n_nets, n_roots, n_words)
        flips = ~good[roots]
        blocks[roots, np.arange(n_roots)] = flips
        member = self.lowered.cone_member(roots)
        # A root written from inside another root's cone is rewritten when its
        # writer gate's kernel runs: force its flip again right after.
        writer = self.net_writer_gate[roots]
        reforce = np.flatnonzero(writer >= 0)
        reforce = reforce[member[writer[reforce]]]
        pending: Dict[int, List[int]] = {}
        for position in reforce.tolist():
            pending.setdefault(int(self.gate_kernel[writer[position]]), []).append(
                position
            )
        for ki in np.unique(self.gate_kernel[member]).tolist():
            kern = self.kernels[ki]
            rows = np.flatnonzero(member[kern.gate_ids])
            kern.evaluate(values, None if rows.size == kern.n_gates else rows)
            again = pending.get(ki)
            if again is not None:
                blocks[roots[again], again] = flips[again]
        return values[self.outputs].reshape(self.outputs.size, n_roots, n_words)

    # ------------------------------------------------------------------ #
    # Fault-parallel x pattern-parallel detection
    # ------------------------------------------------------------------ #
    def _traced(
        self, faults: FaultArrays, good: np.ndarray, paths: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Each fault's region root and the patterns on which it flips that root."""
        site = faults.net.copy()
        stuck = np.where(faults.stuck, _ALL_ONES, _ZERO)
        words = good[faults.net] ^ stuck[:, None]
        branch = np.flatnonzero(faults.gate >= 0)
        if branch.size:
            gates = faults.gate[branch]
            site[branch] = self.gate_output[gates]
            words[branch] &= self.branch_words(good, gates, faults.net[branch])
        words &= paths[site]
        return self.ffr.root[site], words

    def detection_words(
        self,
        partitions: Sequence[FaultArrays],
        good: np.ndarray,
        valid_mask: Optional[np.ndarray] = None,
        fault_group: Optional[int] = None,
    ) -> List[np.ndarray]:
        """Detection words of every fault partition against one pattern batch.

        One path pass serves the whole batch, and every root that some
        partition's faults reach is flipped once, in level-ordered groups
        packed across partition boundaries.

        Args:
            partitions: the fault partitions to simulate.
            good: fault-free net values ``(n_nets, n_words)`` from
                :meth:`simulate_words`.
            valid_mask: optional per-word mask of valid pattern bits.
            fault_group: root flips per group (:func:`flip_group_size`).

        Returns:
            one ``uint64`` array ``(len(partition), n_words)`` per partition;
            bit ``p % 64`` of word ``p // 64`` of row ``i`` is 1 iff pattern
            ``p`` detects the partition's fault ``i``.
        """
        if not partitions:
            return []
        paths = self.path_words(good)
        traced = [self._traced(faults, good, paths) for faults in partitions]
        if valid_mask is not None:
            for _, words in traced:
                words &= valid_mask[None, :]
        needed = np.unique(
            np.concatenate([roots[words.any(axis=1)] for roots, words in traced])
        )
        observed = np.zeros_like(good)
        for positions, diff in self.root_flip_diffs(good, needed, fault_group):
            observed[needed[positions]] = np.bitwise_or.reduce(diff, axis=0)
        for roots, words in traced:
            words &= observed[roots]
        return [words for _, words in traced]

    def output_words(
        self,
        faults: FaultArrays,
        good: np.ndarray,
        fault_group: Optional[int] = None,
    ) -> np.ndarray:
        """Faulty primary-output words ``(n_outputs, len(faults), n_words)``.

        A fault flips the outputs exactly where it flips its root, so its
        outputs are the good ones XOR the root flip's output difference on
        those patterns.
        """
        roots, words = self._traced(faults, good, self.path_words(good))
        good_out = good[self.outputs]
        out = np.repeat(good_out[:, None, :], len(faults), axis=1)
        carried = np.flatnonzero(words.any(axis=1))
        needed, inverse = np.unique(roots[carried], return_inverse=True)
        diffs = np.empty((good_out.shape[0], needed.size, good.shape[1]), np.uint64)
        for positions, diff in self.root_flip_diffs(good, needed, fault_group):
            diffs[:, positions] = diff
        out[:, carried] ^= diffs[:, inverse] & words[carried][None]
        return out

    def fault_batch_detection(
        self,
        faults: Sequence[Fault],
        good: np.ndarray,
        n_words: int,
        valid_mask: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Detection words for a list of faults against one pattern batch.

        Args:
            faults: the faults to simulate.
            good: fault-free net values ``(n_nets, n_words)`` from
                :meth:`simulate_words`.
            n_words: number of 64-pattern words in the batch.
            valid_mask: optional per-word mask of valid pattern bits.

        Returns:
            ``uint64`` array ``(len(faults), n_words)``; bit ``p % 64`` of
            word ``p // 64`` of row ``i`` is 1 iff pattern ``p`` detects
            ``faults[i]``.
        """
        if len(faults) == 0:
            return np.zeros((0, n_words), dtype=np.uint64)
        (words,) = self.detection_words([FaultArrays.from_faults(faults)], good, valid_mask)
        return words

    def fault_output_words(
        self, faults: Sequence[Fault], good: np.ndarray, n_words: int
    ) -> np.ndarray:
        """Primary-output values of the faulty circuits, one block per fault.

        The word-domain faulty *responses* (not just detection bits) — what a
        signature register compacts during self test.

        Args:
            faults: the faults to simulate.
            good: fault-free net values ``(n_nets, n_words)`` from
                :meth:`simulate_words`.
            n_words: number of 64-pattern words in the batch.

        Returns:
            ``uint64`` array ``(n_outputs, len(faults), n_words)``; row
            ``(o, i)`` holds output ``o``'s values with ``faults[i]``
            injected.
        """
        if len(faults) == 0:
            return np.zeros((self.outputs.size, 0, n_words), dtype=np.uint64)
        return self.output_words(FaultArrays.from_faults(faults), good)


def compile_circuit(circuit: Circuit) -> CompiledCircuit:
    """Compile ``circuit`` into the word-domain engine (cached).

    The underlying lowering comes from :func:`repro.lowered.compile_lowered`
    (one lowering per circuit structure, process-wide); the word-domain
    engine is hung off that shared artifact, so every simulator over the same
    structure — even over distinct but isomorphic circuit instances — shares
    one engine including its growing cone cache.
    """
    lowered = compile_lowered(circuit)
    engine = lowered._sim_engine
    if engine is None:
        engine = CompiledCircuit(lowered)
        lowered._sim_engine = engine
    return engine
