"""BILBO-style self test: one signature playback engine.

Section 5.2 of the paper: "Self test by random patterns is the main goal of the
optimizing approach.  A self test modul similar to the well known BILBO is
presented in [Wu86] and [Wu87]."  A BILBO (built-in logic block observer) is a
register that can act as a pattern generator (LFSR / weighted generator) on the
circuit inputs and as a signature analyser (MISR) on the circuit outputs.

:class:`SignaturePlayback` is the one engine that plays patterns through a
signature register: pattern *segments*, each from its own generator, are
applied in sequence and one register compacts every response into the
signature compared against the fault-free golden one.  Responses (faulty ones
from one fault-parallel injection pass) come from the word-domain engine of
:mod:`repro.simulation.compiled`, signatures from the vectorized
:class:`repro.patterns.compiled.CompiledMISR`.  A segment longer than
:data:`_SIGNATURE_CHUNK` patterns streams through in chunks, so memory stays
bounded for any test length; a shorter one keeps its fault-free net values.

:class:`SelfTestSession` is the one-segment case, with patterns from the
block LFSR / weighting network when ``use_lfsr=True`` (hardware-realistic) or
from the software PRNG otherwise; :class:`repro.wrp.session.MultiSetSelfTestSession`
plays one segment per weight set.

:func:`self_test_detects_fault` re-runs the session with a fault injected,
which is how the BIST examples demonstrate end-to-end detection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from ..circuit.netlist import Circuit
from ..faults.model import Fault
from ..faultsim.parallel import ParallelFaultSimulator
from ..simulation.compiled import CompiledCircuit, compile_circuit
from ..simulation.logicsim import pack_patterns, unpack_values
from .compiled import CompiledLfsrWeightedPatternGenerator, CompiledMISR
from .misr import MISR, resolve_misr
from .weighted import WeightedPatternGenerator, validate_weights

__all__ = ["SignaturePlayback", "SelfTestSession", "SelfTestReport", "self_test_detects_fault"]

#: Patterns per signature chunk.  A longer segment (a self test of 10**6
#: patterns, a weakly optimized weight set of ~2e7) streams through the
#: register in chunks; a segment within one chunk keeps its good values.
_SIGNATURE_CHUNK = 65536


@dataclass
class SelfTestReport:
    """Outcome of one self-test run."""

    circuit_name: str
    n_patterns: int
    signature: int
    golden_signature: int

    @property
    def passed(self) -> bool:
        """True if the signature matches the fault-free reference."""
        return self.signature == self.golden_signature

    def to_dict(self) -> dict:
        """JSON-serializable artifact dict (job-spec API)."""
        from ..api.serialize import tagged_dict

        return tagged_dict(
            "self_test_report",
            {
                "circuit_name": self.circuit_name,
                "n_patterns": int(self.n_patterns),
                "signature": int(self.signature),
                "golden_signature": int(self.golden_signature),
            },
        )

    @classmethod
    def from_dict(cls, data: dict) -> "SelfTestReport":
        """Rebuild a report from :meth:`to_dict` output (validated)."""
        from ..api.serialize import untag

        payload = untag(
            data,
            "self_test_report",
            required=("circuit_name", "n_patterns", "signature", "golden_signature"),
        )
        return cls(
            circuit_name=str(payload["circuit_name"]),
            n_patterns=int(payload["n_patterns"]),
            signature=int(payload["signature"]),
            golden_signature=int(payload["golden_signature"]),
        )


class SignaturePlayback:
    """Play pattern segments in sequence through one signature register.

    Segment ``i`` is ``segment_lengths[i]`` patterns from a fresh
    :meth:`_make_generator` ``(i)``; subclasses say where the patterns come
    from.  One register spans every segment, so a signature equals
    compacting the concatenation of all segments' responses.

    Args:
        circuit: circuit under test.
        segment_lengths: patterns per segment, in playback order.
        misr_width / misr_taps: signature register, resolved and checked
            against the output count by :func:`repro.patterns.misr.resolve_misr`.
    """

    def __init__(
        self,
        circuit: Circuit,
        segment_lengths: Sequence[int],
        misr_width: Optional[int] = None,
        misr_taps: Optional[Sequence[int]] = None,
    ):
        self.circuit = circuit
        self.segment_lengths = tuple(int(n) for n in segment_lengths)
        self.misr_width, self.misr_taps = resolve_misr(circuit.n_outputs, misr_width, misr_taps)
        self._engine: CompiledCircuit = compile_circuit(circuit)
        self._good_values: Dict[int, np.ndarray] = {}
        self._golden: Optional[int] = None

    @property
    def n_patterns(self) -> int:
        """Total patterns over every segment."""
        return int(sum(self.segment_lengths))

    def _make_generator(self, index: int):
        """A fresh pattern generator for segment ``index``."""
        raise NotImplementedError

    def _fresh_misr(self) -> Union[CompiledMISR, MISR]:
        """A zero-seeded signature register (vectorized when width <= 64)."""
        if self.misr_width <= 64:
            return CompiledMISR(self.misr_width, taps=self.misr_taps)
        return MISR(self.misr_width, taps=self.misr_taps)

    def _good_chunks(self, index: int) -> Iterator[Tuple[np.ndarray, int]]:
        """Fault-free net values of one segment, as ``(values, n_patterns)`` chunks."""
        n_patterns = self.segment_lengths[index]
        if n_patterns > _SIGNATURE_CHUNK:
            generator = self._make_generator(index)
            for matrix in generator.generate_stream(n_patterns, _SIGNATURE_CHUNK):
                yield self._engine.simulate_words(pack_patterns(matrix)), matrix.shape[0]
            return
        good = self._good_values.get(index)
        if good is None:
            matrix = self._make_generator(index).generate(n_patterns)
            good = self._engine.simulate_words(pack_patterns(matrix))
            self._good_values[index] = good
        yield good, n_patterns

    def _signature(self, fault: Optional[Fault]) -> int:
        # compact continues the register state across chunks and segments.
        misr = self._fresh_misr()
        signature = 0
        for index in range(len(self.segment_lengths)):
            for good, n_patterns in self._good_chunks(index):
                if fault is None:
                    words = good[self._engine.outputs]
                else:
                    words = self._engine.fault_output_words([fault], good, good.shape[1])[:, 0, :]
                signature = misr.compact(unpack_values(words, n_patterns))
        return int(signature)

    def golden_signature(self) -> int:
        """Signature of the fault-free circuit (computed once, then cached)."""
        if self._golden is None:
            self._golden = self._signature(None)
        return self._golden


class SelfTestSession(SignaturePlayback):
    """A weighted-random BIST session for a combinational circuit.

    Args:
        circuit: circuit under test.
        weights: per-input probabilities; ``None`` means conventional
            equiprobable patterns.
        n_patterns: test length N.
        use_lfsr: if True, patterns come from an LFSR-based weighting network
            (hardware realistic); otherwise from a software PRNG.
        misr_width: signature register width (defaults to a tabulated width
            that holds all primary outputs; a circuit with more outputs than
            the largest tabulated width requires an explicit ``misr_width``
            plus ``misr_taps``).
        misr_taps: optional explicit MISR feedback taps (1-based polynomial
            exponents), required for untabulated widths.
        seed: seed for the pattern source.
    """

    def __init__(
        self,
        circuit: Circuit,
        n_patterns: int,
        weights: Optional[Sequence[float]] = None,
        use_lfsr: bool = False,
        misr_width: Optional[int] = None,
        misr_taps: Optional[Sequence[int]] = None,
        seed: int = 1987,
    ):
        self.weights = list(weights) if weights is not None else [0.5] * circuit.n_inputs
        if validate_weights(self.weights).size != circuit.n_inputs:
            raise ValueError("one weight per primary input is required")
        self.use_lfsr = use_lfsr
        self.seed = seed
        super().__init__(circuit, (n_patterns,), misr_width, misr_taps)

    def _make_generator(self, index: int = 0):
        if self.use_lfsr:
            return CompiledLfsrWeightedPatternGenerator(self.weights, seed=self.seed)
        return WeightedPatternGenerator(self.weights, seed=self.seed)

    def patterns(self) -> np.ndarray:
        """The pattern matrix this session applies (generated on each call)."""
        return self._make_generator().generate(self.n_patterns)

    def run(self, fault: Optional[Fault] = None) -> SelfTestReport:
        """Execute the self test, optionally with a fault injected.

        Repeated calls reuse the golden signature and, for tests of at most
        one chunk, the fault-free net values — only the faulty pass depends
        on the injected fault.
        """
        golden = self.golden_signature()
        return SelfTestReport(
            circuit_name=self.circuit.name,
            n_patterns=self.n_patterns,
            signature=golden if fault is None else self._signature(fault),
            golden_signature=golden,
        )


def self_test_detects_fault(
    circuit: Circuit,
    fault: Fault,
    n_patterns: int,
    weights: Optional[Sequence[float]] = None,
    seed: int = 1987,
) -> bool:
    """True if an ``n_patterns`` self-test session exposes ``fault``.

    Uses the bit-parallel fault simulator (signature aliasing ignored), which
    is the standard approximation when evaluating BIST quality: a fault whose
    response differs from the fault-free response in at least one pattern is
    counted as detected.
    """
    generator = WeightedPatternGenerator(
        weights if weights is not None else [0.5] * circuit.n_inputs, seed=seed
    )
    result = ParallelFaultSimulator(circuit, [fault]).run(generator.generate(n_patterns))
    return fault in result.first_detection
