"""Shared lowered-circuit IR and its content-addressed compilation cache.

``repro.lowered`` is the layer between the netlist
(:mod:`repro.circuit.netlist`) and the compiled engines: one canonical
levelized structure-of-arrays lowering (:class:`LoweredCircuit`) that the
logic/fault-simulation engine (:mod:`repro.simulation.compiled`), the batched
COP analysis engine (:mod:`repro.analysis.compiled`) and the fault-simulation
wrappers all consume, plus :func:`compile_lowered`, which caches lowerings
process-wide keyed by :meth:`Circuit.structural_hash` so each circuit is
lowered exactly once per pipeline run (and structurally identical rebuilds
share the artifact).
"""

from .ir import (
    GATE_OP,
    OP_AND,
    OP_OR,
    OP_XOR,
    FanoutFreeRegions,
    FaultArrays,
    LevelGroup,
    LoweredCircuit,
    PinLevel,
    ragged_positions,
)
from .cache import (
    clear_lowered_cache,
    compile_count,
    compile_lowered,
    lowered_cache_info,
)

__all__ = [
    "OP_AND",
    "OP_OR",
    "OP_XOR",
    "GATE_OP",
    "FanoutFreeRegions",
    "FaultArrays",
    "LevelGroup",
    "PinLevel",
    "LoweredCircuit",
    "ragged_positions",
    "compile_lowered",
    "compile_count",
    "lowered_cache_info",
    "clear_lowered_cache",
]
