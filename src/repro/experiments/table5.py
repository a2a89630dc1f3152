"""Table 5 — CPU time of the weight optimization.

The paper reports 300-2000 seconds on a ~2.5 MIPS SIEMENS 7561.  Absolute
numbers are obviously hardware-bound; the reproduction reports the wall-clock
seconds of our optimizer next to the paper's values.  The shape to reproduce
is that the cost grows with circuit size and stays far below what deterministic
test generation would need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..api.executor import execute_spec
from ..api.spec import AnalysisConfig, OptimizeConfig, PipelineSpec, QuantizeConfig
from ..circuits.registry import hard_suite
from .tables import format_seconds, format_table

__all__ = [
    "Table5Row",
    "format_table5",
    "Table5SpeedupRow",
    "run_table5_speedup",
    "format_table5_speedup",
]


@dataclass
class Table5Row:
    """Optimization run time for one hard circuit."""

    key: str
    paper_name: str
    n_gates: int
    n_inputs: int
    n_faults: int
    measured_seconds: float
    sweeps: int
    paper_seconds: Optional[float]


@dataclass
class Table5SpeedupRow:
    """Scalar-vs-batched estimator timing for one hard circuit.

    The two runs execute the same ANALYSIS/PREPARE/OPTIMIZE procedure — one
    with the scalar reference estimator (one Python walk per analysed weight
    vector), one with the batched COP engine (all cofactors of a sweep in one
    vectorized pass).  The two engines are bit-identical, so
    ``histories_equal`` must be True; a False value means the compiled engine
    drifted from the scalar specification.
    """

    key: str
    paper_name: str
    n_gates: int
    n_inputs: int
    n_faults: int
    scalar_seconds: float
    batched_seconds: float
    test_length: int
    histories_equal: bool

    @property
    def speedup(self) -> float:
        if self.batched_seconds <= 0.0:
            return float("inf")
        return self.scalar_seconds / self.batched_seconds


def _optimize_only(key: str, estimator: str) -> PipelineSpec:
    """The Table 3/5 optimization of one circuit, without fault simulation."""
    # batch.py builds Table5Row, so its constants are imported late.
    from .batch import CONFIDENCE, EXPERIMENT_SEED, OPTIMIZER_SWEEPS

    return PipelineSpec(
        circuit=key,
        seed=EXPERIMENT_SEED,
        analysis=AnalysisConfig(confidence=CONFIDENCE, estimator=estimator),
        optimize=OptimizeConfig(max_sweeps=OPTIMIZER_SWEEPS),
        quantize=QuantizeConfig(),
        fault_sim=None,
    )


def run_table5_speedup(keys: Optional[List[str]] = None) -> List[Table5SpeedupRow]:
    """Time the optimization with the scalar and the batched estimator.

    Args:
        keys: restrict to these circuit keys (default: all hard circuits).

    Each engine runs its own spec on a fresh session, so neither reuses the
    other's optimization; the recorded test-length histories of the two runs
    are compared element-wise.
    """
    rows: List[Table5SpeedupRow] = []
    for entry in hard_suite():
        if keys is not None and entry.key not in keys:
            continue
        scalar = execute_spec(_optimize_only(entry.key, "scalar"))
        batched = execute_spec(_optimize_only(entry.key, "batched"))
        rows.append(
            Table5SpeedupRow(
                key=entry.key,
                paper_name=entry.paper_name,
                n_gates=batched.n_gates,
                n_inputs=batched.n_inputs,
                n_faults=batched.n_faults,
                scalar_seconds=scalar.optimization.cpu_seconds,
                batched_seconds=batched.optimization.cpu_seconds,
                test_length=batched.optimization.test_length,
                histories_equal=(
                    scalar.optimization.history == batched.optimization.history
                ),
            )
        )
    return rows


def format_table5_speedup(rows: List[Table5SpeedupRow]) -> str:
    return format_table(
        [
            "circuit",
            "gates",
            "inputs",
            "faults",
            "scalar estimator",
            "batched estimator",
            "speedup",
            "histories equal",
        ],
        [
            [
                row.paper_name,
                row.n_gates,
                row.n_inputs,
                row.n_faults,
                format_seconds(row.scalar_seconds),
                format_seconds(row.batched_seconds),
                f"x{row.speedup:.1f}",
                "yes" if row.histories_equal else "NO",
            ]
            for row in rows
        ],
        title="Table 5 addendum: scalar vs batched COP estimator CPU time",
    )


def format_table5(rows: List[Table5Row]) -> str:
    return format_table(
        [
            "circuit",
            "gates",
            "inputs",
            "faults",
            "CPU time (measured)",
            "sweeps",
            "paper (2.5 MIPS machine)",
        ],
        [
            [
                row.paper_name,
                row.n_gates,
                row.n_inputs,
                row.n_faults,
                format_seconds(row.measured_seconds),
                row.sweeps,
                format_seconds(row.paper_seconds),
            ]
            for row in rows
        ],
        title="Table 5: CPU time for optimizing input probabilities",
    )
