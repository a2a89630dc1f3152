"""Table 2 — fault coverage of conventional (equiprobable) random patterns.

The paper fault-simulates 12 000 patterns for S1/S2 and 4 000 for C2670/C7552
and reports coverages between 77 % and 94 % — too low for production test.
The reproduction runs the same experiment with the bit-parallel fault
simulator on the substituted circuits
(:func:`repro.experiments.batch.table2_rows`); the shape to reproduce is that
every starred circuit is left with undetected faults.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .tables import format_percent, format_table

__all__ = ["Table2Row", "format_table2"]


@dataclass
class Table2Row:
    """Conventional random-test coverage for one hard circuit."""

    key: str
    paper_name: str
    n_patterns: int
    measured_coverage: float  # percent
    n_undetected: int
    paper_coverage: Optional[float]


def format_table2(rows: List[Table2Row]) -> str:
    return format_table(
        ["circuit", "test length", "coverage (measured)", "undetected", "paper"],
        [
            [
                row.paper_name,
                f"{row.n_patterns:,}",
                format_percent(row.measured_coverage),
                row.n_undetected,
                format_percent(row.paper_coverage),
            ]
            for row in rows
        ],
        title="Table 2: fault coverage by simulation of conventional random patterns",
    )
