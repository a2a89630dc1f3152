"""Table 4 — fault coverage of optimized random patterns.

The companion experiment to Table 2: the same pattern budgets (12 000 /
4 000), but the patterns are drawn from the optimized distribution.  The paper
reports 98.9-99.7 % coverage; the shape to reproduce is that the optimized
coverage is dramatically higher than the conventional coverage of Table 2 on
every starred circuit (:func:`repro.experiments.batch.table4_rows`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .tables import format_percent, format_table

__all__ = ["Table4Row", "format_table4"]


@dataclass
class Table4Row:
    """Optimized random-test coverage for one hard circuit."""

    key: str
    paper_name: str
    n_patterns: int
    measured_coverage: float  # percent
    n_undetected: int
    paper_coverage: Optional[float]


def format_table4(rows: List[Table4Row]) -> str:
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
        title="Table 4: fault coverage by simulation of optimized random patterns",
    )
