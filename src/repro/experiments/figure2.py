"""Figure 2 — fault coverage versus pattern count for S1.

The paper plots the simulated fault coverage of the 24-bit comparator S1 as a
function of the number of applied patterns, once for conventional and once for
optimized random patterns; the optimized curve dominates everywhere and
saturates near 100 % within a few thousand patterns while the conventional one
stalls around 80 %.  The reproduction resamples the two curves (as data series
and as an ASCII plot) from the per-fault first-detection indices of the S1
coverage experiments that also feed Tables 2 and 4
(:func:`repro.experiments.batch.figure2_data`) — no re-simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

__all__ = ["Figure2Data", "format_figure2"]


@dataclass
class Figure2Data:
    """The two coverage curves of Figure 2.

    Attributes:
        circuit_name: name of the simulated circuit (S1).
        points: pattern counts at which the coverage was sampled.
        conventional: coverage (percent) with equiprobable patterns.
        optimized: coverage (percent) with optimized patterns.
    """

    circuit_name: str
    points: List[int]
    conventional: List[float]
    optimized: List[float]

    def crossover_gap(self) -> float:
        """Smallest (optimized - conventional) gap over all sample points.

        A non-negative value means the optimized curve dominates everywhere,
        which is the qualitative statement of Figure 2.
        """
        return float(
            min(o - c for o, c in zip(self.optimized, self.conventional))
        )


def _sample_points(n_patterns: int, n_points: int) -> List[int]:
    points = np.unique(
        np.concatenate(
            [
                np.logspace(1, np.log10(n_patterns), n_points).astype(int),
                np.asarray([n_patterns], dtype=int),
            ]
        )
    )
    return [int(p) for p in points]


def format_figure2(data: Figure2Data, width: int = 52) -> str:
    """ASCII rendering of the two curves (o = optimized, c = conventional)."""
    lines = [
        f"Figure 2: fault coverage vs. pattern count ({data.circuit_name})",
        f"{'patterns':>10} | {'conventional':>12} | {'optimized':>9} | 50%{'':{width - 8}}100%",
    ]
    for n, cov_c, cov_o in zip(data.points, data.conventional, data.optimized):
        axis = [" "] * (width + 1)
        pos_c = int(round((max(cov_c, 50.0) - 50.0) / 50.0 * width))
        pos_o = int(round((max(cov_o, 50.0) - 50.0) / 50.0 * width))
        axis[pos_c] = "c"
        axis[pos_o] = "o" if pos_o != pos_c else "*"
        lines.append(
            f"{n:>10,} | {cov_c:>11.1f}% | {cov_o:>8.1f}% | {''.join(axis)}"
        )
    lines.append("legend: c = conventional random patterns, o = optimized, * = overlap")
    return "\n".join(lines)
