"""Appendix — listing of the optimized input probabilities.

The paper's appendix prints, for S1 and C7552, the optimized probability of
every primary input on a 0.05 grid, so "a suspicious reader may verify" the
fault-coverage claims by regenerating the patterns.  The reproduction prints
the same kind of listing for the substituted circuits
(:func:`repro.experiments.batch.appendix_listings`), grouping consecutive
inputs that share a weight exactly like the paper does (e.g. ``108-112  0.9``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

__all__ = ["AppendixListing", "format_appendix"]


@dataclass
class AppendixListing:
    """Optimized weights of one circuit, in primary-input order."""

    circuit_key: str
    circuit_name: str
    input_names: List[str]
    weights: List[float]

    def grouped(self) -> List[Tuple[str, float]]:
        """Collapse runs of consecutive inputs with equal weight.

        Returns ``(range_label, weight)`` pairs such as ``("9-12", 0.85)``,
        mimicking the appendix layout of the paper.
        """
        groups: List[Tuple[str, float]] = []
        start = 0
        for index in range(1, len(self.weights) + 1):
            if index == len(self.weights) or self.weights[index] != self.weights[start]:
                if index - start == 1:
                    label = str(start + 1)
                else:
                    label = f"{start + 1}-{index}"
                groups.append((label, self.weights[start]))
                start = index
        return groups


def format_appendix(listings: List[AppendixListing]) -> str:
    """Render the appendix-style weight listings."""
    lines: List[str] = []
    for listing in listings:
        lines.append(f"Optimized input probabilities for the circuit {listing.circuit_name}")
        lines.append(f"{'inputs':>10} | {'probability':>11}")
        for label, weight in listing.grouped():
            lines.append(f"{label:>10} | {weight:>11.2f}")
        lines.append("")
    return "\n".join(lines).rstrip()
