"""The paper-table sweep on the job-spec batch executor.

Every table and figure of the paper is regenerated from one declarative
sweep: one :class:`~repro.api.PipelineSpec` per benchmark circuit
(:func:`suite_specs`), executed — serially or fanned out over a process
pool — by :func:`repro.api.run_jobs`, and the resulting
:class:`~repro.pipeline.session.PipelineReport` artifacts folded into the
table-row dataclasses (:func:`table1_rows` ... :func:`appendix_listings`).
Like one PROTEST run feeding all of the paper's tables, each circuit is
lowered, analyzed and optimized once per sweep.
``examples/reproduce_paper_tables.py``, ``python -m repro tables`` and the
``tables`` bench area all drive this path.

Stage selection mirrors what the paper reports: every circuit is analyzed
(Table 1); only the starred hard circuits are optimized (Tables 3/5) and
fault-simulated at their paper pattern budgets (Tables 2/4, Figure 2, the
appendix listings).  Fault-simulation seeds derive from the specs' root
seed (:func:`repro.api.derive_seed`), so the sweep is reproducible and the
per-circuit pattern streams are non-correlated — serial and parallel runs
produce bit-identical artifacts.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..api.spec import FaultSimConfig, OptimizeConfig, PipelineSpec, QuantizeConfig
from ..circuits.registry import BenchmarkCircuit, paper_suite
from ..pipeline.session import PipelineReport
from .appendix import AppendixListing
from .figure2 import Figure2Data, _sample_points
from .table1 import Table1Row
from .table2 import Table2Row
from .table3 import Table3Row
from .table4 import Table4Row
from .table5 import Table5Row

__all__ = [
    "CONFIDENCE",
    "EXPERIMENT_SEED",
    "OPTIMIZER_SWEEPS",
    "suite_specs",
    "reports_by_key",
    "table1_rows",
    "table2_rows",
    "table3_rows",
    "table4_rows",
    "table5_rows",
    "figure2_data",
    "appendix_listings",
]

#: Confidence target used for every test-length computation (probability that
#: every modelled fault is detected; equal to the ``AnalysisConfig`` default
#: that :func:`suite_specs` leaves in place).
CONFIDENCE = 0.999

#: Coordinate-descent sweeps used by the experiment optimizations.
OPTIMIZER_SWEEPS = 8

#: Root seed of the sweep (stage seeds derive from it, so the tables are
#: reproducible).
EXPERIMENT_SEED = 1987


def suite_specs(
    seed: int = EXPERIMENT_SEED,
    max_sweeps: int = OPTIMIZER_SWEEPS,
    n_patterns: Optional[int] = None,
    include_fault_sim: bool = True,
) -> List[PipelineSpec]:
    """One declarative spec per circuit of the paper's evaluation.

    Args:
        seed: root seed of every job (stage seeds derive from it).
        max_sweeps: optimizer sweep budget for the hard circuits.
        n_patterns: fault-simulation budget override; ``None`` uses each
            circuit's paper pattern budget (12 000 / 4 000).
        include_fault_sim: drop the fault-simulation stage entirely (the
            ``--quick`` sweep that still reproduces Tables 1/3/5 and the
            appendix).
    """
    specs: List[PipelineSpec] = []
    for entry in paper_suite():
        if entry.hard:
            fault_sim = (
                FaultSimConfig(n_patterns=n_patterns) if include_fault_sim else None
            )
            spec = PipelineSpec(
                circuit=entry.key,
                seed=seed,
                optimize=OptimizeConfig(max_sweeps=max_sweeps),
                quantize=QuantizeConfig(),
                fault_sim=fault_sim,
            )
        else:
            spec = PipelineSpec(
                circuit=entry.key,
                seed=seed,
                optimize=None,
                quantize=None,
                fault_sim=None,
            )
        specs.append(spec)
    return specs


def reports_by_key(reports: Sequence[PipelineReport]) -> Dict[str, PipelineReport]:
    """Index a batch result by job key (spec label = registry key)."""
    return {report.key: report for report in reports}


def _entries_by_key() -> Dict[str, BenchmarkCircuit]:
    return {entry.key: entry for entry in paper_suite()}


def _hard_reports(reports: Sequence[PipelineReport]) -> List[tuple]:
    """(registry entry, report) pairs for the starred circuits, paper order."""
    by_key = reports_by_key(reports)
    return [
        (entry, by_key[entry.key])
        for entry in paper_suite()
        if entry.hard and entry.key in by_key
    ]


# --------------------------------------------------------------------------- #
# Table rows from report artifacts
# --------------------------------------------------------------------------- #
def table1_rows(reports: Sequence[PipelineReport]) -> List[Table1Row]:
    """Table 1 (conventional test lengths) from a full-suite batch result."""
    entries = _entries_by_key()
    rows: List[Table1Row] = []
    for report in reports:
        entry = entries[report.key]
        rows.append(
            Table1Row(
                key=report.key,
                paper_name=entry.paper_name,
                hard=entry.hard,
                n_gates=report.n_gates,
                n_faults=report.n_faults,
                measured_length=report.conventional_length,
                paper_length=entry.paper_conventional_length,
            )
        )
    return rows


def table2_rows(reports: Sequence[PipelineReport]) -> List[Table2Row]:
    """Table 2 (conventional coverage) from the hard circuits' artifacts."""
    rows: List[Table2Row] = []
    for entry, report in _hard_reports(reports):
        experiment = report.conventional_experiment
        if experiment is None:
            continue
        rows.append(
            Table2Row(
                key=report.key,
                paper_name=entry.paper_name,
                n_patterns=report.n_patterns,
                measured_coverage=report.conventional_coverage,
                n_undetected=len(experiment.result.undetected),
                paper_coverage=entry.paper_conventional_coverage,
            )
        )
    return rows


def table3_rows(reports: Sequence[PipelineReport]) -> List[Table3Row]:
    """Table 3 (optimized test lengths) from the hard circuits' artifacts."""
    rows: List[Table3Row] = []
    for entry, report in _hard_reports(reports):
        optimization = report.optimization
        if optimization is None:
            continue
        rows.append(
            Table3Row(
                key=report.key,
                paper_name=entry.paper_name,
                conventional_length=optimization.initial_test_length,
                optimized_length=optimization.test_length,
                improvement_factor=optimization.improvement_factor,
                sweeps=optimization.sweeps,
                paper_optimized_length=entry.paper_optimized_length,
            )
        )
    return rows


def table4_rows(reports: Sequence[PipelineReport]) -> List[Table4Row]:
    """Table 4 (optimized coverage) from the hard circuits' artifacts."""
    rows: List[Table4Row] = []
    for entry, report in _hard_reports(reports):
        experiment = report.optimized_experiment
        if experiment is None:
            continue
        rows.append(
            Table4Row(
                key=report.key,
                paper_name=entry.paper_name,
                n_patterns=report.n_patterns,
                measured_coverage=report.optimized_coverage,
                n_undetected=len(experiment.result.undetected),
                paper_coverage=entry.paper_optimized_coverage,
            )
        )
    return rows


def table5_rows(reports: Sequence[PipelineReport]) -> List[Table5Row]:
    """Table 5 (optimization CPU time) from the hard circuits' artifacts."""
    rows: List[Table5Row] = []
    for entry, report in _hard_reports(reports):
        optimization = report.optimization
        if optimization is None:
            continue
        rows.append(
            Table5Row(
                key=report.key,
                paper_name=entry.paper_name,
                n_gates=report.n_gates,
                n_inputs=report.n_inputs,
                n_faults=report.n_faults,
                measured_seconds=optimization.cpu_seconds,
                sweeps=optimization.sweeps,
                paper_seconds=entry.paper_cpu_seconds,
            )
        )
    return rows


def figure2_data(
    reports: Sequence[PipelineReport], n_points: int = 16
) -> Optional[Figure2Data]:
    """Figure 2 (coverage vs. pattern count for S1) from the S1 artifact.

    The curves are resampled from the per-fault first-detection indices
    embedded in the report's coverage experiments — no re-simulation.
    """
    report = reports_by_key(reports).get("s1")
    if (
        report is None
        or report.conventional_experiment is None
        or report.optimized_experiment is None
    ):
        return None
    n_patterns = report.n_patterns
    points = _sample_points(n_patterns, n_points)
    conventional = report.conventional_experiment.result
    optimized = report.optimized_experiment.result
    return Figure2Data(
        circuit_name=report.circuit_name,
        points=points,
        conventional=[100.0 * conventional.coverage_at(p) for p in points],
        optimized=[100.0 * optimized.coverage_at(p) for p in points],
    )


def appendix_listings(
    reports: Sequence[PipelineReport], keys: Sequence[str] = ("s1", "c7552")
) -> List[AppendixListing]:
    """Appendix weight listings from the optimized circuits' artifacts."""
    by_key = reports_by_key(reports)
    listings: List[AppendixListing] = []
    for key in keys:
        report = by_key.get(key)
        if report is None or report.quantized_weights is None:
            continue
        listings.append(
            AppendixListing(
                circuit_key=key,
                circuit_name=report.circuit_name,
                input_names=list(report.input_names),
                weights=[float(w) for w in np.asarray(report.quantized_weights)],
            )
        )
    return listings
