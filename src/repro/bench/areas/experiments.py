"""Bench area ``tables`` — the paper's tables, Figure 2 and the appendix.

Runs the declarative suite sweep (:func:`repro.experiments.suite_specs`)
once through :func:`repro.api.run_jobs` and folds the reports into every
table, so the timing reflects one PROTEST-style run feeding all of them.
The area is *informational* (``gated=False``): no committed trajectory, no
CI gate — the shape checks live in ``benchmarks/bench_paper_tables.py``.

The paper's pattern budgets are fixed by the experiment definitions, so the
``--quick`` flag only tags the result's mode; the workload is identical.
"""

from __future__ import annotations

import numpy as np

from ...api import run_jobs
from ...experiments import (
    appendix_listings,
    figure2_data,
    suite_specs,
    table1_rows,
    table2_rows,
    table3_rows,
    table4_rows,
)
from ..artifacts import BenchResult
from ..registry import BenchArea, register_area
from ..runner import BenchRunner


def run_bench(quick: bool = False) -> BenchResult:
    runner = BenchRunner("tables", quick=quick)
    with runner.timed("run"):
        reports = run_jobs(suite_specs(), parallelism=1)
    runner.workload(n_circuits=len(reports))

    table1 = table1_rows(reports)
    for row in table1:
        if row.hard:
            runner.counter(f"table1_{row.key}_length", row.measured_length)
    runner.counter(
        "table1_max_easy_length",
        max(row.measured_length for row in table1 if not row.hard),
    )
    for name, rows in (("table2", table2_rows(reports)), ("table4", table4_rows(reports))):
        for row in rows:
            runner.metric(f"{name}_{row.key}_coverage_percent", row.measured_coverage)
            runner.counter(f"{name}_{row.key}_undetected", row.n_undetected)
    for row in table3_rows(reports):
        runner.counter(f"table3_{row.key}_optimized_length", row.optimized_length)
        runner.metric(f"table3_{row.key}_improvement", row.improvement_factor)

    figure2 = figure2_data(reports)
    runner.metric("figure2_final_conventional_coverage", figure2.conventional[-1])
    runner.metric("figure2_final_optimized_coverage", figure2.optimized[-1])
    runner.metric("figure2_crossover_gap", figure2.crossover_gap())

    for listing in appendix_listings(reports):
        weights = np.asarray(listing.weights)
        runner.counter(f"appendix_{listing.circuit_key}_n_inputs", len(weights))
        runner.metric(
            f"appendix_{listing.circuit_key}_max_deviation",
            float(np.abs(weights - 0.5).max()),
        )
    return runner.result()


AREA = register_area(
    BenchArea(
        name="tables",
        title="Tables 1-4, Figure 2 and the appendix from one suite sweep",
        run=run_bench,
    )
)
