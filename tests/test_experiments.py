"""Tests for the experiment runners and table formatting.

The full paper sweep is exercised by the benchmark suite; here the
formatting helpers are unit-tested, a scaled-down batch sweep is folded into
every table, and the Table 5 estimator comparison runs on one circuit.
"""

import pytest

from repro.api import run_jobs
from repro.circuits.registry import get_entry
from repro.experiments import (
    appendix_listings,
    figure2_data,
    format_count,
    format_percent,
    format_seconds,
    format_table,
    run_table5_speedup,
    suite_specs,
    table1_rows,
    table2_rows,
    table3_rows,
    table4_rows,
    table5_rows,
)
from repro.experiments.appendix import AppendixListing
from repro.experiments.figure2 import Figure2Data, _sample_points
from repro.experiments.table1 import Table1Row, format_table1
from repro.experiments.table3 import Table3Row, format_table3


class TestFormatting:
    def test_format_count_styles(self):
        assert format_count(None) == "-"
        assert format_count(2500) == "2,500"
        assert format_count(5.6e8) == "5.6e+08"
        assert format_count(float("inf")) == "inf"

    def test_format_percent_and_seconds(self):
        assert format_percent(99.66) == "99.7 %"
        assert format_percent(None) == "-"
        assert format_seconds(12.34) == "12.3 s"
        assert format_seconds(None) == "-"

    def test_format_table_alignment_and_title(self):
        text = format_table(["name", "value"], [["a", 1], ["bb", 22]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 2 + 1 + 2  # title + header + rule + 2 rows

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only one"]])

    def test_table1_formatter_includes_paper_column(self):
        row = Table1Row("s1", "S1", True, 100, 200, 123456, 5.6e8)
        text = format_table1([row])
        assert "5.6e+08" in text and "S1" in text

    def test_table3_formatter_shows_improvement(self):
        row = Table3Row("s1", "S1", 1_000_000, 10_000, 100.0, 3, 3.5e4)
        assert "x100" in format_table3([row])


#: A hard circuit (every stage) and an easy one (analysis only).
_SMALL_KEYS = ("s1", "c432")
_SMALL_PATTERNS = 512


@pytest.fixture(scope="module")
def small_sweep():
    specs = [
        spec
        for spec in suite_specs(max_sweeps=2, n_patterns=_SMALL_PATTERNS)
        if spec.label in _SMALL_KEYS
    ]
    return run_jobs(specs, parallelism=1)


class TestBatchFolding:
    """Every table field is the report field it is folded from."""

    def test_table1_rows(self, small_sweep):
        rows = table1_rows(small_sweep)
        assert [row.key for row in rows] == list(_SMALL_KEYS)
        for row, report in zip(rows, small_sweep):
            entry = get_entry(report.key)
            assert row.paper_name == entry.paper_name
            assert row.hard == entry.hard
            assert row.n_gates == report.n_gates
            assert row.n_faults == report.n_faults
            assert row.measured_length == report.conventional_length
            assert row.paper_length == entry.paper_conventional_length

    def test_coverage_tables(self, small_sweep):
        (report,) = [r for r in small_sweep if r.key == "s1"]
        entry = get_entry("s1")
        (table2,) = table2_rows(small_sweep)
        (table4,) = table4_rows(small_sweep)
        for row, coverage, experiment, paper in (
            (
                table2,
                report.conventional_coverage,
                report.conventional_experiment,
                entry.paper_conventional_coverage,
            ),
            (
                table4,
                report.optimized_coverage,
                report.optimized_experiment,
                entry.paper_optimized_coverage,
            ),
        ):
            assert row.key == "s1"
            assert row.paper_name == entry.paper_name
            assert row.n_patterns == report.n_patterns == _SMALL_PATTERNS
            assert row.measured_coverage == coverage
            assert row.measured_coverage == experiment.fault_coverage_percent
            assert row.n_undetected == len(experiment.result.undetected)
            assert row.paper_coverage == paper

    def test_optimization_tables(self, small_sweep):
        (report,) = [r for r in small_sweep if r.key == "s1"]
        entry = get_entry("s1")
        optimization = report.optimization
        (table3,) = table3_rows(small_sweep)
        assert table3.key == "s1" and table3.paper_name == entry.paper_name
        assert table3.conventional_length == report.conventional_length
        assert table3.optimized_length == report.optimized_length
        assert table3.improvement_factor == optimization.improvement_factor
        assert table3.sweeps == optimization.sweeps <= 2
        assert table3.paper_optimized_length == entry.paper_optimized_length
        (table5,) = table5_rows(small_sweep)
        assert table5.key == "s1" and table5.paper_name == entry.paper_name
        assert (table5.n_gates, table5.n_inputs, table5.n_faults) == (
            report.n_gates,
            report.n_inputs,
            report.n_faults,
        )
        assert table5.measured_seconds == optimization.cpu_seconds
        assert table5.sweeps == optimization.sweeps
        assert table5.paper_seconds == entry.paper_cpu_seconds

    def test_figure2_data(self, small_sweep):
        (report,) = [r for r in small_sweep if r.key == "s1"]
        data = figure2_data(small_sweep)
        assert data.circuit_name == report.circuit_name
        assert data.points == _sample_points(_SMALL_PATTERNS, 16)
        assert data.points[-1] == _SMALL_PATTERNS
        conventional = report.conventional_experiment.result
        optimized = report.optimized_experiment.result
        assert data.conventional == [
            100.0 * conventional.coverage_at(p) for p in data.points
        ]
        assert data.optimized == [100.0 * optimized.coverage_at(p) for p in data.points]
        assert data.conventional[-1] == pytest.approx(report.conventional_coverage)
        assert data.optimized[-1] == pytest.approx(report.optimized_coverage)

    def test_appendix_listings(self, small_sweep):
        (report,) = [r for r in small_sweep if r.key == "s1"]
        (listing,) = appendix_listings(small_sweep)  # c7552 is not in the sweep
        assert listing.circuit_key == "s1"
        assert listing.circuit_name == report.circuit_name
        assert listing.input_names == report.input_names
        assert listing.weights == [float(w) for w in report.quantized_weights]


def test_table5_speedup_histories_equal():
    """The scalar and batched estimators optimize c2670 bit-identically."""
    (row,) = run_table5_speedup(keys=["c2670"])
    assert row.histories_equal
    # The committed BENCH_table5.json counters.
    assert (row.test_length, row.n_faults) == (2_473, 550)


class TestResultContainers:
    def test_figure2_crossover_gap(self):
        data = Figure2Data("s1", [10, 100], [60.0, 70.0], [80.0, 99.0])
        assert data.crossover_gap() == pytest.approx(20.0)

    def test_appendix_grouping(self):
        listing = AppendixListing("s1", "S1", ["a0", "a1", "a2", "a3"], [0.9, 0.9, 0.1, 0.9])
        groups = listing.grouped()
        assert groups == [("1-2", 0.9), ("3", 0.1), ("4", 0.9)]
