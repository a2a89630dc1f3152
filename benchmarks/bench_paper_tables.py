"""Tables 1-4, Figure 2 and the appendix — the paper's shapes on one sweep.

One module-scoped fixture runs the declarative suite sweep
(:func:`repro.experiments.suite_specs` through :func:`repro.api.run_jobs`)
once, like a single PROTEST run feeding all of the paper's tables; every
test folds its table from those reports and checks the shape the paper
reports:

* Table 1 — the four starred circuits (S1, S2, C2670, C7552) need orders of
  magnitude more equiprobable patterns than the unstarred ones;
* Table 2 — at the paper's pattern budgets (12 000 for S1/S2, 4 000 for the
  C2670/C7552 substitutes) conventional random patterns leave every starred
  circuit with undetected faults;
* Table 3 — optimization shortens the required test by orders of magnitude
  on the comparator and by a large factor everywhere;
* Table 4 — optimized patterns at the same budgets raise coverage sharply
  (paper: 77-94 % -> 98.9-99.7 %);
* Figure 2 — the optimized S1 curve dominates the conventional one and
  approaches complete coverage;
* Appendix — the optimized weights lie on the 0.05 grid, strictly inside
  (0, 1), and clearly away from 0.5.

Run with ``python -m pytest benchmarks/bench_paper_tables.py``; script mode
forwards to ``python -m repro bench tables``.
"""

if __name__ == "__main__":  # script mode: make src/ importable before repro imports
    import conftest

    conftest.ensure_repro_importable()

import numpy as np
import pytest

from repro.api import run_jobs
from repro.experiments import (
    appendix_listings,
    figure2_data,
    format_appendix,
    format_figure2,
    format_table1,
    format_table2,
    format_table3,
    format_table4,
    suite_specs,
    table1_rows,
    table2_rows,
    table3_rows,
    table4_rows,
)


@pytest.fixture(scope="module")
def reports():
    """The full paper sweep, executed once for every test of this module."""
    return run_jobs(suite_specs(), parallelism=1)


def test_table1_conventional_test_lengths(reports):
    rows = table1_rows(reports)
    print()
    print(format_table1(rows))

    by_key = {row.key: row for row in rows}
    hard_lengths = [row.measured_length for row in rows if row.hard]
    easy_lengths = [row.measured_length for row in rows if not row.hard]
    # Shape check: every starred circuit needs more patterns than the median
    # unstarred circuit, and the worst starred circuit dwarfs every easy one.
    easy_lengths.sort()
    median_easy = easy_lengths[len(easy_lengths) // 2]
    assert min(hard_lengths) > median_easy
    assert max(hard_lengths) > 100 * max(easy_lengths) or max(hard_lengths) > 10**6
    # S1's equality chain makes it one of the hardest circuits, as in the paper.
    assert by_key["s1"].measured_length > 10**6


def test_table2_conventional_coverage(reports):
    rows = table2_rows(reports)
    print()
    print(format_table2(rows))

    for row in rows:
        # The paper reports 77.2 % - 93.9 %; the substituted circuits must
        # likewise be clearly below complete coverage with undetected faults left.
        assert row.measured_coverage < 97.0, row
        assert row.n_undetected > 0, row


def test_table3_optimized_test_lengths(reports):
    rows = table3_rows(reports)
    print()
    print(format_table3(rows))

    by_key = {row.key: row for row in rows}
    for row in rows:
        assert row.optimized_length < row.conventional_length, row
    # The comparator's equality chain is where weighting pays off most
    # dramatically (paper: 5.6e8 -> 3.5e4); require at least three orders of
    # magnitude on the substituted S1 and a >= 5x gain on every starred circuit.
    assert by_key["s1"].improvement_factor > 1_000
    assert all(row.improvement_factor >= 5 for row in rows)


def test_table4_optimized_coverage(reports):
    conventional = {row.key: row for row in table2_rows(reports)}
    rows = table4_rows(reports)
    print()
    print(format_table4(rows))
    print()
    print("(conventional reference)")
    print(format_table2(list(conventional.values())))

    for row in rows:
        baseline = conventional[row.key]
        # Optimized patterns must detect strictly more faults, mirroring the
        # Table 2 -> Table 4 improvement.
        assert row.measured_coverage > baseline.measured_coverage, row
        assert row.n_undetected < baseline.n_undetected, row
    # The paper reaches 98.9-99.7 % on all four circuits; the substituted suite
    # reaches that on at least three of them.  The scaled-down divider (S2) is
    # the documented exception — see the s2 exact-redundancy item in ROADMAP.md.
    assert sum(row.measured_coverage >= 98.0 for row in rows) >= 3


def test_figure2_coverage_vs_pattern_count(reports):
    data = figure2_data(reports)
    print()
    print(format_figure2(data))

    # Dominance: the optimized curve never falls below the conventional one.
    assert data.crossover_gap() >= 0.0
    # End points: optimized approaches full coverage, conventional stalls.
    assert data.optimized[-1] > 97.0
    assert data.conventional[-1] < data.optimized[-1] - 5.0


def test_appendix_weight_listings(reports):
    listings = appendix_listings(reports)
    print()
    print(format_appendix(listings))

    for listing in listings:
        weights = np.asarray(listing.weights)
        # On the 0.05 grid, never exactly 0 or 1 (Lemma 2: that would make the
        # corresponding input stuck-at fault untestable).
        assert np.allclose(np.round(weights / 0.05) * 0.05, weights, atol=1e-9)
        assert weights.min() >= 0.05 - 1e-9
        assert weights.max() <= 0.95 + 1e-9
        # The optimized distribution is genuinely unequiprobable.
        assert np.abs(weights - 0.5).max() > 0.2


if __name__ == "__main__":
    raise SystemExit(conftest.bench_script_main("tables"))
