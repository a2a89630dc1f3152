"""Experiment runners regenerating every table and figure of the paper.

The tables, Figure 2 and the appendix listings are folded from one batch
sweep (:mod:`repro.experiments.batch`); the Table 5 estimator speedup and
the multi-weight comparison run their own specs and sessions.
"""

from .tables import format_count, format_percent, format_seconds, format_table
from .table1 import Table1Row, format_table1
from .table2 import Table2Row, format_table2
from .table3 import Table3Row, format_table3
from .table4 import Table4Row, format_table4
from .table5 import (
    Table5Row,
    Table5SpeedupRow,
    format_table5,
    format_table5_speedup,
    run_table5_speedup,
)
from .figure2 import Figure2Data, format_figure2
from .multi_weight import (
    MultiWeightRow,
    format_multi_weight,
    run_multi_weight,
)
from .appendix import AppendixListing, format_appendix
from .batch import (
    CONFIDENCE,
    appendix_listings,
    figure2_data,
    reports_by_key,
    suite_specs,
    table1_rows,
    table2_rows,
    table3_rows,
    table4_rows,
    table5_rows,
)

__all__ = [
    "CONFIDENCE",
    "format_table",
    "format_count",
    "format_percent",
    "format_seconds",
    "Table1Row",
    "format_table1",
    "Table2Row",
    "format_table2",
    "Table3Row",
    "format_table3",
    "Table4Row",
    "format_table4",
    "Table5Row",
    "format_table5",
    "Table5SpeedupRow",
    "run_table5_speedup",
    "format_table5_speedup",
    "Figure2Data",
    "format_figure2",
    "MultiWeightRow",
    "run_multi_weight",
    "format_multi_weight",
    "AppendixListing",
    "format_appendix",
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
