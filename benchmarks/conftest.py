"""Shared configuration of the benchmark suite.

Each benchmark module measures one area of the reproduction.  The paper's
Tables 1-4, Figure 2 and the appendix share one module-scoped suite sweep in
``bench_paper_tables.py``, like a single PROTEST run feeding all of the
paper's tables; Table 5 times its own sweeps.

This module is also the one shared path shim for *script mode*: every
``bench_*.py`` delegates its ``__main__`` block to :func:`bench_script_main`,
which makes the ``src`` layout importable (when the package is not installed)
and hands the area name plus the command line to the benchmark-harness CLI
(``python -m repro bench``) — one implementation instead of a per-script
``try: import repro / sys.path.insert`` copy.
"""

import sys
from pathlib import Path


def ensure_repro_importable() -> None:
    """Make the ``src`` layout importable (no-op when ``repro`` is installed)."""
    src = Path(__file__).resolve().parent.parent / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


ensure_repro_importable()


def bench_script_main(area: str, argv=None) -> int:
    """Script-mode entry point shared by all ``bench_*.py`` files.

    Runs ``python -m repro bench <area>`` with the script's command line, so
    ``python benchmarks/bench_substrate_throughput.py --quick --check``
    behaves exactly like ``python -m repro bench substrate --quick --check``.
    """
    from repro.bench.cli import main

    return main([area, *(sys.argv[1:] if argv is None else list(argv))])


try:
    import pytest
except ImportError:  # pragma: no cover - script mode without pytest
    pytest = None


if pytest is not None:

    @pytest.fixture(scope="session")
    def pedantic_kwargs():
        """One-shot benchmark settings: the experiments are deterministic and
        slow, so a single round is measured instead of statistical repetition."""
        return {"rounds": 1, "iterations": 1, "warmup_rounds": 0}
