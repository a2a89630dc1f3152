"""Multi-weight-set BIST — clustered weight-set schedule vs single-set optimum.

The paper's extension point: instead of one optimized weight set per
circuit, cluster the fault list by detection-profile similarity, optimize
one weight set per cluster and play the sets in sequence through reseeded
LFSRs.  The measurement lives in the benchmark harness
(:mod:`repro.bench.areas.mws`), which pins the scheduled test lengths and
the playback MISR signature as exact committed counters and gates the
``length_reduction`` metric above parity with the single-set optimum.

Two entry points:

* pytest-benchmark tests (statistical timing, ``pytest benchmarks/``),
* the shared harness CLI, gated against the committed ``BENCH_mws.json``
  trajectory::

      python benchmarks/bench_mws_multiset.py --quick --check
      python -m repro bench mws --quick --check            # equivalent
"""

if __name__ == "__main__":  # script mode: make src/ importable before repro imports
    import conftest

    conftest.ensure_repro_importable()

from repro.bench.areas.mws import CIRCUIT_KEY, QUICK_K, SEED
from repro.circuits import build_circuit
from repro.pipeline import Session

# --------------------------------------------------------------------------- #
# pytest-benchmark entry points
# --------------------------------------------------------------------------- #
try:
    import pytest
except ImportError:  # pragma: no cover - script mode without pytest
    pytest = None


if pytest is not None:

    @pytest.fixture(scope="module")
    def mws_session():
        session = Session(seed=SEED)
        session.add(build_circuit(CIRCUIT_KEY), key=CIRCUIT_KEY)
        session.optimize(CIRCUIT_KEY)
        return session

    @pytest.mark.benchmark(group="mws-build")
    def test_multi_weight_set_build_throughput(benchmark, mws_session):
        def run():
            return mws_session.build_weight_sets(
                CIRCUIT_KEY,
                k=QUICK_K,
                cluster_seed=SEED,
                session_seed=SEED,
            )

        weight_sets = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
        assert weight_sets.k == QUICK_K
        assert weight_sets.multi_set_length < weight_sets.single_set_length

    @pytest.mark.benchmark(group="mws-playback")
    def test_multi_weight_playback_throughput(benchmark, mws_session):
        weight_sets = mws_session.build_weight_sets(
            CIRCUIT_KEY, k=QUICK_K, cluster_seed=SEED, session_seed=SEED
        )

        def run():
            return mws_session.multi_weight_self_test(
                CIRCUIT_KEY, weight_sets=weight_sets
            )

        report = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
        assert report.self_test.passed
        benchmark.extra_info["patterns_per_second"] = (
            report.coverage.n_patterns / benchmark.stats["mean"]
        )


if __name__ == "__main__":
    raise SystemExit(conftest.bench_script_main("mws"))
