"""Pinned executor and store counters for cold, warm and partly warm runs.

One c432 spec with every stage declared runs against a store holding all,
some or none of its stored artifacts.  Each scenario pins the deltas of
:func:`repro.api.executor_stats` (executions, stage runs, stage hits), of
the store's own counters (hits, misses, puts) and the ``on_stage``
callbacks, so a change to the executor's load-or-compute logic that
executes, skips or stores one stage more or less shows up here.  A weight
set served from the store counts as a stage hit; building one is part of
the ``multi_weight`` stage run, not a run of its own.
"""

import pytest

from repro.api import (
    FaultSimConfig,
    MultiWeightConfig,
    OptimizeConfig,
    PipelineSpec,
    SelfTestConfig,
    build_plan,
    execute_spec,
    executor_stats,
)
from repro.store import MemoryStore

SPEC = PipelineSpec(
    circuit="c432",
    optimize=OptimizeConfig(max_sweeps=2),
    fault_sim=FaultSimConfig(n_patterns=512),
    self_test=SelfTestConfig(n_patterns=256, inject_hardest=True),
    multi_weight=MultiWeightConfig(k=2),
)

ALL_STAGES = [
    "analysis",
    "optimize",
    "quantize",
    "fault_sim",
    "fault_sim",
    "self_test",
    "multi_weight",
]


def _keys(*names):
    plan = build_plan(SPEC)
    where = {
        "report": plan.report_key,
        "optimize": plan.stage("optimize").store_keys["result"],
        "optimized_leg": plan.stage("fault_sim").store_keys["optimized"],
        "multi_weight": plan.stage("multi_weight").store_keys["result"],
    }
    return [where[name] for name in names]


def _run(store):
    """(executor deltas, store deltas, on_stage calls, report) of one run."""
    calls = []
    before = executor_stats()
    store_before = None if store is None else store.stats()
    report = execute_spec(SPEC, store=store, on_stage=calls.append)
    after = executor_stats()
    executor = tuple(
        after[name] - before[name] for name in ("executions", "stage_runs", "stage_hits")
    )
    store_delta = None
    if store is not None:
        store_after = store.stats()
        store_delta = tuple(
            store_after[name] - store_before[name] for name in ("hits", "misses", "puts")
        )
    return executor, store_delta, calls, report


@pytest.fixture(scope="module")
def cold():
    """The cold run: its counters, and every artifact it stored."""
    store = MemoryStore()
    executor, store_delta, calls, report = _run(store)
    artifacts = {key: store.get(key) for key in store.keys()}
    return executor, store_delta, calls, report, artifacts


def _store_without(artifacts, deleted):
    store = MemoryStore()
    for key, artifact in artifacts.items():
        store.put(key, artifact)
    for key in deleted:
        assert store.delete(key)
    return store


def test_cold_run(cold):
    executor, store_delta, calls, _, artifacts = cold
    assert executor == (1, 7, 0)
    assert store_delta == (0, 6, 6)
    assert calls == ALL_STAGES
    assert len(artifacts) == 6


@pytest.mark.parametrize(
    "deleted, executor, store_delta, calls",
    [
        ((), (0, 0, 0), (1, 0, 0), []),
        (("report",), (1, 3, 4), (4, 1, 1), ["analysis", "quantize", "self_test"]),
        (
            ("report", "multi_weight"),
            (1, 4, 4),
            (4, 2, 2),
            ["analysis", "quantize", "self_test", "multi_weight"],
        ),
        (
            ("report", "optimize", "optimized_leg"),
            (1, 5, 2),
            (2, 3, 3),
            ["analysis", "optimize", "quantize", "fault_sim", "self_test"],
        ),
    ],
    ids=["warm", "report", "report+multi_weight", "report+optimize+optimized_leg"],
)
def test_partly_warm_runs(cold, deleted, executor, store_delta, calls):
    store = _store_without(cold[4], _keys(*deleted))
    got_executor, got_store, got_calls, report = _run(store)
    assert (got_executor, got_store, got_calls) == (executor, store_delta, calls)
    # Whatever was served and whatever recomputed, the result is the same.
    assert report.canonical_dict() == cold[3].canonical_dict()


def test_run_without_store(cold):
    executor, store_delta, calls, report = _run(None)
    assert executor == (1, 7, 0)
    assert store_delta is None
    assert calls == ALL_STAGES
    assert report.canonical_dict() == cold[3].canonical_dict()


def test_narrow_register_fails_before_any_stage():
    spec = PipelineSpec(
        circuit="c432",
        optimize=OptimizeConfig(max_sweeps=2),
        fault_sim=FaultSimConfig(n_patterns=512),
        self_test=SelfTestConfig(n_patterns=256, misr_width=4),
    )
    store = MemoryStore()
    calls = []
    with pytest.raises(ValueError, match="MISR of width 4 cannot compact"):
        execute_spec(spec, store=store, on_stage=calls.append)
    assert calls == []
    assert store.stats()["puts"] == 0


def test_multi_weight_report_is_keyed_by_partition_size():
    def spec(partition_size):
        return PipelineSpec(
            circuit="c432",
            optimize=OptimizeConfig(max_sweeps=2),
            fault_sim=FaultSimConfig(n_patterns=256, partition_size=partition_size),
            multi_weight=MultiWeightConfig(k=2),
        )

    plans = [build_plan(spec(size)).stage("multi_weight") for size in (None, 32)]
    assert plans[0].store_keys["weight_sets"] == plans[1].store_keys["weight_sets"]
    assert plans[0].store_keys["result"] != plans[1].store_keys["result"]

    store = MemoryStore()
    execute_spec(spec(None), store=store)
    warm = execute_spec(spec(32), store=store)
    cold = execute_spec(spec(32))
    assert warm.multi_weight.coverage.result.stats.partition_size == 32
    assert warm.canonical_dict() == cold.canonical_dict()
