"""Tests for the planning layer and the spec-hash stability contract.

Satellite: the golden hash vectors below pin ``spec_hash()`` for
registry/file/generator specs — any change to spec canonicalization that
perturbs them invalidates every existing artifact store and must be a
deliberate, schema-versioned decision, not drift.  The volatile-field tests
prove that timings, compile counts and stats never reach a content hash.
"""

from pathlib import Path

import pytest

from repro.api import (
    PipelineSpec,
    build_plan,
    content_hash,
    execute_spec,
    report_store_key,
    scrub_volatile,
)
from repro.api.plan import ExecutionPlan, StagePlan
from repro.api.serialize import SchemaError
from repro.api.spec import FaultSimConfig, OptimizeConfig, SelfTestConfig
from repro.store import check_store_key

#: The committed ISCAS fixture; the file-spec golden hashes its *text* form,
#: so the vector breaks if either canonicalization or the fixture drifts.
C17_TEXT = (Path(__file__).parent.parent / "examples" / "c17.bench").read_text()

#: Golden spec-hash vectors.  Computed once from the canonical wire form;
#: committed so canonicalization drift is caught, not silently absorbed.
GOLDEN_HASHES = {
    "s1_default": (
        dict(circuit="s1"),
        "595716fb592f5d4a539ee6df2d2167f40eec0ddd472e17dfc2541e855b8a72b0",
    ),
    "s1_tuned": (
        dict(
            circuit="s1",
            seed=2024,
            optimize=OptimizeConfig(max_sweeps=2),
            fault_sim=FaultSimConfig(n_patterns=256),
        ),
        "e8e88a34ff00af722586952384a39933ea75702428a7bbfaafb7f4662065eeeb",
    ),
    "c17_file_text": (
        dict(circuit={"kind": "file", "text": C17_TEXT}),
        "176e1f912db387bd25a93c3b2c666adb8d41b3d3d2dff62f68095852165c8827",
    ),
    "generator": (
        dict(
            circuit={
                "kind": "generator",
                "n_inputs": 8,
                "n_gates": 64,
                "depth": 6,
                "seed": 7,
            }
        ),
        "c9b7149ec95ae00febbcc3ed85852400164e73b561ea2a7cc7e0889e4b8d3b26",
    ),
}


class TestSpecHashGoldens:
    @pytest.mark.parametrize("name", sorted(GOLDEN_HASHES))
    def test_golden_vector(self, name):
        kwargs, expected = GOLDEN_HASHES[name]
        assert PipelineSpec(**kwargs).spec_hash() == expected

    def test_hash_is_stable_across_round_trips(self):
        for kwargs, expected in GOLDEN_HASHES.values():
            spec = PipelineSpec(**kwargs)
            assert PipelineSpec.from_dict(spec.to_dict()).spec_hash() == expected

    def test_equal_specs_hash_equal_distinct_specs_differ(self):
        hashes = {PipelineSpec(**kwargs).spec_hash() for kwargs, _ in GOLDEN_HASHES.values()}
        assert len(hashes) == len(GOLDEN_HASHES)
        assert PipelineSpec(circuit="s1").spec_hash() == PipelineSpec(circuit="s1").spec_hash()
        assert (
            PipelineSpec(circuit="s1", seed=1).spec_hash()
            != PipelineSpec(circuit="s1", seed=2).spec_hash()
        )

    def test_python_hash_tracks_spec_hash(self):
        a, b = PipelineSpec(circuit="s1"), PipelineSpec(circuit="s1")
        assert hash(a) == hash(b)
        assert len({a, b}) == 1  # usable as a dedup set member


class TestVolatileScrubbing:
    """Volatile fields (timings, compile counts) never perturb a hash."""

    def test_report_hash_invariant_under_volatile_fields(self):
        spec = PipelineSpec(
            circuit="s1",
            optimize=OptimizeConfig(max_sweeps=2),
            fault_sim=FaultSimConfig(n_patterns=64),
        )
        report = execute_spec(spec)
        data = report.to_dict()
        baseline = content_hash(data)
        perturbed = dict(data)
        perturbed["seconds"] = 1e9
        perturbed["lowerings"] = 42
        assert content_hash(perturbed) == baseline
        # ... and canonical_dict equality agrees with the hash.
        from repro.pipeline import PipelineReport

        assert (
            PipelineReport.from_dict(perturbed).canonical_dict()
            == report.canonical_dict()
        )

    def test_scrub_only_touches_tagged_dicts(self):
        data = {
            "kind": "x",
            "seconds": 1.5,
            "weight_map": {"seconds": 0.25},  # a net literally named "seconds"
            "nested": [{"kind": "y", "cpu_seconds": 2.0, "value": 1}],
        }
        scrubbed = scrub_volatile(data)
        assert "seconds" not in scrubbed
        assert scrubbed["weight_map"] == {"seconds": 0.25}
        assert scrubbed["nested"] == [{"kind": "y", "value": 1}]

    def test_content_hash_ignores_key_order(self):
        assert content_hash({"a": 1, "b": 2}) == content_hash({"b": 2, "a": 1})


class TestBuildPlan:
    SPEC = dict(
        circuit="s1",
        optimize=OptimizeConfig(max_sweeps=2),
        fault_sim=FaultSimConfig(n_patterns=128),
    )

    def test_plan_is_pure_and_deterministic(self):
        from repro.lowered import compile_count

        lowerings = compile_count()
        plan_a = build_plan(PipelineSpec(**self.SPEC))
        plan_b = build_plan(PipelineSpec(**self.SPEC))
        assert compile_count() == lowerings  # planned without lowering
        assert plan_a.store_keys() == plan_b.store_keys()
        assert isinstance(plan_a, ExecutionPlan)

    def test_stage_order_and_accessors(self):
        spec = PipelineSpec(
            circuit="s1", self_test=SelfTestConfig(n_patterns=64), **{
                k: v for k, v in self.SPEC.items() if k != "circuit"
            }
        )
        plan = build_plan(spec)
        assert [s.name for s in plan.stages] == [
            "analysis",
            "optimize",
            "quantize",
            "fault_sim",
            "self_test",
        ]
        assert isinstance(plan.stage("optimize"), StagePlan)
        assert plan.stage("self_test").seed == spec.stage_seed("self_test")
        with pytest.raises(ValueError, match="unknown stage"):
            plan.stage("mystery")

    def test_skipped_stages_are_absent(self):
        plan = build_plan(
            PipelineSpec(circuit="s1", optimize=None, quantize=None, fault_sim=None)
        )
        assert [s.name for s in plan.stages] == ["analysis"]
        assert plan.stage("fault_sim") is None
        assert plan.n_patterns is None

    def test_report_key_matches_spec_hash(self):
        spec = PipelineSpec(**self.SPEC)
        plan = build_plan(spec)
        assert plan.report_key == report_store_key(spec.spec_hash())
        assert plan.spec_hash == spec.spec_hash()

    def test_all_store_keys_are_valid(self):
        plan = build_plan(PipelineSpec(**self.SPEC))
        keys = plan.store_keys()
        assert set(keys) == {
            "report",
            "optimize.result",
            "fault_sim.conventional",
            "fault_sim.optimized",
        }
        for key in keys.values():
            check_store_key(key)

    def test_optimize_key_shared_across_seeds_and_labels(self):
        """Optimization is deterministic: the stage key must not depend on
        seed or label, so differently-seeded specs share the artifact."""
        key_a = build_plan(PipelineSpec(seed=1, **self.SPEC)).stage("optimize")
        key_b = build_plan(PipelineSpec(seed=2, **self.SPEC)).stage("optimize")
        key_c = build_plan(PipelineSpec(key="other", **self.SPEC)).stage("optimize")
        assert key_a.store_keys == key_b.store_keys == key_c.store_keys

    def test_optimize_key_depends_on_quantize_config(self):
        """The cached OptimizationResult embeds quantized_weights at the
        spec's quantization step, so the step participates in the key."""
        from repro.api.spec import QuantizeConfig

        base = build_plan(PipelineSpec(**self.SPEC)).stage("optimize")
        stepped = build_plan(
            PipelineSpec(quantize=QuantizeConfig(step=0.125), **self.SPEC)
        ).stage("optimize")
        assert base.store_keys != stepped.store_keys

    def test_fault_sim_key_depends_on_seed_and_budget(self):
        def fs_keys(**overrides):
            kwargs = {**self.SPEC, **overrides}
            return build_plan(PipelineSpec(**kwargs)).stage("fault_sim").store_keys

        base = fs_keys()
        assert fs_keys(seed=2) != base  # derived seed participates
        assert fs_keys(fault_sim=FaultSimConfig(n_patterns=256)) != base
        # The conventional and weighted experiments never collide.
        assert base["conventional"] != base["optimized"]

    def test_circuit_ref_participates(self):
        base = build_plan(PipelineSpec(**self.SPEC))
        other = build_plan(PipelineSpec(**{**self.SPEC, "circuit": "s2"}))
        assert base.stage("optimize").store_keys != other.stage("optimize").store_keys
        assert base.report_key != other.report_key


class TestLegacyBackendFields:
    """Specs written while a kernel backend was selectable still decode.

    The ``backend``/``allow_fallback`` wire fields are written as constants
    and ignored on decode, so a spec that named any old backend runs on the
    one engine and hashes like the default spec.
    """

    SPEC = PipelineSpec(
        circuit={"kind": "file", "text": C17_TEXT},
        optimize=OptimizeConfig(max_sweeps=1),
        fault_sim=FaultSimConfig(n_patterns=128),
    )

    def _with(self, **fields):
        data = self.SPEC.to_dict()
        for stage in ("analysis", "fault_sim"):
            data[stage] = dict(data[stage])
            data[stage].pop("backend")
            data[stage].pop("allow_fallback")
            data[stage].update(fields)
        return data

    def test_legacy_payloads_decode_and_execute_identically(self):
        reference = execute_spec(self.SPEC).canonical_dict()
        for fields in (
            {},
            {"backend": "numpy"},
            {"backend": "numba", "allow_fallback": True},
        ):
            spec = PipelineSpec.from_dict(self._with(**fields))
            assert spec.spec_hash() == self.SPEC.spec_hash()
            assert execute_spec(spec).canonical_dict() == reference

    @pytest.mark.parametrize(
        "fields", [{"backend": "cuda"}, {"allow_fallback": "yes"}, {"allow_fallback": None}]
    )
    def test_invalid_legacy_values_rejected(self, fields):
        for stage in ("analysis", "fault_sim"):
            data = self.SPEC.to_dict()
            data[stage] = {**data[stage], **fields}
            with pytest.raises(SchemaError):
                PipelineSpec.from_dict(data)
