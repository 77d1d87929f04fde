"""Evidence-ledger tests: build, lookup, rendering, round-trips, parity.

Covers the :mod:`repro.obs.explain` unit surface plus its integration
into ``FDX.discover`` diagnostics: every emitted FD must carry a
retrievable evidence record, near-misses must be margin-ranked and
capped, and the whole ledger must survive ``FDXResult`` serialization.
"""

import json

import numpy as np
import pytest

from repro.core.fdx import FDX, FDXResult
from repro.dataset.relation import Relation
from repro.obs.explain import (
    DEFAULT_NEAR_MISS_CAP,
    EvidenceLedger,
    annotate_evidence,
    build_evidence,
    evidence_for_fd,
    render_evidence_table,
)


def toy_evidence(sparsity=0.1, near_miss_cap=DEFAULT_NEAR_MISS_CAP):
    """Hand-built 3x3 system: one emitted edge, one near-miss, one zero."""
    B = np.array([
        [0.0, 0.5, 0.06],   # a->b emitted (0.5 > 0.1); a->c near-miss
        [0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0],
    ])
    precision = np.array([
        [2.0, -0.8, -0.1],
        [-0.8, 2.0, 0.0],
        [-0.1, 0.0, 2.0],
    ])
    return build_evidence(
        autoregression=B,
        order=np.arange(3),
        names=["a", "b", "c"],
        precision=precision,
        sparsity=sparsity,
        n_pair_samples=120,
        n_rows=40,
        lambda_info={"mode": "fixed", "selected": 0.02},
        near_miss_cap=near_miss_cap,
    )


def discovery_relation(n=300):
    rows = [(f"z{i % 7}", f"c{i % 7}", f"s{i % 2}") for i in range(n)]
    return Relation.from_rows(["zip", "city", "state"], rows)


class TestBuildEvidence:
    def test_emitted_record_carries_full_edge_evidence(self):
        evidence = toy_evidence()
        assert [r["fd"] for r in evidence["records"]] == ["a->b"]
        record = evidence["records"][0]
        assert record["lhs"] == ["a"] and record["rhs"] == "b"
        assert record["emitted"] is True
        edge = record["edges"][0]
        assert edge["weight"] == pytest.approx(0.5)
        assert edge["precision"] == pytest.approx(-0.8)
        # partial correlation = -Theta_ij / sqrt(Theta_ii * Theta_jj)
        assert edge["partial_correlation"] == pytest.approx(0.8 / 2.0)
        assert record["margin"] == pytest.approx(0.5 - 0.1)

    def test_near_miss_sits_between_floor_and_threshold(self):
        evidence = toy_evidence()
        assert [r["fd"] for r in evidence["near_misses"]] == ["a->c"]
        miss = evidence["near_misses"][0]
        assert miss["margin"] == pytest.approx(0.1 - 0.06)
        assert evidence["suppressed_total"] == 1

    def test_near_misses_ranked_by_margin_and_capped(self):
        p = 8
        B = np.zeros((p, p))
        # Row 0 determines columns 1..p-1 with weights strictly below the
        # 0.5 threshold, each a different distance away.
        for j in range(1, p):
            B[0, j] = 0.5 - 0.05 * j
        evidence = build_evidence(
            autoregression=B,
            order=np.arange(p),
            names=[f"a{i}" for i in range(p)],
            precision=np.eye(p),
            sparsity=0.5,
            n_pair_samples=10,
            near_miss_cap=3,
        )
        assert evidence["records"] == []
        assert evidence["suppressed_total"] == p - 1
        assert len(evidence["near_misses"]) == 3
        margins = [m["margin"] for m in evidence["near_misses"]]
        assert margins == sorted(margins)
        assert margins[0] == pytest.approx(0.05)

    def test_structural_zeros_are_not_near_misses(self):
        B = np.zeros((2, 2))
        B[0, 1] = 1e-12  # below NUMERICAL_ZERO
        evidence = build_evidence(
            autoregression=B,
            order=np.arange(2),
            names=["a", "b"],
            precision=np.eye(2),
            sparsity=0.05,
            n_pair_samples=4,
        )
        assert evidence["records"] == []
        assert evidence["near_misses"] == []
        assert evidence["suppressed_total"] == 0

    def test_ledger_is_json_pure(self):
        evidence = toy_evidence()
        rebuilt = json.loads(json.dumps(evidence))
        assert rebuilt == evidence

    def test_fallback_stage_tracks_chain_tail(self):
        chain = [{"stage": "configured"}, {"stage": "neighborhood"}]
        evidence = build_evidence(
            autoregression=np.zeros((1, 1)),
            order=np.arange(1),
            names=["a"],
            precision=np.eye(1),
            sparsity=0.05,
            n_pair_samples=0,
            fallback_chain=chain,
        )
        assert evidence["fallback_stage"] == "neighborhood"


class TestLookupAndRendering:
    def test_lookup_is_lhs_order_insensitive(self):
        evidence = {"records": [{"fd": "a,b->c", "rhs": "c"}]}
        assert evidence_for_fd(evidence, "b, a ->c") == evidence["records"][0]
        assert evidence_for_fd(evidence, "a->c") is None

    def test_bare_attribute_matches_its_determining_record(self):
        evidence = toy_evidence()
        assert evidence_for_fd(evidence, "b")["fd"] == "a->b"
        assert evidence_for_fd(evidence, "nope") is None

    def test_annotate_adds_streaks_and_drift(self):
        annotated = annotate_evidence(
            toy_evidence(), streaks={"a->b": 4}, drift_score=0.25
        )
        assert annotated["records"][0]["stability_streak"] == 4
        assert annotated["drift_score"] == pytest.approx(0.25)
        # The original ledger is untouched (copy semantics).
        assert "stability_streak" not in toy_evidence()["records"][0]

    def test_annotate_maps_nonfinite_drift_to_none(self):
        assert annotate_evidence(toy_evidence(), drift_score=float("nan"))[
            "drift_score"
        ] is None

    def test_render_table_lists_records_and_near_misses(self):
        lines = render_evidence_table(toy_evidence())
        assert lines[0].startswith("evidence: threshold=0.1 lambda=0.02")
        assert any("a->b" in line and "margin=" in line for line in lines)
        assert any("near-misses (1 of 1" in line for line in lines)

    def test_ledger_object_round_trips(self):
        ledger = EvidenceLedger(toy_evidence())
        rebuilt = EvidenceLedger.from_dict(
            json.loads(json.dumps(ledger.to_dict()))
        )
        assert rebuilt.to_dict() == ledger.to_dict()
        assert rebuilt.for_fd("a->b")["fd"] == "a->b"
        assert [m["fd"] for m in rebuilt.near_misses] == ["a->c"]
        with pytest.raises(ValueError):
            EvidenceLedger.from_dict(None)


class TestDiscoveryIntegration:
    def test_every_emitted_fd_has_a_retrievable_record(self):
        result = FDX().discover(discovery_relation())
        evidence = result.diagnostics["evidence"]
        assert result.fds, "fixture must emit at least one FD"
        for fd in result.fds:
            record = evidence_for_fd(evidence, str(fd))
            assert record is not None, f"no evidence for {fd}"
            assert record["margin"] > 0
            assert record["edges"]
        assert evidence["lambda"]["mode"] == "fixed"
        assert evidence["fallback_stage"] == "configured"
        assert evidence["n_pair_samples"] == result.n_pair_samples

    def test_evidence_can_be_disabled(self):
        result = FDX(evidence=False).discover(discovery_relation())
        assert "evidence" not in result.diagnostics
        # Solver telemetry is unconditional: it costs nothing extra.
        assert result.diagnostics["solver_health"]["runs"]

    def test_evidence_round_trips_through_fdxresult(self):
        result = FDX().discover(discovery_relation())
        rebuilt = FDXResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert rebuilt.diagnostics["evidence"] == result.diagnostics["evidence"]
        assert (
            rebuilt.diagnostics["solver_health"]
            == result.diagnostics["solver_health"]
        )

    def test_solver_health_records_the_final_solve(self):
        result = FDX(lam=0.02).discover(discovery_relation())
        health = result.diagnostics["solver_health"]
        runs = health["runs"]
        assert len(runs) == 1
        run = runs[0]
        assert run["stage"] == "configured"
        assert run["estimator"] == "glasso"
        assert run["lam"] == pytest.approx(0.02)
        assert run["converged"] is True
        assert run["condition_number"] >= 1.0
        assert health["lambda"]["mode"] == "fixed"
        # Determinism contract: no wall-clock fields in solver runs.
        assert not any("seconds" in key or "time" in key for key in run)

    def test_tiny_relation_gets_an_empty_ledger(self):
        rel = Relation.from_rows(["only"], [("x",), ("y",)])
        result = FDX().discover(rel)
        evidence = result.diagnostics["evidence"]
        assert evidence["records"] == []
        assert result.diagnostics["solver_health"]["runs"] == []
