"""Degraded-mode pipeline: input guards and the solver fallback ladder."""

import numpy as np
import pytest

from repro import FDX, Relation
from repro.core.fdx import validate_relation
from repro.core.structure import learn_structure, learn_structure_resilient
from repro.errors import (
    DegenerateColumnError,
    EmptyRelationError,
    InputValidationError,
    InsufficientRowsError,
)
from repro.linalg.covariance import empirical_covariance
from repro.resilience import FaultInjector


def fd_relation(n=120):
    rows = [(i % 6, (i % 6) // 2, i % 4) for i in range(n)]
    return Relation.from_rows(["a", "b", "c"], rows)


# -- input guards ------------------------------------------------------------

def test_empty_relation_raises_typed_error():
    rel = Relation.from_rows(["a", "b"], [])
    with pytest.raises(EmptyRelationError, match="no rows"):
        FDX().discover(rel)
    # Catchable as both the family base and the stdlib type.
    with pytest.raises(InputValidationError):
        FDX().discover(rel)
    with pytest.raises(ValueError):
        FDX().discover(rel)


def test_single_row_relation_raises_typed_error():
    rel = Relation.from_rows(["a", "b"], [(1, 2)])
    with pytest.raises(InsufficientRowsError, match="at least two rows"):
        FDX().discover(rel)


def test_degenerate_columns_warn_but_discover():
    rows = [(9, i % 4, i % 4, None) for i in range(40)]
    rel = Relation.from_rows(["const", "x", "dup_x", "missing"], rows)
    result = FDX().discover(rel)
    warnings = result.diagnostics["input_warnings"]
    text = " ".join(warnings)
    assert "'const' is constant" in text
    assert "duplicates column" in text
    assert "entirely missing" in text


def test_strict_mode_rejects_degenerate_columns():
    rows = [(9, i % 4) for i in range(40)]
    rel = Relation.from_rows(["const", "x"], rows)
    with pytest.raises(DegenerateColumnError) as excinfo:
        FDX(strict=True).discover(rel)
    assert excinfo.value.findings
    assert "const" in str(excinfo.value)


def test_validate_relation_clean_input_returns_no_warnings():
    assert validate_relation(fd_relation()) == []


def test_non_finite_samples_raise_input_validation_error():
    bad = np.array([[1.0, np.nan], [0.5, 1.0]])
    with pytest.raises(InputValidationError, match="non-finite"):
        learn_structure(empirical_covariance(bad), len(bad))
    # The ladder must NOT swallow validation errors.
    with pytest.raises(InputValidationError):
        learn_structure_resilient(empirical_covariance(bad), len(bad))


# -- fallback ladder ---------------------------------------------------------

def test_healthy_input_is_not_degraded():
    result = FDX().discover(fd_relation())
    assert result.diagnostics["degraded"] is False
    chain = result.diagnostics["fallback_chain"]
    assert [entry["stage"] for entry in chain] == ["configured"]
    assert chain[0]["ok"] is True


def test_glasso_nonconvergence_engages_ladder():
    # max_iter=1 cannot converge on this input; the ladder must walk to
    # neighborhood selection and still deliver a result (the satellite
    # regression test for the non-convergence path).
    result = FDX(glasso_max_iter=1).discover(fd_relation())
    assert result.diagnostics["degraded"] is True
    chain = result.diagnostics["fallback_chain"]
    stages = [entry["stage"] for entry in chain]
    assert stages == ["configured", "reconditioned", "neighborhood"]
    assert [entry["ok"] for entry in chain] == [False, False, True]
    assert chain[0]["reason"] == "converged=False"
    # Boosted penalty recorded for the retry rung.
    assert chain[1]["lam"] == pytest.approx(chain[0]["lam"] * 5.0)
    assert result.fds is not None and result.autoregression.shape == (3, 3)


def test_injected_nonconvergence_engages_ladder():
    with FaultInjector(seed=0).inject("glasso.nonconverge", times=None).install():
        result = FDX().discover(fd_relation())
    assert result.diagnostics["degraded"] is True
    assert result.diagnostics["fallback_chain"][-1]["stage"] == "neighborhood"


def test_reconditioned_rung_recovers_before_neighborhood():
    # Fault only the first glasso attempt: the reconditioned retry (rung
    # 2) converges and the ladder stops there.
    with FaultInjector(seed=0).inject("glasso.nonconverge", times=1).install():
        result = FDX().discover(fd_relation())
    assert result.diagnostics["degraded"] is True
    chain = result.diagnostics["fallback_chain"]
    assert [entry["stage"] for entry in chain] == ["configured", "reconditioned"]
    assert chain[-1]["ok"] is True


def test_resilient_off_keeps_raw_solver_behaviour():
    result = FDX(glasso_max_iter=1, resilient=False).discover(fd_relation())
    assert result.diagnostics["glasso_converged"] is False
    assert result.diagnostics["degraded"] is False
    assert "fallback_chain" not in result.diagnostics


def test_ladder_synthesizes_identity_when_everything_raises(monkeypatch):
    import repro.core.structure as structure_mod

    def always_boom(*args, **kwargs):
        raise np.linalg.LinAlgError("synthetic solver failure")

    monkeypatch.setattr(structure_mod, "learn_structure", always_boom)
    samples = np.random.default_rng(0).normal(size=(50, 4))
    estimate = learn_structure_resilient(empirical_covariance(samples), len(samples))
    assert estimate.degraded is True
    assert estimate.fallback_chain[-1]["stage"] == "identity"
    assert np.array_equal(estimate.precision, np.eye(4))
    # An identity model yields no FDs but a perfectly valid estimate.
    assert np.allclose(estimate.factorization.autoregression, 0.0)


def test_ladder_with_neighborhood_estimator_configured():
    samples = np.random.default_rng(0).normal(size=(80, 4))
    estimate = learn_structure_resilient(
        empirical_covariance(samples), len(samples), estimator="neighborhood"
    )
    assert estimate.degraded is False
    assert estimate.fallback_chain[0]["estimator"] == "neighborhood"


def test_degraded_result_round_trips_over_wire():
    result = FDX(glasso_max_iter=1).discover(fd_relation())
    from repro.core.fdx import FDXResult

    payload = result.to_dict()
    rebuilt = FDXResult.from_dict(payload)
    assert rebuilt.diagnostics["degraded"] is True
    assert rebuilt.diagnostics["fallback_chain"] == result.diagnostics["fallback_chain"]


# -- one covariance, one clock -------------------------------------------------

def test_ladder_estimates_the_covariance_once(monkeypatch):
    import repro.core.structure as structure_mod

    calls = []
    real = structure_mod.block_centered_scatter

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(structure_mod, "block_centered_scatter", counted)
    result = FDX(glasso_max_iter=1).discover(fd_relation())
    assert len(result.diagnostics["fallback_chain"]) == 3
    assert len(calls) == 1


@pytest.fixture(scope="module")
def ladder_relation():
    from repro.datagen.synthetic import SyntheticSpec, generate

    return generate(SyntheticSpec(n_tuples=1000, n_attributes=30, seed=3)).relation


def test_ladder_stage_seconds_cover_every_rung(ladder_relation):
    result = FDX(glasso_max_iter=1).discover(ladder_relation)
    assert len(result.diagnostics["fallback_chain"]) == 3
    staged = sum(result.diagnostics["stage_seconds"].values())
    assert 0.9 * result.total_seconds <= staged <= 1.1 * result.total_seconds


def test_ladder_stage_seconds_are_not_below_their_spans(ladder_relation):
    from repro.obs import Tracer

    tracer = Tracer(enabled=True)
    result = FDX(glasso_max_iter=1, tracer=tracer).discover(ladder_relation)
    spans = {"covariance": 0.0, "glasso": 0.0, "factorization": 0.0}
    for span in tracer.last_root.walk():
        stage = span.name.removeprefix("structure.")
        if stage in spans:
            spans[stage] += span.duration_seconds
    stage_seconds = result.diagnostics["stage_seconds"]
    for stage, seconds in spans.items():
        assert seconds > 0.0
        assert stage_seconds[stage] >= seconds, (stage, stage_seconds[stage], seconds)
