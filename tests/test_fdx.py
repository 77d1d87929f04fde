"""Tests for repro.core.fdx (FDX end to end)."""

import numpy as np
import pytest

from repro.core.fd import FD
from repro.core.fdx import FDX, generate_fds
from repro.dataset.noise import RandomFlipNoise
from repro.dataset.relation import Relation
from repro.metrics.evaluation import score_fds


def fd_relation(n=800, seed=0):
    """key -> a, a -> b; c independent."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        a = int(rng.integers(20))
        rows.append((a, a % 5, int(rng.integers(7))))
    return Relation.from_rows(["a", "b", "c"], rows)


def test_discovers_simple_fd():
    res = FDX().discover(fd_relation())
    assert FD(["a"], "b") in res.fds


def test_independent_attribute_stays_isolated():
    res = FDX().discover(fd_relation())
    for fd in res.fds:
        assert "c" not in fd.lhs
        assert fd.rhs != "c"


def test_result_fields_populated():
    res = FDX().discover(fd_relation())
    assert res.autoregression.shape == (3, 3)
    assert res.precision.shape == (3, 3)
    assert sorted(res.attribute_order) == ["a", "b", "c"]
    assert res.n_pair_samples == 800 * 3
    # The durations are views of the one clock, not serialized fields.
    stages = res.diagnostics["stage_seconds"]
    assert res.total_seconds == sum(stages.values())
    assert res.model_seconds == sum(
        stages[key] for key in ("covariance", "glasso", "factorization", "fd_generation")
    )
    assert res.transform_seconds == stages["transform"]
    assert not {"transform_seconds", "model_seconds"} & set(res.to_dict())
    assert res.diagnostics["glasso_converged"] in (True, False)


def test_fd_for_lookup():
    res = FDX().discover(fd_relation())
    fd = res.fd_for("b")
    assert fd is not None and fd.rhs == "b"
    # heatmap renders one row per attribute
    rows = res.heatmap_rows(["a", "b", "c"])
    assert len(rows) == 3


def test_robust_to_noise():
    rel = fd_relation(1500)
    noisy, _ = RandomFlipNoise(0.1).apply(rel, np.random.default_rng(1))
    res = FDX().discover(noisy)
    assert FD(["a"], "b") in res.fds


def test_sparsity_monotonically_prunes():
    rel = fd_relation()
    loose = FDX(sparsity=0.0).discover(rel)
    tight = FDX(sparsity=0.3).discover(rel)
    loose_edges = {e for fd in loose.fds for e in fd.edges()}
    tight_edges = {e for fd in tight.fds for e in fd.edges()}
    assert tight_edges <= loose_edges


def test_single_attribute_relation():
    rel = Relation.from_rows(["only"], [(1,), (2,)])
    res = FDX().discover(rel)
    assert res.fds == []


def test_single_attribute_diagnostics_are_the_shared_subset():
    """The no-model path reports the same explain keys as a full run."""
    full = FDX().discover(fd_relation(200))
    tiny = FDX().discover(Relation.from_rows(["only"], [(1,), (2,)]))
    assert set(tiny.diagnostics) == {
        "degraded", "solver_health", "evidence", "stage_seconds"
    }
    assert set(tiny.diagnostics) <= set(full.diagnostics)
    assert tiny.diagnostics["degraded"] is False
    constant = FDX().discover(Relation.from_rows(["only"], [(1,), (1,)]))
    assert constant.diagnostics["input_warnings"]
    assert "evidence" not in FDX(evidence=False).discover(
        Relation.from_rows(["only"], [(1,), (2,)])
    ).diagnostics


def test_uniform_transform_option():
    res = FDX(transform="uniform").discover(fd_relation())
    assert res.n_pair_samples == 800 * 3


def test_invalid_options_rejected():
    with pytest.raises(ValueError):
        FDX(transform="bogus")
    with pytest.raises(ValueError):
        FDX(sparsity=-0.1)
    with pytest.raises(ValueError):
        FDX(max_rows_per_attribute=1)
    # Each of these used to reach the fallback ladder and come back as a
    # degraded (or silently re-penalized) model instead of an error.
    for bad in ({"lam": -0.1}, {"lam": "foo"}, {"lam": float("nan")},
                {"shrinkage": 2.0}, {"shrinkage": -0.1},
                {"ordering": "bogus"}, {"estimator": "bogus"}):
        with pytest.raises(ValueError):
            FDX(**bad)


def test_max_rows_cap_reduces_samples():
    res = FDX(max_rows_per_attribute=100).discover(fd_relation(500))
    assert res.n_pair_samples == 100 * 3


def test_deterministic_given_seed():
    rel = fd_relation()
    r1 = FDX(seed=3).discover(rel)
    r2 = FDX(seed=3).discover(rel)
    assert r1.fds == r2.fds


def test_generate_fds_reads_strict_upper_entries():
    B = np.zeros((3, 3))
    B[0, 2] = 0.5
    B[1, 2] = 0.001  # below threshold
    order = np.array([0, 1, 2])
    fds = generate_fds(B, order, ["x", "y", "z"], sparsity=0.01)
    assert fds == [FD(["x"], "z")]


def test_generate_fds_respects_permutation():
    B = np.zeros((2, 2))
    B[0, 1] = 0.9
    order = np.array([1, 0])  # position 0 is attribute 'y'
    fds = generate_fds(B, order, ["x", "y"], sparsity=0.0)
    assert fds == [FD(["y"], "x")]


def test_numeric_tolerance_parameter_enables_jittered_fds():
    """A numeric column equal to a categorical one up to jitter is only
    linked when the tolerance is widened."""
    from repro.dataset.schema import Attribute, AttributeType, Schema

    rng = np.random.default_rng(7)
    schema = Schema([Attribute("k"), Attribute("v", AttributeType.NUMERIC)])
    rows = []
    for _ in range(800):
        k = int(rng.integers(10))
        rows.append((k, 10.0 * k + float(rng.normal(0, 1e-4))))
    rel = Relation.from_rows(schema, rows)
    strict = FDX().discover(rel)               # tolerance ~0: no agreement
    tolerant = FDX(numeric_tolerance=1e-3).discover(rel)
    assert FD(["k"], "v") not in strict.fds
    assert FD(["k"], "v") in tolerant.fds


def test_two_fd_chain_recovered_with_high_f1():
    rng = np.random.default_rng(5)
    rows = []
    for _ in range(1000):
        k = int(rng.integers(30))
        rows.append((k, k % 6, (k % 6) % 3))
    rel = Relation.from_rows(["k", "m", "n"], rows)
    res = FDX().discover(rel)
    truth = [FD(["k"], "m"), FD(["m"], "n")]
    assert score_fds(res.fds, truth).f1 >= 0.8
