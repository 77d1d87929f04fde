"""Tests for repro.pgm.repository (the Table 1 benchmark networks)."""

import numpy as np
import pytest

from repro.baselines.partitions import Partition, column_codes, fd_error_g3
from repro.pgm.repository import (
    BENCHMARK_NETWORKS,
    alarm,
    asia,
    cancer,
    child,
    earthquake,
    load_network,
)


@pytest.mark.parametrize(
    "factory,n_nodes,n_edges,n_fds",
    [
        (asia, 8, 8, 6),
        (cancer, 5, 4, 3),
        (earthquake, 5, 4, 3),
        (child, 20, 25, 19),
        (alarm, 37, 46, 25),
    ],
)
def test_published_structure_counts(factory, n_nodes, n_edges, n_fds):
    bn = factory()
    s = bn.summary()
    assert s["attributes"] == n_nodes
    assert s["n_edges"] == n_edges
    assert s["n_fds"] == n_fds


def test_asia_has_expected_edges():
    bn = asia()
    assert ("smoke", "lung") in bn.edges()
    assert ("either", "xray") in bn.edges()
    assert ("bronc", "dysp") in bn.edges()


def test_alarm_root_count():
    assert len(alarm().roots()) == 12


def test_load_network_case_insensitive():
    assert load_network("Asia").n_nodes == 8
    assert load_network("ALARM").n_nodes == 37


def test_load_network_unknown():
    with pytest.raises(ValueError, match="unknown network"):
        load_network("nope")


def test_registry_covers_all_five():
    assert set(BENCHMARK_NETWORKS) == {"alarm", "asia", "cancer", "child", "earthquake"}


def test_seeding_is_deterministic():
    a1 = asia(seed=7).sample(50, np.random.default_rng(0))
    a2 = asia(seed=7).sample(50, np.random.default_rng(0))
    assert a1 == a2


def test_different_seeds_differ():
    a1 = asia(seed=1).sample(200, np.random.default_rng(0))
    a2 = asia(seed=2).sample(200, np.random.default_rng(0))
    assert a1 != a2


def test_determinism_parameter_sharpens_cpts():
    soft = asia(seed=0, determinism=0.7)
    hard = asia(seed=0, determinism=0.99)
    soft_max = max(p.max() for p in soft.node("dysp").cpt.values())
    hard_min = min(p.max() for p in hard.node("dysp").cpt.values())
    assert hard_min > soft_max


def test_samples_functionally_consistent_at_high_determinism():
    """At determinism ~1, parents nearly determine every child in samples."""
    bn = asia(seed=0, determinism=0.999)
    rel = bn.sample(2000, np.random.default_rng(3))
    cols = {n: rel.column(n) for n in rel.schema.names}
    violations = 0
    mapping = {}
    for i in range(rel.n_rows):
        key = (cols["tub"][i], cols["lung"][i])
        value = cols["either"][i]
        if key in mapping and mapping[key] != value:
            violations += 1
        mapping.setdefault(key, value)
    assert violations / rel.n_rows < 0.02


@pytest.mark.parametrize("name", sorted(BENCHMARK_NETWORKS))
def test_deterministic_networks_plant_exact_fds(name):
    """An oracle for ``true_fds`` that does not involve FDX: built with
    ``determinism=1.0``, every non-root node is a function of its parents,
    so TANE's g3 error of ``parents -> node`` is 0 on samples (the
    group-by check, vectorized over stripped partitions). The default
    determinism leaves some of them violated, so the check can fail."""
    exact = load_network(name, seed=0, determinism=1.0)
    relation = exact.sample(2000, np.random.default_rng(1))
    fds = exact.true_fds()
    assert sorted(fd.rhs for fd in fds) == sorted(
        node for node in relation.schema.names if exact.parents(node)
    )
    for fd in fds:
        partition = Partition.for_attributes(relation, fd.lhs)
        assert fd_error_g3(partition, column_codes(relation, fd.rhs)) == 0.0, fd

    noisy = load_network(name, seed=0).sample(2000, np.random.default_rng(1))
    assert any(
        fd_error_g3(Partition.for_attributes(noisy, fd.lhs), column_codes(noisy, fd.rhs)) > 0
        for fd in fds
    )
