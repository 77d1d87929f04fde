"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.baselines.partitions import Partition, fd_error_g3
from repro.core.fd import FD, fd_edges, minimal_cover
from repro.core.transform import center_within_blocks
from repro.dataset.relation import Relation
from repro.linalg.cholesky import OrderedFactorization, ldl_decompose, udu_decompose
from repro.linalg.covariance import correlation_from_covariance, empirical_covariance
from repro.linalg.lasso import soft_threshold
from repro.metrics.evaluation import score_edges
from repro.metrics.information import (
    entropy_from_counts,
    expected_mutual_information,
    mutual_information_from_table,
)

# --- strategies -----------------------------------------------------------

attr_names = st.lists(
    st.text(alphabet="abcdefgh", min_size=1, max_size=3),
    min_size=2, max_size=5, unique=True,
)

small_codes = st.lists(st.integers(0, 4), min_size=2, max_size=40)

count_tables = arrays(
    np.int64, st.tuples(st.integers(1, 5), st.integers(1, 5)),
    elements=st.integers(0, 20),
)

spd_matrices = st.integers(2, 6).flatmap(
    lambda p: arrays(np.float64, (p, p), elements=st.floats(-1.0, 1.0)).map(
        lambda A: A @ A.T + p * np.eye(p)
    )
)

#: A unit upper-triangular ``U`` and a permutation ``order`` of one size.
ordered_factors = st.integers(1, 12).flatmap(
    lambda p: st.tuples(
        arrays(np.float64, (p, p), elements=st.floats(-1.0, 1.0)).map(
            lambda A: np.eye(p) + np.triu(A, 1)
        ),
        st.permutations(range(p)),
    )
)


# --- soft threshold -------------------------------------------------------

@given(st.floats(-100, 100), st.floats(0, 100))
def test_soft_threshold_shrinks_toward_zero(x, t):
    s = soft_threshold(x, t)
    assert abs(s) <= abs(x)
    assert s * x >= 0  # never flips sign


@given(st.floats(-100, 100), st.floats(0, 100))
def test_soft_threshold_exact_value(x, t):
    assert soft_threshold(x, t) == pytest.approx(np.sign(x) * max(abs(x) - t, 0.0))


# --- factorizations -------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(spd_matrices)
def test_ldl_roundtrip_property(A):
    L, d = ldl_decompose(A)
    assert np.allclose(L @ np.diag(d) @ L.T, A, atol=1e-6 * np.abs(A).max())


@settings(max_examples=30, deadline=None)
@given(spd_matrices)
def test_udu_roundtrip_property(A):
    U, d = udu_decompose(A)
    assert np.allclose(U @ np.diag(d) @ U.T, A, atol=1e-6 * np.abs(A).max())
    assert np.allclose(np.diag(U), 1.0)


@settings(max_examples=50, deadline=None)
@given(ordered_factors)
def test_autoregression_in_original_order_matches_definition(case):
    U, order = case
    p = len(order)
    factorization = OrderedFactorization(order=np.asarray(order), U=U, d=np.ones(p))
    B = factorization.autoregression
    out = factorization.autoregression_in_original_order()
    for i in range(p):
        for j in range(p):
            assert out[order[i], order[j]] == B[i, j]


# --- covariance -----------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(2, 30), st.integers(1, 5)),
              elements=st.floats(-10, 10)))
def test_empirical_covariance_is_psd(X):
    S = empirical_covariance(X)
    eigs = np.linalg.eigvalsh(0.5 * (S + S.T))
    assert np.all(eigs >= -1e-8)


@settings(max_examples=30, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(2, 30), st.integers(1, 5)),
              elements=st.floats(-10, 10)))
# A subnormal variance: sqrt loses precision, and the unclipped ratio
# gave R[0, 1] = -1.0112.
@example(np.array([[0.0, 1.0], [2.06e-161, 2.06e-161]]))
def test_correlation_entries_bounded(X):
    R = correlation_from_covariance(empirical_covariance(X))
    assert np.all(np.abs(R) <= 1.0 + 1e-8)


# --- information measures -------------------------------------------------

@given(st.lists(st.integers(0, 50), min_size=1, max_size=10))
def test_entropy_nonnegative_and_bounded(counts):
    h = entropy_from_counts(np.array(counts))
    support = sum(1 for c in counts if c > 0)
    assert h >= 0.0
    if support:
        assert h <= np.log(support) + 1e-9


@settings(max_examples=50, deadline=None)
@given(count_tables)
def test_mi_bounded_by_marginal_entropies(table):
    mi = mutual_information_from_table(table)
    hx = entropy_from_counts(table.sum(axis=1))
    hy = entropy_from_counts(table.sum(axis=0))
    assert -1e-9 <= mi <= min(hx, hy) + 1e-9


@settings(max_examples=30, deadline=None)
@given(count_tables)
def test_expected_mi_at_most_observed_maximum(table):
    emi = expected_mutual_information(table)
    hx = entropy_from_counts(table.sum(axis=1))
    hy = entropy_from_counts(table.sum(axis=0))
    assert -1e-9 <= emi <= min(hx, hy) + 1e-9


# --- partitions -----------------------------------------------------------

@given(small_codes)
def test_partition_size_counts_only_non_singletons(codes):
    p = Partition.from_codes(np.array(codes))
    assert all(len(c) >= 2 for c in p.classes)
    assert p.size <= len(codes)


@given(small_codes, small_codes)
def test_partition_product_refines_both(xc, yc):
    n = min(len(xc), len(yc))
    px = Partition.from_codes(np.array(xc[:n]))
    py = Partition.from_codes(np.array(yc[:n]))
    prod = px.multiply(py)
    assert prod.size <= min(px.size, py.size)
    assert prod.refines(px)


@given(small_codes, small_codes)
def test_fd_error_in_unit_interval(xc, yc):
    n = min(len(xc), len(yc))
    p = Partition.from_codes(np.array(xc[:n]))
    err = fd_error_g3(p, np.array(yc[:n]))
    assert 0.0 <= err <= 1.0


@given(small_codes)
def test_fd_error_reflexive_zero(codes):
    """X -> X always holds: error of a partition against its own codes is 0."""
    arr = np.array(codes)
    p = Partition.from_codes(arr)
    assert fd_error_g3(p, arr) == 0.0


# --- FDs and scoring ------------------------------------------------------

@given(attr_names)
def test_fd_edges_count(names):
    fd = FD(names[:-1], names[-1])
    assert len(fd.edges()) == len(fd.lhs)


@given(attr_names)
def test_minimal_cover_subset_of_input(names):
    fds = [FD(names[:-1], names[-1]), FD(names[:1], names[-1])]
    cover = minimal_cover(fds)
    assert set(cover) <= set(fds)
    assert FD(names[:1], names[-1]) in cover


@settings(max_examples=50)
@given(
    st.sets(st.tuples(st.sampled_from("abcd"), st.sampled_from("wxyz"))),
    st.sets(st.tuples(st.sampled_from("abcd"), st.sampled_from("wxyz"))),
)
def test_score_edges_symmetry_and_bounds(d, t):
    s = score_edges(d, t)
    assert 0.0 <= s.precision <= 1.0
    assert 0.0 <= s.recall <= 1.0
    flipped = score_edges(t, d)
    assert s.precision == pytest.approx(flipped.recall)
    assert s.recall == pytest.approx(flipped.precision)


# --- transform ------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(2, 24), st.integers(1, 4)),
              elements=st.floats(0, 1)))
def test_center_within_blocks_zero_means(X):
    n = X.shape[0]
    for n_blocks in (1, 2):
        if n % n_blocks:
            continue
        out = center_within_blocks(X, n_blocks)
        per = out.reshape(n_blocks, n // n_blocks, X.shape[1])
        assert np.allclose(per.mean(axis=1), 0.0, atol=1e-9)


def test_center_within_blocks_rejects_ragged():
    with pytest.raises(ValueError):
        center_within_blocks(np.zeros((10, 2)), 3)


# --- relation round trips --------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.text(alphabet="xyz", max_size=2)),
                min_size=0, max_size=30))
def test_relation_csv_roundtrip(rows):
    from repro.dataset.io import read_csv_text, to_csv_text
    from repro.dataset.schema import Schema

    # Prefix with a letter so type sniffing keeps the column categorical.
    rel = Relation.from_rows(Schema(["a", "b"]), [(f"v{a}", b or "v") for a, b in rows])
    if rel.n_rows == 0:
        return
    back = read_csv_text(to_csv_text(rel))
    assert back.n_rows == rel.n_rows
    assert [str(v) for v in back.column("a")] == [str(v) for v in rel.column("a")]


# --- the FDX pipeline -------------------------------------------------------


@st.composite
def noisy_fd_relations(draw):
    """A small relation in which each later column is, with probability
    one half, a noisy function of one earlier column."""
    p = draw(st.integers(3, 6))
    n = draw(st.integers(80, 240))
    noise = draw(st.sampled_from([0.0, 0.02, 0.1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = [rng.integers(0, 12, size=n)]
    for j in range(1, p):
        if rng.random() < 0.5:
            column = (columns[rng.integers(j)] * 7 + 3) % rng.integers(2, 9)
        else:
            column = rng.integers(0, 8, size=n)
        flip = rng.random(n) < noise
        columns.append(np.where(flip, rng.integers(0, 8, size=n), column))
    names = [f"c{j}" for j in range(p)]
    return Relation.from_rows(names, list(zip(*(col.tolist() for col in columns))))


@settings(max_examples=25, deadline=None)
@given(
    noisy_fd_relations(),
    st.sampled_from([0.02, 0.08, "ebic"]),
    st.sampled_from(["natural", "amd", "mindegree"]),
    st.floats(0.01, 0.3),
)
def test_discovery_invariants(relation, lam, ordering, sparsity):
    """Algorithm 3's invariants on the discovered model: ``B`` is strictly
    upper-triangular in the permuted order, every FD's LHS precedes its
    RHS there, and the evidence ledger's margins are measured against
    ``sparsity`` from ``B`` itself."""
    from repro.core.fdx import FDX

    result = FDX(lam=lam, ordering=ordering, sparsity=sparsity).discover(relation)
    names = relation.schema.names
    position = {name: k for k, name in enumerate(result.attribute_order)}
    order = [names.index(name) for name in result.attribute_order]
    B = result.autoregression
    assert not np.tril(B[np.ix_(order, order)]).any()
    for fd in result.fds:
        assert all(position[a] < position[fd.rhs] for a in fd.lhs)

    def weight(lhs, rhs):
        return abs(B[names.index(lhs), names.index(rhs)])

    evidence = result.diagnostics["evidence"]
    assert [(sorted(r["lhs"]), r["rhs"]) for r in evidence["records"]] == [
        (sorted(fd.lhs), fd.rhs) for fd in result.fds
    ]
    for record in evidence["records"]:
        margin = min(weight(a, record["rhs"]) for a in record["lhs"]) - sparsity
        assert record["margin"] == pytest.approx(margin, abs=1e-12)
        assert record["margin"] > 0
    for miss in evidence["near_misses"]:
        assert miss["margin"] == pytest.approx(
            sparsity - weight(miss["attribute"], miss["rhs"]), abs=1e-12
        )
        assert miss["margin"] >= 0
