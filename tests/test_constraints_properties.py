"""Property-based tests for the constraints subpackage."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.constraints.denial import (
    DenialConstraint,
    DenialConstraintDiscovery,
    Predicate,
    check_denial_constraint,
)
from repro.constraints.keys import is_certain_key, is_possible_key
from repro.dataset.relation import MISSING, Relation

rows_strategy = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    min_size=2, max_size=40,
)


@settings(max_examples=40, deadline=None)
@given(rows_strategy)
def test_discovered_dcs_have_zero_violation_on_input(rows):
    rel = Relation.from_rows(["a", "b"], rows)
    res = DenialConstraintDiscovery(n_pairs=500, seed=1).discover(rel)
    for dc in res.constraints:
        assert check_denial_constraint(rel, dc, n_pairs=500, seed=1) == 0.0


@settings(max_examples=40, deadline=None)
@given(rows_strategy)
def test_dc_minimality_property(rows):
    rel = Relation.from_rows(["a", "b"], rows)
    res = DenialConstraintDiscovery(n_pairs=300).discover(rel)
    sets = [frozenset(dc.predicates) for dc in res.constraints]
    for x in sets:
        for y in sets:
            assert x == y or not (x < y)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.one_of(st.integers(0, 5), st.none()), min_size=2, max_size=25))
def test_certain_key_implies_possible_key(values):
    rel = Relation.from_rows(["x"], [(v,) for v in values])
    if is_certain_key(rel, ["x"]):
        assert is_possible_key(rel, ["x"])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.one_of(st.integers(0, 3), st.none()),
                          st.one_of(st.integers(0, 3), st.none())),
                min_size=2, max_size=20))
def test_superset_of_possible_key_still_possible(rows):
    """Adding attributes can only help uniqueness."""
    rel = Relation.from_rows(["x", "y"], rows)
    if is_possible_key(rel, ["x"]):
        assert is_possible_key(rel, ["x", "y"])
    if is_certain_key(rel, ["x"]):
        assert is_certain_key(rel, ["x", "y"])


@settings(max_examples=30, deadline=None)
@given(rows_strategy)
# 8 of the 72 ordered pairs violate (a=, b!=) here; 36 pairs drawn with
# replacement used to miss them all and "discover" the DC.
@example(rows=[(2, 0), (0, 0), (2, 1), (2, 2), (0, 0), (0, 0), (1, 0), (1, 1),
               (0, 0)])
def test_fd_shaped_dc_consistent_with_g3(rows):
    """If the FD-shaped DC on (a=, b!=) is discovered exactly, the FD's g3
    error on complete rows must be zero."""
    rel = Relation.from_rows(["a", "b"], rows)
    res = DenialConstraintDiscovery(n_pairs=2000, seed=0).discover(rel)
    target = DenialConstraint((Predicate("a", "="), Predicate("b", "!=")))
    if target in res.constraints:
        from repro.baselines.partitions import (
            Partition,
            column_codes,
            fd_error_g3,
        )

        part = Partition.for_attributes(rel, ["a"])
        # 2000 pairs cover every ordered pair of up to 45 rows, so no
        # violation escapes; a *mostly*-violated FD cannot be discovered.
        assert fd_error_g3(part, column_codes(rel, "b")) < 0.3


def _brute_force_violation_rate(rel, dc):
    """Share of ordered pairs of distinct rows satisfying every predicate."""
    ops = {"=": lambda x, y: x == y, "!=": lambda x, y: x != y}
    rows = [tuple(rel.column(p.attribute)[i] for p in dc.predicates)
            for i in range(rel.n_rows)]
    pairs = [(s, t) for i, s in enumerate(rows) for j, t in enumerate(rows)
             if i != j]
    bad = sum(
        all(ops[p.op](x, y) for p, x, y in zip(dc.predicates, s, t))
        for s, t in pairs
    )
    return bad / len(pairs)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                min_size=2, max_size=20))
def test_check_denial_constraint_is_exact_on_small_relations(rows):
    """Up to 20 rows (380 ordered pairs, within the default budget) the
    violation rate is the brute-force ordered-pair rate."""
    rel = Relation.from_rows(["a", "b"], rows)
    for dc in (
        DenialConstraint((Predicate("a", "="), Predicate("b", "!="))),
        DenialConstraint((Predicate("a", "="),)),
        DenialConstraint((Predicate("a", "!="), Predicate("b", "="))),
    ):
        assert check_denial_constraint(rel, dc) == pytest.approx(
            _brute_force_violation_rate(rel, dc)
        )
