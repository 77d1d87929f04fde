"""Tests for repro.dataset.relation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset.relation import MISSING, Relation, concat_rows, is_missing
from repro.dataset.schema import Schema


@pytest.fixture
def rel():
    return Relation.from_rows(
        ["city", "zip"],
        [("a", 1), ("a", 1), ("b", 2), ("c", MISSING)],
    )


def test_is_missing_none_and_nan():
    assert is_missing(None)
    assert is_missing(float("nan"))
    assert not is_missing(0)
    assert not is_missing("")


def test_shape_and_len(rel):
    assert rel.shape == (4, 2)
    assert len(rel) == 4
    assert rel.n_attributes == 2


def test_from_rows_arity_mismatch():
    with pytest.raises(ValueError, match="arity"):
        Relation.from_rows(["a", "b"], [(1,)])


def test_columns_must_match_schema():
    with pytest.raises(ValueError, match="columns do not match"):
        Relation(Schema(["a"]), {"b": [1]})


def test_ragged_columns_rejected():
    with pytest.raises(ValueError, match="ragged"):
        Relation(Schema(["a", "b"]), {"a": [1, 2], "b": [1]})


def test_column_returns_copy(rel):
    col = rel.column("city")
    col[0] = "mutated"
    assert rel.column("city")[0] == "a"


def test_row_and_rows(rel):
    assert rel.row(0) == ("a", 1)
    assert list(rel.rows())[2] == ("b", 2)


def test_missing_normalized_to_none():
    r = Relation.from_rows(["x"], [(float("nan"),), (None,)])
    assert r.column("x")[0] is MISSING
    assert r.column("x")[1] is MISSING


def test_project(rel):
    p = rel.project(["zip"])
    assert p.schema.names == ["zip"]
    assert p.n_rows == 4


def test_select_rows_and_head(rel):
    sel = rel.select_rows([2, 0])
    assert sel.row(0) == ("b", 2)
    assert rel.head(2).n_rows == 2


def test_sample_rows_without_replacement(rel):
    s = rel.sample_rows(3, np.random.default_rng(0))
    assert s.n_rows == 3


def test_sample_rows_caps_at_n(rel):
    s = rel.sample_rows(100, np.random.default_rng(0))
    assert s.n_rows == 4


def test_shuffled_is_permutation(rel):
    s = rel.shuffled(np.random.default_rng(0))
    assert sorted(map(repr, s.rows())) == sorted(map(repr, rel.rows()))


def test_map_column_skips_missing(rel):
    r = rel.map_column("zip", lambda v: v * 10)
    assert r.column("zip")[0] == 10
    assert r.column("zip")[3] is MISSING


def test_with_column(rel):
    r = rel.with_column("city", ["x", "y", "z", "w"])
    assert r.column("city")[0] == "x"
    with pytest.raises(KeyError):
        rel.with_column("nope", [1, 2, 3, 4])


def test_domain_and_counts(rel):
    assert rel.domain("city") == ["a", "b", "c"]
    assert rel.domain_size("zip") == 2
    assert rel.value_counts("city") == {"a": 2, "b": 1, "c": 1}


def test_missing_count_and_fraction(rel):
    assert rel.missing_count() == 1
    assert rel.missing_count("zip") == 1
    assert rel.missing_count("city") == 0
    assert rel.missing_fraction() == pytest.approx(1 / 8)


def test_to_matrix(rel):
    m = rel.to_matrix()
    assert m.shape == (4, 2)
    assert m[0, 0] == "a"


def test_equality(rel):
    other = Relation.from_rows(
        ["city", "zip"], [("a", 1), ("a", 1), ("b", 2), ("c", MISSING)]
    )
    assert rel == other
    assert rel != other.project(["city"])


def test_concat_rows(rel):
    combined = concat_rows([rel, rel])
    assert combined.n_rows == 8


def test_concat_rows_schema_mismatch(rel):
    with pytest.raises(ValueError, match="schemas differ"):
        concat_rows([rel, rel.project(["city"])])


def test_concat_rows_empty():
    with pytest.raises(ValueError):
        concat_rows([])


def test_empty_relation():
    r = Relation.from_rows(["a"], [])
    assert r.n_rows == 0
    assert r.missing_fraction() == 0.0


#: Cells whose dict-key equality differs from their spelling: 1, 1.0,
#: True and np.int64(1) are one key; every NumPy float32 NaN object is
#: its own key (NaN is not equal to itself); float NaN is missing.
CODE_CELLS = st.one_of(
    st.none(),
    st.just(float("nan")),
    st.sampled_from([1, 1.0, True, np.int64(1), 0, -0.0, False, "1", "a", ""]),
    st.integers(-3, 3),
    st.text(alphabet="ab", max_size=2),
    st.builds(lambda: np.float32("nan")),
)


def same_key(a, b):
    """Dict-key equality: the same object, or equal hashes and ``==``."""
    return a is b or (hash(a) == hash(b) and bool(a == b))


@settings(max_examples=200, deadline=None)
@given(st.lists(CODE_CELLS, max_size=30))
def test_value_codes_are_the_first_seen_dict_partition(cells):
    relation = Relation.from_rows(["v"], [(cell,) for cell in cells])
    codes = relation.value_codes("v")
    stored = relation.column("v")
    assert codes.dtype == np.int64 and codes.shape == (len(cells),)
    assert [int(c) == -1 for c in codes] == [v is MISSING for v in stored]
    highest = -1
    for code in codes:  # first-seen order: each new code is the next integer
        assert code <= highest + 1
        highest = max(highest, int(code))
    for i in range(len(cells)):
        for j in range(len(cells)):
            if stored[i] is not MISSING and stored[j] is not MISSING:
                assert (codes[i] == codes[j]) == same_key(stored[i], stored[j])
    assert relation.value_codes("v") is codes  # built once per relation


def per_cell_column(values, n):
    """Frozen copy of the per-cell loop ``Relation.__init__`` used to
    build each column, kept here as the property's reference."""
    col = np.empty(n, dtype=object)
    for i, value in enumerate(values):
        col[i] = MISSING if is_missing(value) else value
    return col


BUILD_CELLS = st.one_of(
    st.none(),
    st.just(float("nan")),
    st.builds(lambda: np.float64("nan")),
    st.builds(lambda: np.float32("nan")),
    st.booleans(),
    st.integers(-5, 5),
    st.text(alphabet="ab", max_size=2),
    st.tuples(st.integers(0, 2), st.text(alphabet="ab", max_size=1)),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(BUILD_CELLS, BUILD_CELLS), max_size=30))
def test_columns_match_the_per_cell_build(rows):
    """Each column is the per-cell build, cell for cell: the same objects
    (tuples kept whole), with None and float NaN stored as MISSING and a
    float32 NaN (not a Python float) kept as it is."""
    relation = Relation.from_rows(["x", "y"], rows)
    for j, name in enumerate(["x", "y"]):
        values = [row[j] for row in rows]
        expected = per_cell_column(values, len(rows))
        built = relation.column(name)
        assert built.dtype == object and built.shape == expected.shape
        assert all(got is want for got, want in zip(built, expected))
