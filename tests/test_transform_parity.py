"""Byte identity of the columnar transform with the per-cell original.

``reference_*`` below is a frozen copy of the per-column codec transform
that the code-matrix implementation in :mod:`repro.core.transform`
replaced. It lives here only, as the definition the rewrite must
reproduce byte for byte on mixed-type relations.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.transform import (
    DEFAULT_NUMERIC_TOLERANCE,
    DEFAULT_TEXT_JACCARD,
    pair_difference_transform,
    uniform_pair_transform,
)
from repro.dataset.relation import Relation, is_missing
from repro.dataset.schema import Attribute, AttributeType, Schema

# --- frozen reference ---------------------------------------------------------


@dataclass
class ColumnCodec:
    values: np.ndarray
    agree: Callable[[np.ndarray, np.ndarray], np.ndarray]
    sort_key: np.ndarray


def _tokenize(value):
    return frozenset(str(value).lower().split())


def _column_codec(column, dtype, numeric_tolerance, text_jaccard):
    if dtype is AttributeType.NUMERIC:
        vals = np.array(
            [float(v) if not is_missing(v) else np.nan for v in column],
            dtype=np.float64,
        )
        finite = vals[~np.isnan(vals)]
        scale = float(np.std(finite)) if finite.size else 0.0
        tol = numeric_tolerance * scale if scale > 0 else 0.0

        def agree_num(a, b):
            both = ~np.isnan(a) & ~np.isnan(b)
            out = np.zeros(a.shape[0], dtype=np.uint8)
            out[both] = np.abs(a[both] - b[both]) <= tol
            return out

        return ColumnCodec(values=vals, agree=agree_num, sort_key=vals)

    if dtype is AttributeType.TEXT:
        tokens = np.empty(len(column), dtype=object)
        for i, v in enumerate(column):
            tokens[i] = None if is_missing(v) else _tokenize(v)

        def agree_text(a, b):
            out = np.zeros(a.shape[0], dtype=np.uint8)
            for i in range(a.shape[0]):
                sa, sb = a[i], b[i]
                if sa is None or sb is None:
                    continue
                if not sa and not sb:
                    out[i] = 1
                    continue
                union = len(sa | sb)
                if union and len(sa & sb) / union >= text_jaccard:
                    out[i] = 1
            return out

        sort_key = np.array(
            [" ".join(sorted(t)) if t is not None else "\uffff" for t in tokens]
        )
        return ColumnCodec(values=tokens, agree=agree_text, sort_key=sort_key)

    domain = sorted({v for v in column if not is_missing(v)}, key=repr)
    code_of = {v: c for c, v in enumerate(domain)}
    codes = np.array(
        [code_of[v] if not is_missing(v) else -1 for v in column], dtype=np.int64
    )

    def agree_cat(a, b):
        return ((a == b) & (a >= 0)).astype(np.uint8)

    return ColumnCodec(values=codes, agree=agree_cat, sort_key=codes)


def reference_codecs(relation, numeric_tolerance, text_jaccard):
    return [
        _column_codec(
            relation.column(attr.name), attr.dtype, numeric_tolerance, text_jaccard
        )
        for attr in relation.schema
    ]


def _agreement_block(codecs, i):
    n = len(codecs[i].sort_key)
    order = np.argsort(codecs[i].sort_key, kind="stable")
    shifted = np.roll(order, -1)
    block = np.empty((n, len(codecs)), dtype=np.uint8)
    for l, codec in enumerate(codecs):
        block[:, l] = codec.agree(codec.values[order], codec.values[shifted])
    return block


def reference_pair_difference_transform(
    relation, rng, numeric_tolerance=DEFAULT_NUMERIC_TOLERANCE,
    text_jaccard=DEFAULT_TEXT_JACCARD, max_rows_per_attribute=None,
):
    n, k = relation.shape
    if n < 2:
        raise ValueError("pair transform requires at least two rows")
    shuffled = relation.shuffled(rng)
    if max_rows_per_attribute is not None and max_rows_per_attribute < n:
        shuffled = shuffled.head(max_rows_per_attribute)
    codecs = reference_codecs(shuffled, numeric_tolerance, text_jaccard)
    return np.concatenate([_agreement_block(codecs, i) for i in range(k)], axis=0)


def reference_uniform_pair_transform(
    relation, rng, n_pairs=None, numeric_tolerance=DEFAULT_NUMERIC_TOLERANCE,
    text_jaccard=DEFAULT_TEXT_JACCARD,
):
    n, k = relation.shape
    if n < 2:
        raise ValueError("pair transform requires at least two rows")
    if n_pairs is None:
        n_pairs = n * k
    codecs = reference_codecs(relation, numeric_tolerance, text_jaccard)
    left = rng.integers(n, size=n_pairs)
    offset = 1 + rng.integers(n - 1, size=n_pairs)
    right = (left + offset) % n
    out = np.empty((n_pairs, k), dtype=np.uint8)
    for l, codec in enumerate(codecs):
        out[:, l] = codec.agree(codec.values[left], codec.values[right])
    return out


# --- mixed-type relations -----------------------------------------------------

#: Equal values with different reprs (1, 1.0, True, np.int64(1); 0, 0.0,
#: -0.0, False) share one code, so a category's rank depends on which of
#: them the sample meets first.
CATEGORICAL_CELLS = [
    1, 1.0, True, np.int64(1), 0, 0.0, -0.0, False, np.int64(2), 2.5,
    "1", "a", "b", "True", "", None, float("nan"),
]
NUMERIC_CELLS = st.one_of(
    st.none(),
    st.just(float("nan")),
    st.sampled_from([0.0, -0.0, 1, True, 1.0, np.int64(3), 2.5]),
    st.floats(-1e6, 1e6, allow_nan=False),
    st.integers(-5, 5),
)
TEXT_CELLS = st.one_of(
    st.none(),
    st.sampled_from(["main street 12", "Main Street 12", "elm avenue", "", "a b c"]),
    st.text(alphabet="ab C", max_size=6),
)
CELLS = {
    AttributeType.CATEGORICAL: st.sampled_from(CATEGORICAL_CELLS),
    AttributeType.NUMERIC: NUMERIC_CELLS,
    AttributeType.TEXT: TEXT_CELLS,
}


@st.composite
def mixed_relations(draw):
    dtypes = draw(st.lists(st.sampled_from(list(AttributeType)), min_size=1, max_size=5))
    n = draw(st.integers(2, 40))
    schema = Schema([Attribute(f"c{j}", dtype) for j, dtype in enumerate(dtypes)])
    columns = {
        f"c{j}": draw(st.lists(CELLS[dtype], min_size=n, max_size=n))
        for j, dtype in enumerate(dtypes)
    }
    return Relation(schema, columns)


@settings(max_examples=200, deadline=None)
@given(
    relation=mixed_relations(),
    seed=st.integers(0, 2**32 - 1),
    cap=st.one_of(st.none(), st.integers(2, 45)),  # below 2 raises
    tolerance=st.sampled_from([DEFAULT_NUMERIC_TOLERANCE, 0.1]),
)
def test_circular_transform_matches_the_reference_bytes(relation, seed, cap, tolerance):
    out = pair_difference_transform(
        relation, np.random.default_rng(seed), numeric_tolerance=tolerance,
        max_rows_per_attribute=cap,
    )
    want = reference_pair_difference_transform(
        relation, np.random.default_rng(seed), numeric_tolerance=tolerance,
        max_rows_per_attribute=cap,
    )
    assert out.dtype == want.dtype == np.uint8
    assert out.shape == want.shape
    assert out.tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(
    relation=mixed_relations(),
    seed=st.integers(0, 2**32 - 1),
    n_pairs=st.one_of(st.none(), st.integers(0, 60)),
)
def test_uniform_transform_matches_the_reference_bytes(relation, seed, n_pairs):
    out = uniform_pair_transform(relation, np.random.default_rng(seed), n_pairs=n_pairs)
    want = reference_uniform_pair_transform(
        relation, np.random.default_rng(seed), n_pairs=n_pairs
    )
    assert out.dtype == want.dtype == np.uint8
    assert out.tobytes() == want.tobytes()


def test_rank_follows_the_value_met_first_in_the_sample():
    """``True`` and ``1`` are one category whose rank against ``5`` flips
    with the spelling the shuffled sample meets first ('1' < '5' <
    'True'); among these seeds the sample meets each spelling first."""
    cells = [True, 5, 1, 5, True, 1, None, 5] * 5
    relation = Relation.from_rows(["x", "y"], [(v, i % 3) for i, v in enumerate(cells)])
    spellings = set()
    for seed in range(20):
        order = np.random.default_rng(seed).permutation(len(cells))
        spellings.add(repr(next(cells[i] for i in order if cells[i] == 1)))
        out = pair_difference_transform(relation, np.random.default_rng(seed))
        want = reference_pair_difference_transform(relation, np.random.default_rng(seed))
        assert out.tobytes() == want.tobytes()
    assert spellings == {"True", "1"}


def test_ranks_past_the_int16_range_match_the_reference():
    """More sampled rows than int16 holds: ranks switch to int32."""
    rng = np.random.default_rng(3)
    n = 40_000
    relation = Relation.from_rows(
        ["id", "group"], [(int(i), int(g)) for i, g in enumerate(rng.integers(3, size=n))]
    )
    out = pair_difference_transform(relation, np.random.default_rng(1))
    want = reference_pair_difference_transform(relation, np.random.default_rng(1))
    assert out.tobytes() == want.tobytes()


@pytest.mark.parametrize("cap", [None, 8, 15])
def test_numeric_tolerance_is_the_std_of_the_sampled_finite_values(cap):
    """0.0 and 1.0 agree exactly when the tolerance reaches 1: with ten of
    each the finite std is 0.5, so ``numeric_tolerance=2`` sits on the
    boundary and any other spread (missing cells counted, another
    sample) moves it."""
    schema = Schema([Attribute("v", AttributeType.NUMERIC), Attribute("g")])
    cells = [0.0, 1.0] * 10 + [None] * 5
    relation = Relation(schema, {"v": cells, "g": [i % 3 for i in range(len(cells))]})
    for seed in range(10):
        kwargs = dict(numeric_tolerance=2.0, max_rows_per_attribute=cap)
        out = pair_difference_transform(relation, np.random.default_rng(seed), **kwargs)
        want = reference_pair_difference_transform(relation, np.random.default_rng(seed), **kwargs)
        assert out.tobytes() == want.tobytes()
        if cap is None:
            # Sorted by v, all 19 neighbouring finite pairs agree, the
            # 0.0-1.0 pair included.
            assert out[:len(cells), 0].sum() == 19
