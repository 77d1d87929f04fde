"""Tests for repro.core.transform (paper Algorithm 2)."""

import hashlib

import numpy as np
import pytest

from repro.core.fdx import FDX
from repro.core.structure import sample_covariance
from repro.core.transform import (
    DEFAULT_NUMERIC_TOLERANCE,
    DEFAULT_TEXT_JACCARD,
    _encode,
    pair_difference_transform,
    uniform_pair_transform,
)
from repro.datagen.synthetic import SyntheticSpec, generate
from repro.dataset.relation import MISSING, Relation
from repro.dataset.schema import Attribute, AttributeType, Schema


def categorical_relation(n=50, seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        x = int(rng.integers(4))
        rows.append((x, x % 2, int(rng.integers(3))))
    return Relation.from_rows(["x", "y", "z"], rows)


def test_output_shape_is_nk_by_k():
    rel = categorical_relation(40)
    out = pair_difference_transform(rel, np.random.default_rng(0))
    assert out.shape == (40 * 3, 3)


def test_output_is_binary():
    rel = categorical_relation(30)
    out = pair_difference_transform(rel, np.random.default_rng(0))
    assert set(np.unique(out)) <= {0.0, 1.0}


def test_fd_implies_agreement_implication():
    """x -> y in the data means: whenever x agrees, y agrees."""
    rel = categorical_relation(100)
    out = pair_difference_transform(rel, np.random.default_rng(1))
    x_agree = out[:, 0] == 1.0
    assert np.all(out[x_agree, 1] == 1.0)


def test_sorted_shift_boosts_agreement_rate():
    """Algorithm 2's sort+shift yields more agreeing pairs on the sorted
    attribute than uniform pair sampling (its purpose)."""
    rng = np.random.default_rng(2)
    rel = Relation.from_rows(
        ["high_card"], [(int(rng.integers(500)),) for _ in range(300)]
    )
    circular = pair_difference_transform(rel, np.random.default_rng(0))
    uniform = uniform_pair_transform(rel, np.random.default_rng(0), n_pairs=300)
    assert circular[:, 0].mean() > uniform[:, 0].mean()


def test_missing_never_agrees():
    rel = Relation.from_rows(["a", "b"], [(MISSING, 1), (MISSING, 1), (MISSING, 1)])
    out = pair_difference_transform(rel, np.random.default_rng(0))
    assert np.all(out[:, 0] == 0.0)
    assert np.all(out[:, 1] == 1.0)


def test_requires_two_rows():
    rel = Relation.from_rows(["a"], [(1,)])
    with pytest.raises(ValueError):
        pair_difference_transform(rel, np.random.default_rng(0))
    with pytest.raises(ValueError):
        uniform_pair_transform(rel, np.random.default_rng(0))


def test_max_rows_per_attribute_caps_sample():
    rel = categorical_relation(200)
    out = pair_difference_transform(
        rel, np.random.default_rng(0), max_rows_per_attribute=50
    )
    assert out.shape == (50 * 3, 3)
    for cap in (0, 1):  # a row is never paired with itself
        with pytest.raises(ValueError):
            pair_difference_transform(
                rel, np.random.default_rng(0), max_rows_per_attribute=cap
            )


def test_numeric_tolerance_equality():
    schema = Schema([Attribute("v", AttributeType.NUMERIC)])
    rel = Relation(schema, {"v": [1.0, 1.0 + 1e-12, 5.0, 9.0]})
    out = pair_difference_transform(rel, np.random.default_rng(0))
    # The two nearly-identical values agree under the relative tolerance.
    assert out[:, 0].sum() >= 1.0


def test_numeric_missing_never_agrees():
    schema = Schema([Attribute("v", AttributeType.NUMERIC)])
    rel = Relation(schema, {"v": [MISSING, MISSING, 1.0]})
    out = pair_difference_transform(rel, np.random.default_rng(0))
    assert np.all(out == 0.0)


def test_text_jaccard_agreement():
    schema = Schema([Attribute("t", AttributeType.TEXT)])
    rel = Relation(schema, {
        "t": ["main street 12", "Main Street 12", "elm avenue", MISSING],
    })
    encoded = _encode(
        rel, np.arange(4), DEFAULT_NUMERIC_TOLERANCE, DEFAULT_TEXT_JACCARD
    )
    agree = np.empty((3, 1), dtype=np.uint8)
    encoded.agree(np.array([0, 0, 3]), np.array([1, 2, 3]), agree)
    agree = agree[:, 0]
    assert agree[0] == 1.0  # case-insensitive token match
    assert agree[1] == 0.0  # different tokens
    assert agree[2] == 0.0  # missing never agrees


def test_uniform_pairs_never_pair_row_with_itself():
    rel = categorical_relation(10)
    rng = np.random.default_rng(3)
    # With identity rows the only way to see 100% agreement on a unique key
    # column would be self-pairing.
    unique_rel = Relation.from_rows(["k"], [(i,) for i in range(50)])
    out = uniform_pair_transform(unique_rel, rng, n_pairs=500)
    assert np.all(out[:, 0] == 0.0)


def test_deterministic_given_seed():
    rel = categorical_relation(60)
    a = pair_difference_transform(rel, np.random.default_rng(5))
    b = pair_difference_transform(rel, np.random.default_rng(5))
    assert np.array_equal(a, b)


def mixed_relation(n=300, seed=7):
    """Categorical, numeric and text columns, with missing cells."""
    rng = np.random.default_rng(seed)
    schema = Schema([
        Attribute("zip", AttributeType.CATEGORICAL),
        Attribute("city", AttributeType.CATEGORICAL),
        Attribute("price", AttributeType.NUMERIC),
        Attribute("street", AttributeType.TEXT),
        Attribute("grade", AttributeType.CATEGORICAL),
    ])
    zips = rng.integers(20, size=n)
    columns = {
        "zip": [int(z) for z in zips],
        "city": [f"c{z % 7}" if rng.random() > 0.05 else MISSING for z in zips],
        "price": [
            float(rng.normal()) if rng.random() > 0.05 else MISSING for _ in zips
        ],
        "street": [
            f"{int(z)} Main Street" if rng.random() > 0.5 else f"elm {int(z)}"
            for z in zips
        ],
        "grade": [int(rng.integers(4)) for _ in zips],
    }
    return Relation(schema, columns)


@pytest.mark.parametrize("cap,digest", [
    (None, "ca1b78ce092c32c41e1ac2f62a15b57232f5b299f447837a446595a0d1fae6f1"),
    (120, "eb8bf12ad88f3eaf5a174bf8acf4175aa6cbf818196b5a0551b8b357eacc52e6"),
], ids=["all_rows", "capped_rows"])
def test_transform_output_is_pinned(cap, digest):
    """The exact bytes of the transform on a mixed-type relation.

    A rewrite of the transform (e.g. a columnar encoding) must keep
    these digests: every downstream result is a function of them.
    """
    out = pair_difference_transform(
        mixed_relation(), np.random.default_rng(11), max_rows_per_attribute=cap
    )
    assert out.dtype == np.uint8
    assert hashlib.sha256(out.tobytes()).hexdigest() == digest


def test_figure6_covariance_is_pinned():
    """The exact bytes of ``S`` for one 1000 x 68 Figure-6 instance.

    The Gram and the block sums are exact counts, so only ``MᵀM / r``,
    the subtraction and the division round: a rewrite of the covariance
    kernels must keep this digest.
    """
    relation = generate(SyntheticSpec(
        n_tuples=1000, n_attributes=68, domain_low=64, domain_high=216,
        noise_rate=0.01, seed=1000,
    )).relation
    S = sample_covariance(FDX().transform_relation(relation), 68)
    assert hashlib.sha256(S.tobytes()).hexdigest() == (
        "c067c0e12383359594a69a8714910c0f254d72f1db9aa355c977c76aa32c67c3"
    )
