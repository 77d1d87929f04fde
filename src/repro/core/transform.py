"""The pair-difference data transformation (paper Algorithm 2).

This is the key technical contribution of the paper: instead of learning
structure on the raw relation, FDX learns it on samples of *tuple-pair
agreement vectors*. For an ``n x k`` relation the transform emits an
``(n*k) x k`` binary matrix: for every attribute ``A_i`` the relation is
sorted by ``A_i``, circularly shifted by one row, and the element-wise
agreement between original and shifted rows is recorded across all ``k``
attributes. Sorting by each attribute in turn guarantees tuple pairs that
agree on a wide range of attribute values, which uniform pair sampling does
not (we keep :func:`uniform_pair_transform` for the ablation benchmark).

Mixed data types are supported through per-type comparators (§4.1 "we can
use a different difference operation for each of these types"): exact
equality for categorical data, tolerance equality for numeric data, and
token-set Jaccard overlap for text. Missing cells never agree with
anything (including other missing cells), reflecting the paper's treatment
of missing values as errors.

Performance note: agreement vectors are ``uint8`` end to end; the
single ``float64`` cast happens at covariance time
(``center_within_blocks`` or the structure learner's input
normalization), which halves the transform's memory traffic versus
materializing ``float64`` agreements per block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..dataset.relation import Relation, is_missing
from ..dataset.schema import AttributeType

#: Fraction of a numeric column's standard deviation within which two
#: numeric values are considered equal.
DEFAULT_NUMERIC_TOLERANCE = 1e-9

#: Jaccard similarity at or above which two token sets are considered equal.
DEFAULT_TEXT_JACCARD = 0.8


@dataclass
class ColumnCodec:
    """Pre-encoded column plus its pairwise agreement function.

    ``values`` holds the encoded column (int codes, floats, or token sets);
    ``agree(a, b)`` returns a binary ``uint8`` array of element-wise
    agreements. The encoding is computed once so the per-attribute
    sort/compare loop of Algorithm 2 stays vectorized.
    """

    values: np.ndarray
    agree: Callable[[np.ndarray, np.ndarray], np.ndarray]
    sort_key: np.ndarray


def _tokenize(value: object) -> frozenset[str]:
    return frozenset(str(value).lower().split())


def _column_codec(
    column: np.ndarray,
    dtype: AttributeType,
    numeric_tolerance: float,
    text_jaccard: float,
) -> ColumnCodec:
    """Encode one column and pair it with its type's comparator."""
    if dtype is AttributeType.NUMERIC:
        vals = np.array(
            [float(v) if not is_missing(v) else np.nan for v in column],
            dtype=np.float64,
        )
        finite = vals[~np.isnan(vals)]
        scale = float(np.std(finite)) if finite.size else 0.0
        tol = numeric_tolerance * scale if scale > 0 else 0.0

        def agree_num(a: np.ndarray, b: np.ndarray) -> np.ndarray:
            both = ~np.isnan(a) & ~np.isnan(b)
            out = np.zeros(a.shape[0], dtype=np.uint8)
            out[both] = np.abs(a[both] - b[both]) <= tol
            return out

        # Sort key: NaNs last (argsort on float puts NaN last already).
        return ColumnCodec(values=vals, agree=agree_num, sort_key=vals)

    if dtype is AttributeType.TEXT:
        tokens = np.empty(len(column), dtype=object)
        for i, v in enumerate(column):
            tokens[i] = None if is_missing(v) else _tokenize(v)

        def agree_text(a: np.ndarray, b: np.ndarray) -> np.ndarray:
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

    def agree_cat(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return ((a == b) & (a >= 0)).astype(np.uint8)

    return ColumnCodec(values=codes, agree=agree_cat, sort_key=codes)


def build_codecs(
    relation: Relation,
    numeric_tolerance: float = DEFAULT_NUMERIC_TOLERANCE,
    text_jaccard: float = DEFAULT_TEXT_JACCARD,
) -> list[ColumnCodec]:
    """Encode every column of ``relation`` with its type's comparator."""
    return [
        _column_codec(
            relation.column(attr.name), attr.dtype, numeric_tolerance, text_jaccard
        )
        for attr in relation.schema
    ]


def _sort_order(codec: ColumnCodec) -> np.ndarray:
    key = codec.sort_key
    if key.dtype == object:  # pragma: no cover - defensive; text uses str keys
        key = np.array([repr(v) for v in key])
    return np.argsort(key, kind="stable")


def _agreement_block(codecs: list[ColumnCodec], i: int) -> np.ndarray:
    """One Algorithm 2 block: sort by attribute ``i``, shift, compare all."""
    n = len(codecs[i].sort_key)
    order = _sort_order(codecs[i])
    shifted = np.roll(order, -1)
    block = np.empty((n, len(codecs)), dtype=np.uint8)
    for l, codec in enumerate(codecs):
        block[:, l] = codec.agree(codec.values[order], codec.values[shifted])
    return block


def pair_difference_transform(
    relation: Relation,
    rng: np.random.Generator | None = None,
    numeric_tolerance: float = DEFAULT_NUMERIC_TOLERANCE,
    text_jaccard: float = DEFAULT_TEXT_JACCARD,
    max_rows_per_attribute: int | None = None,
) -> np.ndarray:
    """Algorithm 2: sorted circular-shift tuple-pair agreement sample.

    Returns a binary ``uint8`` matrix of shape ``(n_pairs, k)`` where
    ``n_pairs = n * k`` (or ``min(n, max_rows_per_attribute) * k`` when the
    per-attribute row cap is set — the sampling speed-up the paper mentions
    for large relations such as NYPD).
    """
    if rng is None:
        rng = np.random.default_rng(0)
    n, k = relation.shape
    if n < 2:
        raise ValueError("pair transform requires at least two rows")
    shuffled = relation.shuffled(rng)
    if max_rows_per_attribute is not None and max_rows_per_attribute < n:
        shuffled = shuffled.head(max_rows_per_attribute)
        n = shuffled.n_rows
    codecs = build_codecs(
        shuffled, numeric_tolerance=numeric_tolerance, text_jaccard=text_jaccard
    )
    return np.concatenate(
        [_agreement_block(codecs, i) for i in range(k)], axis=0
    )


def center_within_blocks(samples: np.ndarray, n_blocks: int) -> np.ndarray:
    """Subtract each block's column means from its rows.

    Algorithm 2 emits one block of agreement vectors per sorted attribute;
    within the block sorted by ``A_i`` the agreement on ``A_i`` is nearly
    always 1 while other attributes sit at their base rates. Pooling the
    *uncentered* blocks therefore manufactures spurious negative
    correlation between unrelated attributes (a mixture effect). Centering
    each block before pooling removes the block-level mean shifts while
    preserving the within-block dependence structure — the concrete form
    of the paper's "fix the mean to zero" robustness argument (§4.3).

    This is also where the transform's ``uint8`` agreements take their
    single cast to ``float64``.
    """
    samples = np.asarray(samples, dtype=float)
    n = samples.shape[0]
    if n_blocks <= 0 or n % n_blocks != 0:
        raise ValueError(
            f"cannot split {n} rows into {n_blocks} equal blocks"
        )
    rows_per_block = n // n_blocks
    out = samples.reshape(n_blocks, rows_per_block, samples.shape[1]).copy()
    out -= out.mean(axis=1, keepdims=True)
    return out.reshape(n, samples.shape[1])


def uniform_pair_transform(
    relation: Relation,
    rng: np.random.Generator | None = None,
    n_pairs: int | None = None,
    numeric_tolerance: float = DEFAULT_NUMERIC_TOLERANCE,
    text_jaccard: float = DEFAULT_TEXT_JACCARD,
) -> np.ndarray:
    """Ablation variant: agreement vectors of uniformly random tuple pairs.

    Random pairs rarely agree on high-cardinality attributes, which starves
    the covariance estimate — the reason Algorithm 2 uses the sorted
    circular-shift heuristic. Kept for the ablation benchmark.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    n, k = relation.shape
    if n < 2:
        raise ValueError("pair transform requires at least two rows")
    if n_pairs is None:
        n_pairs = n * k
    codecs = build_codecs(
        relation, numeric_tolerance=numeric_tolerance, text_jaccard=text_jaccard
    )
    left = rng.integers(n, size=n_pairs)
    offset = 1 + rng.integers(n - 1, size=n_pairs)
    right = (left + offset) % n  # guaranteed distinct tuples
    out = np.empty((n_pairs, k), dtype=np.uint8)
    for l, codec in enumerate(codecs):
        out[:, l] = codec.agree(codec.values[left], codec.values[right])
    return out
