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

The transform works on codes, not cells. The sampled rows of every
categorical column are gathered from the relation's cached
:meth:`~repro.dataset.relation.Relation.value_codes` into one integer
matrix of repr-order ranks, numeric columns into one float matrix, and an
Algorithm 2 block is a whole-matrix compare of each sorted row with its
successor; only text keeps a per-row (Jaccard) loop. The output stays
``uint8``: the covariance reads the 0/1 counts directly
(:func:`repro.linalg.covariance.block_centered_scatter`), with no
float64 copy of the sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dataset.relation import MISSING, Relation
from ..dataset.schema import AttributeType

#: Fraction of a numeric column's standard deviation within which two
#: numeric values are considered equal.
DEFAULT_NUMERIC_TOLERANCE = 1e-9

#: Jaccard similarity at or above which two token sets are considered equal.
DEFAULT_TEXT_JACCARD = 0.8


def _tokenize(value: object) -> frozenset[str]:
    return frozenset(str(value).lower().split())


def _first_values(
    relation: Relation, name: str, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The codes of column ``name`` at ``rows``, the codes present there
    (ascending, missing excluded), and each present code's value at its
    first occurrence in ``rows``."""
    codes = relation.value_codes(name)[rows]
    present, first = np.unique(codes, return_index=True)
    if present.size and present[0] < 0:
        present, first = present[1:], first[1:]
    return codes, present, relation._column_view(name)[rows[first]]


def _jaccard_agree(a: np.ndarray, b: np.ndarray, threshold: float) -> np.ndarray:
    """Token-set agreement of two aligned arrays of token sets (or None)."""
    out = np.zeros(a.shape[0], dtype=np.uint8)
    for i in range(a.shape[0]):
        sa, sb = a[i], b[i]
        if sa is None or sb is None:
            continue
        if not sa and not sb:
            out[i] = 1
            continue
        union = len(sa | sb)
        if union and len(sa & sb) / union >= threshold:
            out[i] = 1
    return out


@dataclass
class _Encoded:
    """The sampled rows of a relation, one matrix per comparator.

    Encoded columns are grouped by type: categorical columns first, as
    ranks of their values' ``repr`` in ``codes`` (``-1`` for missing),
    then numeric ones as floats in ``values`` (``NaN`` for missing) with
    one ``tolerance`` each, then the token sets of each text column.
    ``columns`` maps that grouped order to schema positions, and
    ``sort_keys[j]`` orders rows by schema attribute ``j``.
    """

    columns: np.ndarray
    codes: np.ndarray
    has_missing: bool
    values: np.ndarray
    tolerance: np.ndarray
    tokens: list[np.ndarray]
    text_jaccard: float
    sort_keys: list[np.ndarray]

    def agree(self, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
        """Write the agreement of sampled rows ``a[t]`` and ``b[t]`` into
        row ``t`` of ``out``, in grouped column order."""
        flags = out.view(np.bool_)
        kc, kn = self.codes.shape[1], self.values.shape[1]
        if kc:
            left = self.codes[a]
            same = np.equal(left, self.codes[b], out=flags[:, :kc])
            if self.has_missing:  # missing (-1) never agrees, not even with missing
                same &= left >= 0
        if kn:
            with np.errstate(invalid="ignore"):  # NaN and inf - inf compare False
                np.less_equal(
                    np.abs(self.values[a] - self.values[b]), self.tolerance,
                    out=flags[:, kc:kc + kn],
                )
        for t, tokens in enumerate(self.tokens, start=kc + kn):
            out[:, t] = _jaccard_agree(tokens[a], tokens[b], self.text_jaccard)

    def in_schema_order(self, out: np.ndarray) -> np.ndarray:
        """``out``'s columns moved from grouped to schema order."""
        if (self.columns[1:] > self.columns[:-1]).all():
            return out
        return out[:, np.argsort(self.columns)]


def _encode(
    relation: Relation,
    rows: np.ndarray,
    numeric_tolerance: float,
    text_jaccard: float,
) -> _Encoded:
    """Encode the relation's ``rows`` (in that order) column by column.

    A categorical value's rank is the ``repr`` order of the value found
    at its first occurrence in ``rows`` (equal values such as ``1`` and
    ``True`` share a code but not a ``repr``). A numeric column's
    tolerance is ``numeric_tolerance`` times the standard deviation of
    its finite sampled values, in sampled order.
    """
    categorical, numeric, text = [], [], []  # schema positions by type
    codes, values, tolerance, tokens, sort_keys = [], [], [], [], []
    # Ranks count the distinct sampled values; int16 keys sort by radix.
    rank_dtype = np.int16 if rows.size <= np.iinfo(np.int16).max else np.int32
    for j, attr in enumerate(relation.schema):
        if attr.dtype is AttributeType.TEXT:
            sets = np.empty(rows.size, dtype=object)
            sets[:] = [
                None if v is MISSING else _tokenize(v)
                for v in relation._column_view(attr.name)[rows]
            ]
            text.append(j)
            tokens.append(sets)
            sort_keys.append(np.array(
                [" ".join(sorted(t)) if t is not None else "\uffff" for t in sets]
            ))
            continue
        sampled, present, firsts = _first_values(relation, attr.name, rows)
        size = (int(present[-1]) + 1 if present.size else 0) + 1  # last slot: -1
        if attr.dtype is AttributeType.NUMERIC:
            lookup = np.full(size, np.nan)
            lookup[present] = [float(v) for v in firsts]
            column = lookup[sampled]
            finite = column[~np.isnan(column)]
            scale = float(np.std(finite)) if finite.size else 0.0
            numeric.append(j)
            values.append(column)
            tolerance.append(numeric_tolerance * scale if scale > 0 else 0.0)
        else:
            keys = [repr(v) for v in firsts]
            lookup = np.full(size, -1, dtype=rank_dtype)
            lookup[present[sorted(range(len(keys)), key=keys.__getitem__)]] = (
                np.arange(len(keys))
            )
            column = lookup[sampled]
            categorical.append(j)
            codes.append(column)
        sort_keys.append(column)
    codes = np.stack(codes, axis=1) if codes else np.empty((rows.size, 0), rank_dtype)
    return _Encoded(
        columns=np.array(categorical + numeric + text, dtype=np.intp),
        codes=codes,
        has_missing=bool((codes < 0).any()),
        values=np.stack(values, axis=1) if values else np.empty((rows.size, 0)),
        tolerance=np.array(tolerance),
        tokens=tokens,
        text_jaccard=text_jaccard,
        sort_keys=sort_keys,
    )


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
    for large relations such as NYPD). Block ``i`` (rows ``i*n`` to
    ``(i+1)*n``) pairs each row of the shuffled relation, stably sorted
    by attribute ``i``, with its circular successor.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    n, k = relation.shape
    if n < 2:
        raise ValueError("pair transform requires at least two rows")
    rows = rng.permutation(n)
    if max_rows_per_attribute is not None and max_rows_per_attribute < n:
        rows = rows[:max(max_rows_per_attribute, 0)]
    encoded = _encode(relation, rows, numeric_tolerance, text_jaccard)
    r = rows.size
    out = np.empty((r * k, k), dtype=np.uint8)
    for i, key in enumerate(encoded.sort_keys):
        order = np.argsort(key, kind="stable")
        encoded.agree(order, np.roll(order, -1), out[i * r:(i + 1) * r])
    return encoded.in_schema_order(out)


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

    Discovery does not call this: it takes the same centered second
    moment from the 0/1 counts
    (:func:`repro.linalg.covariance.block_centered_scatter`). It remains
    the explicit definition that estimator is tested against.
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
    encoded = _encode(relation, np.arange(n), numeric_tolerance, text_jaccard)
    left = rng.integers(n, size=n_pairs)
    offset = 1 + rng.integers(n - 1, size=n_pairs)
    right = (left + offset) % n  # guaranteed distinct tuples
    out = np.empty((n_pairs, k), dtype=np.uint8)
    encoded.agree(left, right, out)
    return encoded.in_schema_order(out)
