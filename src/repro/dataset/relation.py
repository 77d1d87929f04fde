"""Column-oriented relation (the data-set substrate).

A :class:`Relation` stores each attribute as a numpy object array so that
categorical, numeric and textual data can coexist, and missing values are
represented by :data:`MISSING` (``None``). This is the input type consumed
by every FD-discovery method in this repository.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .schema import Schema

#: Sentinel for a missing cell value.
MISSING = None


def is_missing(value: Any) -> bool:
    """True if ``value`` denotes a missing cell (None or NaN)."""
    if value is None:
        return True
    if isinstance(value, float) and np.isnan(value):
        return True
    return False


class Relation:
    """An immutable, column-oriented relational instance.

    Parameters
    ----------
    schema:
        The relation's schema.
    columns:
        Mapping from attribute name to a sequence of ``n`` cell values.
        All columns must have the same length.
    """

    def __init__(self, schema: Schema, columns: Mapping[str, Sequence[Any]]) -> None:
        if set(columns) != set(schema.names):
            missing = set(schema.names) - set(columns)
            extra = set(columns) - set(schema.names)
            raise ValueError(
                f"columns do not match schema (missing={sorted(missing)}, "
                f"extra={sorted(extra)})"
            )
        lengths = {len(columns[name]) for name in schema.names}
        if len(lengths) > 1:
            raise ValueError(f"ragged columns: lengths {sorted(lengths)}")
        self._schema = schema
        n = lengths.pop() if lengths else 0
        self._n_rows = n
        self._columns: dict[str, np.ndarray] = {}
        for name in schema.names:
            # fromiter fills an object array cell by cell, so tuple cells
            # stay whole (a list assignment would unpack them).
            self._columns[name] = np.fromiter(
                (MISSING if is_missing(v) else v for v in columns[name]),
                dtype=object, count=n,
            )
        self._code_cache: dict[str, np.ndarray] = {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(
        cls, schema: Schema | Sequence[str], rows: Iterable[Sequence[Any]]
    ) -> "Relation":
        """Build a relation from an iterable of row tuples."""
        if not isinstance(schema, Schema):
            schema = Schema(schema)
        rows = [tuple(r) for r in rows]
        for r in rows:
            if len(r) != len(schema):
                raise ValueError(
                    f"row arity {len(r)} does not match schema arity {len(schema)}"
                )
        columns = {
            name: [r[j] for r in rows] for j, name in enumerate(schema.names)
        }
        return cls(schema, columns)

    @classmethod
    def from_arrays(
        cls, schema: Schema | Sequence[str], arrays: Sequence[np.ndarray]
    ) -> "Relation":
        """Build a relation from one array per attribute (column order)."""
        if not isinstance(schema, Schema):
            schema = Schema(schema)
        if len(arrays) != len(schema):
            raise ValueError("one array per attribute required")
        return cls(schema, dict(zip(schema.names, arrays)))

    # -- basic accessors ---------------------------------------------------

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def n_rows(self) -> int:
        return self._n_rows

    @property
    def n_attributes(self) -> int:
        return len(self._schema)

    @property
    def shape(self) -> tuple[int, int]:
        return (self._n_rows, len(self._schema))

    def column(self, name: str) -> np.ndarray:
        """Return a copy of the column for attribute ``name``."""
        return self._columns[name].copy()

    def _column_view(self, name: str) -> np.ndarray:
        """Internal read-only access without copying."""
        return self._columns[name]

    def row(self, i: int) -> tuple[Any, ...]:
        return tuple(self._columns[name][i] for name in self._schema.names)

    def rows(self) -> Iterator[tuple[Any, ...]]:
        for i in range(self._n_rows):
            yield self.row(i)

    def to_matrix(self) -> np.ndarray:
        """Return the relation as an ``(n_rows, n_attrs)`` object matrix."""
        out = np.empty((self._n_rows, len(self._schema)), dtype=object)
        for j, name in enumerate(self._schema.names):
            out[:, j] = self._columns[name]
        return out

    def __len__(self) -> int:
        return self._n_rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        if self._schema != other._schema or self._n_rows != other._n_rows:
            return False
        return all(
            np.array_equal(self._columns[n], other._columns[n])
            for n in self._schema.names
        )

    def __repr__(self) -> str:
        return f"Relation(rows={self._n_rows}, attributes={self._schema.names})"

    # -- derived relations -------------------------------------------------

    def project(self, names: Sequence[str]) -> "Relation":
        """Return the projection of the relation onto ``names``."""
        schema = self._schema.project(names)
        return Relation(schema, {n: self._columns[n] for n in names})

    def select_rows(self, indices: Sequence[int] | np.ndarray) -> "Relation":
        """Return the relation restricted to the given row indices."""
        indices = np.asarray(indices)
        columns = {n: self._columns[n][indices] for n in self._schema.names}
        return Relation(self._schema, columns)

    def head(self, k: int) -> "Relation":
        return self.select_rows(np.arange(min(k, self._n_rows)))

    def sample_rows(self, k: int, rng: np.random.Generator) -> "Relation":
        """Return ``k`` rows sampled uniformly without replacement."""
        k = min(k, self._n_rows)
        idx = rng.choice(self._n_rows, size=k, replace=False)
        return self.select_rows(idx)

    def shuffled(self, rng: np.random.Generator) -> "Relation":
        """Return a row-shuffled copy (paper Algorithm 2, first step)."""
        perm = rng.permutation(self._n_rows)
        return self.select_rows(perm)

    def map_column(self, name: str, func: Callable[[Any], Any]) -> "Relation":
        """Return a copy with ``func`` applied to every non-missing cell."""
        columns = {n: self._columns[n] for n in self._schema.names}
        new_col = np.empty(self._n_rows, dtype=object)
        src = self._columns[name]
        for i in range(self._n_rows):
            new_col[i] = MISSING if is_missing(src[i]) else func(src[i])
        columns[name] = new_col
        return Relation(self._schema, columns)

    def with_column(self, name: str, values: Sequence[Any]) -> "Relation":
        """Return a copy with column ``name`` replaced by ``values``."""
        if name not in self._schema:
            raise KeyError(name)
        columns = {n: self._columns[n] for n in self._schema.names}
        columns[name] = np.asarray(list(values), dtype=object)
        return Relation(self._schema, columns)

    # -- statistics --------------------------------------------------------

    def domain(self, name: str) -> list[Any]:
        """Distinct non-missing values of attribute ``name`` (sorted by repr)."""
        col = self._columns[name]
        values = {v for v in col if not is_missing(v)}
        return sorted(values, key=repr)

    def domain_size(self, name: str) -> int:
        return len(self.domain(name))

    def missing_count(self, name: str | None = None) -> int:
        """Number of missing cells in ``name`` (or the whole relation)."""
        names = [name] if name is not None else self._schema.names
        return sum(
            sum(1 for v in self._columns[n] if is_missing(v)) for n in names
        )

    def missing_fraction(self) -> float:
        total = self._n_rows * len(self._schema)
        if total == 0:
            return 0.0
        return self.missing_count() / total

    def value_codes(self, name: str) -> np.ndarray:
        """Integer codes of attribute ``name`` (cached).

        Non-missing values receive codes ``0..|dom|-1`` in first-seen
        order, and two cells share a code exactly when they are equal as
        dict keys; every missing cell receives code ``-1``. The returned
        array is shared — callers must not mutate it.
        """
        cached = self._code_cache.get(name)
        if cached is None:
            index: dict[Any, int] = {MISSING: -1}
            cached = np.array(
                [index.setdefault(v, len(index) - 1) for v in self._columns[name].tolist()],
                dtype=np.int64,
            )
            self._code_cache[name] = cached
        return cached

    def value_counts(self, name: str) -> dict[Any, int]:
        """Histogram of non-missing values of attribute ``name``."""
        counts: dict[Any, int] = {}
        for v in self._columns[name]:
            if not is_missing(v):
                counts[v] = counts.get(v, 0) + 1
        return counts


def concat_rows(relations: Sequence[Relation]) -> Relation:
    """Vertically concatenate relations sharing one schema."""
    if not relations:
        raise ValueError("need at least one relation")
    schema = relations[0].schema
    for r in relations[1:]:
        if r.schema != schema:
            raise ValueError("schemas differ; cannot concatenate")
    columns = {
        n: np.concatenate([r._column_view(n) for r in relations])
        for n in schema.names
    }
    return Relation(schema, columns)
