"""Noise channel models (paper §3.1 generative process).

The paper assumes a clean relation ``D`` sampled from a distribution and a
noisy channel producing the observed ``D'``. This module implements the
channels used throughout the evaluation:

* :class:`RandomFlipNoise` — each selected cell is replaced by a different
  value drawn uniformly from the attribute's active domain (the synthetic
  noise of paper §5.1 / Figure 7).
* :class:`MissingNoise` — selected cells become missing (the naturally
  occurring noise of the real-world experiments, Tables 6-7).
* :class:`SystematicNoise` — errors concentrate on rows matching a
  predicate-like condition (one attribute value), modelling the systematic
  noise of Table 7.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .relation import MISSING, Relation, is_missing


@dataclass
class NoiseReport:
    """Where noise was injected: set of ``(row, attribute)`` cells."""

    cells: set[tuple[int, str]] = field(default_factory=set)

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    def rate(self, relation: Relation, attributes: Sequence[str] | None = None) -> float:
        names = list(attributes) if attributes is not None else relation.schema.names
        total = relation.n_rows * len(names)
        return self.n_cells / total if total else 0.0


def _choose_cells(
    n_rows: int,
    attributes: Sequence[str],
    rate: float,
    rng: np.random.Generator,
) -> set[tuple[int, str]]:
    """Pick ``rate`` of the ``n_rows x len(attributes)`` grid uniformly."""
    total = n_rows * len(attributes)
    n_noisy = int(round(rate * total))
    if n_noisy == 0:
        return set()
    flat = rng.choice(total, size=n_noisy, replace=False)
    return {(int(f) // len(attributes), attributes[int(f) % len(attributes)]) for f in flat}


class RandomFlipNoise:
    """Flip cells to a *different* uniformly random domain value.

    Parameters
    ----------
    rate:
        Fraction of targeted cells to corrupt (paper "Noise Rate").
    attributes:
        Attributes eligible for corruption; defaults to all. The paper's
        synthetic experiments flip only cells of attributes participating
        in true FDs, which callers express through this argument.
    """

    def __init__(self, rate: float, attributes: Sequence[str] | None = None) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"noise rate must be in [0, 1], got {rate}")
        self.rate = rate
        self.attributes = list(attributes) if attributes is not None else None

    def apply(self, relation: Relation, rng: np.random.Generator) -> tuple[Relation, NoiseReport]:
        names = self.attributes or relation.schema.names
        cells = _choose_cells(relation.n_rows, names, self.rate, rng)
        columns = {n: relation.column(n) for n in relation.schema.names}
        domains = {n: relation.domain(n) for n in names}
        # Sorted, not set order: the rng draws one value per cell, and set
        # iteration order follows the string hash, which varies per process.
        for (i, name) in sorted(cells):
            domain = domains[name]
            current = columns[name][i]
            if len(domain) <= 1:
                continue
            alternatives = [v for v in domain if v != current]
            columns[name][i] = alternatives[rng.integers(len(alternatives))]
        return Relation(relation.schema, columns), NoiseReport(cells)


class MissingNoise:
    """Blank out cells (naturally-occurring missing values)."""

    def __init__(self, rate: float, attributes: Sequence[str] | None = None) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"noise rate must be in [0, 1], got {rate}")
        self.rate = rate
        self.attributes = list(attributes) if attributes is not None else None

    def apply(self, relation: Relation, rng: np.random.Generator) -> tuple[Relation, NoiseReport]:
        names = self.attributes or relation.schema.names
        cells = _choose_cells(relation.n_rows, names, self.rate, rng)
        columns = {n: relation.column(n) for n in relation.schema.names}
        for (i, name) in cells:
            columns[name][i] = MISSING
        return Relation(relation.schema, columns), NoiseReport(cells)


class SystematicNoise:
    """Corrupt cells of ``target`` only on rows where ``condition_attribute``
    takes its most frequent value — a biased, non-random error channel.

    ``mode`` selects the corruption: ``"missing"`` blanks the cell,
    ``"flip"`` rewrites it with a fixed wrong value per clean value
    (deterministic, systematic corruption).
    """

    def __init__(
        self,
        target: str,
        condition_attribute: str,
        rate: float = 1.0,
        mode: str = "missing",
    ) -> None:
        if mode not in ("missing", "flip"):
            raise ValueError(f"unknown mode {mode!r}")
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"noise rate must be in [0, 1], got {rate}")
        self.target = target
        self.condition_attribute = condition_attribute
        self.rate = rate
        self.mode = mode

    def apply(self, relation: Relation, rng: np.random.Generator) -> tuple[Relation, NoiseReport]:
        cond_col = relation.column(self.condition_attribute)
        counts = relation.value_counts(self.condition_attribute)
        if not counts:
            return relation, NoiseReport()
        top_value = max(counts, key=lambda v: (counts[v], repr(v)))
        candidate_rows = [
            i for i in range(relation.n_rows)
            if not is_missing(cond_col[i]) and cond_col[i] == top_value
        ]
        n_noisy = int(round(self.rate * len(candidate_rows)))
        chosen = rng.choice(len(candidate_rows), size=n_noisy, replace=False) if n_noisy else []
        columns = {n: relation.column(n) for n in relation.schema.names}
        domain = relation.domain(self.target)
        # Deterministic wrong-value map for "flip" mode: rotate the domain.
        wrong = {v: domain[(idx + 1) % len(domain)] for idx, v in enumerate(domain)} if len(domain) > 1 else {}
        cells: set[tuple[int, str]] = set()
        for pos in chosen:
            i = candidate_rows[int(pos)]
            if self.mode == "missing":
                columns[self.target][i] = MISSING
            else:
                current = columns[self.target][i]
                if not is_missing(current) and current in wrong:
                    columns[self.target][i] = wrong[current]
            cells.add((i, self.target))
        return Relation(relation.schema, columns), NoiseReport(cells)


def apply_noise(
    relation: Relation,
    channels: Sequence[RandomFlipNoise | MissingNoise | SystematicNoise],
    rng: np.random.Generator,
) -> tuple[Relation, NoiseReport]:
    """Apply several channels in order, unioning their reports."""
    report = NoiseReport()
    current = relation
    for channel in channels:
        current, r = channel.apply(current, rng)
        report.cells |= r.cells
    return current, report
