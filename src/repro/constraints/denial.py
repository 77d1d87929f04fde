"""Denial constraint (DC) discovery — FASTDC-style (Chu et al. 2013).

The paper's related work (§6) discusses discovering richer constraints
than FDs; denial constraints generalize FDs, unique constraints and order
dependencies. A DC forbids a conjunction of predicates over a tuple pair::

    not ( t1.A = t2.A  AND  t1.B != t2.B )        # the FD A -> B
    not ( t1.salary > t2.salary AND t1.tax < t2.tax )   # order dependency

Following FASTDC, discovery proceeds by:

1. building a *predicate space* over tuple pairs (``=``/``!=`` on every
   attribute, plus ``<``/``>`` on numeric attributes);
2. computing the *evidence set* of each sampled tuple pair — the set of
   predicates the pair satisfies;
3. emitting every minimal predicate set (up to a size cap) contained in
   no (or, for approximate DCs, few) evidence sets: the conjunction can
   then (almost) never be fully satisfied, so its negation holds.

Evidence sets are bitmask-encoded, making the candidate check a vectorized
``(evidence & mask) == mask`` scan.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from ..core.fd import FD
from ..dataset.relation import Relation, is_missing
from ..dataset.schema import AttributeType


@dataclass(frozen=True)
class Predicate:
    """A predicate over a tuple pair: ``t1.attribute <op> t2.attribute``."""

    attribute: str
    op: str  # one of "=", "!=", "<", ">"

    def __str__(self) -> str:
        return f"t1.{self.attribute} {self.op} t2.{self.attribute}"


@dataclass(frozen=True)
class DenialConstraint:
    """``not (p1 AND p2 AND ...)`` over a tuple pair."""

    predicates: tuple[Predicate, ...]

    def __str__(self) -> str:
        inner = " AND ".join(str(p) for p in self.predicates)
        return f"not ({inner})"

    def __len__(self) -> int:
        return len(self.predicates)

    def as_fd(self) -> FD | None:
        """The FD this DC encodes, if it has FD shape:
        equalities on X plus a single inequality on Y."""
        eqs = [p.attribute for p in self.predicates if p.op == "="]
        neqs = [p.attribute for p in self.predicates if p.op == "!="]
        others = [p for p in self.predicates if p.op not in ("=", "!=")]
        if others or len(neqs) != 1 or not eqs or neqs[0] in eqs:
            return None
        return FD(eqs, neqs[0])


@dataclass
class DenialConstraintResult:
    """Discovered minimal DCs plus discovery statistics."""

    constraints: list[DenialConstraint]
    violations: dict[DenialConstraint, float] = field(default_factory=dict)
    n_pairs: int = 0
    n_predicates: int = 0
    seconds: float = 0.0

    def implied_fds(self) -> list[FD]:
        """FDs among the discovered DCs."""
        out = []
        for dc in self.constraints:
            fd = dc.as_fd()
            if fd is not None:
                out.append(fd)
        return out


class DenialConstraintDiscovery:
    """FASTDC-style discovery of minimal (approximate) denial constraints.

    Parameters
    ----------
    max_predicates:
        Largest predicate-conjunction size to emit.
    max_violation_rate:
        Fraction of sampled tuple pairs allowed to satisfy the full
        conjunction (0 = exact DCs on the sample).
    n_pairs:
        Tuple-pair budget for evidence sets. A relation whose ordered
        pairs of distinct rows all fit in it uses each pair once (exact
        evidence); a larger one samples pairs.
    numeric_order_predicates:
        Also generate ``<`` / ``>`` predicates for numeric attributes
        (enables order dependencies).
    """

    def __init__(
        self,
        max_predicates: int = 3,
        max_violation_rate: float = 0.0,
        n_pairs: int = 5000,
        numeric_order_predicates: bool = True,
        time_limit: float | None = None,
        seed: int = 0,
    ) -> None:
        if max_predicates < 1:
            raise ValueError("max_predicates must be at least 1")
        if not 0.0 <= max_violation_rate < 1.0:
            raise ValueError("max_violation_rate must be in [0, 1)")
        self.max_predicates = max_predicates
        self.max_violation_rate = max_violation_rate
        self.n_pairs = n_pairs
        self.numeric_order_predicates = numeric_order_predicates
        self.time_limit = time_limit
        self.seed = seed

    # -- predicate space -----------------------------------------------------

    def build_predicates(self, relation: Relation) -> list[Predicate]:
        predicates: list[Predicate] = []
        for attr in relation.schema:
            predicates.append(Predicate(attr.name, "="))
            predicates.append(Predicate(attr.name, "!="))
            if self.numeric_order_predicates and attr.dtype is AttributeType.NUMERIC:
                predicates.append(Predicate(attr.name, "<"))
                predicates.append(Predicate(attr.name, ">"))
        return predicates

    # -- discovery -------------------------------------------------------------

    def discover(self, relation: Relation) -> DenialConstraintResult:
        start = time.perf_counter()
        rng = np.random.default_rng(self.seed)
        predicates = self.build_predicates(relation)
        n = relation.n_rows
        if n < 2:
            return DenialConstraintResult(
                constraints=[], n_pairs=0, n_predicates=len(predicates),
                seconds=time.perf_counter() - start,
            )
        left, right = _tuple_pairs(n, self.n_pairs, rng)
        n_pairs = len(left)

        evidence = np.zeros(n_pairs, dtype=np.int64)
        for bit, pred in enumerate(predicates):
            col = relation.column(pred.attribute)
            satisfied = _evaluate_predicate(pred, col, left, right)
            evidence |= satisfied.astype(np.int64) << bit

        constraints: list[DenialConstraint] = []
        violations: dict[DenialConstraint, float] = {}
        minimal_masks: list[int] = []
        max_bad = int(self.max_violation_rate * n_pairs)
        for size in range(1, self.max_predicates + 1):
            for combo in self._candidate_combos(predicates, size):
                if self.time_limit is not None and time.perf_counter() - start > self.time_limit:
                    raise TimeoutError(f"DC discovery exceeded {self.time_limit}s")
                mask = 0
                for p in combo:
                    mask |= 1 << predicates.index(p)
                if any(m & mask == m for m in minimal_masks):
                    continue  # superset of a discovered DC: not minimal
                n_satisfying = int(np.count_nonzero((evidence & mask) == mask))
                if n_satisfying <= max_bad:
                    dc = DenialConstraint(tuple(combo))
                    constraints.append(dc)
                    violations[dc] = n_satisfying / n_pairs
                    minimal_masks.append(mask)
        return DenialConstraintResult(
            constraints=constraints,
            violations=violations,
            n_pairs=n_pairs,
            n_predicates=len(predicates),
            seconds=time.perf_counter() - start,
        )

    def _candidate_combos(
        self, predicates: Sequence[Predicate], size: int
    ) -> Iterator[tuple[Predicate, ...]]:
        """Predicate combinations, skipping trivially contradictory ones
        (two predicates on the same attribute can never both hold)."""
        for combo in itertools.combinations(predicates, size):
            attrs = [p.attribute for p in combo]
            if len(set(attrs)) != len(attrs):
                continue
            yield combo


def _tuple_pairs(
    n: int, n_pairs: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Row indices ``(left, right)`` of the tuple pairs evidence is built on.

    When every ordered pair of distinct rows fits in the budget
    (n(n−1) ≤ ``n_pairs``), each is taken once, so small relations get
    exact evidence. Otherwise at most min(``n_pairs``, n(n−1)/2) pairs
    are drawn with replacement.
    """
    if n * (n - 1) <= n_pairs:
        return np.nonzero(~np.eye(n, dtype=bool))
    n_pairs = min(n_pairs, n * (n - 1) // 2)
    left = rng.integers(n, size=n_pairs)
    right = (left + 1 + rng.integers(n - 1, size=n_pairs)) % n
    return left, right


def _evaluate_predicate(
    pred: Predicate, col: np.ndarray, left: np.ndarray, right: np.ndarray
) -> np.ndarray:
    """Vectorized truth of ``pred`` on the sampled pairs. Pairs with a
    missing value on the attribute satisfy nothing (NULL semantics)."""
    lvals = col[left]
    rvals = col[right]
    present = np.array(
        [not (is_missing(a) or is_missing(b)) for a, b in zip(lvals, rvals)]
    )
    out = np.zeros(len(left), dtype=bool)
    if pred.op == "=":
        cmp = np.array([a == b for a, b in zip(lvals, rvals)])
    elif pred.op == "!=":
        cmp = np.array([a != b for a, b in zip(lvals, rvals)])
    elif pred.op == "<":
        cmp = np.array([
            (a < b) if not (is_missing(a) or is_missing(b)) else False
            for a, b in zip(lvals, rvals)
        ])
    elif pred.op == ">":
        cmp = np.array([
            (a > b) if not (is_missing(a) or is_missing(b)) else False
            for a, b in zip(lvals, rvals)
        ])
    else:  # pragma: no cover - constructor restricts ops
        raise ValueError(f"unknown op {pred.op!r}")
    out[present] = cmp[present]
    return out


def check_denial_constraint(
    relation: Relation, dc: DenialConstraint, n_pairs: int = 5000, seed: int = 0
) -> float:
    """Violation rate of ``dc`` on the tuple pairs of ``relation``.

    Exact (every ordered pair of distinct rows) when n(n−1) ≤
    ``n_pairs``; a sampled estimate otherwise.
    """
    n = relation.n_rows
    if n < 2:
        return 0.0
    left, right = _tuple_pairs(n, n_pairs, np.random.default_rng(seed))
    satisfied = np.ones(len(left), dtype=bool)
    for pred in dc.predicates:
        col = relation.column(pred.attribute)
        satisfied &= _evaluate_predicate(pred, col, left, right)
    return float(np.count_nonzero(satisfied)) / len(left)
