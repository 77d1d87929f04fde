"""Versioned wire schemas for the FD-discovery service.

Everything that crosses the HTTP boundary is defined here, so the server
handler and the blocking client share one vocabulary:

* relations are shipped column-oriented (``{"attributes": [...],
  "columns": {name: [...]}}``) or row-oriented (``"rows": [[...], ...]``),
* hyperparameters are a flat, canonicalizable dict
  (:class:`Hyperparameters`), which also feeds the cache fingerprint,
* discovery results travel as ``FDXResult.to_dict()`` payloads and are
  rebuilt client-side with ``FDXResult.from_dict`` — the round-trip
  inverse added for this service.

``PROTOCOL_VERSION`` is embedded in every response envelope; clients
should reject a major version they do not understand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping

from ..dataset.relation import MISSING, Relation
from ..dataset.schema import Attribute, AttributeType, Schema
from ..linalg.ordering import ORDERING_METHODS

#: Wire-format version embedded in every response envelope.
PROTOCOL_VERSION = 1

#: Hard cap on cells per shipped relation (memory guard for one request).
MAX_CELLS = 5_000_000

#: Hard cap on a request's declared ``Content-Length``: 16 bytes for each
#: cell of the largest relation :data:`MAX_CELLS` admits. A longer body
#: answers 413 before a byte of it is read.
MAX_BODY_BYTES = 16 * MAX_CELLS


class ProtocolError(ValueError):
    """A malformed request payload; maps to an HTTP 4xx."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


@dataclass(frozen=True)
class Hyperparameters:
    """Discovery hyperparameters accepted over the wire.

    Mirrors the :class:`repro.core.fdx.FDX` /
    :class:`repro.core.incremental.IncrementalFDX` constructor surface
    that makes sense per-request. ``canonical()`` is a stable, hashable
    projection used by the result-cache fingerprint.
    """

    lam: float = 0.02
    sparsity: float = 0.05
    ordering: str = "natural"
    shrinkage: float = 0.01
    max_rows_per_attribute: int | None = None
    min_batch_rows: int = 50
    decay: float = 1.0
    seed: int = 0
    #: Sessions only: re-solve on FD reads only after this many new rows
    #: (0 = every read re-solves); drift alert fires above the threshold.
    refresh_every_rows: int = 0
    drift_threshold: float = 0.15

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any] | None) -> "Hyperparameters":
        if payload is None:
            return cls()
        if not isinstance(payload, Mapping):
            raise ProtocolError("'hyperparameters' must be an object")
        unknown = set(payload) - set(cls.__dataclass_fields__)
        if unknown:
            raise ProtocolError(f"unknown hyperparameters: {sorted(unknown)}")
        for name, value in payload.items():
            _check_hyperparameter(name, value, cls.__dataclass_fields__[name].type)
        return cls(**dict(payload))

    def to_dict(self) -> dict:
        return {
            "lam": self.lam,
            "sparsity": self.sparsity,
            "ordering": self.ordering,
            "shrinkage": self.shrinkage,
            "max_rows_per_attribute": self.max_rows_per_attribute,
            "min_batch_rows": self.min_batch_rows,
            "decay": self.decay,
            "seed": self.seed,
            "refresh_every_rows": self.refresh_every_rows,
            "drift_threshold": self.drift_threshold,
        }

    def canonical(self) -> tuple:
        """Deterministic tuple for fingerprinting (sorted key order)."""
        return tuple(sorted((k, repr(v)) for k, v in self.to_dict().items()))


#: Python types a numeric wire value may have, by field annotation.
_NUMBER_TYPES = {"float": (int, float), "int": (int,)}

#: What a rejected value should have been, for fields with extra rules.
_EXPECTED = {
    "lam": "a non-negative number or 'ebic'",
    "shrinkage": "a number in [0, 1]",
    "ordering": "one of " + ", ".join(sorted(ORDERING_METHODS)),
}


def _check_hyperparameter(name: str, value: Any, annotation: str) -> None:
    """Raise a 400 unless ``value`` fits the field's annotation.

    ``bool`` is not a number and numbers must be finite and >= 0;
    ``lam`` may also be ``"ebic"``, ``shrinkage`` is at most 1, and
    ``ordering`` must name a heuristic of ``ORDERING_METHODS``.
    """
    kind = annotation.split(" |")[0]
    if value is None:
        ok = annotation.endswith("| None")
    elif kind == "str":
        ok = isinstance(value, str) and (name != "ordering" or value in ORDERING_METHODS)
    elif name == "lam" and value == "ebic":
        ok = True
    else:
        ok = (
            isinstance(value, _NUMBER_TYPES[kind]) and not isinstance(value, bool)
            and 0 <= value < math.inf and (name != "shrinkage" or value <= 1)
        )
    if not ok:
        expected = _EXPECTED.get(name, f"a non-negative {annotation}")
        raise ProtocolError(f"bad hyperparameter {name}={value!r:.80}: expected {expected}")


# -- relations over the wire -------------------------------------------------

def relation_to_wire(relation: Relation) -> dict:
    """Column-oriented JSON payload for ``relation`` (MISSING -> null)."""
    return {
        "attributes": [
            {"name": a.name, "dtype": a.dtype.value} for a in relation.schema.attributes
        ],
        "columns": {
            name: [None if v is MISSING else v for v in relation.column(name)]
            for name in relation.schema.names
        },
    }


def _parse_attributes(spec: Any) -> Schema:
    if not isinstance(spec, (list, tuple)) or not spec:
        raise ProtocolError("'attributes' must be a non-empty list")
    attrs: list[Attribute] = []
    for item in spec:
        if isinstance(item, str):
            attrs.append(Attribute(item))
        elif isinstance(item, Mapping) and "name" in item:
            dtype = item.get("dtype", AttributeType.CATEGORICAL.value)
            try:
                attrs.append(Attribute(str(item["name"]), AttributeType(dtype)))
            except ValueError as exc:
                raise ProtocolError(f"bad attribute dtype {dtype!r}") from exc
        else:
            raise ProtocolError(f"bad attribute spec {item!r}")
    try:
        return Schema(attrs)
    except ValueError as exc:
        raise ProtocolError(str(exc)) from exc


def relation_from_wire(payload: Any) -> Relation:
    """Parse a relation payload (columns- or rows-oriented) with validation."""
    if not isinstance(payload, Mapping):
        raise ProtocolError("'relation' must be an object")
    schema = _parse_attributes(payload.get("attributes"))
    columns = payload.get("columns")
    rows = payload.get("rows")
    if (columns is None) == (rows is None):
        raise ProtocolError("relation needs exactly one of 'columns' or 'rows'")
    if columns is not None:
        if not isinstance(columns, Mapping):
            raise ProtocolError("'columns' must map attribute name -> values")
        lengths = {len(v) for v in columns.values() if isinstance(v, (list, tuple))}
        n_rows = lengths.pop() if len(lengths) == 1 else None
        if n_rows is None and columns:
            raise ProtocolError("ragged or non-list columns")
        _check_cells(n_rows or 0, len(schema))
        try:
            return Relation(schema, columns)
        except ValueError as exc:
            raise ProtocolError(str(exc)) from exc
    if not isinstance(rows, (list, tuple)):
        raise ProtocolError("'rows' must be a list of row arrays")
    _check_cells(len(rows), len(schema))
    try:
        return Relation.from_rows(schema, rows)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(str(exc)) from exc


def _check_cells(n_rows: int, n_attrs: int) -> None:
    if n_rows * n_attrs > MAX_CELLS:
        raise ProtocolError(
            f"relation too large: {n_rows} x {n_attrs} exceeds {MAX_CELLS} cells",
            status=413,
        )


# -- response envelopes ------------------------------------------------------

def envelope(payload: dict) -> dict:
    """Wrap a response body with the protocol version."""
    return {"protocol_version": PROTOCOL_VERSION, **payload}


def error_payload(
    message: str,
    status: int,
    retry_after: float | None = None,
    trace_id: str | None = None,
    reason: str | None = None,
) -> dict:
    """Error body; ``retry_after`` (seconds) rides along on 429/503 so
    clients can pace their backoff even when they cannot read headers.

    ``trace_id`` correlates the failure with server-side spans and
    flight-recorder dumps; when omitted here, the HTTP handler injects
    the request's trace id before serializing the reply. ``reason`` is a
    machine-readable discriminator for errors that share a status code
    (e.g. ``"quarantined"`` on a 409).
    """
    error: dict = {"message": message, "status": status}
    if retry_after is not None:
        error["retry_after_seconds"] = retry_after
    if trace_id is not None:
        error["trace_id"] = trace_id
    if reason is not None:
        error["reason"] = reason
    return envelope({"error": error})
