"""Tests for repro.service.protocol (wire schemas)."""

import json

import pytest

from repro.dataset.relation import MISSING, Relation
from repro.dataset.schema import Attribute, AttributeType, Schema
from repro.service.protocol import (
    PROTOCOL_VERSION,
    Hyperparameters,
    ProtocolError,
    envelope,
    error_payload,
    relation_from_wire,
    relation_to_wire,
)


def sample_relation():
    schema = Schema([
        Attribute("zip"),
        Attribute("pop", AttributeType.NUMERIC),
        Attribute("note", AttributeType.TEXT),
    ])
    rows = [("53703", 250000.0, "state capital"), ("60601", MISSING, "loop")]
    return Relation.from_rows(schema, rows)


def test_relation_wire_roundtrip():
    rel = sample_relation()
    wire = json.loads(json.dumps(relation_to_wire(rel)))
    rebuilt = relation_from_wire(wire)
    assert rebuilt == rel
    assert rebuilt.schema.attributes[1].dtype is AttributeType.NUMERIC


def test_relation_from_rows_payload():
    payload = {
        "attributes": ["a", "b"],
        "rows": [[1, 2], [3, None]],
    }
    rel = relation_from_wire(payload)
    assert rel.n_rows == 2
    assert rel.column("b")[1] is MISSING


@pytest.mark.parametrize("payload", [
    None,
    {},
    {"attributes": []},
    {"attributes": ["a"], "rows": [[1]], "columns": {"a": [1]}},  # both
    {"attributes": ["a"]},  # neither
    {"attributes": ["a", "a"], "rows": [[1, 2]]},  # duplicate names
    {"attributes": [{"name": "a", "dtype": "bogus"}], "rows": [[1]]},
    {"attributes": ["a", "b"], "rows": [[1]]},  # arity mismatch
    {"attributes": ["a", "b"], "columns": {"a": [1], "b": [1, 2]}},  # ragged
    {"attributes": [3], "rows": [[1]]},
    {"attributes": ["a", "b"], "columns": {"a": [1], "b": 5}},  # column a number
    {"attributes": ["a", "b"], "columns": {"a": [1, 2], "b": "xy"}},  # column a string
    {"attributes": ["a", "b"], "rows": [[1, 2], "ab"]},  # row a string
    {"attributes": ["a", "b"], "rows": [[1, 2], {"a": 1, "b": 2}]},  # row an object
])
def test_relation_from_wire_rejects_malformed(payload):
    with pytest.raises(ProtocolError):
        relation_from_wire(payload)


def test_oversized_relation_rejected_with_413():
    payload = {"attributes": [f"a{i}" for i in range(10)],
               "rows": [[0] * 10] * 600_000}
    with pytest.raises(ProtocolError) as excinfo:
        relation_from_wire(payload)
    assert excinfo.value.status == 413


def test_hyperparameters_defaults_and_payload():
    assert Hyperparameters.from_payload(None) == Hyperparameters()
    hp = Hyperparameters.from_payload({"lam": 0.1, "seed": 7})
    assert hp.lam == 0.1 and hp.seed == 7 and hp.sparsity == 0.05


def test_hyperparameters_rejects_unknown_keys():
    with pytest.raises(ProtocolError, match="unknown hyperparameters"):
        Hyperparameters.from_payload({"bogus": 1})
    with pytest.raises(ProtocolError):
        Hyperparameters.from_payload("not an object")


@pytest.mark.parametrize("payload", [
    {"sparsity": "x"},
    {"seed": "x"},
    {"seed": True},  # bool is not a number
    {"seed": 1.5},
    {"lam": "abc"},
    {"lam": -1},
    {"lam": float("nan")},
    {"lam": [1]},
    {"sparsity": float("inf")},
    {"shrinkage": 2.0},
    {"ordering": "bogus"},
    {"ordering": ["natural"]},
    {"min_batch_rows": None},
    {"max_rows_per_attribute": 0},
    {"max_rows_per_attribute": 1},
])
def test_hyperparameters_reject_ill_typed(payload):
    with pytest.raises(ProtocolError, match="bad hyperparameter") as excinfo:
        Hyperparameters.from_payload(payload)
    assert excinfo.value.status == 400


@pytest.mark.parametrize("payload", [
    {"lam": "ebic"},
    {"lam": 0, "seed": 2**70},
    {"max_rows_per_attribute": None},
    {"max_rows_per_attribute": 100, "ordering": "amd", "decay": 0.5},
    Hyperparameters().to_dict(),
])
def test_hyperparameters_accept_well_typed(payload):
    assert Hyperparameters.from_payload(payload) == Hyperparameters(**payload)


def test_hyperparameters_canonical_is_order_insensitive():
    a = Hyperparameters(lam=0.1, seed=3).canonical()
    b = Hyperparameters(seed=3, lam=0.1).canonical()
    assert a == b
    assert a != Hyperparameters(lam=0.2, seed=3).canonical()


def test_envelope_and_error_payload():
    assert envelope({"x": 1}) == {"protocol_version": PROTOCOL_VERSION, "x": 1}
    err = error_payload("nope", 404)
    assert err["error"] == {"message": "nope", "status": 404}
    assert err["protocol_version"] == PROTOCOL_VERSION
