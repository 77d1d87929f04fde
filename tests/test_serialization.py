"""Round-trip serialization of FD / FDXResult (the service wire formats).

``to_dict -> json -> from_dict`` must be the identity on the dict
projection: the service ships results as JSON and clients rebuild
:class:`FDXResult` objects from them.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fd import FD
from repro.core.fdx import FDX, FDXResult
from repro.dataset.relation import Relation

# --- strategies -----------------------------------------------------------

attr_names = st.lists(
    st.text(alphabet="abcdefghij", min_size=1, max_size=4),
    min_size=2, max_size=6, unique=True,
)


@st.composite
def fds(draw):
    names = draw(attr_names)
    rhs = draw(st.sampled_from(names))
    candidates = [n for n in names if n != rhs]
    lhs = draw(st.lists(st.sampled_from(candidates), min_size=1, unique=True))
    return FD(lhs, rhs)


#: Pipeline stages reported in ``diagnostics["stage_seconds"]``.
STAGES = (
    "validate", "transform", "covariance", "glasso", "factorization",
    "fd_generation", "evidence",
)


@st.composite
def fdx_results(draw):
    names = draw(attr_names)
    p = len(names)
    auto = draw(
        st.lists(
            st.lists(st.floats(-2.0, 2.0, allow_nan=False), min_size=p, max_size=p),
            min_size=p, max_size=p,
        )
    )
    result_fds = []
    for rhs in names:
        candidates = [n for n in names if n != rhs]
        lhs = draw(st.lists(st.sampled_from(candidates), unique=True))
        if lhs:
            result_fds.append(FD(lhs, rhs))
    stage_seconds = {
        stage: draw(st.floats(0, 5, allow_nan=False)) for stage in STAGES
    }
    return FDXResult(
        fds=result_fds,
        attribute_order=list(draw(st.permutations(names))),
        autoregression=np.asarray(auto),
        precision=np.eye(p),
        covariance=np.eye(p),
        n_pair_samples=draw(st.integers(0, 10**6)),
        diagnostics={
            "n_batches": draw(st.integers(0, 5)),
            "stage_seconds": stage_seconds,
            "final_objective": draw(
                st.one_of(st.none(), st.floats(-1e6, 1e6, allow_nan=False))
            ),
        },
    )


# --- FD -------------------------------------------------------------------

@given(fds())
def test_fd_roundtrip(fd):
    assert FD.from_dict(json.loads(json.dumps(fd.to_dict()))) == fd


@pytest.mark.parametrize("payload", [
    {}, {"lhs": ["a"]}, {"rhs": "b"}, {"lhs": "a", "rhs": "b"},
    {"lhs": ["a"], "rhs": ["b"]}, None, "a -> b",
])
def test_fd_from_dict_rejects_malformed(payload):
    with pytest.raises(ValueError):
        FD.from_dict(payload)


def test_fd_from_dict_canonicalizes_lhs():
    fd = FD.from_dict({"lhs": ["b", "a", "b"], "rhs": "c"})
    assert fd.lhs == ("a", "b")


# --- FDXResult ------------------------------------------------------------

@settings(max_examples=50)
@given(fdx_results())
def test_fdxresult_dict_roundtrip(result):
    wire = json.loads(json.dumps(result.to_dict()))
    rebuilt = FDXResult.from_dict(wire)
    assert rebuilt.to_dict() == result.to_dict()
    assert rebuilt.fds == result.fds
    assert rebuilt.attribute_order == result.attribute_order
    assert np.allclose(rebuilt.autoregression, result.autoregression)


@settings(max_examples=25)
@given(fdx_results())
def test_fdxresult_roundtrips_observability_diagnostics(result):
    """stage_seconds and final_objective survive the wire exactly."""
    rebuilt = FDXResult.from_dict(json.loads(json.dumps(result.to_dict())))
    assert rebuilt.diagnostics["stage_seconds"] == result.diagnostics["stage_seconds"]
    assert rebuilt.diagnostics["final_objective"] == result.diagnostics["final_objective"]


def test_real_discovery_reports_stage_breakdown():
    rows = [(f"z{i % 7}", f"c{i % 7}", f"s{i % 2}") for i in range(300)]
    rel = Relation.from_rows(["zip", "city", "state"], rows)
    result = FDX().discover(rel)
    stage_seconds = result.diagnostics["stage_seconds"]
    assert set(stage_seconds) == set(STAGES)
    assert all(seconds >= 0 for seconds in stage_seconds.values())
    assert isinstance(result.diagnostics["final_objective"], float)
    rebuilt = FDXResult.from_dict(json.loads(json.dumps(result.to_dict())))
    assert rebuilt.diagnostics == result.diagnostics


def test_fdxresult_roundtrip_from_real_discovery():
    rows = [(f"z{i % 7}", f"c{i % 7}", f"s{i % 2}") for i in range(300)]
    rel = Relation.from_rows(["zip", "city", "state"], rows)
    result = FDX().discover(rel)
    rebuilt = FDXResult.from_dict(json.loads(json.dumps(result.to_dict())))
    assert rebuilt.to_dict() == result.to_dict()
    assert set(rebuilt.fds) == set(result.fds)
    # Placeholders (identity) stand in for the omitted dense matrices.
    assert rebuilt.precision.shape == (3, 3)


#: Every diagnostics key a fully-instrumented FDX.discover produces
#: (track_memory adds stage_bytes). A new diagnostics key must be added
#: here, which makes the completeness test below fail until it provably
#: round-trips.
FULL_DIAGNOSTICS_KEYS = (
    "glasso_iterations",
    "glasso_converged",
    "final_objective",
    "stage_seconds",
    "stage_bytes",
    "degraded",
    "fallback_chain",
    # Per-FD evidence ledger and per-run solver telemetry (explain layer).
    "evidence",
    "solver_health",
    # The fixture's zip/city columns are value-for-value duplicates, so
    # the input guards flag them (a real warning, useful here: it makes
    # the round-trip of input_warnings part of this completeness check).
    "input_warnings",
)


@pytest.fixture(scope="module")
def instrumented_result():
    from repro.obs import Tracer

    rows = [(f"z{i % 7}", f"c{i % 7}", f"s{i % 2}") for i in range(300)]
    rel = Relation.from_rows(["zip", "city", "state"], rows)
    return FDX(tracer=Tracer(enabled=True), track_memory=True).discover(rel)


def test_instrumented_diagnostics_keys_are_exactly_the_known_set(
    instrumented_result,
):
    assert set(instrumented_result.diagnostics) == set(FULL_DIAGNOSTICS_KEYS)


@pytest.mark.parametrize("key", FULL_DIAGNOSTICS_KEYS)
def test_every_diagnostics_key_survives_roundtrip(instrumented_result, key):
    """No diagnostics key may silently drop on the wire (per-key check)."""
    wire = json.loads(json.dumps(instrumented_result.to_dict()))
    rebuilt = FDXResult.from_dict(wire)
    assert key in rebuilt.diagnostics
    assert rebuilt.diagnostics[key] == instrumented_result.diagnostics[key]


def test_fdxresult_from_dict_optional_matrices():
    result = FDX().discover(
        Relation.from_rows(["a", "b"], [(i % 4, i % 2) for i in range(200)])
    )
    wire = result.to_dict()
    wire["precision"] = result.precision.tolist()
    wire["covariance"] = result.covariance.tolist()
    rebuilt = FDXResult.from_dict(wire)
    assert np.allclose(rebuilt.precision, result.precision)
    assert np.allclose(rebuilt.covariance, result.covariance)


def test_fdxresult_from_dict_rejects_malformed():
    with pytest.raises(ValueError):
        FDXResult.from_dict("not a dict")
    with pytest.raises(ValueError):
        FDXResult.from_dict({"fds": []})  # missing attribute_order etc.


def test_fdxresult_empty_relation_roundtrip():
    result = FDXResult(
        fds=[], attribute_order=[], autoregression=np.zeros((0, 0)),
        precision=np.zeros((0, 0)), covariance=np.zeros((0, 0)), n_pair_samples=0,
    )
    rebuilt = FDXResult.from_dict(json.loads(json.dumps(result.to_dict())))
    assert rebuilt.to_dict() == result.to_dict()
    assert rebuilt.autoregression.shape == (0, 0)
