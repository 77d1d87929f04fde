"""Tests for repro.datagen.synthetic (the §5.1 generator)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.partitions import Partition, column_codes, fd_error_g3
from repro.datagen.synthetic import (
    SyntheticSpec,
    generate,
    setting_name,
    spec_for_setting,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(n_attributes=1)
    with pytest.raises(ValueError):
        SyntheticSpec(noise_rate=2.0)
    with pytest.raises(ValueError):
        SyntheticSpec(domain_low=1, domain_high=0)


def test_generate_shapes():
    ds = generate(SyntheticSpec(n_tuples=300, n_attributes=10, seed=1))
    assert ds.relation.shape == (300, 10)
    assert ds.relation.schema.names[0] == "A00"


def test_half_of_groups_are_fds():
    ds = generate(SyntheticSpec(n_tuples=200, n_attributes=16, seed=2))
    kinds = [g.kind for g in ds.groups]
    n_fd = kinds.count("fd")
    n_corr = kinds.count("correlation")
    assert abs(n_fd - n_corr) <= 1  # alternating split
    assert len(ds.true_fds) == n_fd


def test_fd_groups_hold_exactly_without_noise():
    ds = generate(SyntheticSpec(n_tuples=400, n_attributes=12, noise_rate=0.0, seed=3))
    for fd in ds.true_fds:
        part = Partition.for_attributes(ds.relation, fd.lhs)
        err = fd_error_g3(part, column_codes(ds.relation, fd.rhs))
        assert err == 0.0


@pytest.mark.parametrize("n_tuples,n_attributes,seed", [
    (1000, 68, 1), (1000, 68, 2), (500, 40, 1000), (500, 40, 1001),
])
def test_planted_fds_hold_exactly_at_the_benchmark_shapes(n_tuples, n_attributes, seed):
    """An oracle for ``true_fds`` that does not involve FDX: TANE's exact
    g3 error of every planted FD is 0 on a noise-free instance of the
    benchmark's Figure-6 shapes."""
    ds = generate(SyntheticSpec(n_tuples=n_tuples, n_attributes=n_attributes,
                                noise_rate=0.0, seed=seed))
    assert ds.true_fds
    for fd in ds.true_fds:
        part = Partition.for_attributes(ds.relation, fd.lhs)
        assert fd_error_g3(part, column_codes(ds.relation, fd.rhs)) == 0.0


@pytest.mark.parametrize("seed", [1, 2])
def test_planted_fd_error_is_bounded_by_the_noisy_rows(seed):
    """Deleting the rows where noise flipped a cell of an FD's attributes
    leaves the planted FD exact, so its g3 error is at most their share."""
    ds = generate(SyntheticSpec(n_tuples=1000, n_attributes=68, noise_rate=0.05, seed=seed))
    flipped: dict[str, set[int]] = {}
    for row, name in ds.noise_report.cells:
        flipped.setdefault(name, set()).add(row)
    errors = []
    for fd in ds.true_fds:
        touched = set().union(*(flipped.get(a, set()) for a in (*fd.lhs, fd.rhs)))
        part = Partition.for_attributes(ds.relation, fd.lhs)
        errors.append(fd_error_g3(part, column_codes(ds.relation, fd.rhs)))
        assert errors[-1] <= len(touched) / ds.relation.n_rows
    assert max(errors) > 0.0


def test_correlation_groups_do_not_hold_exactly():
    ds = generate(SyntheticSpec(n_tuples=2000, n_attributes=12,
                                domain_low=8, domain_high=16,
                                noise_rate=0.0, seed=4))
    corr = [g for g in ds.groups if g.kind == "correlation"]
    assert corr, "generator produced no correlation groups"
    for g in corr:
        part = Partition.for_attributes(ds.relation, list(g.lhs))
        err = fd_error_g3(part, column_codes(ds.relation, g.rhs))
        assert err > 0.01


def test_noise_rate_recorded_and_applied():
    ds = generate(SyntheticSpec(n_tuples=500, n_attributes=12, noise_rate=0.2, seed=5))
    assert ds.noise_report.n_cells > 0
    # Noise only touches FD-participating attributes.
    noisy_attrs = {name for _, name in ds.noise_report.cells}
    assert noisy_attrs <= ds.fd_attributes


def test_lhs_sizes_between_one_and_three():
    ds = generate(SyntheticSpec(n_tuples=100, n_attributes=20, seed=6))
    for fd in ds.true_fds:
        assert 1 <= fd.arity <= 3


def test_rho_bounded():
    ds = generate(SyntheticSpec(n_tuples=100, n_attributes=16, seed=7))
    for g in ds.groups:
        if g.kind == "correlation":
            assert g.rho is not None and 0.0 <= g.rho <= 0.85
        else:
            assert g.rho is None


def test_deterministic_per_seed():
    a = generate(SyntheticSpec(seed=8))
    b = generate(SyntheticSpec(seed=8))
    assert a.relation == b.relation
    assert a.true_fds == b.true_fds


def test_spec_for_setting_values():
    spec = spec_for_setting("small", "small", "small", "low", seed=0)
    assert spec.n_tuples == 1000
    assert 8 <= spec.n_attributes <= 16
    assert spec.domain_low == 64 and spec.domain_high == 216
    assert spec.noise_rate == 0.01
    large = spec_for_setting("large", "large", "large", "high", seed=0)
    assert large.n_tuples == 100_000
    assert 40 <= large.n_attributes <= 80
    assert large.noise_rate == 0.30


def test_spec_for_setting_scale():
    spec = spec_for_setting("large", "small", "small", "low", scale=0.01)
    assert spec.n_tuples == 1000


def test_spec_for_setting_validation():
    with pytest.raises(ValueError):
        spec_for_setting("medium", "small", "small", "low")
    with pytest.raises(ValueError):
        spec_for_setting("small", "small", "small", "medium")


def test_setting_name_format():
    assert setting_name("small", "large", "small", "high") == "t=small r=large d=small n=high"


#: Prints every cell of one noisy instance, for the hash-seed check.
_CELLS_SCRIPT = """
import json
from repro.datagen.synthetic import SyntheticSpec, generate
spec = SyntheticSpec(n_tuples=200, n_attributes=8, noise_rate=0.05, seed=4000)
relation = generate(spec).relation
print(json.dumps({n: [repr(v) for v in relation.column(n)]
                  for n in relation.schema.names}))
"""


def _cells_under_hash_seed(hash_seed: int) -> str:
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    completed = subprocess.run(
        [sys.executable, "-c", _CELLS_SCRIPT],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return completed.stdout


def test_generated_cells_do_not_depend_on_the_string_hash_seed():
    """The noise channel draws one value per chosen cell; the cells must
    be visited in a fixed order, not in (hash-dependent) set order."""
    assert _cells_under_hash_seed(1) == _cells_under_hash_seed(2)
