"""Worker-count parity of the fixed-chunk covariance fold.

Discovery folds the pair-sample covariance serially, but the fold's
contract is about the partials, not about who computes them: every
fixed row chunk reduces to a :class:`CovarianceAccumulator`, and merging
those partials in chunk order gives the same bits whether the chunks
were reduced inline, on the lanes of a stdlib ``ThreadPoolExecutor``,
or in ``run_in_process`` children (partials come back by pickle, which is
exact for float64). The matrix spans several ``DEFAULT_CHUNK_ROWS``
chunks, so the multi-chunk fold genuinely runs.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.linalg.covariance import (
    DEFAULT_CHUNK_ROWS,
    CovarianceAccumulator,
    chunk_bounds,
    empirical_covariance,
    empirical_covariance_chunked,
)
from repro.parallel import run_in_process

BACKEND_GRID = [("thread", 2), ("thread", 3), ("process", 2), ("process", 4)]


def _chunk_partials(X, bounds):
    return [CovarianceAccumulator.from_rows(X[lo:hi]) for lo, hi in bounds]


def _partials_on_lanes(X, backend, workers):
    """Reduce the fixed chunks on ``workers`` lanes; partials in chunk order.

    Each lane takes a contiguous run of chunks. A process lane ships only
    its rows to a ``run_in_process`` child, with bounds rebased to them.
    """
    bounds = chunk_bounds(X.shape[0], DEFAULT_CHUNK_ROWS)
    groups = [
        [bounds[i] for i in lane]
        for lane in np.array_split(np.arange(len(bounds)), workers)
    ]

    def reduce_lane(group):
        if backend == "thread":
            return _chunk_partials(X, group)
        start, stop = group[0][0], group[-1][1]
        rebased = [(lo - start, hi - start) for lo, hi in group]
        return run_in_process(_chunk_partials, (X[start:stop], rebased),
                              timeout=60)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        lanes = list(pool.map(reduce_lane, groups))
    return [partial for lane in lanes for partial in lane]


@pytest.mark.parametrize("backend,workers", BACKEND_GRID)
def test_chunked_covariance_is_invariant_in_worker_count(backend, workers):
    rng = np.random.default_rng(2)
    X = rng.normal(size=(3 * DEFAULT_CHUNK_ROWS + 123, 5))
    serial = empirical_covariance_chunked(X)

    partials = _partials_on_lanes(X, backend, workers)
    assert len(partials) == 4
    folded, *rest = partials
    for partial in rest:
        folded.merge(partial)
    parallel = folded.covariance()

    # The determinism contract: same chunk boundaries + left-fold in
    # chunk order -> the same bits for ANY backend and worker count.
    assert np.array_equal(parallel, serial)
    # And numerically the same covariance as the single-GEMM estimator.
    np.testing.assert_allclose(serial, empirical_covariance(X), atol=1e-10)
