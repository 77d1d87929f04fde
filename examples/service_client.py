"""FD discovery as a service (extension).

Starts the `repro.service` HTTP server in a background thread, submits a
hospital-style relation as an asynchronous job, polls it to completion,
prints the FDs, and then demonstrates the two amortization layers that
make a long-lived service worth having:

* the fingerprint cache — an identical second request never recomputes,
* streaming sessions — batches are pushed incrementally and FDs are
  refreshed without resending earlier rows.

Run with:  python examples/service_client.py
"""

import numpy as np

from repro import Relation
from repro.service import ServiceClient, start_in_thread


def hospital_batch(start: int, n: int = 200) -> Relation:
    """Hospital-style rows: provider determines hospital name and zip,
    zip determines city/state."""
    rng = np.random.default_rng(start)
    rows = []
    for _ in range(n):
        provider = int(rng.integers(30))
        zip_code = f"{53700 + provider % 12}"
        rows.append((
            provider,
            f"hospital-{provider}",
            zip_code,
            f"city-{int(zip_code) % 12}",
            "WI",
            int(rng.integers(4)),  # measurement score, no dependency
        ))
    return Relation.from_rows(
        ["provider_id", "hospital_name", "zip", "city", "state", "score"], rows
    )


def main() -> None:
    relation = hospital_batch(0, n=1000)

    with start_in_thread(workers=4) as handle:
        client = ServiceClient(handle.base_url)
        health = client.wait_until_healthy()
        print(f"service up at {handle.base_url} (version {health['version']})\n")

        print("1) async job: POST /v1/discover with wait=false, then poll")
        job_id = client.submit(relation)
        status = client.wait_for_job(job_id)
        print(f"   job {job_id}: {status['state']} "
              f"in {status['runtime_seconds']:.3f}s")
        for fd in sorted(status["result"]["fds"], key=lambda f: f["rhs"]):
            print(f"   {','.join(fd['lhs'])} -> {fd['rhs']}")

        print("\n2) identical request again: served from the fingerprint cache")
        repeat = client.discover_raw(relation)
        print(f"   cached={repeat['cached']}")

        print("\n3) streaming session: 5 batches, FDs refreshed after each")
        session_id = client.create_session()
        for day in range(5):
            info = client.append_batch(session_id, hospital_batch(day))
            fds = client.session_fds(session_id).fds
            print(f"   batch {day}: {info['n_rows_seen']:4d} rows seen, "
                  f"{len(fds)} FDs")
        client.close_session(session_id)

        metrics = client.metrics()
        print(f"\nmetrics: {metrics['counters']['requests_total']:.0f} requests, "
              f"cache hit rate {metrics['cache_hit_rate']:.0%}, "
              f"discover p50 "
              f"{metrics['latency']['discover']['p50_seconds'] * 1000:.1f} ms")


if __name__ == "__main__":
    main()
