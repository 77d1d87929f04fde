"""`repro serve` shuts down cleanly on SIGINT and SIGTERM.

A real ``python -m repro serve --port 0`` subprocess per signal: it must
print "shutting down" and exit 0, having closed its service. The SIGINT
case starts the server with SIGINT ignored, as a background job of a
non-interactive shell inherits it.
"""

import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: Execs the server with SIGINT ignored; exec keeps the disposition.
IGNORING_SIGINT = (
    "import os, signal, sys; signal.signal(signal.SIGINT, signal.SIG_IGN); "
    "os.execv(sys.executable, [sys.executable] + sys.argv[1:])"
)


def start_server(ignore_sigint: bool) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["PYTHONUNBUFFERED"] = "1"
    prefix = [sys.executable, "-c", IGNORING_SIGINT] if ignore_sigint else [sys.executable]
    proc = subprocess.Popen(
        prefix + ["-m", "repro", "serve", "--port", "0", "--workers", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=env,
    )
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if "listening on http://" in line:
            return proc
        if not line:
            break
    proc.kill()
    proc.wait()
    raise AssertionError("server did not report its address")


@pytest.mark.parametrize(
    "signum, ignore_sigint",
    [(signal.SIGINT, True), (signal.SIGTERM, False)],
    ids=["sigint-inherited-ignored", "sigterm"],
)
def test_serve_stops_cleanly_on_signal(signum, ignore_sigint):
    proc = start_server(ignore_sigint)
    try:
        proc.send_signal(signum)
        out, _ = proc.communicate(timeout=20.0)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 0
    assert "shutting down" in out
