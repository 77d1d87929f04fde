"""``repro serve`` with the benchmark's layer wrappers installed.

    python3 perfbench/serve_traced.py --spans-out FILE [serve options]

This is the same server as ``python -m repro serve``: it installs the span
wrappers of ``tracing.py``, hands the remaining arguments to the CLI's
``serve`` command, and writes the recorded spans to FILE once the server
has stopped (SIGINT).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracing  # noqa: E402  (needs the path above)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans-out", required=True)
    args, serve_args = parser.parse_known_args()
    recorder = tracing.Recorder()
    tracing.install(recorder)
    from repro.cli import main as cli_main

    try:
        return cli_main(["serve", *serve_args])
    finally:
        recorder.dump(args.spans_out)


if __name__ == "__main__":
    sys.exit(main())
