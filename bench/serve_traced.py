"""``repro serve`` with the tracing wrappers installed (traced runs only).

Same server as ``python -m repro.cli serve STORE --port 0``: installs the
wrappers of :mod:`bench.trace`, calls ``repro.server.app.run_server`` and
writes the recorded spans when the server has shut down.  End-to-end
metrics never come from this entry point.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

if __package__ in (None, ""):
    # Run as a script: import as the package so ``trace`` cannot shadow
    # the standard library module of that name.
    sys.path[0] = str(Path(__file__).resolve().parent.parent)

from bench import trace  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("store", type=Path)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--spans", type=Path, required=True)
    args = parser.parse_args()

    recorder = trace.Recorder()
    trace.install(recorder)
    from repro.server.app import ServerConfig, run_server

    def announce(message: str) -> None:
        print(message, flush=True)

    try:
        run_server(args.store, ServerConfig(port=0, workers=args.workers), announce=announce)
    finally:
        trace.write_spans(args.spans, recorder.spans)


if __name__ == "__main__":
    main()
