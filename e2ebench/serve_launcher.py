"""Traced ``repro serve``: install the benchmark's span timers inside the
server process, then run the CLI entry point unchanged.

Usage: ``python3 e2ebench/serve_launcher.py SPANS.json serve ARTIFACT ...``
The spans are written to SPANS.json once the server has shut down.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

common.pin_threads()

common.require_program()

import spans  # noqa: E402


def main() -> int:
    output, argv = sys.argv[1], sys.argv[2:]
    recorder = spans.Recorder()
    missing = spans.install_serving_layers(recorder)
    if missing:
        print(f"e2ebench: not traced (missing in the program): {missing}", flush=True)
    from repro.cli import main as repro_main

    try:
        return repro_main(argv)
    finally:
        recorder.enabled = False
        recorder.dump(output)


if __name__ == "__main__":
    sys.exit(main())
