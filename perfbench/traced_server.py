"""Start ``python -m repro serve`` with spans around every layer entry point.

Usage::

    python perfbench/traced_server.py --spans SPANS.json serve --store DIR --port 0

Everything after ``--spans FILE`` is handed to the ``repro`` command line
unchanged, so the server runs with exactly the flags the untraced run uses.
The spans are written to ``FILE`` when the server exits (SIGINT).
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from tracing import Tracer, install  # noqa: E402


def main(argv):
    if len(argv) < 2 or argv[0] != "--spans":
        raise SystemExit("usage: traced_server.py --spans FILE serve [serve flags]")
    spans_path, rest = argv[1], argv[2:]
    from repro.experiments.cli import main as repro_main
    from repro.obs.tracing import current_trace_id

    tracer = Tracer(current_trace_id)
    install(tracer)
    try:
        return repro_main(rest)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
