"""Traced launcher of the simulation service.

Run as ``python serve_launcher.py SPANS_PATH [serve args...]``: installs
the benchmark's span wrappers (:mod:`tracing`) into the service and the
memsim layers below it, then runs ``python -m repro serve`` in this
process.  Each stdin line sets the tracing phase (``cold``, ``warm`` or
``off``) and is acknowledged on stdout as ``trace: <phase>``, after the
service's readiness line.  The spans are written to ``SPANS_PATH`` when
the service stops.
"""

from __future__ import annotations

import sys
import threading

from tracing import MEMSIM_LAYERS, SERVE_LAYERS, Tracer


def _control(tracer: Tracer) -> None:
    for line in sys.stdin:
        phase = line.strip()
        tracer.phase = None if phase == "off" else phase
        sys.stdout.write(f"trace: {phase}\n")
        sys.stdout.flush()


def main(argv: list[str]) -> int:
    from repro.__main__ import main as repro_main

    spans_path, serve_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install(MEMSIM_LAYERS + SERVE_LAYERS)
    threading.Thread(target=_control, args=(tracer,), daemon=True).start()
    try:
        return repro_main(["serve", *serve_args])
    finally:
        tracer.spans.export_jsonl(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
