"""Run the cevians CLI with the benchmark's timing wrappers installed.

Usage: python bench/cli_shim.py <cevians CLI arguments>

Behaves like ``python -m cevians.cli`` (same stdout and exit code) and
writes the span totals to stderr as its last line, after SPAN_MARKER.
The benchmark's traced cli-cold segment runs every call through it.
"""
from __future__ import annotations

import json
import sys

from spans import SPAN_MARKER, Tracer

tracer = Tracer()
tracer.install()
import cevians.cli  # noqa: E402  (imported by install(); bound here for the call)

code = 1
try:
    code = cevians.cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
finally:
    sys.stdout.flush()
    print(SPAN_MARKER + json.dumps(tracer.snapshot()), file=sys.stderr)
sys.exit(code)
