"""Traced stand-in for the ``horofano`` console script, one cold process.

Usage: python3 coldtrace.py SPANS_JSON <horofano arguments...>

Times ``import horofano``, wraps the layers (see ``tracing.py``), runs the
CLI and writes the spans to SPANS_JSON, also when the CLI fails.
"""

import json
import sys
import time

start = time.perf_counter()
import horofano  # noqa: E402,F401

import_s = time.perf_counter() - start

from horofano import cli  # noqa: E402
from tracing import Tracer  # noqa: E402  (this file's directory is sys.path[0])

tracer = Tracer()
tracer.op = 0
tracer.install()
try:
    code = cli.main(sys.argv[2:])
finally:
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "spans": tracer.spans, "missing": sorted(tracer.missing)}, fh)
sys.exit(code)
