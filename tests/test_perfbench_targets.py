"""The benchmark traces package functions by name: each one must exist."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_traced_functions_exist():
    # a traced run only warns about a missing target, so a rename or a
    # deletion would silently drop its layer from the per-layer figures
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{home}.{attr}"
        for home, attr, _ in tracing.TARGETS
        if not callable(getattr(importlib.import_module(home), attr, None))
    ]
    assert tracing.TARGETS and not missing
