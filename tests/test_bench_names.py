"""Every function the benchmark tracer patches still exists where it looks.

perfbench/tracing.py wraps hskolem functions by (module, attribute) and
fails on a missing name only when a traced run starts; this check fails at
once.  The tracer module imports nothing but time, so loading it is cheap.
"""

import importlib.util
from pathlib import Path

import hskolem

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_patched_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module}.{attr}" for module, attr, _ in tracing.PATCHES
               if not callable(getattr(getattr(hskolem, module, None), attr, None))]
    assert tracing.PATCHES and missing == []
