"""Every exported name and every stage the benchmark traces resolves."""

import importlib
import importlib.util
from pathlib import Path

import cnotline

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_all_exports_resolve():
    missing = [name for name in cnotline.__all__ if not hasattr(cnotline, name)]
    assert missing == []
    assert len(set(cnotline.__all__)) == len(cnotline.__all__)
    # code that catches it from the search module keeps working
    assert cnotline.search.ResourceLimitError is cnotline.ResourceLimitError


def test_traced_stages_resolve():
    # the benchmark's --trace 1 looks each of these up with getattr
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module}.{name}"
        for module, names in tracing.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"cnotline.{module}"), name, None))
    ]
    assert tracing.TRACED and missing == []
