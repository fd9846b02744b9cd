"""Every function the benchmark's tracer wraps still exists under its traced name.

``perfbench/tracing.py`` names the functions it times as ``layer.function``
and looks each one up in the loaded ``shotarc.<layer>`` module; a name that
no longer resolves there stops every traced run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import shotarc.cli  # noqa: F401  (loads every module the stages use, as the tracer does)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced_names() -> tuple[str, ...]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.SPANNED + tracing.AGGREGATED


@pytest.mark.parametrize("qualified", _traced_names())
def test_traced_function_resolves(qualified):
    layer, func = qualified.split(".")
    assert callable(getattr(sys.modules["shotarc." + layer], func))
