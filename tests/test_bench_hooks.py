"""Every function the benchmark's layer tracer wraps still exists.

``bench/layers.py`` wraps named functions where their callers look them
up.  A refactor that renames or moves one of them passes every other
tier-1 test, then crashes each traced benchmark run when the tracer
installs; this test fails first.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

_LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"
_spec = importlib.util.spec_from_file_location("bench_layers", _LAYERS)
bench_layers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_layers)


@pytest.mark.parametrize(
    "layer, module_name, path",
    bench_layers.LAYERS,
    ids=[f"{module}:{path}" for _, module, path in bench_layers.LAYERS],
)
def test_layer_hook_resolves(layer, module_name, path):
    owner = importlib.import_module(module_name)
    for attr in path.split("."):
        assert hasattr(owner, attr), f"{layer}: {module_name}.{path} does not resolve"
        owner = getattr(owner, attr)
    assert callable(owner)
