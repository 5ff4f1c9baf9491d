"""The package's public names and the methods the benchmark's tracer wraps."""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS = ("core", "dynamics", "equilibria", "stability")
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.mark.parametrize("name", ("vortex_atlas",) + tuple(f"vortex_atlas.{m}" for m in LAYERS))
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    assert len(set(module.__all__)) == len(module.__all__)


def test_traced_methods_are_defined_on_their_classes():
    """``perfbench/tracing.py`` wraps these methods through the class
    ``__dict__``; a missing one makes every traced run fail with KeyError."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert len(tracing.METHODS) == 5
    for layer, cls_name, attr in tracing.METHODS.values():
        cls = getattr(importlib.import_module(f"vortex_atlas.{layer}"), cls_name)
        assert attr in cls.__dict__, f"{cls_name}.{attr}"
