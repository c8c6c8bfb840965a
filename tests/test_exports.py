"""The public surface: ``measerr.__all__`` names exactly what the package binds, and every
layer module the benchmark tracer imports exists."""

import importlib.util
import inspect
import types
from pathlib import Path

import pytest

import measerr


def test_all_names_the_public_bindings():
    """Every name in ``__all__`` resolves, none is listed twice, and every
    public name bound in the package that is not a submodule is listed, so
    a stale export fails here rather than in ``from measerr import *``."""
    assert all(hasattr(measerr, name) for name in measerr.__all__)
    assert len(measerr.__all__) == len(set(measerr.__all__))
    bound = {
        name
        for name, value in vars(measerr).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert bound == set(measerr.__all__)


def tracer_layers() -> tuple:
    """``LAYERS`` of the benchmark tracer, loaded from ``perfbench/tracer.py`` by path."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYERS


def test_every_traced_layer_imports():
    """The tracer imports ``measerr.<layer>`` for each of its layers, so a
    layer module removed from the package breaks every traced run."""
    for layer in tracer_layers():
        importlib.import_module(f"measerr.{layer}")


@pytest.mark.parametrize("layer", ["errors", "relations", "transport"])
def test_kept_layers_bind_no_public_function(layer):
    """The three layer modules kept for the tracer hold no code: the tracer
    would wrap a public function there, and reads ``.matrix`` of the second
    argument of one named ``transport.pushforward``."""
    module = importlib.import_module(f"measerr.{layer}")
    assert [name for name, value in vars(module).items() if inspect.isfunction(value) and not name.startswith("_")] == []
