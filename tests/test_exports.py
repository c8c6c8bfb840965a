"""The public surface: ``measerr.__all__`` names exactly what the package binds."""

import types

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
