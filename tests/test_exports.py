"""Every name a module exports through ``__all__`` must exist."""
import importlib

import pytest

MODULES = [
    "resdelay",
    "resdelay.counting",
    "resdelay.numerics",
    "resdelay.phasedata",
    "resdelay.poles",
    "resdelay.reflect",
    "resdelay.scattering",
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    mod = importlib.import_module(name)
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []
    assert len(set(mod.__all__)) == len(mod.__all__)
