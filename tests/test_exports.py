"""Every name a module exports through ``__all__`` must exist, and every
package exception type must still be raised somewhere."""
import ast
import importlib
import inspect
from pathlib import Path

import pytest

import resdelay
from resdelay import errors

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


def test_every_error_type_is_raised():
    raised = set()
    for path in Path(resdelay.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    types = [
        name
        for name, obj in inspect.getmembers(errors, inspect.isclass)
        if issubclass(obj, errors.ResdelayError) and obj is not errors.ResdelayError
    ]
    assert [name for name in types if name not in raised] == []
