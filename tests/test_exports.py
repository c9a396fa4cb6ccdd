"""Every name a module exports resolves, so a deleted function cannot stay
listed in ``__all__``."""

import importlib
import pkgutil

import pytest

import conequery

MODULES = sorted(info.name for info in pkgutil.iter_modules(conequery.__path__))


def test_every_module_is_found():
    assert {"autodiff", "cones", "evaluation", "model", "queries", "training"} <= set(MODULES)


@pytest.mark.parametrize("name", ["conequery"] + [f"conequery.{m}" for m in MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names what it does not define: {missing}"
