"""Every name a module exports resolves, so a deleted function cannot stay
listed in ``__all__``; the package imports nothing beyond the standard
library and numpy; and what the benchmark imports and passes still fits."""

import ast
import importlib
import inspect
import json
import pkgutil
import sys
from pathlib import Path

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


ALLOWED_IMPORTS = set(sys.stdlib_module_names) | {"numpy", "conequery"}


@pytest.mark.parametrize("path", sorted(Path(conequery.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_package_imports_only_stdlib_and_numpy(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module)
    outside = sorted(name for name in found if name.split(".")[0] not in ALLOWED_IMPORTS)
    assert not outside, f"{path.name} imports {outside}"


# The benchmark under perfbench/ imports the package and calls it with the
# workloads' sizes and configs; these tests read its files and edit none.
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench_imports():
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("conequery"):
                for alias in node.names:
                    yield path.name, node.module, alias.name


@pytest.mark.parametrize("where,module,name", list(_perfbench_imports()),
                         ids=lambda x: str(x))
def test_perfbench_imports_resolve(where, module, name):
    assert hasattr(importlib.import_module(module), name), (
        f"perfbench/{where} imports {name} from {module}, which does not define it")


def _workloads():
    return json.loads((PERFBENCH / "workloads.json").read_text(encoding="utf-8"))["workloads"]


@pytest.mark.parametrize("workload", sorted(_workloads()))
def test_perfbench_workloads_fit_the_api(workload):
    from conequery.planted import build_planted_kg
    from conequery.training import TrainingConfig

    spec = _workloads()[workload]
    inspect.signature(build_planted_kg).bind(0, **spec["kg"])
    TrainingConfig(**spec["config"], seed=0, steps=1)
