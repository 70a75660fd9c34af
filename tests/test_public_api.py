"""The public names: every module's __all__ resolves, and every name the
package exports is also listed by the submodule that defines it."""

import importlib
import pkgutil

import pytest

import trm

MODULES = sorted(m.name for m in pkgutil.iter_modules(trm.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"trm.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, missing
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_names_come_from_submodule_all():
    assert all(hasattr(trm, n) for n in trm.__all__)
    exported = {}
    for name in MODULES:
        module = importlib.import_module(f"trm.{name}")
        for n in module.__all__:
            exported.setdefault(n, []).append(getattr(module, n))
    orphans = [
        n
        for n in trm.__all__
        if n != "__version__" and not any(obj is getattr(trm, n) for obj in exported.get(n, []))
    ]
    assert not orphans, orphans
