"""Every exported name resolves: tools enumerate ``__all__`` to find the layers."""

import importlib
import pkgutil

import pytest

import aoiharvest

MODULES = sorted(info.name for info in pkgutil.iter_modules(aoiharvest.__path__))


def test_every_module_is_checked():
    assert {"model", "geometry", "quadrature", "jsp", "aoi", "optimizer",
            "config", "experiments", "cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"aoiharvest.{name}")
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"aoiharvest.{name}.__all__ lists missing names {missing}"


def test_package_all_resolves_and_star_import_works():
    missing = [attr for attr in aoiharvest.__all__ if not hasattr(aoiharvest, attr)]
    assert not missing
    namespace = {}
    exec("from aoiharvest import *", namespace)
    assert set(aoiharvest.__all__) <= set(namespace)
