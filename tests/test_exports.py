"""Every exported name resolves: tools enumerate ``__all__`` to find the layers."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


@pytest.mark.parametrize("module", ["aoiharvest", "aoiharvest.cli"])
def test_import_leaves_scipy_stats_unloaded(module):
    """The package needs only scipy.special; importing scipy.stats would add
    about half a second to every run."""
    code = f"import sys, {module}; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    env = dict(os.environ, PYTHONPATH=str(Path(aoiharvest.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
