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


@pytest.mark.parametrize("module,prefix", [("aoiharvest", "scipy.stats"), ("aoiharvest.cli", "scipy.stats"),
                                           ("aoiharvest.quadrature", "scipy")],
                         ids=["aoiharvest", "aoiharvest.cli", "aoiharvest.quadrature"])
def test_import_leaves_scipy_stats_unloaded(module, prefix):
    """The package needs only scipy.special; importing scipy.stats would add
    about half a second to every run. The integrator needs no SciPy at all."""
    code = f"import sys, {module}; print(sorted(m for m in sys.modules if m.startswith({prefix!r})))"
    env = dict(os.environ, PYTHONPATH=str(Path(aoiharvest.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_lazy_exports_resolve_to_their_submodules():
    assert set(aoiharvest.__all__) <= set(dir(aoiharvest))
    jsp = importlib.import_module("aoiharvest.jsp")
    assert aoiharvest.jsp_lower_bound is jsp.jsp_lower_bound
    assert aoiharvest.NetworkConfig is importlib.import_module("aoiharvest.model").NetworkConfig
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        aoiharvest.no_such_name  # noqa: B018


def test_parse_validate_and_list_load_no_numpy_or_scipy(tmp_path):
    """Parsing and checking a config needs neither library: the CLI imports the
    experiment runner only for `run`, and the package exports load lazily."""
    cfg = tmp_path / "every.cfg"
    cfg.write_text("[network]\np_t = 10 dB\nradius = 40\n[harvester]\nmodel = nonlinear\n"
                   "[experiment]\nname = jsp-vs-radius\nsweep_start = 20\nsweep_stop = 40\nsweep_step = 20\n"
                   "[queue]\nmu = 0.3\ndiscipline = preemptive\n", encoding="utf-8")
    bad = tmp_path / "bad.cfg"
    bad.write_text("[network]\nxi = 1.5\n", encoding="utf-8")
    code = "\n".join([
        "import sys",
        "import aoiharvest.cli as cli",
        f"cli.parse_config({str(cfg)!r})",
        f"assert cli.main(['validate', {str(cfg)!r}]) == 0",
        f"assert cli.main(['validate', {str(bad)!r}]) == 1",
        "assert cli.main(['list-experiments']) == 0",
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')))",
    ])
    env = dict(os.environ, PYTHONPATH=str(Path(aoiharvest.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip().splitlines()[-1] == "[]"


def test_perfbench_reference_script_imports():
    """perfbench/make_reference.py imports ``select_regime``, passes ``regime=``
    and ``QuadratureSpec(series_mass=)``: the package keeps them, unexported,
    for that script. It also builds ``XiObjective(kind="max_jsp_lower", ...)``,
    which is why ``kind`` stays though it takes one value. Imported without
    calling ``main``."""
    root = Path(__file__).resolve().parents[1]
    script = str(root / "perfbench" / "make_reference.py")
    code = "\n".join([
        "import importlib.util",
        f"spec = importlib.util.spec_from_file_location('make_reference', {script!r})",
        "ref = importlib.util.module_from_spec(spec)",
        "spec.loader.exec_module(ref)",
        "from aoiharvest.jsp import REGIMES, jsp_lower_bound, jsp_upper_bound, select_regime",
        "from aoiharvest.model import NetworkConfig",
        "from aoiharvest.optimizer import XiObjective, optimize_xi",
        "assert ref.select_regime is select_regime",
        "assert REGIMES == ('linear', 'case_a', 'case_b', 'case_c')",
        "for regime in REGIMES:  # xi = 0 returns before any quadrature",
        "    for bound in (jsp_lower_bound, jsp_upper_bound):",
        "        assert bound(NetworkConfig(xi=0.0), regime=regime, spec=ref.TIGHT).value == 0.0",
        "assert (ref.TIGHT.series_mass, ref.XI_TIGHT.series_mass) == (1.0 - 1e-12, 1.0 - 1e-10)",
        "assert ref.XiObjective is XiObjective and ref.optimize_xi is optimize_xi",
        "XiObjective(kind='max_jsp_lower', cfg=NetworkConfig(), spec=ref.XI_TIGHT)",
    ])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "perfbench")]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
