"""Package memos: clear_caches reaches every one, and the lru memos are bounded."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import rotorlab
from rotorlab import moments, wick
from rotorlab.algebra import GAUSSIAN, ModelDims, variable
from rotorlab.gaussian import covariance, gaussian_moment, random_ferro
from rotorlab.moments import sphere_moment


def _memos():
    """(module.name, memo) for every entry of the package's memo registry."""
    for module, names in rotorlab._MEMOS.items():
        loaded = importlib.import_module(f"rotorlab.{module}")
        for name in names.split():
            yield f"{module}.{name}", getattr(loaded, name)


def memo_sizes():
    return {name: memo.cache_info().currsize for name, memo in _memos()}


def test_registry_lists_every_memo():
    # an lru_cache function or a module-level dict anywhere in the package is a memo
    found = {}
    for info in pkgutil.iter_modules(rotorlab.__path__):
        module = importlib.import_module(f"rotorlab.{info.name}")
        for name, value in vars(module).items():
            if not name.startswith("__") and (hasattr(value, "cache_info") or isinstance(value, dict)):
                found.setdefault(id(value), f"{info.name}.{name}")
    registered = {id(memo): name for name, memo in _memos()}
    assert len(registered) == 7
    assert [name for key, name in found.items() if key not in registered] == []
    assert found.keys() == registered.keys()


def test_clear_caches_empties_every_memo():
    dims = ModelDims(3, 3)
    sphere_moment(variable(dims, 1, 2, 2) * variable(dims, 2, 3, 2))
    x13 = variable(ModelDims(2, 3), 1, 3, 2, mode=GAUSSIAN)
    gaussian_moment(x13, covariance(random_ferro(3, 1)))
    assert all(memo_sizes().values()), memo_sizes()
    rotorlab.clear_caches()
    assert not any(memo_sizes().values()), memo_sizes()


def test_clear_caches_loads_no_engine():
    # a fresh interpreter: clear_caches empties the memos of the modules loaded so far only
    code = ("import sys, rotorlab\n"
            "loaded = lambda: sorted(m for m in sys.modules if m.startswith('rotorlab'))\n"
            "rotorlab.clear_caches()\n"
            "print(loaded())\n"
            "from rotorlab.chernoff import KernelSpec, funk_hecke_eigenvalue\n"
            "funk_hecke_eigenvalue(KernelSpec(2, 0.5), 2)\n"
            "rotorlab.clear_caches()\n"
            "print(loaded())")
    src = str(Path(rotorlab.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "['rotorlab']",
        "['rotorlab', 'rotorlab.chernoff', 'rotorlab.errors', 'rotorlab.zonal']",
    ]


def test_moment_memos_have_a_bound():
    for memo in (moments.radial_moment, moments._partner_pairing_sum, moments._mono_moment,
                 moments._incidence, moments._compaction, moments._relabelling,
                 wick._splits):
        assert memo.cache_info().maxsize is not None, memo
    assert moments._mono_moment.cache_info().maxsize >= 1 << 16

