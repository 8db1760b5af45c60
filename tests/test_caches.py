"""Package memos: clear_caches reaches every one, and the lru memos are bounded."""

import os
import subprocess
import sys
from pathlib import Path

import rotorlab
from rotorlab import chernoff, moments, wick, zonal
from rotorlab.algebra import GAUSSIAN, ModelDims, variable
from rotorlab.chernoff import KernelSpec, funk_hecke_eigenvalue
from rotorlab.gaussian import covariance, gaussian_moment, random_ferro
from rotorlab.moments import sphere_moment


def memo_sizes():
    return {
        "wick": len(wick._memos),
        "radial": moments.radial_moment.cache_info().currsize,
        "pairing": moments._partner_pairing_sum.cache_info().currsize,
        "mono": moments._mono_moment.cache_info().currsize,
        "nodes": len(chernoff._node_cache),
        "gegenbauer": zonal.gegenbauer_coefficients.cache_info().currsize,
        "incidence": moments._incidence.cache_info().currsize,
        "compaction": moments._compaction.cache_info().currsize,
    }


def test_clear_caches_empties_every_memo():
    dims = ModelDims(3, 3)
    sphere_moment(variable(dims, 1, 2, 2) * variable(dims, 2, 3, 2))
    x13 = variable(ModelDims(2, 3), 1, 3, 2, mode=GAUSSIAN)
    gaussian_moment(x13, covariance(random_ferro(3, 1)))
    funk_hecke_eigenvalue(KernelSpec(3, 0.5), 2)
    zonal.gegenbauer_coefficients(3, 4)
    assert all(memo_sizes().values()), memo_sizes()
    rotorlab.clear_caches()
    assert not any(memo_sizes().values()), memo_sizes()


def test_clear_caches_loads_no_engine():
    # a fresh interpreter: clear_caches empties the memos of the modules loaded so far only
    code = ("import sys, rotorlab\n"
            "loaded = lambda: sorted(m for m in sys.modules if m.startswith('rotorlab'))\n"
            "rotorlab.clear_caches()\n"
            "print(loaded())\n"
            "from rotorlab import chernoff\n"
            "chernoff._nodes(2, 16)\n"
            "rotorlab.clear_caches()\n"
            "print(loaded(), len(chernoff._node_cache))")
    src = str(Path(rotorlab.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "['rotorlab']",
        "['rotorlab', 'rotorlab.chernoff', 'rotorlab.errors', 'rotorlab.zonal'] 0",
    ]


def test_wick_memo_keeps_a_fixed_number_of_covariances():
    rotorlab.clear_caches()
    p = variable(ModelDims(2, 3), 1, 2, 2, mode=GAUSSIAN)
    covs = {covariance(random_ferro(3, seed)) for seed in range(20)}
    assert len(covs) == 20
    for cov in covs:
        gaussian_moment(p, cov)
    assert len(wick._memos) == wick.MEMO_SLOTS


def test_moment_memos_have_a_bound():
    for memo in (moments.radial_moment, moments._partner_pairing_sum, moments._mono_moment,
                 moments._incidence, moments._compaction, zonal.gegenbauer_coefficients):
        assert memo.cache_info().maxsize is not None, memo
    assert moments._mono_moment.cache_info().maxsize >= 1 << 16


def test_node_cache_keeps_to_its_budget(monkeypatch):
    rotorlab.clear_caches()
    monkeypatch.setattr(chernoff, "NODE_CACHE_BUDGET", 300)
    for m in (16, 32, 64, 128):  # 17 + 33 + 65 + 129 trapezoid nodes fit
        chernoff._nodes(2, m)
    assert len(chernoff._node_cache) == 4
    chernoff._nodes(2, 256)  # 257 more: the oldest rules go until the total fits
    assert list(chernoff._node_cache) == [("trap", 2, 256)]
    chernoff._nodes(3, 16)
    assert list(chernoff._node_cache) == [("trap", 2, 256), ("jacobi", 3, 16)]
    rotorlab.clear_caches()
    assert not chernoff._node_cache
