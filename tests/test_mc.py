"""Monte Carlo oracle: reproducibility and agreement with the exact engines."""

import math
import os
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from rotorlab import heat, mc
from rotorlab.algebra import GAUSSIAN, SPHERE, Coupling, DotPolynomial, ModelDims, one, variable
from rotorlab.errors import InputError, NumericError, ResourceLimitError
from rotorlab.gaussian import covariance, ferro_from_rows
from rotorlab.mc import MCEstimate, estimate_moment
from rotorlab.moments import interacting_moment, sphere_moment
from rotorlab.ratlin import cholesky_float


def sample_sphere(n, rng):
    """One uniform point on S^{n-1} via a normalized Gaussian draw."""
    if n < 2:
        raise InputError(f"sphere sampling needs n >= 2, got {n}")
    vec = rng.standard_normal(n)
    return vec / np.linalg.norm(vec)


def test_sample_sphere_norm():
    rng = np.random.default_rng(1)
    for n in (2, 3, 7):
        for _ in range(50):
            vec = sample_sphere(n, rng)
            assert abs(np.linalg.norm(vec) - 1.0) <= 1e-12
    with pytest.raises(InputError):
        sample_sphere(1, rng)


def test_sphere_symmetry_moments():
    dims = ModelDims(3, 1)
    rng = np.random.default_rng(7)
    batch = np.array([sample_sphere(3, rng) for _ in range(20000)])
    means = batch.mean(axis=0)
    stderr = batch.std(axis=0) / math.sqrt(len(batch))
    assert np.all(np.abs(means) <= 4 * stderr)
    sq = (batch[:, 0] ** 2).mean()
    sq_err = (batch[:, 0] ** 2).std() / math.sqrt(len(batch))
    assert abs(sq - 1 / 3) <= 4 * sq_err


def test_replay_is_bit_exact():
    dims = ModelDims(3, 3)
    p = variable(dims, 1, 2, 2) + variable(dims, 2, 3)
    a = estimate_moment(p, 50_000, seed=42)
    b = estimate_moment(p, 50_000, seed=42)
    assert a == b  # dataclass equality: identical floats
    c = estimate_moment(p, 50_000, seed=43)
    assert a.mean != c.mean


def test_sample_count_validation():
    dims = ModelDims(2, 2)
    with pytest.raises(InputError):
        estimate_moment(variable(dims, 1, 2), 10, seed=1)


@pytest.mark.parametrize(
    "n,builder,exact",
    [
        (3, lambda d: variable(d, 1, 2, 2), Fraction(1, 3)),
        (2, lambda d: variable(d, 1, 2) * variable(d, 2, 3) * variable(d, 1, 3),
         Fraction(1, 4)),
        (5, lambda d: variable(d, 1, 2, 4), Fraction(3, 35)),
    ],
)
def test_sphere_agreement(n, builder, exact):
    dims = ModelDims(n, 3)
    p = builder(dims)
    assert sphere_moment(p) == exact
    est = estimate_moment(p, 400_000, seed=11)
    assert est.sigmas_from(float(exact)) <= 4.0


def test_gaussian_agreement():
    cov = covariance(ferro_from_rows([[2, -1], [-1, 2]]))
    dims = ModelDims(1, 2)
    p = variable(dims, 1, 2, 2, mode=GAUSSIAN)
    est = estimate_moment(p, 400_000, seed=13, covariance=cov)
    assert est.sigmas_from(2 / 3) <= 4.0
    with pytest.raises(InputError):
        estimate_moment(p, 10_000, seed=13)  # gaussian mode needs covariance


def test_weighted_agreement_with_truncation():
    dims = ModelDims(3, 2)
    p = variable(dims, 1, 2)
    coupling = {(1, 2): Fraction(1, 2)}
    exact = interacting_moment(p, coupling, order=8)
    est = estimate_moment(p, 400_000, seed=17, coupling=coupling)
    assert abs(est.mean - float(exact.value)) <= 4 * est.stderr + exact.tail_gap
    assert est.stderr > 0


def test_weighted_rejects_negative_coupling():
    dims = ModelDims(3, 2)
    with pytest.raises(InputError):
        estimate_moment(variable(dims, 1, 2), 10_000, seed=3,
                        coupling={(1, 2): Fraction(-1)})


def test_coupling_is_rejected_before_any_sampling(monkeypatch):
    def no_sampling(*args):
        raise AssertionError("sampled before the coupling was validated")

    monkeypatch.setattr(mc, "_sphere_batch", no_sampling)
    dims = ModelDims(3, 2)
    with pytest.raises(InputError, match="not ferromagnetic"):
        estimate_moment(variable(dims, 1, 2), 100_000, seed=3,
                        coupling={(2, 1): Fraction(1, 2), (1, 2): Fraction(-1)})


@pytest.mark.parametrize("sites, size", [(2, 3), (3, 2)])
def test_covariance_size_is_checked_before_any_sampling(monkeypatch, sites, size):
    def no_sampling(*args):
        raise AssertionError("sampled before the covariance size was checked")

    monkeypatch.setattr(mc, "_gaussian_batch", no_sampling)
    p = variable(ModelDims(2, sites), 1, 2, 2, mode=GAUSSIAN)
    cov = covariance(ferro_from_rows([[size if i == j else -1 for j in range(size)]
                                      for i in range(size)]))
    with pytest.raises(InputError, match=f"covariance is {size}x{size} but N={sites}"):
        estimate_moment(p, 2000, seed=1, covariance=cov)


def test_constant_polynomial_zero_stderr():
    dims = ModelDims(3, 2)
    est = estimate_moment(2 * one(dims), 10_000, seed=5)
    assert est.mean == 2.0 and est.stderr == 0.0
    assert est.sigmas_from(2.0) == 0.0
    assert est.sigmas_from(1.0) == math.inf


def _hook_draws(monkeypatch, hook):
    """Call hook(shard, out) on each normal draw once Philox has filled it: a pool
    shard is one draw, a window's first shard one draw per CHUNK_SIZE slice."""
    shard_rng = mc._shard_rng

    class HookedRng:
        def __init__(self, seed, shard):
            self.rng, self.shard = shard_rng(seed, shard), shard

        def standard_normal(self, *, out):
            self.rng.standard_normal(out=out)
            hook(self.shard, out)
            return out

    monkeypatch.setattr(mc, "_shard_rng", HookedRng)


def test_shard_boundaries_do_not_change_results(monkeypatch):
    # estimates at sizes spanning shard boundaries stay consistent: the value
    # for k shards is a prefix property, so re-running with more samples must
    # reuse the identical leading shards.  Shards may run on pool threads in
    # any order, so each draw is recorded under its shard index, and a shard
    # drawn in slices is rebuilt by joining its slices in order.
    drawn = []

    def record(shard, out):
        drawn[-1].setdefault(shard, []).append(out.copy())

    _hook_draws(monkeypatch, record)
    dims = ModelDims(2, 2)
    p = variable(dims, 1, 2, 2)
    drawn.append({})
    small = estimate_moment(p, 40_000, seed=9)
    drawn.append({})
    large = estimate_moment(p, 80_000, seed=9)
    drawn = [{shard: np.concatenate(parts) for shard, parts in d.items()} for d in drawn]
    assert sorted(drawn[0]) == [0, 1] and sorted(drawn[1]) == [0, 1, 2]
    (small0, small1), (large0, large1) = ((d[0], d[1]) for d in drawn)
    assert small0.shape == (mc.SHARD_SIZE, 2, 2) and small1.shape == (7_232, 2, 2)
    assert np.array_equal(small0, large0)
    assert np.array_equal(small1, large1[:7_232])
    # not equal (different sample counts) but both close to 1/2
    assert small.sigmas_from(0.5) <= 4
    assert large.sigmas_from(0.5) <= 4
    assert large.stderr < small.stderr


def _chain(dims, mode):
    """(s_1.s_k)^3 / 5 plus every (s_i.s_{i+1})^2; gaussian adds -(s_1.s_1)(s_1.s_2)."""
    p = variable(dims, 1, dims.sites, 3, mode=mode) * Fraction(1, 5)
    for i in range(1, dims.sites):
        p = p + variable(dims, i, i + 1, 2, mode=mode)
    if mode == GAUSSIAN:
        p = p - variable(dims, 1, 1, mode=mode) * variable(dims, 1, 2, mode=mode)
    return p


def _ferro_covariance(sites):
    """Covariance of a coupling with off-diagonals -k/9 and diagonal 1 + row sum."""
    rows = [[Fraction(0)] * sites for _ in range(sites)]
    for i in range(sites):
        for j in range(i + 1, sites):
            rows[i][j] = rows[j][i] = -Fraction((i + 2 * j) % 9 + 1, 9)
    for i in range(sites):
        rows[i][i] = 1 + sum(abs(rows[i][j]) for j in range(sites) if j != i)
    return covariance(ferro_from_rows(rows))


# (kind, n, sites, samples) -> float.hex of (mean, stderr), recorded with the
# einsum Gaussian transform and np.linalg.norm sphere normalisation that the
# shard kernels replaced.  Sphere n = 2..9 covers both summation orders of
# the norm (in order below 8 components, pairwise from 8); gaussian n = 1
# keeps einsum, n >= 2 takes the site-major transform.  50,000 and 70,000
# samples end in a partial shard; 32,768 is exactly one shard.  200,000
# samples are seven shards, so on any CPU count above one the estimate runs
# windows on pool threads and its last window is partial.
RECORDED_BITS = {
    ("sphere", 2, 2, 50000): ("0x1.0060b1321b4c2p-1", "0x1.b38c182cbb128p-10"),
    ("sphere", 2, 3, 50000): ("0x1.0015718519ed4p+0", "0x1.2b840cb9a326cp-9"),
    ("sphere", 2, 4, 50000): ("0x1.807ea42996aacp+0", "0x1.6d009cb082e93p-9"),
    ("sphere", 3, 2, 50000): ("0x1.55db719455131p-2", "0x1.696d1ac1eeec6p-10"),
    ("sphere", 3, 3, 50000): ("0x1.57010bdc52c15p-1", "0x1.f787ea72ff6ebp-10"),
    ("sphere", 3, 4, 50000): ("0x1.000b5677bdfa9p+0", "0x1.31473ca672cfap-9"),
    ("sphere", 4, 2, 50000): ("0x1.00b3b195f73e7p-2", "0x1.2dde57ca22aeap-10"),
    ("sphere", 4, 3, 50000): ("0x1.009576d9c753cp-1", "0x1.a574cc28e210cp-10"),
    ("sphere", 4, 4, 50000): ("0x1.8116f05d5832ap-1", "0x1.00d46ad0fc929p-9"),
    ("sphere", 5, 2, 50000): ("0x1.9a1717e0c43e5p-3", "0x1.00b166cd0bd74p-10"),
    ("sphere", 5, 3, 50000): ("0x1.998223fb8aa65p-2", "0x1.65b0de40f74bbp-10"),
    ("sphere", 5, 4, 50000): ("0x1.339a5702bc6e4p-1", "0x1.b3ffe6508a05cp-10"),
    ("sphere", 6, 2, 50000): ("0x1.5868eb77acd19p-3", "0x1.c0b6eacd9809cp-11"),
    ("sphere", 6, 3, 50000): ("0x1.55830e7d806e9p-2", "0x1.37ae6dfb95b04p-10"),
    ("sphere", 6, 4, 50000): ("0x1.01847c6c2902ep-1", "0x1.7e7ec7eb10a64p-10"),
    ("sphere", 7, 2, 50000): ("0x1.26c71b9179f93p-3", "0x1.8aaa1fc3b5038p-11"),
    ("sphere", 7, 3, 50000): ("0x1.22e46beb99fbdp-2", "0x1.14b765a45e32ep-10"),
    ("sphere", 7, 4, 50000): ("0x1.b793939f08e6fp-2", "0x1.4f88c84c36bbcp-10"),
    ("sphere", 8, 2, 50000): ("0x1.ffbd3c48142b1p-4", "0x1.6187323035cc0p-11"),
    ("sphere", 8, 3, 50000): ("0x1.00c060c97dc58p-2", "0x1.ed3579cf7214ep-11"),
    ("sphere", 8, 4, 50000): ("0x1.815f3a54e2ebcp-2", "0x1.2f114453c45f6p-10"),
    ("sphere", 9, 2, 50000): ("0x1.c842e61a4ef07p-4", "0x1.3f09098cdd307p-11"),
    ("sphere", 9, 3, 50000): ("0x1.c878d091d0c2cp-3", "0x1.c187b244a98a7p-11"),
    ("sphere", 9, 4, 50000): ("0x1.552b017ccf732p-2", "0x1.13fe54cb7db21p-10"),
    ("gaussian", 1, 2, 50000): ("0x1.d55dd80fabbd2p-2", "0x1.62c3e7eb63057p-7"),
    ("gaussian", 1, 3, 50000): ("0x1.6ed156327db52p-1", "0x1.6d8dda169b3a4p-7"),
    ("gaussian", 1, 4, 50000): ("0x1.52a5610208abbp-1", "0x1.279175fc28bc6p-7"),
    ("gaussian", 2, 2, 50000): ("0x1.daaa89ebc898ep-1", "0x1.601dc72cc8224p-6"),
    ("gaussian", 2, 3, 50000): ("0x1.6eb86c10df56fp+0", "0x1.224492b206f61p-6"),
    ("gaussian", 2, 4, 50000): ("0x1.6d39e0ce94614p+0", "0x1.e71c42dfb2169p-7"),
    ("gaussian", 3, 2, 50000): ("0x1.410fc4b155b6ep+0", "0x1.fc34427686ad9p-6"),
    ("gaussian", 3, 3, 50000): ("0x1.201b8c64baf61p+1", "0x1.abbc111cfbd52p-6"),
    ("gaussian", 3, 4, 50000): ("0x1.2c6e5fedeb9cbp+1", "0x1.696021da812f5p-6"),
    ("weighted", 3, 3, 50000): ("0x1.5a53977525aaep-1", "0x1.06af28ad492b2p-9"),
    ("sphere", 3, 3, 32768): ("0x1.559ec5ad3b3f7p-1", "0x1.3734e8f5e88d4p-9"),
    ("gaussian", 2, 3, 70000): ("0x1.783b6153b8d84p+0", "0x1.f9745013ac529p-7"),
    ("sphere", 3, 3, 200000): ("0x1.54fc4a1c34f96p-1", "0x1.f4ac61f179f1cp-11"),
    ("weighted", 3, 3, 200000): ("0x1.581acf00295a3p-1", "0x1.049e5bcdf3c4cp-10"),
    ("gaussian", 2, 3, 200000): ("0x1.743f2ea8c607bp+0", "0x1.29122c0adda7dp-7"),
}


def _recorded_estimate(case):
    kind, n, sites, samples = case
    dims = ModelDims(n, sites)
    seed = 1000 * n + 10 * sites + samples % 7
    if kind == "gaussian":
        est = estimate_moment(_chain(dims, GAUSSIAN), samples, seed,
                              covariance=_ferro_covariance(sites))
    elif kind == "weighted":
        est = estimate_moment(_chain(dims, SPHERE), samples, seed,
                              coupling={(1, 2): Fraction(3, 10), (2, 3): Fraction(1, 5)})
    else:
        est = estimate_moment(_chain(dims, SPHERE), samples, seed)
    return est.mean.hex(), est.stderr.hex()


@pytest.mark.parametrize("case", sorted(RECORDED_BITS), ids=lambda c: "-".join(map(str, c)))
def test_estimates_match_recorded_bits(case):
    assert _recorded_estimate(case) == RECORDED_BITS[case]


def test_no_shard_thread_outlives_the_estimate():
    before = set(threading.enumerate())
    case = ("weighted", 3, 3, 200000)
    assert _recorded_estimate(case) == RECORDED_BITS[case]
    assert set(threading.enumerate()) == before
    # every shard of 10^300 u12 overflows; shard 0, the caller's, is reported
    with pytest.raises(NumericError, match="shard 0 leave"):
        estimate_moment(10 ** 300 * variable(ModelDims(2, 2), 1, 2), 200_000, seed=1)
    assert set(threading.enumerate()) == before


def _spy_evaluations(monkeypatch):
    """Record (thread ident, rows) of every _evaluate_poly call, in call order."""
    evaluated, evaluate_poly = [], mc._evaluate_poly

    def spy(p, spins):
        evaluated.append((threading.get_ident(), spins.shape[0]))
        return evaluate_poly(p, spins)

    monkeypatch.setattr(mc, "_evaluate_poly", spy)
    return evaluated


def test_byte_budget_bounds_the_window(monkeypatch):
    # a shard of 3 spins in R^3 needs 2 * 8 * 32768 * 9 bytes: a budget below
    # two shards runs them one at a time on the caller, to the same bits
    case = ("sphere", 3, 3, 200000)
    need = 2 * 8 * mc.SHARD_SIZE * 3 * 3

    def no_thread(*args, **kwargs):
        raise AssertionError("a pool thread was asked to run a shard")

    monkeypatch.setattr(ThreadPoolExecutor, "submit", no_thread)
    monkeypatch.setattr(heat, "DENSE_BYTES_BUDGET", 2 * need - 1)
    evaluated = _spy_evaluations(monkeypatch)
    assert _recorded_estimate(case) == RECORDED_BITS[case]
    # six shards of 8 slices and a last one of 3,392 rows, all evaluated by the caller
    assert [rows for ident, rows in evaluated] == [mc.CHUNK_SIZE] * 48 + [3_392]
    assert {ident for ident, rows in evaluated} == {threading.get_ident()}

    def no_sampling(*args):
        raise AssertionError("sampled a shard above the byte budget")

    monkeypatch.setattr(mc, "_shard_rng", no_sampling)
    monkeypatch.setattr(heat, "DENSE_BYTES_BUDGET", need - 1)
    with pytest.raises(ResourceLimitError, match="above the budget"):
        _recorded_estimate(case)


@pytest.mark.parametrize("source, cpus", [("affinity", 3), ("affinity", 5), ("affinity", 8),
                                           ("cpu_count", 4), ("cpu_count", None)])
def test_windows_of_any_width_give_the_recorded_bits(monkeypatch, source, cpus):
    # 200,000 samples are 7 shards: 3 CPUs run windows of 3 + 3 + 1 shards, 4
    # run 4 + 3, 5 run 5 + 2 and 8 one window of 7.  Without sched_getaffinity
    # the width follows os.cpu_count(), and a count of None runs every shard
    # on the caller.  Pool threads run every shard but the first of a window,
    # then that shard's slices, which are submitted as (raw, values, weights, rows).
    widths, submitted = [], []
    init, submit = ThreadPoolExecutor.__init__, ThreadPoolExecutor.submit

    def spy_init(self, max_workers, *args, **kwargs):
        widths.append(max_workers)
        init(self, max_workers, *args, **kwargs)

    def spy_submit(self, fn, *args):
        if len(args) == 1:  # a shard, not a slice
            submitted.append(args[0])
        return submit(self, fn, *args)

    monkeypatch.setattr(ThreadPoolExecutor, "__init__", spy_init)
    monkeypatch.setattr(ThreadPoolExecutor, "submit", spy_submit)
    if source == "affinity":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    width = min(7, cpus or 1)
    for case in sorted(c for c in RECORDED_BITS if c[3] == 200000):
        widths.clear()
        submitted.clear()
        assert _recorded_estimate(case) == RECORDED_BITS[case]
        assert widths == [max(width - 1, 1)]
        assert sorted(submitted) == [k for k in range(7) if k % width]


@pytest.mark.parametrize("cpus, first", [(None, 1), (5, 2)])
def test_numeric_error_names_the_first_overflowing_shard(monkeypatch, cpus, first):
    # from shard `first` on the draws are scaled by 1e200, so x1 x2 overflows
    # there only; that shard is named whichever thread ran it.  On 5 CPUs
    # shards 2, 3 and 4 all overflow on pool threads of the first window.
    def scale(shard, out):
        if shard >= first:
            out *= 1e200

    if cpus is not None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    _hook_draws(monkeypatch, scale)
    p = variable(ModelDims(1, 2), 1, 2, mode=GAUSSIAN)
    with pytest.raises(NumericError, match=f"shard {first} leave"):
        estimate_moment(p, 200_000, seed=3, covariance=_ferro_covariance(2))


def _hold_shard_0_until_helped(monkeypatch, seconds=10.0):
    """On 2 CPUs, hold each draw of a slice of shard 0 after its first until a pool
    thread has evaluated a slice of shard 0 (at most `seconds`).  At 50,000 samples
    the pool thread runs shard 1, 17,232 rows, so a call of at most CHUNK_SIZE rows
    off the thread that draws shard 0 is a slice of shard 0.  Returns the event
    that marks the help and that test of a call's spins."""
    caller, helped = [], threading.Event()
    evaluate_poly = mc._evaluate_poly

    def helping(spins):
        return threading.get_ident() not in caller and spins.shape[0] <= mc.CHUNK_SIZE

    def spy(p, spins):
        if helping(spins):
            helped.set()
        return evaluate_poly(p, spins)

    def hold(shard, out):
        if shard == 0:
            caller.append(threading.get_ident())
            if len(caller) > 1:
                helped.wait(seconds)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(mc, "_evaluate_poly", spy)
    _hook_draws(monkeypatch, hold)
    return helped, helping


def test_pool_threads_help_evaluate_the_first_shard(monkeypatch):
    # while the caller draws shard 0 in slices, the pool thread that ran shard 1
    # evaluates some of them; the estimate keeps its recorded bits
    helped, _ = _hold_shard_0_until_helped(monkeypatch)
    evaluated = _spy_evaluations(monkeypatch)
    case = ("sphere", 3, 3, 50000)
    assert _recorded_estimate(case) == RECORDED_BITS[case]
    assert helped.is_set()
    caller = threading.get_ident()
    on_pool = [rows for ident, rows in evaluated if ident != caller]
    assert on_pool[0] == 50_000 - mc.SHARD_SIZE and 1 <= len(on_pool[1:]) <= 8
    assert all(rows == mc.CHUNK_SIZE for rows in on_pool[1:])
    assert len(evaluated) == 9


def _run_with_timeout(fn, seconds=60.0):
    """fn() on a daemon thread: its result or exception, asserting it ended in time."""
    outcome = []

    def run():
        try:
            outcome.append(fn())
        except BaseException as exc:  # noqa: BLE001 - handed back to the test
            outcome.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), "the estimate hung"
    return outcome[0]


def test_a_failed_draw_releases_the_helpers(monkeypatch):
    # a draw that fails on shard 0's second slice, after the pool thread took
    # the first, ends the estimate with its error: no hang, no stray thread
    before = set(threading.enumerate())
    helped, _ = _hold_shard_0_until_helped(monkeypatch)
    draws = []

    def fail_second_slice(shard, out):
        if shard == 0:
            draws.append(out.shape[0])
            if len(draws) == 2:
                raise RuntimeError("draw failed")

    _hook_draws(monkeypatch, fail_second_slice)
    p = _chain(ModelDims(3, 3), SPHERE)
    error = _run_with_timeout(lambda: estimate_moment(p, 50_000, seed=1))
    assert isinstance(error, RuntimeError) and str(error) == "draw failed"
    assert draws == [mc.CHUNK_SIZE] * 2 and helped.is_set()
    assert set(threading.enumerate()) == before


def test_overflow_in_helped_slices_names_shard_0(monkeypatch):
    # only the slices of shard 0 that the pool thread evaluates are scaled by
    # 1e300, so only their squares overflow; shard 0 is named, with no warning
    before = set(threading.enumerate())
    helped, helping = _hold_shard_0_until_helped(monkeypatch)
    evaluate_poly = mc._evaluate_poly

    def overflow_on_pool(p, spins):
        values = evaluate_poly(p, spins)
        if helping(spins):
            values *= 1e300
        return values

    monkeypatch.setattr(mc, "_evaluate_poly", overflow_on_pool)
    p = _chain(ModelDims(3, 3), SPHERE)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        error = _run_with_timeout(lambda: estimate_moment(p, 50_000, seed=1))
    assert isinstance(error, NumericError) and "shard 0 leave" in str(error)
    assert helped.is_set()
    assert set(threading.enumerate()) == before


def test_an_error_in_a_helped_slice_reaches_the_caller(monkeypatch):
    # a slice of shard 0 that the pool thread evaluates fails after its
    # evaluation: the estimate raises that very error, with no stray thread
    before = set(threading.enumerate())
    helped, helping = _hold_shard_0_until_helped(monkeypatch)
    evaluate_poly, raised = mc._evaluate_poly, []

    def fail_on_pool(p, spins):
        values = evaluate_poly(p, spins)
        if helping(spins):
            raised.append(RuntimeError("evaluation failed"))
            raise raised[-1]
        return values

    monkeypatch.setattr(mc, "_evaluate_poly", fail_on_pool)
    p = _chain(ModelDims(3, 3), SPHERE)
    error = _run_with_timeout(lambda: estimate_moment(p, 50_000, seed=1))
    assert any(error is exc for exc in raised)
    assert helped.is_set()
    assert set(threading.enumerate()) == before


@pytest.mark.parametrize("chunk", [1_000, 4_096, mc.SHARD_SIZE])
def test_slice_size_does_not_change_the_bits(monkeypatch, chunk):
    monkeypatch.setattr(mc, "CHUNK_SIZE", chunk)
    for case in sorted(c for c in RECORDED_BITS if c[3] in (50000, 200000)):
        assert _recorded_estimate(case) == RECORDED_BITS[case]


def test_many_helpers_under_fast_switching_keep_the_bits(monkeypatch):
    # 8 CPUs run a window of 7 shards, whose 6 pool threads and the caller
    # share the 33 slices of shard 0 (the caller cancels the jobs no pool
    # thread has started and runs them itself); with the interpreter switching
    # threads every 10 us, a slice evaluated twice or never changes the bits
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    monkeypatch.setattr(mc, "CHUNK_SIZE", 1_000)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for case in sorted(c for c in RECORDED_BITS if c[3] == 200000):
            assert _run_with_timeout(lambda: _recorded_estimate(case)) == RECORDED_BITS[case]
    finally:
        sys.setswitchinterval(interval)


def test_traced_functions_run_before_the_first_shard(monkeypatch):
    # the benchmark's tracer keeps one span stack, so the functions it wraps
    # that an estimate calls (Coupling.exponent, cholesky_float, polynomial
    # products) must all run on the caller before any shard starts
    events = []

    def record(name, fn):
        def wrapper(*args, **kwargs):
            events.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Coupling, "exponent", record("traced", Coupling.exponent))
    monkeypatch.setattr(mc.ratlin, "cholesky_float", record("traced", mc.ratlin.cholesky_float))
    monkeypatch.setattr(DotPolynomial, "__mul__", record("traced", DotPolynomial.__mul__))
    monkeypatch.setattr(DotPolynomial, "__rmul__", record("traced", DotPolynomial.__rmul__))
    monkeypatch.setattr(mc, "_shard_rng", record("shard", mc._shard_rng))
    for case in (("weighted", 3, 3, 200000), ("gaussian", 2, 3, 200000)):
        events.clear()
        assert _recorded_estimate(case) == RECORDED_BITS[case]
        assert events.count("shard") == 7
        assert "traced" not in events[events.index("shard"):]


@pytest.mark.parametrize("n", range(1, 10))
def test_shard_kernels_match_reference_transforms(n):
    # spin by spin, the kernels reproduce the transforms they replaced:
    # raw / np.linalg.norm(raw) and einsum("ij,sjc->sic", chol, raw).  Draws
    # into CHUNK_SIZE slices continue one Philox stream, byte for byte one
    # draw, at the shard sizes of 50,000 samples and the 3,392-row last shard
    # of 200,000 (one partial slice).
    count = 5_000
    for sites in range(1, 6):
        for rows in (32_768, 17_232, 3_392):
            whole = mc._shard_rng(n, sites).standard_normal((rows, sites, n))
            sliced, rng = np.empty_like(whole), mc._shard_rng(n, sites)
            for lo in range(0, rows, mc.CHUNK_SIZE):
                rng.standard_normal(out=sliced[lo:lo + mc.CHUNK_SIZE])
            assert sliced.tobytes() == whole.tobytes()
        raw = mc._shard_rng(n, sites).standard_normal((count, sites, n))
        filled = np.empty_like(raw)
        mc._shard_rng(n, sites).standard_normal(out=filled)
        assert filled.tobytes() == raw.tobytes()
        if n >= 2:
            spins = mc._sphere_batch(raw.copy())
            reference = raw / np.linalg.norm(raw, axis=2, keepdims=True)
            assert spins.tobytes() == reference.tobytes()
        chol = np.array(cholesky_float(_ferro_covariance(sites)))
        spins = mc._gaussian_batch(chol, raw)
        reference = np.einsum("ij,sjc->sic", chol, raw)
        assert np.ascontiguousarray(spins).tobytes() == reference.tobytes()
