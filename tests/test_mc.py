"""Monte Carlo oracle: reproducibility and agreement with the exact engines."""

import math
from fractions import Fraction

import numpy as np
import pytest

from rotorlab import mc
from rotorlab.algebra import GAUSSIAN, ModelDims, one, variable
from rotorlab.errors import InputError
from rotorlab.gaussian import covariance, ferro_from_rows
from rotorlab.mc import MCEstimate, estimate_moment
from rotorlab.moments import interacting_moment, sphere_moment


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


def test_constant_polynomial_zero_stderr():
    dims = ModelDims(3, 2)
    est = estimate_moment(2 * one(dims), 10_000, seed=5)
    assert est.mean == 2.0 and est.stderr == 0.0
    assert est.sigmas_from(2.0) == 0.0
    assert est.sigmas_from(1.0) == math.inf


def test_shard_boundaries_do_not_change_results():
    # estimates at sizes spanning shard boundaries stay consistent: the value
    # for k shards is a prefix property, so re-running with more samples must
    # reuse the identical leading shards
    dims = ModelDims(2, 2)
    p = variable(dims, 1, 2, 2)
    small = estimate_moment(p, 40_000, seed=9)
    large = estimate_moment(p, 80_000, seed=9)
    # not equal (different sample counts) but both close to 1/2
    assert small.sigmas_from(0.5) <= 4
    assert large.sigmas_from(0.5) <= 4
    assert large.stderr < small.stderr
