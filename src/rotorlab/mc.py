"""Monte Carlo cross-validation of the exact moment engines.

Sampling is sharded with a counter-based generator (Philox keyed by
(seed, shard index)), so an estimate is a deterministic function of
(seed, samples) alone, whichever thread draws a shard.  Shards run in
windows of W = min(shards, usable CPUs, ``heat.DENSE_BYTES_BUDGET`` // one
shard's bytes), concurrently, as numpy's draws and ufuncs release the GIL.
The caller draws a window's first shard in ``CHUNK_SIZE``-row slices of one
Philox stream, byte for byte one draw, while W - 1 pool threads draw and
evaluate the other shards whole; then every thread of the window evaluates
the first shard's drawn slices (a draw cannot be split: the ziggurat takes
a data-dependent number of Philox words).  Each shard is summed over its
whole arrays, in shard order, so the bits hold for every W.  Usable CPUs
are ``os.sched_getaffinity(0)``'s (Linux), else ``os.cpu_count()``; W = 1
starts no thread.  Each evaluation sets its own ``np.errstate``, which a
pool thread does not inherit.  Gaussian spins are drawn through the float
Cholesky factor of the exact rational covariance, converted once, before
the first shard.

The Philox draws define the replay, so the shard kernels only trim the numpy
work around them, and keep every estimate bit-identical by keeping the
summation order of the transforms they replace.  Sphere spins divide by a
norm summed the way ``np.linalg.norm`` sums it (``add.reduce`` of the
squares): component after component below n = 8, where that is numpy's
order too, and by ``add.reduce`` itself from n = 8, where numpy sums
pairwise.  Gaussian spins are formed site-major, one site's (samples, n)
block at a time, as ``chol[i, 0] r_0 + chol[i, 1] r_1 + ...`` in order over
the factor's lower triangle: ``einsum`` accumulates in the same order from
n = 2, and the skipped upper-triangle terms are zeros, which leave a
non-zero sum unchanged.  For n = 1 ``einsum`` sums in another order and is
kept.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from . import ratlin
from .algebra import GAUSSIAN, Coupling, DotPolynomial, Pair
from .errors import InputError, NumericError, ResourceLimitError

if TYPE_CHECKING:
    import numpy as np

SHARD_SIZE = 1 << 15
CHUNK_SIZE = 1 << 12  # rows per slice of a window's first shard, the unit its threads claim
MAX_SAMPLES = 1 << 25
"""Largest sample count :func:`estimate_moment` accepts: 1024 shards.  The
suite's largest estimate is a 4x retry of 10^6 samples."""


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    stderr: float
    samples: int
    seed: int

    def sigmas_from(self, target: float) -> float:
        """Distance from a target value in stderr units (inf when stderr 0)."""
        if self.stderr == 0.0:
            return 0.0 if self.mean == target else math.inf
        return abs(self.mean - target) / self.stderr


def _shard_rng(seed: int, shard: int) -> np.random.Generator:
    import numpy as np

    key = np.array([seed % (1 << 64), shard], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _sphere_batch(raw: np.ndarray) -> np.ndarray:
    """(count, sites, n) uniform unit spins from the normal draws ``raw``, normalised
    in place, bit for bit ``raw / np.linalg.norm(raw, axis=2)``."""
    import numpy as np

    sq = raw * raw
    if raw.shape[2] < 8:
        norm = sq[..., 0].copy()
        for k in range(1, raw.shape[2]):
            norm += sq[..., k]
    else:
        norm = np.add.reduce(sq, axis=2)
    np.sqrt(norm, out=norm)
    raw /= norm[..., None]
    return raw


def _gaussian_batch(chol: np.ndarray, raw: np.ndarray) -> np.ndarray:
    """(count, sites, n) spins ``chol @ raw`` per sample of the normal draws ``raw``,
    bit for bit ``einsum``'s.

    From n = 2 the array is a site-major view.
    """
    import numpy as np

    if raw.shape[2] == 1:
        return np.einsum("ij,sjc->sic", chol, raw)
    r = raw.transpose(1, 0, 2)
    out = np.empty(r.shape)
    for i, row in enumerate(chol):
        np.multiply(r[0], row[0], out=out[i])
        for j in range(1, i + 1):
            out[i] += row[j] * r[j]
    return out.transpose(1, 0, 2)


def _evaluate_poly(p: DotPolynomial, spins: np.ndarray) -> np.ndarray:
    """Vectorized evaluation of p on a batch of spin configurations."""
    import numpy as np

    dots: dict[Pair, np.ndarray] = {}

    def dot(pair: Pair) -> np.ndarray:
        found = dots.get(pair)
        if found is None:
            i, j = pair
            found = np.einsum("sc,sc->s", spins[:, i - 1, :], spins[:, j - 1, :])
            dots[pair] = found
        return found

    total = np.zeros(spins.shape[0])
    for mono, coeff in p.terms.items():
        term = np.full(spins.shape[0], float(coeff))
        for pair, power in mono:
            term = term * dot(pair) ** power
        total += term
    return total


def estimate_moment(
    p: DotPolynomial,
    samples: int,
    seed: int,
    coupling: Coupling | Mapping[Pair, object] | None = None,
    covariance: ratlin.Matrix | None = None,
) -> MCEstimate:
    """Monte Carlo estimate of E[p], optionally weighted by exp(sum J u).

    Sphere mode samples uniform spins, and ``coupling`` is validated through
    ``Coupling.of`` before the first shard; gaussian mode needs the N x N
    rational covariance, sized before the first shard too, and refuses a
    coupling.  The weighted estimate is self-normalized, with the
    influence-function standard error
    std(w (p - mean) / avg(w)) / sqrt(samples).  ResourceLimitError above
    MAX_SAMPLES, or when a shard's spin arrays would take more than
    ``heat.DENSE_BYTES_BUDGET``, before the first shard; NumericError when a
    shard's sample sums leave the float range, naming the first such shard.
    Every thread that runs a shard has ended when this returns or raises.
    """
    if samples < 1000:
        raise InputError(f"need at least 1000 samples, got {samples}")
    if samples > MAX_SAMPLES:
        raise ResourceLimitError(f"{samples} samples are above the cap of {MAX_SAMPLES}")
    from concurrent.futures import ThreadPoolExecutor
    from queue import SimpleQueue

    import numpy as np

    if p.mode == GAUSSIAN:
        if covariance is None:
            raise InputError("gaussian-mode estimates need a covariance matrix")
        if coupling is not None:
            raise InputError("interaction weights apply to sphere mode only")
        if len(covariance) != p.dims.sites:
            raise InputError(f"covariance is {len(covariance)}x{len(covariance)} but N={p.dims.sites}")
        chol = np.array(ratlin.cholesky_float(covariance))
    elif covariance is not None:
        raise InputError("covariance applies to gaussian mode only")
    exponent = None if coupling is None else Coupling.of(p.dims, coupling).exponent()
    from .heat import DENSE_BYTES_BUDGET

    # the first shard is the largest: its draws and one transform of them, in float64
    largest = min(SHARD_SIZE, samples)
    need = 2 * 8 * largest * p.dims.sites * p.dims.n
    if need > DENSE_BYTES_BUDGET:
        raise ResourceLimitError(
            f"a shard of {largest} samples of {p.dims.sites} spins in R^{p.dims.n} needs about "
            f"{need >> 20} MiB, above the budget of {DENSE_BYTES_BUDGET >> 20} MiB"
        )

    def arrays(shard: int) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        count = min(SHARD_SIZE, samples - shard * SHARD_SIZE)
        raw = np.empty((count, p.dims.sites, p.dims.n))
        return raw, np.empty(count), None if exponent is None else np.empty(count)

    def evaluate(raw, values, weights, rows: slice = slice(None)) -> None:
        # per call, as a pool thread starts from numpy's defaults; a non-finite sum is refused below
        with np.errstate(over="ignore", invalid="ignore"):
            spins = _gaussian_batch(chol, raw[rows]) if p.mode == GAUSSIAN else _sphere_batch(raw[rows])
            values[rows] = _evaluate_poly(p, spins)
            if weights is not None:
                weights[rows] = np.exp(_evaluate_poly(exponent, spins))

    def sums(values, weights) -> tuple[float, ...]:
        with np.errstate(over="ignore", invalid="ignore"):
            if weights is None:
                return float(values.sum()), float((values * values).sum())
            wp = weights * values
            return tuple(float(a.sum()) for a in (weights, wp, weights * weights, weights * wp, wp * wp))

    def help_head() -> None:
        """Evaluate the first shard's slices as they are drawn, up to an end mark or an abort."""
        while (rows := todo.get()) is not None and not aborted:
            evaluate(*head, rows)

    def run_shard(shard: int) -> tuple[float, ...]:
        """A pool thread's own shard, whole; then it helps evaluate the window's first."""
        own = arrays(shard)
        _shard_rng(seed, shard).standard_normal(out=own[0])
        evaluate(*own)
        help_head()
        return sums(*own[1:])

    # the caller draws each window's first shard in slices; pool threads run the rest, then help
    shards = -(-samples // SHARD_SIZE)
    # sched_getaffinity exists on Linux only; elsewhere every CPU counts
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    width = min(shards, cpus, DENSE_BYTES_BUDGET // need)
    shard_stats: list[tuple[float, ...]] = []
    with ThreadPoolExecutor(max(width - 1, 1)) as pool:  # starts no thread when width is 1
        for first in range(0, shards, width):
            head, todo, aborted = arrays(first), SimpleQueue(), False
            rest = [pool.submit(run_shard, k) for k in range(first + 1, min(first + width, shards))]
            rng = _shard_rng(seed, first)
            try:
                for lo in range(0, len(head[0]), CHUNK_SIZE):
                    rng.standard_normal(out=head[0][lo:lo + CHUNK_SIZE])
                    todo.put(slice(lo, lo + CHUNK_SIZE))
            except BaseException:
                aborted = True  # helpers drop the slices still queued
                raise
            finally:  # one end mark per thread of the window, so none waits for a slice never drawn
                for _ in range(len(rest) + 1):
                    todo.put(None)
            help_head()
            pooled = [f.result() for f in rest]  # a helper returns once its claimed slices are evaluated
            for shard, stats in enumerate([sums(*head[1:]), *pooled], first):
                if not all(map(math.isfinite, stats)):
                    raise NumericError(f"the sample sums of shard {shard} leave the float range")
                shard_stats.append(stats)

    if exponent is None:
        total = math.fsum(s[0] for s in shard_stats)
        total_sq = math.fsum(s[1] for s in shard_stats)
        mean = total / samples
        variance = max(0.0, (total_sq - samples * mean * mean) / (samples - 1))
        return MCEstimate(mean, math.sqrt(variance / samples), samples, seed)

    sum_w = math.fsum(s[0] for s in shard_stats)
    sum_wp = math.fsum(s[1] for s in shard_stats)
    sum_w2 = math.fsum(s[2] for s in shard_stats)
    sum_w2p = math.fsum(s[3] for s in shard_stats)
    sum_w2p2 = math.fsum(s[4] for s in shard_stats)
    mean = sum_wp / sum_w
    avg_w = sum_w / samples
    influence_sq = (sum_w2p2 - 2 * mean * sum_w2p + mean * mean * sum_w2) / (avg_w * avg_w)
    variance = max(0.0, influence_sq / (samples - 1))
    return MCEstimate(mean, math.sqrt(variance / samples), samples, seed)
