"""Reference computations the benchmark checks rotorlab's outputs against.

Everything here is written independently of the package: the brute-force
Isserlis sum expands every dot product into components and enumerates
perfect matchings of scalar slots, the Gegenbauer coefficients come from
their own three-term recurrence, and the fitted slope uses the standard
library.  None of it is timed.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import statistics
from fractions import Fraction
from typing import Iterator, Sequence


def digest(values: Sequence[object]) -> str:
    """Short hash of a result tuple; Fractions enter through str(), so exactly."""
    text = ";".join(str(v) for v in values)
    return hashlib.sha256(text.encode()).hexdigest()[:8]


def _matchings(items: list) -> Iterator[list[tuple]]:
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for k, partner in enumerate(rest):
        for tail in _matchings(rest[:k] + rest[k + 1:]):
            yield [(first, partner)] + tail


def brute_gaussian_moment(
    factors: Sequence[tuple[int, int]],
    cov: Sequence[Sequence[Fraction]],
    n: int,
) -> Fraction:
    """E prod (x_a . x_b) for x ~ N(0, cov (x) I_n), by full expansion.

    Sums over every component assignment of the dot products and, for each,
    over every perfect matching of the 2k scalar slots (Isserlis).  Cost is
    n^k (2k-1)!!, so keep k <= 4.
    """
    total = Fraction(0)
    for comps in itertools.product(range(n), repeat=len(factors)):
        slots = []
        for (a, b), c in zip(factors, comps):
            slots.append((a, c))
            slots.append((b, c))
        for matching in _matchings(slots):
            term = Fraction(1)
            for (s, c), (s2, c2) in matching:
                if c != c2 or not cov[s][s2]:
                    term = Fraction(0)
                    break
                term *= cov[s][s2]
            total += term
    return total


def gegenbauer_coeffs(n: int, l: int) -> list[Fraction]:
    """Exact s^k coefficients of the zonal polynomial G_l(n, s), G_l(n, 1) = 1."""
    prev: list[Fraction] = [Fraction(1)]
    if l == 0:
        return prev
    cur: list[Fraction] = [Fraction(0), Fraction(1)]
    for k in range(1, l):
        nxt = [Fraction(0)] * (k + 2)
        for deg, c in enumerate(cur):
            nxt[deg + 1] += Fraction(2 * k + n - 2, k + n - 2) * c
        for deg, c in enumerate(prev):
            nxt[deg] -= Fraction(k, k + n - 2) * c
        prev, cur = cur, nxt
    return cur


def laplace_eigenvalue(n: int, l: int) -> int:
    """-eigenvalue of one sphere's Laplacian on degree-l harmonics."""
    return l * (l + n - 2)


def loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    fit = statistics.linear_regression(
        [math.log(x) for x in xs], [math.log(abs(y)) for y in ys]
    )
    return fit.slope
