"""Exact expectations over products of unit spheres.

``sphere_moment`` integrates a dot-product polynomial against the product of
normalized surface measures by eliminating one site at a time: the factors
attached to the chosen site are converted to a Gaussian integral, summed
over perfect matchings of the partner spins, and divided by the radial
moment of the degree that the conversion introduced.  The elimination runs
in integers: per monomial it carries N = R * S, where S is the sphere
moment and R the product of the radial moments of its site degrees.  N is
the monomial's identity-covariance Gaussian moment, so it is an integer,
and one ``Fraction(N, R)`` is built per monomial at the end.
``eliminate_site`` shares the same integer kernel and divides by the
radial moment once per monomial.  ``sphere_moment_oracle`` computes the
same quantity along an entirely different route (one global Isserlis sum
over all sites at once, normalized by the per-site radial moments); the
acceptance bundle uses it to cross-check the elimination engine.

``interacting_moment`` adds a ferromagnetic weight exp(sum J_ij u_ij), the
strengths given as an :class:`algebra.Coupling` or a raw table that it
validates through ``Coupling.of``, by exact Taylor truncation; every
truncation term is a non-negative rational, so the truncated numerator and
partition function are monotone lower bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from . import wick
from .algebra import (
    CONST_MONO,
    SPHERE,
    Coupling,
    DotPolynomial,
    ModelDims,
    Mono,
    Pair,
    mono_mul,
    mono_sites,
    renumber_mono,
    site_degrees,
)
from .errors import InputError, NumericError


@lru_cache(maxsize=None)
def radial_moment(n: int, d: int) -> int:
    """E |x|^d for a standard Gaussian vector in R^n: n(n+2)...(n+d-2).

    Exact product form of the chi-square moments, so no Gamma functions ever
    enter the rational pipeline.
    """
    if d < 0 or d % 2:
        raise InputError(f"radial moments need even degree >= 0, got {d}")
    out = 1
    for j in range(d // 2):
        out *= n + 2 * j
    return out


@lru_cache(maxsize=None)
def _partner_pairing_sum(labels: tuple[int, ...]) -> tuple[tuple[Mono, int], ...]:
    """Sum over perfect matchings of partner sites, aggregated by resulting monomial.

    ``labels`` is the sorted multiset of partner sites of the eliminated
    site.  A pair of equal labels contributes 1 (unit spins), a pair of
    distinct labels contributes u_{ab}.  The first label is matched with
    each partner in turn, and identical partners are grouped, so the work
    is polynomial in the multiset shape rather than (L-1)!!.
    """
    if not labels:
        return ((CONST_MONO, 1),)
    first = labels[0]
    rest = labels[1:]
    out: dict[Mono, int] = {}
    index = 0
    while index < len(rest):
        partner = rest[index]
        count = 1
        while index + count < len(rest) and rest[index + count] == partner:
            count += 1
        sub = _partner_pairing_sum(rest[:index] + rest[index + 1:])
        factor: Mono = () if partner == first else (((first, partner), 1),)
        for mono, mult in sub:
            key = mono_mul(mono, factor)
            out[key] = out.get(key, 0) + count * mult
        index += count
    return tuple(sorted(out.items()))


def _eliminate_mono(mono: Mono, k: int) -> tuple[int, list[tuple[Mono, int]]]:
    """Integrate site k out of one monomial, up to the radial moment.

    Returns the degree d of site k and integer terms: the partial integral is
    sum(mult * m') / radial_moment(n, d).  No terms when d is odd.
    """
    partners: list[int] = []
    rest: list[tuple[Pair, int]] = []
    for (i, j), p in mono:
        if i == k:
            partners.extend([j] * p)
        elif j == k:
            partners.extend([i] * p)
        else:
            rest.append(((i, j), p))
    degree = len(partners)
    if degree == 0:
        return 0, [(mono, 1)]
    if degree % 2:
        return degree, []
    wick.require_depth(degree // 2, f"pairing the {degree} partners of site {k}")
    rest_mono = tuple(rest)
    return degree, [
        (mono_mul(rest_mono, frag), mult)
        for frag, mult in _partner_pairing_sum(tuple(sorted(partners)))
    ]


def eliminate_site(p: DotPolynomial, k: int) -> DotPolynomial:
    """Exact partial integral of p over the spin at site k."""
    if p.mode != SPHERE:
        raise InputError("eliminate_site acts on sphere-mode polynomials")
    if not (1 <= k <= p.dims.sites):
        raise InputError(f"site {k} out of range 1..{p.dims.sites}")
    table: dict[Mono, Fraction] = {}
    for mono, coeff in p.terms.items():
        degree, terms = _eliminate_mono(mono, k)
        if not terms:  # odd degree at site k
            continue
        scaled = coeff / radial_moment(p.dims.n, degree)
        for new_mono, mult in terms:
            merged = table.get(new_mono, Fraction(0)) + scaled * mult
            if merged:
                table[new_mono] = merged
            elif new_mono in table:
                del table[new_mono]
    return DotPolynomial._raw(p.dims, p.mode, table)


@lru_cache(maxsize=None)
def _mono_moment(mono: Mono, n: int) -> tuple[int, int]:
    """(N, R) with R = prod radial_moment(n, d_i) and N = R * sphere moment.

    N is the monomial's identity-covariance Gaussian moment, an integer, so
    the elimination below runs in integers.  A child m' of m lowers every
    site degree by an even amount, so R_rest // R(m') is exact, R_rest being
    R without the eliminated site's factor.
    """
    if not mono:
        return 1, 1
    degs: dict[int, int] = {}
    for (i, j), p in mono:
        degs[i] = degs.get(i, 0) + p
        degs[j] = degs.get(j, 0) + p
    if any(d % 2 for d in degs.values()):
        return 0, 1
    # one frame per site still to eliminate, plus the deepest pairing sum;
    # site degrees never grow under elimination
    top = max(degs.values())
    wick.require_depth(len(degs) + top // 2, f"eliminating {len(degs)} sites of degree up to {top}")
    radial = 1
    for d in degs.values():
        radial *= radial_moment(n, d)
    # eliminating the lowest-degree site first keeps the pairing sums small
    site = min(degs, key=lambda s: (degs[s], s))
    rest_radial = radial // radial_moment(n, degs[site])
    total = 0
    for new_mono, mult in _eliminate_mono(mono, site)[1]:
        sub, sub_radial = _mono_moment(renumber_mono(new_mono), n)
        total += mult * (rest_radial // sub_radial) * sub
    return total, radial


def sphere_moment(p: DotPolynomial) -> Fraction:
    """Exact expectation of p under the product of normalized sphere measures."""
    if p.mode != SPHERE:
        raise InputError("sphere_moment acts on sphere-mode polynomials")
    total = Fraction(0)
    for mono, coeff in p.terms.items():
        scaled, radial = _mono_moment(renumber_mono(mono), p.dims.n)
        total += coeff * Fraction(scaled, radial)
    return total


def sphere_moment_oracle(mono: Mono, dims: ModelDims) -> Fraction:
    """One-shot Isserlis evaluation of a monomial's sphere moment.

    The integrand is homogeneous of degree d_i in each spin, so the sphere
    integral equals the identity-covariance Gaussian integral divided by the
    product of the per-site radial moments.  Independent of the elimination
    path by construction.
    """
    degs = site_degrees(mono, dims)
    if any(d % 2 for d in degs):
        return Fraction(0)
    if not mono:
        return Fraction(1)
    compact = renumber_mono(mono)
    size = len(mono_sites(compact))
    identity = [[Fraction(i == j) for j in range(size)] for i in range(size)]
    factors = []
    for (i, j), p in compact:
        factors.extend([(i - 1, j - 1)] * p)
    gauss = wick.vector_moment(factors, identity, dims.n)
    norm = 1
    for d in site_degrees(compact, ModelDims(dims.n, size)):
        norm *= radial_moment(dims.n, d)
    return gauss / norm


@dataclass(frozen=True)
class InteractingMoment:
    """Order-K truncation of E[p e^{sum J u}] / E[e^{sum J u}].

    ``numerator`` and ``partition`` are the exact truncated series, both
    monotone lower bounds of the untruncated quantities (every term is a
    non-negative rational when p is in the cone).  ``value`` is their ratio
    and ``tail_gap`` bounds |true ratio - value| using |u_ij| <= 1:
    the dropped tail of either series is at most tau = e^S S^(K+1)/(K+1)!
    with S = sum J, the numerator tail is at most (sum of p's coefficients)
    times tau, and the partition function is at least 1.
    """

    value: Fraction
    tail_gap: float
    numerator: Fraction
    partition: Fraction
    order: int


def interacting_moment(
    p: DotPolynomial,
    coupling: Coupling | Mapping[Pair, object],
    order: int = 8,
) -> InteractingMoment:
    """Truncated ferromagnetic expectation of a cone polynomial."""
    if p.mode != SPHERE:
        raise InputError("interacting_moment acts on sphere-mode polynomials")
    if not p.is_cone():
        raise InputError("interacting_moment needs a cone polynomial")
    if order < 0:
        raise InputError("truncation order must be >= 0")
    strengths = Coupling.of(p.dims, coupling).strengths.items()
    weight = DotPolynomial(p.dims, SPHERE, [(((pair, 1),), c) for pair, c in strengths])

    numerator = Fraction(0)
    partition = Fraction(0)
    power = DotPolynomial(p.dims, SPHERE, {CONST_MONO: 1})
    k_factorial = 1
    for k in range(order + 1):
        if k:
            power = power * weight
            k_factorial *= k
        partition += sphere_moment(power) / k_factorial
        numerator += sphere_moment(p * power) / k_factorial

    value = numerator / partition
    gap = _tail_gap(weight.coefficient_sum(), order, p.coefficient_sum(), value)
    return InteractingMoment(value, gap, numerator, partition, order)


def _tail_gap(strength_sum: Fraction, order: int, p_sum: Fraction, value: Fraction) -> float:
    """tau * (p_sum + value) with tau = e^S S^(K+1)/(K+1)!, as a float.

    tau is evaluated directly where no factor overflows, and in log space
    where one does but tau itself may fit.  NumericError when the bound
    exceeds the float range.
    """
    try:
        s = float(strength_sum)
        try:
            tau = math.exp(s) * s ** (order + 1) / math.factorial(order + 1)
        except OverflowError:
            tau = math.inf
        if math.isinf(tau):
            tau = math.exp(s + (order + 1) * math.log(s) - math.lgamma(order + 2)) if s else 0.0
        gap = tau * (float(p_sum) + float(value))
    except OverflowError:
        gap = math.inf
    if math.isinf(gap):
        raise NumericError(
            f"tail bound at coupling sum {strength_sum} and truncation order {order} "
            "exceeds the float range"
        )
    return gap


def clear_caches() -> None:
    radial_moment.cache_clear()
    _partner_pairing_sum.cache_clear()
    _mono_moment.cache_clear()
    wick.clear_caches()
