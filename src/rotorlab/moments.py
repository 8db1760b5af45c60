"""Exact expectations over products of unit spheres.

``sphere_moment`` integrates a dot-product polynomial against the product of
normalized surface measures by eliminating one site at a time: the factors
attached to the chosen site are converted to a Gaussian integral, summed
over perfect matchings of the partner spins, and divided by the radial
moment of the degree that the conversion introduced.  The elimination runs
on exponent vectors: each monomial is converted once to its K present
sites, relabelled 0..K-1, and the tuple of its exponents over all K(K-1)/2
pairs.  A child is the parent vector with the eliminated site's slots
zeroed, the pairing fragment's slots added, and the eliminated site (and
any partner left with degree 0) dropped by one precomputed selector per
(K, kept sites), so no child is re-sorted.  The product measure does not
change when the sites are permuted, so a state on at most 8 sites that
misses the memo is relabelled once, by a site invariant, and isomorphic
states mostly share one elimination.  The arithmetic is in integers: per
vector it carries N = R * S, where S is the sphere moment and R the product
of the radial moments of its site degrees.  N is the monomial's
identity-covariance Gaussian moment, so it is an integer, and the terms of a
polynomial are summed over one common denominator into a single
``Fraction``.  Parity and recursion depth are checked once per monomial:
eliminating a site changes each partner's degree by an even amount, never
raises one and removes at least one site, and relabelling only permutes
degrees, so no state below an even monomial is odd or needs more frames.
``sphere_moment_oracle`` computes the same quantity along an entirely
different route (one global Isserlis sum over all sites at once, normalized
by the per-site radial moments); the acceptance bundle uses it to
cross-check the elimination engine.

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
from itertools import compress
from operator import itemgetter
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
    site_degrees,
)
from .errors import InputError, NumericError, ResourceLimitError

MEMO_SIZE = 1 << 16
"""Entries kept by each moment memo.  The ``exact`` benchmark workload (seed 1)
stores 12,030 elimination states, none of odd degree: 4,520 eliminated, 7,507
answered by their relabelled vector and 3 empty.  2^16 keeps every one of them."""

RELABEL_SITES = 8
"""Elimination states on at most this many sites are relabelled into their
:func:`_site_order` before they are eliminated (see :func:`_mono_moment`).
A relabelled state costs one more frame, so the limit also keeps large
monomials within the recursion budget: relabelling every state of the
390-site chain u12^2 u23^2 ... would need 782 frames."""

MAX_ORDER = 32
"""Largest truncation order :func:`interacting_moment` accepts.  The benchmark
uses at most 10, the suite and the CLI default 8.  With J = 1/10 on the three
pairs of three sites, order 32 took 0.3-0.7 s and order 64 2.0-4.4 s on a
2-core host; on all six pairs of four sites the product budget refuses from
order 16 on."""


@lru_cache(maxsize=MEMO_SIZE)
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


# The elimination runs on exponent vectors: a monomial on K sites, relabelled
# 0..K-1 in order, as the tuple of its exponents over all K(K-1)/2 pairs.
# Pairs are ordered colexicographically, (0,1), (0,2), (1,2), (0,3), ..., so
# the slot of a pair does not depend on K and a pairing fragment's slots are
# computed once for every K.
Vec = tuple[int, ...]


def _slot(a: int, b: int) -> int:
    """Slot of the pair a < b in an exponent vector."""
    return b * (b - 1) // 2 + a


def _vector(mono: Mono) -> Vec:
    """The monomial's exponent vector over its sorted site labels.

    The vector grows as the square of the site count, so a monomial on more
    sites than any elimination can nest through is refused before it is built.
    """
    sites = sorted({site for pair, _ in mono for site in pair})
    wick.require_depth(len(sites), f"eliminating {len(sites)} sites")
    index = {s: k for k, s in enumerate(sites)}
    vec = [0] * _slot(0, len(sites))
    for (i, j), p in mono:
        vec[_slot(index[i], index[j])] = p
    return tuple(vec)


def _pair(slot: int) -> Pair:
    """The pair (a, b) held by a slot: the inverse of :func:`_slot`."""
    b = (1 + math.isqrt(8 * slot + 1)) // 2
    return slot - b * (b - 1) // 2, b


# the pair of every slot of a vector on at most RELABEL_SITES sites
_PAIRS = tuple(_pair(slot) for slot in range(_slot(0, RELABEL_SITES)))


def _weight(p: int) -> int:
    """One exponent's share of a site key: p, then -p^2, then -p^3, in 32-bit fields."""
    return (p << 64) - (p * p << 32) - p * p * p


# the weights of the small exponents that fill almost every state
_WEIGHTS = tuple(map(_weight, range(64)))


def _site_order(vec: Vec) -> tuple[list[int], tuple[int, ...] | None]:
    """Per-site degrees of a non-empty exponent vector and, on at most
    :data:`RELABEL_SITES` sites, its sites sorted by their keys (else None).

    A site's key is its degree, then the sums of the squares and of the
    cubes of its exponents, the larger sums first.  Keys do not change when
    the sites are relabelled, so relabelling by the sorted order maps most
    isomorphic monomials to one vector, and the relabelled vector's order is
    the identity.  Exponents too large for the key's 32-bit fields change
    only which order is taken, never a moment.
    """
    degs = [0] * _pair(len(vec))[1]  # K sites fill _slot(0, K) slots
    keys = degs.copy() if len(vec) <= len(_PAIRS) else None
    for slot in compress(range(len(vec)), vec):
        p = vec[slot]
        a, b = _PAIRS[slot] if keys else _pair(slot)
        degs[a] += p
        degs[b] += p
        if keys:
            key = _WEIGHTS[p] if p < len(_WEIGHTS) else _weight(p)
            keys[a] += key
            keys[b] += key
    return degs, keys and tuple(sorted(range(len(keys)), key=keys.__getitem__))


@lru_cache(maxsize=4096)
def _relabelling(order: tuple[int, ...]) -> itemgetter:
    """Picks the vector relabelled by ``order`` out of a vector on its sites.

    Site ``order[a]`` becomes a, so the new slot of (a, b) takes the old slot
    of (order[a], order[b]).  The two sites of a one-slot vector share a key,
    so an order to apply has at least three sites and the getter returns a
    tuple.
    """
    return itemgetter(*(
        _slot(*sorted((order[a], order[b]))) for b in range(len(order)) for a in range(b)
    ))


@lru_cache(maxsize=1024)
def _incidence(sites: int, k: int) -> tuple[tuple[int, int], ...]:
    """The (slot, partner) of every pair at site k, partners ascending."""
    return tuple((_slot(min(k, j), max(k, j)), j) for j in range(sites) if j != k)


@lru_cache(maxsize=1024)
def _compaction(sites: int, kept_mask: int) -> bytes:
    """The selector of the slots of the pairs of the sites in ``kept_mask``."""
    row = bytes(kept_mask >> s & 1 for s in range(sites))
    # slots b(b-1)/2 .. b(b-1)/2 + b - 1 hold the pairs (a, b), a < b
    return b"".join(row[:b] if row[b] else bytes(b) for b in range(sites))


@lru_cache(maxsize=MEMO_SIZE)
def _partner_pairing_sum(labels: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int, int], ...]:
    """Sum over perfect matchings of partner sites, aggregated by resulting monomial.

    ``labels`` is the sorted multiset of partner sites of the eliminated
    site.  A pair of equal labels contributes 1 (unit spins), a pair of
    distinct labels contributes u_{ab}.  Each resulting monomial comes as
    ``(slots, mask, mult)``: the slot of each factor u_ab (repeated by its
    exponent), the bitmask of the sites those factors touch, and the number
    of matchings that give it.  The first label is matched with each partner
    in turn, and identical partners are grouped, so the work is polynomial
    in the multiset shape rather than (L-1)!!.
    """
    if not labels:
        return (((), 0, 1),)
    first = labels[0]
    rest = labels[1:]
    out: dict[tuple[int, ...], list[int]] = {}
    index = 0
    while index < len(rest):
        partner = rest[index]
        count = 1
        while index + count < len(rest) and rest[index + count] == partner:
            count += 1
        if partner == first:
            extra, bits = (), 0
        else:
            extra, bits = (_slot(first, partner),), (1 << first) | (1 << partner)
        for slots, mask, mult in _partner_pairing_sum(rest[:index] + rest[index + 1:]):
            entry = out.setdefault(tuple(sorted(slots + extra)), [mask | bits, 0])
            entry[1] += count * mult
        index += count
    return tuple((slots, mask, mult) for slots, (mask, mult) in out.items())


def _eliminate(vec: Vec, degs: list[int], k: int) -> list[tuple[Vec, int]]:
    """Integrate site k out of an exponent vector, up to the radial moment.

    ``degs`` are the vector's site degrees, and site k's is even and
    positive.  Returns ``(child, mult)`` terms: the partial integral is
    sum(mult * child) / radial_moment(n, degs[k]), each child being the
    exponent vector over every site but k whose degree stays positive, in
    their old order.
    """
    base = list(vec)
    labels: list[int] = []
    kept_mask = ((1 << len(degs)) - 1) ^ (1 << k)
    for slot, partner in _incidence(len(degs), k):
        p = base[slot]
        if p:
            base[slot] = 0
            labels.extend([partner] * p)
            if degs[partner] == p:
                kept_mask &= ~(1 << partner)
    out = []
    for slots, mask, mult in _partner_pairing_sum(tuple(labels)):
        child = base.copy()
        for slot in slots:
            child[slot] += 1
        out.append((tuple(compress(child, _compaction(len(degs), kept_mask | mask))), mult))
    return out


@lru_cache(maxsize=MEMO_SIZE)
def _mono_moment(vec: Vec, n: int) -> tuple[int, int]:
    """(N, R) with R = prod radial_moment(n, d_i) and N = R * sphere moment.

    ``vec`` is the exponent vector of a monomial on all of its sites; it
    arrives with every site degree even and already depth-checked (see
    :func:`sphere_moment`).  N is the monomial's identity-covariance Gaussian
    moment, an integer, so the elimination below runs in integers.  A child
    m' of m lowers every site degree by an even amount, so R_rest // R(m') is
    exact, R_rest being R without the eliminated site's factor.

    The moment does not change when the sites are relabelled.  A vector on at
    most :data:`RELABEL_SITES` sites is answered by the vector relabelled in
    its :func:`_site_order`, so isomorphic states mostly share one
    elimination.  That vector is its own relabelling, so this costs at most
    one extra frame per state.
    """
    if not vec:
        return 1, 1
    degs, order = _site_order(vec)
    if order and order != tuple(range(len(order))):
        return _mono_moment(_relabelling(order)(vec), n)
    radial = 1
    for d in degs:
        radial *= radial_moment(n, d)
    # eliminating the lowest-degree site first keeps the pairing sums small
    site = degs.index(min(degs))
    rest_radial = radial // radial_moment(n, degs[site])
    total = 0
    for child, mult in _eliminate(vec, degs, site):
        sub, sub_radial = _mono_moment(child, n)
        total += mult * (rest_radial // sub_radial) * sub
    return total, radial


def sphere_moment(p: DotPolynomial) -> Fraction:
    """Exact expectation of p under the product of normalized sphere measures.

    The terms c * N / R are summed in integers over one running denominator,
    so one ``Fraction`` is built per polynomial.  A monomial with a site of
    odd degree is 0 and never reaches the memo.
    """
    if p.mode != SPHERE:
        raise InputError("sphere_moment acts on sphere-mode polynomials")
    num, den = 0, 1
    for mono, coeff in p.terms.items():
        vec = _vector(mono)
        degs = site_degrees(mono).values()
        if any(d % 2 for d in degs):
            continue
        # one frame per site still to eliminate, one more per relabelled state,
        # plus the deepest pairing sum
        top = max(degs, default=0)
        frames = len(degs) + min(len(degs), RELABEL_SITES) + top // 2
        wick.require_depth(frames, f"eliminating {len(degs)} sites of degree up to {top}")
        scaled, radial = _mono_moment(vec, p.dims.n)
        if scaled:
            term_den = coeff.denominator * radial
            common = math.lcm(den, term_den)
            num = num * (common // den) + coeff.numerator * scaled * (common // term_den)
            den = common
    return Fraction(num, den)


def sphere_moment_oracle(mono: Mono, dims: ModelDims) -> Fraction:
    """One-shot Isserlis evaluation of a monomial's sphere moment.

    The integrand is homogeneous of degree d_i in each spin, so the sphere
    integral equals the identity-covariance Gaussian integral divided by the
    product of the per-site radial moments.  Independent of the elimination
    path by construction.
    """
    degs = site_degrees(mono)
    if any(d % 2 for d in degs.values()):
        return Fraction(0)
    if not mono:
        return Fraction(1)
    index = {s: k for k, s in enumerate(sorted(degs))}
    identity = [[int(i == j) for j in range(len(index))] for i in range(len(index))]
    factors = []
    for (i, j), p in mono:
        factors.extend([(index[i], index[j])] * p)
    gauss = wick.vector_moment(factors, identity, dims.n)
    norm = 1
    for d in degs.values():
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
    weight = Coupling.of(p.dims, coupling).exponent()
    if order > MAX_ORDER:
        raise ResourceLimitError(f"truncation order {order} is above the cap of {MAX_ORDER}")

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
