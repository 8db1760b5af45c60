"""Spherical Laplacian, Dirichlet form and heat flow on the dot-product algebra.

The second-order contraction rules are the flat ones for R^n-valued spins,
with v_ab = x_a . x_b: Delta v_aa = 2n, Delta v_ab = 0 (a != b) and
grad_i v_ab = [i=a] x_b + [i=b] x_a, extended by the Leibniz rule.  The
Gaussian OU generator uses them as they stand; the sphere Laplacian
restricts them to |x_i| = 1.  A monomial m of degree d_i in site i is
homogeneous, so (Dai & Xu, Approximation Theory and Harmonic Analysis on
Spheres and Balls, ch. 1), summing over the sites that m touches,

    lap m = (Delta m)|_{v_ii=1} - sum_i d_i (d_i + n - 2) m.

The gradient pairing follows from the Laplacian alone, by the carre du
champ identity (Bakry, Gentil & Ledoux, Analysis and Geometry of Markov
Diffusion Operators, 2014, sec. 1.4)

    grad f . grad h = (lap(f h) - f lap h - h lap f) / 2.

The Laplacian neither raises a per-site degree nor changes its parity, so
every monomial generates a finite Laplacian-invariant subspace; the heat
semigroup is the matrix exponential on that subspace.

This module also holds the one invariant-subspace engine that the sphere
heat semigroup and the Gaussian Ornstein-Uhlenbeck semigroup share:
:func:`close_basis` closes a seed set under any monomial generator and keeps
each basis monomial's image as an exact sparse column, and
:class:`InvariantSubspace` turns those columns into a float generator and
applies its exponential (:func:`numerics.expm`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Sequence

from .algebra import (
    SPHERE,
    DotPolynomial,
    FloatPolynomial,
    Generator,
    ModelDims,
    Mono,
    Pair,
    Weight,
    _add,
    apply_generator,
    mono_div,
    mono_mul,
    site_degrees,
)
from .errors import InputError, ResourceLimitError
from .moments import sphere_moment
from .numerics import expm

if TYPE_CHECKING:
    import numpy as np

DENSE_BYTES_BUDGET = 1 << 28
"""Bytes (256 MiB) that a dense float generator and its matrix-exponential
workspace may take, and so may the spin arrays of one Monte Carlo shard.
:func:`close_basis` derives its basis limit from it: 1,831 monomials."""


def _pair(i: int, j: int) -> Pair:
    return (i, j) if i <= j else (j, i)


def _grad_contract(p: Pair, q: Pair) -> dict[Pair, int]:
    """sum_i grad_i v_p . grad_i v_q as integer combinations of pair variables.

    grad_i (x_a . x_b) = [i == a] x_b + [i == b] x_a, which makes a diagonal
    v_aa contribute its factor of 2 automatically when (a, a) repeats in the
    enumeration below.
    """
    a, b = p
    c, d = q
    out: dict[Pair, int] = {}
    for left, right in ((a, b), (b, a)):
        for cleft, cright in ((c, d), (d, c)):
            if left == cleft:
                key = _pair(right, cright)
                out[key] = out.get(key, 0) + 1
    return out


def _flat_laplacian_mono(mono: Mono, dims: ModelDims) -> dict[Mono, int]:
    """Flat Laplacian over all sites; lowers total degree by exactly 2.

    Delta v_ii = 2n and Delta v_ij = 0 for i != j; the second-order Leibniz
    terms go through :func:`_grad_contract`.  Every weight is an integer.
    """
    n = dims.n
    out: dict[Mono, int] = {}
    pairs = list(mono)
    for (a, b), e in pairs:
        if a == b:
            _add(out, mono_div(mono, (a, b)), 2 * n * e)
    for idx1, (p, e1) in enumerate(pairs):
        if e1 >= 2:
            base = mono_div(mono, p, 2)
            for bridge_pair, w in _grad_contract(p, p).items():
                _add(out, mono_mul(base, ((bridge_pair, 1),)), e1 * (e1 - 1) * w)
        for q, e2 in pairs[idx1 + 1:]:
            contract = _grad_contract(p, q)
            if contract:
                base = mono_div(mono_div(mono, p), q)
                for bridge_pair, w in contract.items():
                    _add(out, mono_mul(base, ((bridge_pair, 1),)), 2 * e1 * e2 * w)
    return out


def _on_sphere(mono: Mono) -> Mono:
    """Restrict to unit spins: every diagonal pair v_ii = |sigma_i|^2 becomes 1."""
    return tuple(item for item in mono if item[0][0] != item[0][1])


def _laplacian_mono(mono: Mono, dims: ModelDims) -> dict[Mono, int]:
    """(Flat Laplacian)|_{v_ii = 1} - sum_i d_i (d_i + n - 2) on a degree-(d_i) monomial."""
    out: dict[Mono, int] = {}
    for flat_mono, weight in _flat_laplacian_mono(mono, dims).items():
        _add(out, _on_sphere(flat_mono), weight)
    _add(out, mono, -sum(d * (d + dims.n - 2) for d in site_degrees(mono).values()))
    return out


def laplacian(p: DotPolynomial) -> DotPolynomial:
    """Sum over sites of the spherical Laplacians, exactly."""
    if p.mode != SPHERE:
        raise InputError("laplacian acts on sphere-mode polynomials")
    return apply_generator(p, _laplacian_mono)


def grad_dot(f: DotPolynomial, h: DotPolynomial) -> DotPolynomial:
    """Exact grad f . grad h summed over all sites, from the carre du champ identity."""
    return (laplacian(f * h) - f * laplacian(h) - h * laplacian(f)) * Fraction(1, 2)


def dirichlet(f: DotPolynomial, h: DotPolynomial) -> Fraction:
    """E[grad f . grad h]; equals -E[f lap h] by integration by parts."""
    return sphere_moment(grad_dot(f, h))


def check_time(t: float, what: str) -> None:
    """Semigroups run forward in time: t must be finite and >= 0."""
    if not (math.isfinite(t) and t >= 0):
        raise InputError(f"{what} needs a finite time >= 0, got {t}")


@dataclass(frozen=True)
class InvariantSubspace:
    """A generator restricted to a finite monomial basis that it maps into itself.

    columns[j] is the exact image {mono: Weight} of basis[j]; every
    monomial it names is in the basis.  Floats enter only in as_float.
    """

    dims: ModelDims
    mode: str
    basis: tuple[Mono, ...]
    columns: tuple[dict[Mono, Weight], ...]

    @cached_property
    def _positions(self) -> dict[Mono, int]:
        return {mono: k for k, mono in enumerate(self.basis)}

    def index(self, mono: Mono) -> int:
        return self._positions[mono]

    def as_float(self) -> np.ndarray:
        """The generator as a dense float matrix, entry [i, j] = <basis_i | G basis_j>."""
        import numpy as np

        size = len(self.basis)
        out = np.zeros((size, size))
        for j, image in enumerate(self.columns):
            for mono, coeff in image.items():
                out[self._positions[mono], j] = float(coeff)
        return out

    def vector(self, p: DotPolynomial) -> np.ndarray:
        """The float coefficients of p in this basis."""
        import numpy as np

        vec = np.zeros(len(self.basis))
        for mono, coeff in p.terms.items():
            vec[self.index(mono)] = float(coeff)
        return vec

    def polynomial(self, vec: np.ndarray) -> FloatPolynomial:
        """The polynomial with float coefficients vec in this basis; zeros are dropped."""
        terms = {mono: float(v) for mono, v in zip(self.basis, vec) if v != 0.0}
        return FloatPolynomial(self.dims, self.mode, terms)

    def evolve(self, p: DotPolynomial, t: float) -> FloatPolynomial:
        """exp(t G) p; the coefficients go float here."""
        check_time(t, "semigroup evolution")
        return self.polynomial(expm(self.as_float(), t) @ self.vector(p))


def close_basis(
    seeds: Iterable[Mono],
    dims: ModelDims,
    mode: str,
    generator: Generator,
) -> InvariantSubspace:
    """Smallest generator-closed monomial set containing the seeds, with exact columns.

    Monomials are numbered in discovery order (seeds sorted first, each
    image's new monomials sorted), so the basis is deterministic.  The basis
    may grow only as far as its dense float generator fits DENSE_BYTES_BUDGET
    with expm's workspace: ResourceLimitError as soon as it grows past that.
    """
    # peak of expm(as_float(), t), measured with tracemalloc: ten size x
    # size float arrays (the matrix, its scaled copy, scipy's Pade workspace)
    limit = math.isqrt(DENSE_BYTES_BUDGET // 80)
    order = sorted(set(seeds))
    known = set(order)
    columns = []
    for mono in order:  # order grows while it is walked: a breadth-first closure
        if len(order) > limit:  # the seed set, then each growth step
            raise ResourceLimitError(
                f"a dense generator on at least {len(order)} monomials, with its expm "
                f"workspace, is above the budget of {DENSE_BYTES_BUDGET >> 20} MiB "
                f"({limit} monomials)"
            )
        image = generator(mono, dims)
        columns.append(image)
        fresh = sorted(m for m in image if m not in known)
        known.update(fresh)
        order.extend(fresh)
    return InvariantSubspace(dims, mode, tuple(order), tuple(columns))


def build_invariant_basis(p: DotPolynomial) -> InvariantSubspace:
    """The Laplacian on the smallest Laplacian-closed monomial set containing p's terms."""
    if p.mode != SPHERE:
        raise InputError("invariant bases are built in sphere mode")
    return close_basis(p.terms.keys(), p.dims, SPHERE, _laplacian_mono)


def heat_evolve(f: DotPolynomial, t: float) -> FloatPolynomial:
    """exp(t lap) f on the invariant basis of f; coefficients go float here."""
    return build_invariant_basis(f).evolve(f, t)


@dataclass(frozen=True)
class CorrelationFlow:
    """Samples of h(t) = E[f exp(t lap) g] along a time grid."""

    times: tuple[float, ...]
    values: tuple[float, ...]
    product_of_means: float  # E[f] E[g], the t -> infinity limit
    monotone: bool
    limit_gap: float
    slack: float

    def rows(self):
        prev = None
        for t, h in zip(self.times, self.values):
            ok = prev is None or h <= prev + self.slack
            yield t, h, ok
            prev = h


def correlation_flow(
    f: DotPolynomial,
    g: DotPolynomial,
    times: Sequence[float],
) -> CorrelationFlow:
    """The monotone interpolation from E[fg] down to E[f]E[g].

    Moments of the evolved basis monomials are exact rationals; only the
    evolved coefficients are floating point.
    """
    if f.dims != g.dims or f.mode != g.mode:
        raise InputError("correlation_flow needs matching dims and mode")
    ts = [float(t) for t in times]
    if not ts:
        raise InputError("the t grid is empty")
    for t in ts:
        check_time(t, "a correlation flow")
    if any(b < a for a, b in zip(ts, ts[1:])):
        raise InputError("the t grid must be ascending")
    sg = build_invariant_basis(g)
    mat, vec = sg.as_float(), sg.vector(g)
    import numpy as np

    moments = np.array(
        [float(sphere_moment(DotPolynomial(f.dims, SPHERE, {mono: 1}) * f)) for mono in sg.basis]
    )
    values = [float(moments @ (expm(mat, t) @ vec)) for t in ts]
    limit = float(sphere_moment(f) * sphere_moment(g))
    slack = 1e-12 * max(1.0, abs(values[0]))
    monotone = all(b <= a + slack for a, b in zip(values, values[1:]))
    gap = abs(values[-1] - limit)
    return CorrelationFlow(tuple(ts), tuple(values), limit, monotone, gap, slack)
