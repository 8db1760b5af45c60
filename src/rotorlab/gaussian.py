"""Ferromagnetic Gaussian spins: exact moments, positivity, Trotter splitting.

The model couples N spins in R^n through a symmetric positive-definite
matrix F with non-positive off-diagonal entries (an M-matrix).  That sign
structure is what makes the model ferromagnetic: both exp(-tF) and F^{-1}
are then entrywise non-negative, so the flow x -> exp(-tF) x maps the cone
of non-negative dot-product combinations into itself and all Isserlis
moments come out non-negative.

Expectations never touch the partition function: they are Isserlis sums
with covariance F^{-1} per vector component, so everything stays rational.

The generator decomposes as A = (flat Laplacian) - (drift grad Q . grad)
with Q = sum F_ij x_i.x_j / 2; one monomial map applies it.  The flat
Laplacian is the one whose contraction rules the sphere operators are
restricted from (:mod:`heat`).  On the dot-product algebra it lowers total
degree by 2 (so its exponential is a finite series) and the drift
preserves degree, which keeps every monomial inside a finite A-invariant
subspace.  That subspace is built by the same engine as the sphere heat
semigroup (:func:`heat.close_basis`, exact sparse columns, one float
exponential).  The Trotter comparison runs on it too: split by total
degree, the generator's matrix is Delta (the entries that lower it) plus
-drift (the entries that keep it), so the subspace is closed under each
factor and a Trotter step is two matrix-vector products.

A :class:`FerroMatrix` is validated once, when it is built, by the pivots of
the forward half of a fraction-free (Bareiss) elimination of D F
(:mod:`ratlin`); :func:`covariance` runs both halves on [D F | I].
:func:`gaussian_moment` scales the covariance once per polynomial
(:func:`ratlin.scaled`) and sums each monomial's integer Isserlis total
(:func:`wick.isserlis_total`, on one chain memo that lives for the call)
over one running denominator, so one ``Fraction`` is built per polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import TYPE_CHECKING, Sequence

from . import ratlin
from .algebra import (
    GAUSSIAN,
    DotPolynomial,
    FloatPolynomial,
    ModelDims,
    Mono,
    Weight,
    _add,
    _is_int,
    apply_generator,
    mono_div,
    mono_mul,
)
from .errors import InputError, ResourceLimitError, ViolationError
from .griffiths import GriffithsReport, second_report
from .heat import InvariantSubspace, _flat_laplacian_mono, _pair, check_time, close_basis
from .numerics import expm
from .wick import Memo, isserlis_total, require_factors

if TYPE_CHECKING:
    import numpy as np

MAX_TROTTER_STEPS = 1 << 12
"""Bound on the Trotter steps of one :func:`trotter_compare` call, summed over
its powers; each step is two matrix-vector products on the OU invariant
subspace.  Acceptance criterion 11 takes 508 steps."""


@dataclass(frozen=True)
class FerroMatrix:
    """Symmetric positive-definite coupling matrix with offdiag <= 0.

    Validated once, here: an invalid coupling matrix cannot be built.  The
    pivots of :func:`ratlin.echelon` (leading minors) prove it positive definite.
    """

    entries: ratlin.Matrix

    def __post_init__(self) -> None:
        m = self.entries
        if any(len(row) != len(m) for row in m):  # FerroMatrix(...) may bypass freeze
            raise InputError("matrix must be square")
        failures = [] if ratlin.is_symmetric(m) else ["matrix is not symmetric"]
        try:
            ratlin.echelon(ratlin.scaled(m)[0])
        except InputError:  # scaled refuses an asymmetric m; or a pivot (minor) <= 0
            failures.append("matrix is not positive definite (some leading minor <= 0)")
        if any(m[i][j] > 0 for i in range(len(m)) for j in range(len(m)) if i != j):
            failures.append("some off-diagonal entry is positive (not ferromagnetic)")
        if failures:
            raise InputError("invalid coupling matrix: " + "; ".join(failures))

    @property
    def size(self) -> int:
        return len(self.entries)

    def as_float(self) -> np.ndarray:
        import numpy as np

        return np.array([[float(x) for x in row] for row in self.entries])

    def to_dict(self) -> dict:
        return {
            "N": self.size,
            "entries": [[str(x) for x in row] for row in self.entries],
        }


def ferro_from_rows(rows: Sequence[Sequence[object]]) -> FerroMatrix:
    return FerroMatrix(ratlin.freeze(rows))


def ferro_from_dict(data: object) -> FerroMatrix:
    if not isinstance(data, dict) or "entries" not in data:
        raise InputError("matrix JSON must be an object with an 'entries' key")
    entries = ratlin.freeze(data["entries"])
    if "N" in data and not (_is_int(data["N"]) and data["N"] == len(entries)):
        raise InputError(f"matrix says N={data['N']} but has {len(entries)} rows")
    return FerroMatrix(entries)


def covariance(f: FerroMatrix) -> ratlin.Matrix:
    """Exact F^{-1} = D adj(A) / det(A), from the rows [det(A) I | adj(A)] of
    A = D F (:mod:`ratlin`); entrywise non-negative for every valid F."""
    size = f.size
    scaled, scale = ratlin.scaled(f.entries)
    rows = ratlin.adjugate(ratlin.echelon([row + tuple(int(i == j) for j in range(size))
                                           for i, row in enumerate(scaled)]))
    negative = [(i, j) for i in range(size) for j in range(size) if rows[i][size + j] < 0]
    if negative:
        # would contradict the M-matrix inverse-positivity fact
        raise ViolationError(f"covariance has negative entries at {negative}")
    return tuple(tuple(Fraction(scale * x, row[i]) for x in row[size:]) for i, row in enumerate(rows))


def gaussian_moment(p: DotPolynomial, cov: ratlin.Matrix) -> Fraction:
    """Exact E[p] under the centred Gaussian with covariance cov (x) I_n."""
    if p.mode != GAUSSIAN:
        raise InputError("gaussian_moment acts on gaussian-mode polynomials")
    if len(cov) != p.dims.sites:
        raise InputError(f"covariance is {len(cov)}x{len(cov)} but N={p.dims.sites}")
    scaled, denom = ratlin.scaled(cov)
    memo: Memo = {}  # chain states, shared by the monomials of this call
    num, den = 0, 1
    for mono, coeff in p.terms.items():
        k = sum(power for _, power in mono)
        require_factors(k)  # before the factor list is built
        # a monomial lists its pairs sorted
        pairs = (((i - 1, j - 1), power) for (i, j), power in mono)
        total = isserlis_total(pairs, scaled, p.dims.n, memo)
        if total:
            term_den = coeff.denominator * denom ** k
            common = math.lcm(den, term_den)
            num = num * (common // den) + coeff.numerator * total * (common // term_den)
            den = common
    return Fraction(num, den)


def check_gaussian_griffiths(
    f: DotPolynomial,
    g: DotPolynomial,
    coupling: FerroMatrix,
) -> GriffithsReport:
    """Both Griffiths inequalities under the ferromagnetic Gaussian measure."""
    if f.mode != GAUSSIAN:
        raise InputError("check_gaussian_griffiths expects gaussian-mode input")
    cov = covariance(coupling)
    return second_report(f, g, lambda p: gaussian_moment(p, cov))


def matrix_semigroup(f: FerroMatrix, t: float) -> np.ndarray:
    """exp(-tF) in floats; entrywise non-negative up to roundoff."""
    check_time(t, "the matrix semigroup")
    return expm(f.as_float(), -t)


# -- generator pieces ---------------------------------------------------------

def gaussian_laplacian(p: DotPolynomial) -> DotPolynomial:
    """Flat Laplacian sum over sites on the gaussian dot-product algebra."""
    if p.mode != GAUSSIAN:
        raise InputError("gaussian_laplacian acts on gaussian-mode polynomials")
    return apply_generator(p, _flat_laplacian_mono)


def _drift_mono(mono: Mono, f: FerroMatrix) -> dict[Mono, Fraction]:
    """(grad Q . grad) on a monomial; first order, so plain Leibniz.

    On a single pair: (grad Q . grad) v_kl = sum_j F_kj v_jl + sum_j F_lj v_jk.
    """
    entries = f.entries
    out: dict[Mono, Fraction] = {}
    for (k, l), p in mono:
        stripped = mono_div(mono, (k, l))
        for (anchor, other) in ((k, l), (l, k)):
            for j in range(1, f.size + 1):
                coeff = entries[anchor - 1][j - 1]
                if coeff:
                    bridge: Mono = ((_pair(j, other), 1),)
                    _add(out, mono_mul(stripped, bridge), p * coeff)
    return out


def _ou_mono(mono: Mono, dims: ModelDims, f: FerroMatrix) -> dict[Mono, Weight]:
    """A = Delta - grad Q . grad on one monomial."""
    image = _flat_laplacian_mono(mono, dims)
    for out_mono, weight in _drift_mono(mono, f).items():
        _add(image, out_mono, -weight)
    return image


def _require_operand(p: DotPolynomial, f: FerroMatrix, what: str) -> None:
    if p.mode != GAUSSIAN:
        raise InputError(f"{what} acts on gaussian-mode polynomials")
    if f.size != p.dims.sites:
        raise InputError(f"coupling is {f.size}x{f.size} but N={p.dims.sites}")


def ou_generator(p: DotPolynomial, f: FerroMatrix) -> DotPolynomial:
    """A = Delta - grad Q . grad, the Ornstein-Uhlenbeck generator."""
    _require_operand(p, f, "ou_generator")
    return apply_generator(p, partial(_ou_mono, f=f))


# -- semigroup factors --------------------------------------------------------

def heat_apply(p: DotPolynomial, s: float) -> FloatPolynomial:
    """exp(s Delta) p on the Laplacian-closed basis of p's terms (finite: Delta
    lowers total degree by 2)."""
    return close_basis(p.terms.keys(), p.dims, GAUSSIAN, _flat_laplacian_mono).evolve(p, s)


# -- Trotter comparison -------------------------------------------------------

def ou_invariant_basis(p: DotPolynomial, f: FerroMatrix) -> InvariantSubspace:
    """The OU generator A on the smallest A-closed monomial set containing p's terms."""
    _require_operand(p, f, "the OU invariant basis")
    return close_basis(p.terms.keys(), p.dims, GAUSSIAN, partial(_ou_mono, f=f))


@dataclass(frozen=True)
class TrotterPoint:
    m: int
    max_error: float
    min_intermediate_coeff: float


@dataclass(frozen=True)
class TrotterReport:
    points: tuple[TrotterPoint, ...]
    reference: FloatPolynomial
    cone_preserved: bool  # every factor applied to cone input stayed coneish


def trotter_compare(
    p: DotPolynomial,
    f: FerroMatrix,
    t: float,
    ms: Sequence[int],
) -> TrotterReport:
    """(exp(t Delta / m) exp(-t drift / m))^m p against exp(tA) p.

    Reports the coefficientwise max error per m, and tracks the most
    negative coefficient seen after every Trotter factor (cone monitoring
    for cone inputs).
    """
    for m in ms:
        if m < 1:
            raise InputError(f"Trotter power must be >= 1, got {m}")
    if sum(ms) > MAX_TROTTER_STEPS:
        raise ResourceLimitError(
            f"Trotter powers {list(ms)} need {sum(ms)} steps, above the limit of {MAX_TROTTER_STEPS}"
        )
    semi = ou_invariant_basis(p, f)
    check_time(t, "semigroup evolution")
    import numpy as np

    generator = semi.as_float()
    start = semi.vector(p)
    target = expm(generator, t) @ start
    reference = semi.polynomial(target)
    degree = np.array([sum(power for _, power in mono) for mono in semi.basis])
    # Delta lowers total degree by exactly 2 and the drift keeps it
    laplacian = np.where(degree[:, None] < degree[None, :], generator, 0.0)
    neg_drift = generator - laplacian
    track_cone = p.is_cone()
    points = []
    for m in ms:
        step = t / m
        drift_step, heat_step = expm(neg_drift, step), expm(laplacian, step)
        state = start
        worst = 0.0
        for _ in range(m):
            state = drift_step @ state
            worst = min(worst, state.min(initial=0.0))
            state = heat_step @ state
            worst = min(worst, state.min(initial=0.0))
        error = np.abs(state - target).max(initial=0.0)
        points.append(TrotterPoint(m, float(error), float(worst)))
    cone_ok = (not track_cone) or all(pt.min_intermediate_coeff >= -1e-12 for pt in points)
    return TrotterReport(tuple(points), reference, cone_ok)


def random_ferro(size: int, seed: int) -> FerroMatrix:
    """Random valid coupling: offdiag uniform-ish in [-1, 0], diagonal dominant."""
    import random as _random

    rng = _random.Random(seed)
    entries = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            value = -Fraction(rng.randrange(0, 10), 9)
            entries[i][j] = entries[j][i] = value
    for i in range(size):
        entries[i][i] = 1 + sum(abs(entries[i][j]) for j in range(size) if j != i)
    return FerroMatrix(ratlin.freeze(entries))
