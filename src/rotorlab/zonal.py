"""Zonal polynomials of the sphere S^{n-1}, normalized to 1 at s = 1.

These are the Gegenbauer (ultraspherical) polynomials rescaled so that
G_l(n, 1) = 1; for n = 2 they reduce to Chebyshev T_l, for n = 3 to the
Legendre polynomials.  They are kept in exact coefficient form; the
three-term recurrence

    G_0 = 1,  G_1 = s,
    G_{l+1} = ((2l + n - 2) s G_l - l G_{l-1}) / (l + n - 2)

keeps the value at s = 1 pinned to 1 identically.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest

from .errors import InputError


def gegenbauer_coefficients(n: int, l: int) -> tuple[Fraction, ...]:
    """Exact coefficients of G_l(n, s) in s; index k is the s^k coefficient."""
    if n < 2 or l < 0:
        raise InputError(f"gegenbauer needs n >= 2 and l >= 0, got n={n}, l={l}")
    prev, cur = (Fraction(1),), (Fraction(0), Fraction(1))  # G_0, G_1
    if l == 0:
        return prev
    for k in range(1, l):
        # G_{k+1} from s * G_k (cur shifted up one degree) and G_{k-1}
        prev, cur = cur, tuple(((2 * k + n - 2) * a - k * b) / (k + n - 2)
                               for a, b in zip_longest((Fraction(0), *cur), prev, fillvalue=0))
    return cur


def laplace_eigenvalue(n: int, l: int) -> int:
    """-eigenvalue of the spherical Laplacian on degree-l harmonics: l(l+n-2).

    A standard fact, but not taken on faith here: the heat module's exact
    Gegenbauer eigen-check re-derives it inside the test suite before the
    Chernoff comparisons rely on it.
    """
    return l * (l + n - 2)
