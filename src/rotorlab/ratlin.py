"""Exact linear algebra for small symmetric matrices, with one elimination.

:func:`scaled` gives the integer matrix D M (D the lcm of M's denominators)
that :mod:`wick` walks and :func:`bareiss` eliminates.  Bareiss' pivots give
the positive-definiteness verdict, the entries they clear the L D L^T
(float Cholesky) factors, and its final rows the exact inverse.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .algebra import frac
from .errors import InputError

Matrix = tuple[tuple[Fraction, ...], ...]
IntMatrix = tuple[tuple[int, ...], ...]


def freeze(rows: Sequence[Sequence[object]]) -> Matrix:
    """Copy into an immutable Fraction matrix, checking entries and squareness."""
    try:
        out = tuple(tuple(frac(x) for x in row) for row in rows)
    except TypeError as exc:  # rows, or a row, that is not a list
        raise InputError("matrix must be a list of rows of rational entries") from exc
    size = len(out)
    if any(len(row) != size for row in out):
        raise InputError("matrix must be square")
    return out


def is_symmetric(m: Sequence[Sequence[object]]) -> bool:
    return all(m[i][j] == m[j][i] for i in range(len(m)) for j in range(i))


def scaled(m: Sequence[Sequence[object]]) -> tuple[IntMatrix, int]:
    """Integer matrix D * m and D, the lcm of its denominators; m square, symmetric."""
    rows = [[x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row] for row in m]
    if any(len(row) != len(rows) for row in rows):
        raise InputError("matrix must be square")
    if not is_symmetric(rows):
        raise InputError("matrix is not symmetric")
    denom = math.lcm(*(x.denominator for row in rows for x in row))
    return tuple(tuple(x.numerator * (denom // x.denominator) for x in row) for row in rows), denom


def bareiss(a: IntMatrix) -> tuple[list[int], list[list[int]], list[list[int]]]:
    """Fraction-free Gauss-Jordan elimination of [A | I], A square and integer.

    Every division is exact.  Pivot k is the leading principal minor of order
    k + 1, all positive for symmetric A exactly when A is positive definite
    (Sylvester); a pivot <= 0 raises InputError.  Returns the pivots p, the
    entries c_ik (i > k) that each pivot k cleared, so A = L D L^T with
    L_ik = c_ik / p_k and D_k = p_k / p_{k-1}, and the rows [det(A) I | adj(A)].
    """
    size = len(a)
    rows = [list(row) + [int(i == j) for j in range(size)] for i, row in enumerate(a)]
    pivots, cleared, previous = [], [], 1
    for k, pivot_row in enumerate(rows):
        pivot = pivot_row[k]
        if pivot <= 0:
            raise InputError("matrix is not positive definite")
        cleared.append([row[k] for row in rows[k + 1:]])
        for i, row in enumerate(rows):
            if i != k:
                factor = row[k]
                rows[i] = [(pivot * x - factor * y) // previous for x, y in zip(row, pivot_row)]
        pivots.append(previous := pivot)
    return pivots, cleared, rows


def cholesky_float(m: Sequence[Sequence[object]]) -> list[list[float]]:
    """Float lower Cholesky factor L sqrt(D) of m = L D L^T, from the exact
    factors of :func:`bareiss` on D' m (scale D'), one rounding per entry."""
    a, scale = scaled(m)
    pivots, cleared, _ = bareiss(a)
    roots = [float(Fraction(p, q * scale)) ** 0.5 for p, q in zip(pivots, [1] + pivots)]
    return [[float(Fraction(cleared[j][i - j - 1], pivots[j])) * roots[j] for j in range(i)]
            + [roots[i]] + [0.0] * (len(a) - i - 1) for i in range(len(a))]
