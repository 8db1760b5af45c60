"""Exact linear algebra for small symmetric matrices, with one elimination.

:func:`scaled` gives the integer matrix D M (D the lcm of M's denominators)
that :mod:`wick` walks and Bareiss' (1968) elimination reduces in two halves:
the forward one (:func:`echelon`) gives the positive-definiteness verdict and
the L D L^T (float Cholesky) factors, the back one (:func:`adjugate`) inverts.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .algebra import _is_int, frac
from .errors import InputError

Matrix = tuple[tuple[Fraction, ...], ...]
IntMatrix = tuple[tuple[int, ...], ...]


def freeze(rows: Sequence[Sequence[object]]) -> Matrix:
    """Copy into an immutable Fraction matrix, checking entries and squareness."""
    try:
        out = tuple(tuple(frac(x) for x in row) for row in rows)
    except TypeError as exc:  # rows, or a row, that is not a list
        raise InputError("matrix must be a list of rows of rational entries") from exc
    if any(len(row) != len(out) for row in out):
        raise InputError("matrix must be square")
    return out


def is_symmetric(m: Sequence[Sequence[object]]) -> bool:
    return all(m[i][j] == m[j][i] for i in range(len(m)) for j in range(i))


def scaled(m: Sequence[Sequence[object]]) -> tuple[IntMatrix, int]:
    """Integer matrix D * m and D, the lcm of its denominators; m square, symmetric."""
    rows = [[x if _is_int(x) or isinstance(x, Fraction) else frac(x) for x in row] for row in m]
    if any(len(row) != len(rows) for row in rows):
        raise InputError("matrix must be square")
    if not is_symmetric(rows):
        raise InputError("matrix is not symmetric")
    denom = math.lcm(*(x.denominator for row in rows for x in row))
    return tuple(tuple(x.numerator * (denom // x.denominator) for x in row) for row in rows), denom


def echelon(a: Sequence[Sequence[int]]) -> list[list[int]]:
    """Forward half of Bareiss' fraction-free elimination of [A | B], A square,
    symmetric and integer, B more columns (I for :func:`adjugate`): pivot k, the
    diagonal of row k, clears the rows below it, dividing exactly by pivot k - 1.
    Pivot k is the leading principal minor of order k + 1; one <= 0 (InputError)
    means A is not positive definite (Sylvester).  By symmetry pivot k cleared
    row k's upper triangle: A = L D L^T, L_ik = row_k[i] / p_k, D_k = p_k / p_{k-1}."""
    rows = [list(row) for row in a]
    previous = 1
    for k, pivot_row in enumerate(rows):
        if (pivot := pivot_row[k]) <= 0:
            raise InputError("matrix is not positive definite")
        for i, row in enumerate(rows[k + 1:], k + 1):
            rows[i] = [(pivot * x - row[k] * y) // previous for x, y in zip(row, pivot_row)]
        previous = pivot
    return rows


def adjugate(rows: list[list[int]]) -> list[list[int]]:
    """Back half: replay each echelon row k of [A | I] on the rows above it,
    dividing exactly by the previous pivot; gives the rows [det(A) I | adj(A)]."""
    out = []
    for i, row in enumerate(rows):
        for k in range(i + 1, len(rows)):
            pivot, previous, factor = rows[k][k], rows[k - 1][k - 1], row[k]
            row = [(pivot * x - factor * y) // previous for x, y in zip(row, rows[k])]
        out.append(row)
    return out


def cholesky_float(m: Sequence[Sequence[object]]) -> list[list[float]]:
    """Float lower Cholesky factor L sqrt(D) of m = L D L^T, from the exact
    factors of :func:`echelon` on D' m (scale D'), one rounding per entry."""
    a, scale = scaled(m)
    rows = echelon(a)
    pivots = [row[k] for k, row in enumerate(rows)]
    roots = [float(Fraction(p, q * scale)) ** 0.5 for p, q in zip(pivots, [1] + pivots)]
    return [[float(Fraction(rows[j][i], pivots[j])) * roots[j] for j in range(i)]
            + [roots[i]] + [0.0] * (len(a) - i - 1) for i in range(len(a))]
