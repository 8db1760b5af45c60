"""Exact linear algebra over Fractions for small symmetric matrices."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .algebra import frac
from .errors import InputError

Matrix = tuple[tuple[Fraction, ...], ...]


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


def is_symmetric(m: Matrix) -> bool:
    return all(m[i][j] == m[j][i] for i in range(len(m)) for j in range(i))


def ldlt(m: Matrix) -> tuple[Matrix, tuple[Fraction, ...]]:
    """M = L D L^T with unit lower-triangular L; requires positive pivots.

    Reads only the lower triangle.  The pivots are the ratios of successive
    leading principal minors, so for symmetric M they are all positive
    exactly when M is positive definite (Sylvester's criterion).  This is
    also the exact half of a Cholesky factorization: converting L sqrt(D) to
    floats afterwards costs one rounding per entry.
    """
    size = len(m)
    lower = [[Fraction(0)] * size for _ in range(size)]
    diag = [Fraction(0)] * size
    for j in range(size):
        acc = m[j][j] - sum(lower[j][k] * lower[j][k] * diag[k] for k in range(j))
        if acc <= 0:
            raise InputError("matrix is not positive definite")
        diag[j] = acc
        lower[j][j] = Fraction(1)
        for i in range(j + 1, size):
            lower[i][j] = (
                m[i][j] - sum(lower[i][k] * lower[j][k] * diag[k] for k in range(j))
            ) / diag[j]
    return tuple(tuple(row) for row in lower), tuple(diag)


def cholesky_float(m: Matrix) -> list[list[float]]:
    """Float lower Cholesky factor via the exact LDL^T factorization."""
    lower, diag = ldlt(m)
    roots = [float(d) ** 0.5 for d in diag]
    return [
        [float(lower[i][j]) * roots[j] for j in range(len(m))]
        for i in range(len(m))
    ]
