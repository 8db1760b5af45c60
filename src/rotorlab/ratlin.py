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


def identity(size: int) -> Matrix:
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(size))
        for i in range(size)
    )


def is_symmetric(m: Matrix) -> bool:
    return all(m[i][j] == m[j][i] for i in range(len(m)) for j in range(i))


def determinant(m: Matrix) -> Fraction:
    """Fraction-pivoted Gaussian elimination; exact."""
    size = len(m)
    work = [list(row) for row in m]
    det = Fraction(1)
    for col in range(size):
        pivot_row = next((r for r in range(col, size) if work[r][col]), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            det = -det
        pivot = work[col][col]
        det *= pivot
        for r in range(col + 1, size):
            if work[r][col]:
                scale = work[r][col] / pivot
                for c in range(col, size):
                    work[r][c] -= scale * work[col][c]
    return det


def leading_principal_minors(m: Matrix) -> list[Fraction]:
    return [determinant(tuple(row[: k + 1] for row in m[: k + 1])) for k in range(len(m))]


def is_positive_definite(m: Matrix) -> bool:
    """Sylvester's criterion on exact minors (matrix assumed symmetric)."""
    return all(minor > 0 for minor in leading_principal_minors(m))


def invert(m: Matrix) -> Matrix:
    """Exact inverse by Gauss-Jordan elimination."""
    size = len(m)
    work = [list(row) + [Fraction(i == j) for j in range(size)] for i, row in enumerate(m)]
    for col in range(size):
        pivot_row = next((r for r in range(col, size) if work[r][col]), None)
        if pivot_row is None:
            raise InputError("matrix is singular")
        work[col], work[pivot_row] = work[pivot_row], work[col]
        pivot = work[col][col]
        work[col] = [x / pivot for x in work[col]]
        for r in range(size):
            if r != col and work[r][col]:
                scale = work[r][col]
                work[r] = [a - scale * b for a, b in zip(work[r], work[col])]
    return tuple(tuple(row[size:]) for row in work)


def ldlt(m: Matrix) -> tuple[Matrix, tuple[Fraction, ...]]:
    """M = L D L^T with unit lower-triangular L; requires positive pivots.

    This is the exact half of a Cholesky factorization: converting L sqrt(D)
    to floats afterwards costs one rounding per entry.
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
