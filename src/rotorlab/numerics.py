"""Small numerical kernels shared by the semigroup modules.

The matrix exponential is scipy's scaling-and-squaring Pade method (Higham,
SIAM J. Matrix Anal. Appl. 26(4), 2005).  scipy.linalg is imported on first
use, so importing the package (and starting the CLI) does not pay for it.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


def expm(matrix: np.ndarray) -> np.ndarray:
    """The float matrix exponential of a square matrix."""
    from scipy.linalg import expm as scipy_expm

    return scipy_expm(np.asarray(matrix, dtype=float))


def loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log|y| against log x (zero y entries dropped)."""
    pts = [(math.log(x), math.log(abs(y))) for x, y in zip(xs, ys) if y != 0]
    if len(pts) < 2:
        return math.nan
    lx = np.array([p[0] for p in pts])
    ly = np.array([p[1] for p in pts])
    return float(np.polyfit(lx, ly, 1)[0])


def fitted_order(ms: Sequence[int], errors: Sequence[float]) -> float:
    """Empirical convergence order in 1/m: slope of log err against log(1/m)."""
    return -loglog_slope([float(m) for m in ms], errors)
