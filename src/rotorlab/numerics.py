"""Small numerical kernels shared by the semigroup modules.

The matrix exponential is scipy's scaling-and-squaring Pade method (Higham,
SIAM J. Matrix Anal. Appl. 26(4), 2005).  numpy and scipy.linalg are imported
on first use, so importing the package (and starting the CLI) pays for
neither.
A huge time can push t G, or its exponential, past the float range; expm
refuses that with NumericError instead of returning inf or nan.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

from .errors import NumericError

if TYPE_CHECKING:
    import numpy as np


def expm(matrix: np.ndarray, t: float) -> np.ndarray:
    """exp(t * matrix) in floats, for a square matrix.

    NumericError, with numpy's overflow warnings silenced, when t * matrix or
    its exponential is not finite.
    """
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):
        scaled = t * np.asarray(matrix, dtype=float)
        if not np.isfinite(scaled).all():
            raise NumericError(f"t * generator is not finite at t={t!r}")
        from scipy.linalg import expm as scipy_expm

        out = scipy_expm(scaled)
    if not np.isfinite(out).all():
        raise NumericError(f"the matrix exponential is not finite at t={t!r}")
    return out


def loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log|y| against log x (zero y entries dropped)."""
    pts = [(math.log(x), math.log(abs(y))) for x, y in zip(xs, ys) if y != 0]
    if len(pts) < 2:
        return math.nan
    import numpy as np

    lx = np.array([p[0] for p in pts])
    ly = np.array([p[1] for p in pts])
    return float(np.polyfit(lx, ly, 1)[0])


def fitted_order(ms: Sequence[int], errors: Sequence[float]) -> float:
    """Empirical convergence order in 1/m: slope of log err against log(1/m)."""
    return -loglog_slope([float(m) for m in ms], errors)
