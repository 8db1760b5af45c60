"""Gaussian-kernel smoothing on the sphere and its Chernoff products.

The operator under study convolves with exp(-|sigma - sigma'|^2 / 4t)
against normalized surface measure, rescaled so constants are fixed.  It
commutes with rotations, so it acts diagonally on zonal harmonics and its
whole spectrum on polynomials reduces to one-dimensional integrals over
s = sigma . sigma' (a Funk-Hecke reduction):

    lambda_l(t) = I_l / I_0,
    I_l = integral_{-1}^{1} e^{(s-1)/2t} G_l(n, s) (1 - s^2)^{(n-3)/2} ds.

For n = 2 the substitution s = cos(theta) turns I_l into a smooth periodic
integral where the trapezoid rule converges spectrally; for n >= 3 the
weight is folded into Gauss-Jacobi nodes.  Node counts double until two
successive estimates agree to 1e-12 relative.

numpy is imported when the first rule is built or evaluated, and the
Gauss-Legendre and Gauss-Jacobi nodes come from scipy.special, imported when
the first such rule is built, so importing the package (and starting the CLI)
pays for neither.  The harmonic degree is capped (MAX_DEGREE) before any
quadrature, since the Gegenbauer recurrence costs O(l) on every node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .errors import InputError, NumericError, QuadratureError, ResourceLimitError
from .zonal import gegenbauer, laplace_eigenvalue

if TYPE_CHECKING:
    import numpy as np

REL_TOL = 1e-12
MAX_NODES_TRAPEZOID = 1 << 21
MAX_NODES_JACOBI = 1 << 14

MAX_DEGREE = 256
"""Largest harmonic degree l :func:`funk_hecke_eigenvalue` accepts.  The
Gegenbauer recurrence costs l passes over every rule the refinement builds;
the suite uses l <= 3."""

NODE_CACHE_BUDGET = 1 << 22
"""Nodes the quadrature rule cache may hold, 16 bytes each (64 MiB in all).
Once a new rule pushes the total past it, the oldest rules go first; one rule
at the n = 2 cap takes about half of it."""

_node_cache: dict[tuple[str, int, int], tuple[np.ndarray, np.ndarray]] = {}


@dataclass(frozen=True)
class KernelSpec:
    """Kernel parameters: sphere dimension n, time t, starting node count."""

    n: int
    t: float
    nodes: int = 64

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 2:
            raise InputError(f"kernel needs integer n >= 2, got {self.n!r}")
        if not (math.isfinite(self.t) and self.t > 0):
            raise InputError(f"kernel needs a finite t > 0, got {self.t!r}")
        if self.nodes < 16:
            raise InputError(f"node count must be >= 16, got {self.nodes}")
        if self.nodes > _node_cap(self.n):
            raise InputError(
                f"node count must be <= {_node_cap(self.n)} for n={self.n}, got {self.nodes}"
            )


def _node_cap(n: int) -> int:
    """Largest rule the refinement may reach: trapezoid for n = 2, Gauss-Jacobi above."""
    return MAX_NODES_TRAPEZOID if n == 2 else MAX_NODES_JACOBI


def _nodes(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature abscissas in s and weights incorporating the zonal density."""
    key = ("trap" if n == 2 else "jacobi", n, m)
    found = _node_cache.get(key)
    if found is not None:
        return found
    import numpy as np

    if n == 2:
        theta = np.linspace(0.0, math.pi, m + 1)
        weights = np.full(m + 1, math.pi / m)
        weights[0] *= 0.5
        weights[-1] *= 0.5
        pair = (np.cos(theta), weights)
    else:
        from scipy.special import roots_jacobi, roots_legendre

        alpha = (n - 3) / 2.0
        pair = roots_legendre(m) if n == 3 else roots_jacobi(m, alpha, alpha)
    _node_cache[key] = pair
    while len(_node_cache) > 1 and sum(len(w) for _, w in _node_cache.values()) > NODE_CACHE_BUDGET:
        del _node_cache[next(iter(_node_cache))]
    return pair


def _refine(spec: KernelSpec, evaluate) -> float:
    """Double the node count until two successive estimates agree.

    ``evaluate(s, w, kernel)`` reads the rule and the kernel w exp((s - 1)/2t)
    on it, with numpy's divide and invalid warnings off: a non-finite estimate
    means the kernel underflowed on the rule (Gauss-Jacobi nodes never reach
    s = 1), which stops the refinement at once.  The trapezoid rule (n = 2)
    has a node at s = 1; a rule whose kernel mass off that node is negligible
    only estimates the value there, so agreement with it is not accepted.  The
    first rule is at most half the cap, so at least two rules are compared.
    """
    import numpy as np

    cap = _node_cap(spec.n)
    m = min(spec.nodes, cap // 2)
    half_rate = 0.5 / spec.t
    estimates: tuple[float, ...] = ()
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            s, w = _nodes(spec.n, m)
            kernel = w * np.exp((s - 1.0) * half_rate)
            current = evaluate(s, w, kernel)
            if not math.isfinite(current):
                raise QuadratureError(
                    f"kernel underflow at t={spec.t!r} (n={spec.n}): estimate not finite",
                    m, estimates[-1:] + (current,),
                )
            if (estimates and resolved
                    and abs(current - estimates[-1]) <= REL_TOL * max(1.0, abs(current))):
                return current
            estimates = estimates[-1:] + (current,)
            total = kernel.sum()
            resolved = spec.n > 2 or total - kernel[0] > REL_TOL * total
            if m * 2 > cap:
                break
            m *= 2
    raise QuadratureError(
        f"quadrature did not reach {REL_TOL} relative agreement within {cap} nodes (n={spec.n})",
        m, estimates,
    )


def funk_hecke_eigenvalue(spec: KernelSpec, l: int) -> float:
    """Action of the normalized kernel on degree-l zonal harmonics.

    ResourceLimitError, before any quadrature, above MAX_DEGREE.
    """
    if l < 0:
        raise InputError(f"harmonic degree must be >= 0, got {l}")
    if l > MAX_DEGREE:
        raise ResourceLimitError(f"harmonic degree {l} is above the cap of {MAX_DEGREE}")

    def estimate(s: np.ndarray, w: np.ndarray, kernel: np.ndarray) -> float:
        return float((kernel * gegenbauer(spec.n, l, s)).sum() / kernel.sum())

    return _refine(spec, estimate)


@dataclass(frozen=True)
class ChernoffPoint:
    m: int
    approx: float
    reference: float
    error: float


def chernoff_iterate(spec: KernelSpec, l: int, m: int) -> ChernoffPoint:
    """lambda_l(t/m)^m against the heat-semigroup reference e^{-l(l+n-2)t}.

    The reference eigenvalue is the standard zonal-harmonic fact, re-derived
    exactly by the heat module's Gegenbauer eigen-check before being relied
    on here.
    """
    if m < 1:
        raise InputError(f"Chernoff power must be >= 1, got {m}")
    lam = funk_hecke_eigenvalue(KernelSpec(spec.n, spec.t / m, spec.nodes), l)
    approx = lam ** m
    reference = math.exp(-laplace_eigenvalue(spec.n, l) * spec.t)
    return ChernoffPoint(m, approx, reference, abs(approx - reference))


def chernoff_table(spec: KernelSpec, l: int, ms: Sequence[int]) -> list[ChernoffPoint]:
    return [chernoff_iterate(spec, l, m) for m in ms]


def sphere_area(n: int) -> float:
    """Surface area of the unit sphere S^{n-1}: 2 pi^{n/2} / Gamma(n/2).

    Gamma(n/2) leaves the float range from n = 344 on: NumericError.
    """
    try:
        return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    except OverflowError as exc:
        raise NumericError(f"the area of S^{n - 1} overflows a float") from exc


@dataclass(frozen=True)
class NormalizationPoint:
    t: float
    c: float
    ratio_minus_1: float


def normalization_constant(spec: KernelSpec) -> NormalizationPoint:
    """c(t) fixing U(t)1 = 1, compared with A_{n-1} (4 pi t)^{-(n-1)/2}.

    The leading term is formed before any quadrature; NumericError if it
    leaves the positive float range.
    """
    try:
        leading = sphere_area(spec.n) * (4.0 * math.pi * spec.t) ** (-(spec.n - 1) / 2.0)
    except OverflowError:
        leading = math.inf
    if not (math.isfinite(leading) and leading > 0):
        raise NumericError(
            f"the leading term A_{spec.n - 1} (4 pi t)^(-{spec.n - 1}/2) leaves the float "
            f"range at t={spec.t!r} (n={spec.n})"
        )

    def estimate(s: np.ndarray, w: np.ndarray, kernel: np.ndarray) -> float:
        return float(w.sum() / kernel.sum())

    c = _refine(spec, estimate)
    return NormalizationPoint(spec.t, c, c / leading - 1.0)


@dataclass(frozen=True)
class GeneratorPoint:
    t: float
    value: float      # (lambda_l(t) - 1) / t
    deviation: float  # |value + l(l+n-2)|


@dataclass(frozen=True)
class GeneratorEnvelope:
    l: int
    n: int
    points: tuple[GeneratorPoint, ...]
    constant: float  # fitted at the largest t: deviation / sqrt(t)
    within: bool     # deviation <= constant * sqrt(t) on the whole grid


def generator_limit(spec: KernelSpec, l: int) -> GeneratorPoint:
    """Difference quotient toward the Laplacian eigenvalue at one time."""
    lam = funk_hecke_eigenvalue(spec, l)
    value = (lam - 1.0) / spec.t
    return GeneratorPoint(spec.t, value, abs(value + laplace_eigenvalue(spec.n, l)))


def generator_envelope(
    n: int,
    l: int,
    ts: Sequence[float],
    nodes: int = 64,
) -> GeneratorEnvelope:
    """Check the square-root-of-t envelope of the generator limit.

    The constant is fitted at the largest grid time; the verdict asks every
    smaller time to stay below constant * sqrt(t).
    """
    grid = sorted(float(t) for t in ts)
    if not grid:
        raise InputError("generator envelope needs a non-empty t grid")
    points = tuple(generator_limit(KernelSpec(n, t, nodes), l) for t in grid)
    t_fit = points[-1].t
    constant = points[-1].deviation / math.sqrt(t_fit)
    within = all(
        p.deviation <= constant * math.sqrt(p.t) * (1.0 + 1e-9) for p in points
    )
    return GeneratorEnvelope(l, n, points, constant, within)
