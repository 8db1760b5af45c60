"""Gaussian-kernel smoothing on the sphere and its Chernoff products.

The operator under study convolves with exp(-|sigma - sigma'|^2 / 4t)
against normalized surface measure, rescaled so constants are fixed.  It
commutes with rotations, so it acts diagonally on zonal harmonics (a
Funk-Hecke reduction), and Poisson's integral (DLMF 10.32.2, in Watson's
Gegenbauer form) evaluates each eigenvalue in closed form:

    lambda_l(t) = I_{l+nu}(kappa) / I_nu(kappa),  nu = (n - 2)/2,  kappa = 1/2t.

With B(mu, kappa) = sqrt(2 pi kappa) e^{-kappa} I_mu(kappa), which tends to 1
as kappa grows, lambda_l = B(l + nu, kappa) / B(nu, kappa), and the kernel
normalizer c(t) = 1 / [Gamma(nu + 1) (2/kappa)^nu e^{-kappa} I_nu(kappa)] is
A_{n-1} (4 pi t)^{-(n-1)/2} / B(nu, kappa): the Gamma and power factors cancel.
e^{-kappa} I_mu(kappa) is scipy.special.ive, imported on the first call, so
importing the package (and starting the CLI) loads neither numpy nor scipy.
ive returns nan from kappa = 2^30 on and flushes values below about 1e-308
to 0; where B(nu, kappa) is then not a positive float, or the ratio is not
finite, the call raises NumericError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import InputError, NumericError, ResourceLimitError
from .zonal import laplace_eigenvalue

MAX_DEGREE = 256
"""Largest harmonic degree l :func:`funk_hecke_eigenvalue` accepts: the range
on which the tests cross-check the closed form; the suite uses l <= 3."""


@dataclass(frozen=True)
class KernelSpec:
    """Kernel parameters: sphere dimension n and time t."""

    n: int
    t: float

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 2:
            raise InputError(f"kernel needs integer n >= 2, got {self.n!r}")
        if not (math.isfinite(self.t) and self.t > 0):
            raise InputError(f"kernel needs a finite t > 0, got {self.t!r}")


def _bessel_ratio(spec: KernelSpec, l: int, numerator: bool = True) -> float:
    """B(l + nu, kappa) / B(nu, kappa), or 1 / B(nu, kappa) without the numerator.

    NumericError where ive cannot answer: the denominator is not a positive
    finite float (nan at huge kappa, 0 once it underflows) or the ratio is not
    finite.
    """
    from scipy.special import ive

    nu = (spec.n - 2) / 2.0
    kappa = 0.5 / spec.t
    scale = math.sqrt(2.0 * math.pi * kappa)
    bottom = scale * float(ive(nu, kappa))
    top = scale * float(ive(l + nu, kappa)) if numerator else 1.0
    ratio = top / bottom if 0.0 < bottom < math.inf else math.nan
    if not math.isfinite(ratio):
        raise NumericError(
            f"the Bessel ratio of the kernel is not a finite number at "
            f"n={spec.n}, t={spec.t!r}, l={l}"
        )
    return ratio


def funk_hecke_eigenvalue(spec: KernelSpec, l: int) -> float:
    """Action of the normalized kernel on degree-l zonal harmonics.

    ResourceLimitError, before any Bessel function, above MAX_DEGREE.
    """
    if l < 0:
        raise InputError(f"harmonic degree must be >= 0, got {l}")
    if l > MAX_DEGREE:
        raise ResourceLimitError(f"harmonic degree {l} is above the cap of {MAX_DEGREE}")
    return _bessel_ratio(spec, l)


@dataclass(frozen=True)
class ChernoffPoint:
    m: int
    approx: float
    reference: float
    error: float


def chernoff_table(spec: KernelSpec, l: int, ms: Sequence[int]) -> list[ChernoffPoint]:
    """lambda_l(t/m)^m against the heat-semigroup reference e^{-l(l+n-2)t}, one point per m.

    Every power is checked before the first eigenvalue: InputError below 1,
    NumericError where the step t/m underflows to 0.  The reference eigenvalue
    is the standard zonal-harmonic fact, re-derived exactly by the heat
    module's Gegenbauer eigen-check before being relied on here.
    """
    for m in ms:
        if m < 1:
            raise InputError(f"Chernoff power must be >= 1, got {m}")
    if ms and spec.t / max(ms) == 0.0:
        raise NumericError(f"the time step t/m underflows to 0 at t={spec.t!r}, m={max(ms)}")
    approxes = [funk_hecke_eigenvalue(KernelSpec(spec.n, spec.t / m), l) ** m for m in ms]
    reference = math.exp(-laplace_eigenvalue(spec.n, l) * spec.t)
    return [ChernoffPoint(m, a, reference, abs(a - reference)) for m, a in zip(ms, approxes)]


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

    The leading term is formed before any Bessel function; NumericError if it
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
    ratio = _bessel_ratio(spec, 0, numerator=False)
    return NormalizationPoint(spec.t, leading * ratio, ratio - 1.0)


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


def generator_envelope(
    n: int,
    l: int,
    ts: Sequence[float],
) -> GeneratorEnvelope:
    """Check the square-root-of-t envelope of the generator limit.

    The constant is fitted at the largest grid time; the verdict asks every
    smaller time to stay below constant * sqrt(t).
    """
    grid = sorted(float(t) for t in ts)
    if not grid:
        raise InputError("generator envelope needs a non-empty t grid")
    points = []
    for t in grid:  # the difference quotient toward the Laplacian eigenvalue at each time
        value = (funk_hecke_eigenvalue(KernelSpec(n, t), l) - 1.0) / t
        points.append(GeneratorPoint(t, value, abs(value + laplace_eigenvalue(n, l))))
    t_fit = points[-1].t
    constant = points[-1].deviation / math.sqrt(t_fit)
    within = all(
        p.deviation <= constant * math.sqrt(p.t) * (1.0 + 1e-9) for p in points
    )
    return GeneratorEnvelope(l, n, tuple(points), constant, within)
