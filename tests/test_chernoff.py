"""Kernel eigenvalues, Chernoff products, normalization asymptotics."""

import inspect
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import eval_chebyt, eval_legendre, roots_jacobi, roots_legendre

from rotorlab.chernoff import (
    MAX_DEGREE,
    ChernoffPoint,
    KernelSpec,
    chernoff_table,
    funk_hecke_eigenvalue,
    generator_envelope,
    normalization_constant,
    sphere_area,
)
from rotorlab.errors import InputError, NumericError
from rotorlab.numerics import fitted_order, loglog_slope
from rotorlab.zonal import gegenbauer_coefficients, laplace_eigenvalue


def gegenbauer(n, l, s):
    """G_l(n, s) in floats by the three-term recurrence of rotorlab.zonal; s may be an array."""
    if l == 0:
        return s * 0 + 1.0
    prev = s * 0 + 1.0
    cur = s * 1.0
    for k in range(1, l):
        prev, cur = cur, ((2 * k + n - 2) * s * cur - k * prev) / (k + n - 2)
    return cur


def quadrature_rule(n, m):
    """Abscissas in s and weights carrying the zonal density (1 - s^2)^{(n-3)/2}.

    For n = 2 the substitution s = cos(theta) makes the integrand smooth and
    periodic, where the trapezoid rule converges spectrally; for n >= 3 the
    weight is folded into Gauss-Jacobi nodes (Gauss-Legendre at n = 3).
    """
    if n == 2:
        theta = np.linspace(0.0, math.pi, m + 1)
        weights = np.full(m + 1, math.pi / m)
        weights[0] *= 0.5
        weights[-1] *= 0.5
        return np.cos(theta), weights
    alpha = (n - 3) / 2.0
    return roots_legendre(m) if n == 3 else roots_jacobi(m, alpha, alpha)


def quadrature_oracle(n, t, l):
    """(lambda_l(t), c(t)) from the Funk-Hecke integrals, independently of Bessel functions.

    I_l = int_{-1}^{1} e^{(s-1)/2t} G_l(n, s) (1 - s^2)^{(n-3)/2} ds gives
    lambda_l = I_l / I_0 and c = (int of the density alone) / I_0.  The node
    count doubles from 64 until two successive rules agree to 1e-12 (relative
    above 1); there is no cap, so it is called only at moderate t.
    """
    m, previous = 64, None
    while True:
        s, w = quadrature_rule(n, m)
        kernel = w * np.exp((s - 1.0) / (2.0 * t))
        current = (float((kernel * gegenbauer(n, l, s)).sum() / kernel.sum()),
                   float(w.sum() / kernel.sum()))
        if previous and all(abs(a - b) <= 1e-12 * max(1.0, abs(a))
                            for a, b in zip(current, previous)):
            return current
        previous = current
        m *= 2


def legendre_exact_eigenvalue(l, t):
    """Independent n=3 oracle: the s-integral done exactly by parts.

    int_{-1}^{1} e^{a(s-1)} q(s) ds
        = sum_j (-1)^j a^{-(j+1)} [q^(j)(1) - e^{-2a} q^(j)(-1)].
    """
    import numpy.polynomial.polynomial as P
    from numpy.polynomial import legendre as L

    a = 1.0 / (2.0 * t)
    c = np.zeros(l + 1)
    c[l] = 1.0

    def by_parts(q):
        total, sign = 0.0, 1.0
        coeffs = np.array(q, dtype=float)
        for j in range(len(q)):
            total += sign / a ** (j + 1) * (
                P.polyval(1.0, coeffs) - math.exp(-2 * a) * P.polyval(-1.0, coeffs)
            )
            coeffs = P.polyder(coeffs)
            sign = -sign
        return total

    return by_parts(L.leg2poly(c)) / by_parts(np.array([1.0]))


def test_gegenbauer_trivials():
    assert gegenbauer(4, 0, 0.3) == 1.0
    assert gegenbauer(4, 1, 0.3) == 0.3
    assert gegenbauer(3, 2, 1.0) == pytest.approx(1.0, abs=1e-15)
    for n in (2, 3, 4, 6):
        for l in range(7):
            assert gegenbauer(n, l, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_gegenbauer_matches_chebyshev_and_legendre():
    s = np.linspace(-1, 1, 41)
    for l in range(7):
        assert np.allclose(gegenbauer(2, l, s), eval_chebyt(l, s), atol=1e-12)
        assert np.allclose(gegenbauer(3, l, s), eval_legendre(l, s), atol=1e-12)


def test_gegenbauer_coefficients_exact():
    assert gegenbauer_coefficients(3, 2) == (Fraction(-1, 2), Fraction(0), Fraction(3, 2))
    assert gegenbauer_coefficients(2, 3) == (Fraction(0), Fraction(-3), Fraction(0), Fraction(4))
    for n in (2, 3, 5):
        for l in range(7):
            assert sum(gegenbauer_coefficients(n, l)) == 1  # value at s = 1


def gegenbauer_series(n, l):
    """Exact coefficients of G_l(n, s) from the explicit sum for C_l^lam, lam = (n-2)/2
    (DLMF 18.5.10), divided by lam so that n = 2 is covered, then by its value at s = 1."""
    if l == 0:
        return (Fraction(1),)
    lam = Fraction(n - 2, 2)
    coeffs = [Fraction(0)] * (l + 1)
    for m in range(l // 2 + 1):
        rising = math.prod((lam + j for j in range(1, l - m)), start=Fraction(1))  # (lam)_{l-m}/lam
        coeffs[l - 2 * m] = (-1) ** m * rising * 2 ** (l - 2 * m) / (
            math.factorial(m) * math.factorial(l - 2 * m))
    at_one = sum(coeffs)
    return tuple(c / at_one for c in coeffs)


def test_gegenbauer_coefficients_match_the_explicit_sum_without_recursion():
    for n in (2, 3, 5):
        for l in range(41):
            assert gegenbauer_coefficients(n, l) == gegenbauer_series(n, l), (n, l)
    # the recurrence runs as a loop: degree 300 answers with 50 frames to spare
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    try:
        coeffs = gegenbauer_coefficients(3, 300)
    finally:
        sys.setrecursionlimit(limit)
    assert len(coeffs) == 301 and sum(coeffs) == 1


def test_kernel_spec_validation():
    with pytest.raises(InputError):
        KernelSpec(1, 0.5)
    with pytest.raises(InputError):
        KernelSpec(2, 0.0)
    for t in (math.nan, math.inf):
        with pytest.raises(InputError):
            KernelSpec(2, t)


def test_lambda0_is_one_exactly():
    for n in (2, 3, 5):
        for t in (2.0, 0.3, 1e-3):
            assert funk_hecke_eigenvalue(KernelSpec(n, t), 0) == 1.0


@pytest.mark.parametrize("t", [1.0, 0.1, 1e-3, 1e-4])
def test_circle_eigenvalue_matches_bessel(t):
    # the closed form I_l(1/2t)/I_0(1/2t) against the trapezoid rule in theta
    for l in (1, 2, 3):
        oracle, _ = quadrature_oracle(2, t, l)
        got = funk_hecke_eigenvalue(KernelSpec(2, t), l)
        assert got == pytest.approx(oracle, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7])
def test_closed_form_matches_the_quadrature_oracle(n):
    for t in (1.0, 0.25, 1e-2, 1e-3):
        c = normalization_constant(KernelSpec(n, t)).c
        for l in (0, 1, 2, 3, 5):
            lam, c_oracle = quadrature_oracle(n, t, l)
            assert funk_hecke_eigenvalue(KernelSpec(n, t), l) == pytest.approx(lam, rel=1e-8)
            assert c == pytest.approx(c_oracle, rel=1e-8)


def test_closed_form_holds_up_to_the_degree_cap():
    # the trapezoid rule still resolves the circle kernel at the top degree ...
    lam, _ = quadrature_oracle(2, 1e-5, MAX_DEGREE)
    assert funk_hecke_eigenvalue(KernelSpec(2, 1e-5), MAX_DEGREE) == pytest.approx(lam, rel=1e-8)
    # ... and every degree obeys I_{mu-1} - I_{mu+1} = (2 mu / kappa) I_mu, mu = l + nu
    for n in (2, 3, 4, 7):
        nu = (n - 2) / 2.0
        for t in (1e-2, 1e-3):
            lams = [funk_hecke_eigenvalue(KernelSpec(n, t), l) for l in range(MAX_DEGREE + 1)]
            for l in range(1, MAX_DEGREE):
                assert lams[l - 1] == pytest.approx(
                    lams[l + 1] + 4.0 * t * (l + nu) * lams[l], rel=1e-11), (n, t, l)


@pytest.mark.parametrize("t", [0.5, 0.1, 1e-3])
def test_sphere3_eigenvalue_matches_exact_integration(t):
    for l in (1, 2, 3, 4):
        oracle = legendre_exact_eigenvalue(l, t)
        got = funk_hecke_eigenvalue(KernelSpec(3, t), l)
        assert got == pytest.approx(oracle, rel=1e-9, abs=1e-12)


def test_sphere5_eigenvalue_small_t_expansion():
    # lambda_l(t) = 1 - l(l+n-2) t + O(t^2); check the quotient at small t
    for l in (1, 2):
        t = 1e-4
        lam = funk_hecke_eigenvalue(KernelSpec(5, t), l)
        assert (1.0 - lam) / t == pytest.approx(laplace_eigenvalue(5, l), rel=2e-3)


def test_contraction_and_monotonicity():
    for n in (2, 3):
        for t in (0.05, 0.5, 1.5):
            lams = [funk_hecke_eigenvalue(KernelSpec(n, t), l) for l in range(7)]
            assert lams[0] == 1.0
            assert all(0.0 < lam <= 1.0 for lam in lams)
            assert all(b <= a + 1e-13 for a, b in zip(lams, lams[1:]))
        # every degree up to the cap, out to times where all but lambda_0 underflow
        for t in (0.05, 0.5, 1.5, 100.0, 1e300):
            lams = [funk_hecke_eigenvalue(KernelSpec(n, t), l) for l in range(MAX_DEGREE + 1)]
            assert lams[0] == 1.0
            assert all(0.0 <= lam <= 1.0 for lam in lams), (n, t, min(lams))
            assert all(b <= a for a, b in zip(lams, lams[1:])), (n, t)


def test_chernoff_trivial_l0():
    point = chernoff_table(KernelSpec(3, 0.7), 0, [1, 4, 16])[0]
    assert point.approx == 1.0 and point.reference == 1.0 and point.error == 0.0


@pytest.mark.parametrize("n,l,t", [(2, 1, 1.0), (3, 1, 0.5), (3, 2, 0.5)])
def test_chernoff_convergence(n, l, t):
    ms = [8, 16, 32, 64, 128, 256]
    points = chernoff_table(KernelSpec(n, t), l, ms)
    errors = [p.error for p in points]
    assert all(b < a for a, b in zip(errors, errors[1:]))
    assert fitted_order(ms, errors) >= 0.8
    assert points[0].reference == pytest.approx(math.exp(-l * (l + n - 2) * t))


def test_chernoff_halving_defect():
    # lambda(t/2)^2 differs from lambda(t) by O(t^2): halving t divides the
    # defect by ~4 once t is small enough for the quadratic term to dominate
    n, l = 3, 2
    defects = []
    for t in (0.025, 0.0125, 0.00625):
        one_step = funk_hecke_eigenvalue(KernelSpec(n, t), l)
        half = funk_hecke_eigenvalue(KernelSpec(n, t / 2), l)
        defects.append(abs(half ** 2 - one_step))
    assert 3.0 <= defects[0] / defects[1] <= 5.0
    assert 3.0 <= defects[1] / defects[2] <= 5.0


def test_sphere_area_values():
    assert sphere_area(2) == pytest.approx(2 * math.pi)
    assert sphere_area(3) == pytest.approx(4 * math.pi)
    assert sphere_area(4) == pytest.approx(2 * math.pi ** 2)
    assert math.isfinite(sphere_area(343))
    with pytest.raises(NumericError, match="area of S\\^343 overflows"):
        sphere_area(344)


@pytest.mark.parametrize("n,t", [(400, 0.5), (343, 0.5), (4, 1e300), (100, 1e-9)])
def test_normalization_leading_term_out_of_range(n, t):
    # Gamma(n/2) overflows, or the leading term overflows or underflows to 0
    with pytest.raises(NumericError, match="overflows|leaves the float range"):
        normalization_constant(KernelSpec(n, t))


def test_normalization_small_t_n2():
    pts = [normalization_constant(KernelSpec(2, t)) for t in (1e-1, 1e-2, 1e-3)]
    for p in pts:
        assert abs(p.ratio_minus_1) <= 10.0 * p.t
    slope = loglog_slope([p.t for p in pts], [p.ratio_minus_1 for p in pts])
    assert 0.8 <= slope <= 1.2
    # leading coefficient of the deviation is -1/4 for the circle
    assert pts[2].ratio_minus_1 == pytest.approx(-pts[2].t / 4, rel=0.02)


def test_normalization_small_t_n3():
    # the weight (1-s^2)^0 is constant at n=3, so the kernel normalizer hits
    # its leading form up to exponentially small terms; only the bound is
    # meaningful here, the deviation e^{-1/t}/(1 - e^{-1/t}) rounds to 0 below t=1e-1.
    pts = [normalization_constant(KernelSpec(3, t)) for t in (1e-1, 1e-2, 1e-3)]
    for p in pts:
        assert abs(p.ratio_minus_1) <= 10.0 * p.t
    assert pts[0].ratio_minus_1 == pytest.approx(math.exp(-10.0) / (1 - math.exp(-10.0)), rel=1e-6)
    assert abs(pts[1].ratio_minus_1) < 1e-9
    assert abs(pts[2].ratio_minus_1) < 1e-9


def test_generator_limit_l0():
    point = generator_envelope(3, 0, [0.01]).points[0]
    assert point.value == 0.0 and point.deviation == 0.0


def test_generator_limit_values():
    # circle: (lambda_1(t)-1)/t -> -1
    point = generator_envelope(2, 1, [1e-4]).points[0]
    assert point.value == pytest.approx(-1.0, abs=2e-2)
    # S^2: eigenvalue l(l+n-2) = 2 at l=1
    point = generator_envelope(3, 1, [1e-3]).points[0]
    assert point.value == pytest.approx(-2.0, abs=5e-2)


@pytest.mark.parametrize("n", [2, 3])
def test_generator_envelope(n):
    ts = [10 ** (-1 - k / 3) for k in range(10)]  # 1e-1 down to 1e-4
    for l in range(4):
        env = generator_envelope(n, l, ts)
        assert env.within, [(p.t, p.deviation) for p in env.points]

