"""Kernel eigenvalues, Chernoff products, normalization asymptotics."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import eval_chebyt, eval_legendre, ive

from rotorlab.chernoff import (
    MAX_NODES_JACOBI,
    MAX_NODES_TRAPEZOID,
    ChernoffPoint,
    KernelSpec,
    chernoff_table,
    funk_hecke_eigenvalue,
    generator_envelope,
    generator_limit,
    normalization_constant,
    sphere_area,
)
from rotorlab.errors import InputError, NumericError, QuadratureError
from rotorlab.numerics import fitted_order, loglog_slope
from rotorlab.zonal import gegenbauer, gegenbauer_coefficients, laplace_eigenvalue


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


def test_kernel_spec_validation():
    with pytest.raises(InputError):
        KernelSpec(1, 0.5)
    with pytest.raises(InputError):
        KernelSpec(2, 0.0)
    for t in (math.nan, math.inf):
        with pytest.raises(InputError):
            KernelSpec(2, t)
    with pytest.raises(InputError):
        KernelSpec(2, 0.5, nodes=4)
    assert KernelSpec(2, 0.5, nodes=MAX_NODES_TRAPEZOID).nodes == MAX_NODES_TRAPEZOID
    assert KernelSpec(3, 0.5, nodes=MAX_NODES_JACOBI).nodes == MAX_NODES_JACOBI
    for n, cap in ((2, MAX_NODES_TRAPEZOID), (3, MAX_NODES_JACOBI), (5, MAX_NODES_JACOBI)):
        with pytest.raises(InputError, match=f"<= {cap}"):
            KernelSpec(n, 0.5, nodes=cap + 1)


def test_lambda0_is_one_exactly():
    for n in (2, 3, 5):
        for t in (2.0, 0.3, 1e-3):
            assert funk_hecke_eigenvalue(KernelSpec(n, t), 0) == 1.0


@pytest.mark.parametrize("t", [1.0, 0.1, 1e-3, 1e-4])
def test_circle_eigenvalue_matches_bessel(t):
    x = 1.0 / (2.0 * t)
    for l in (1, 2, 3):
        oracle = float(ive(l, x) / ive(0, x))
        got = funk_hecke_eigenvalue(KernelSpec(2, t), l)
        assert got == pytest.approx(oracle, rel=1e-10, abs=1e-12)


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
    # meaningful here, the deviation sits at quadrature noise below t=1e-1.
    pts = [normalization_constant(KernelSpec(3, t)) for t in (1e-1, 1e-2, 1e-3)]
    for p in pts:
        assert abs(p.ratio_minus_1) <= 10.0 * p.t
    assert abs(pts[0].ratio_minus_1) == pytest.approx(math.exp(-10.0), rel=1e-3)
    assert abs(pts[1].ratio_minus_1) < 1e-9
    assert abs(pts[2].ratio_minus_1) < 1e-9


def test_generator_limit_l0():
    point = generator_limit(KernelSpec(3, 0.01), 0)
    assert point.value == 0.0 and point.deviation == 0.0


def test_generator_limit_values():
    # circle: (lambda_1(t)-1)/t -> -1
    point = generator_limit(KernelSpec(2, 1e-4), 1)
    assert point.value == pytest.approx(-1.0, abs=2e-2)
    # S^2: eigenvalue l(l+n-2) = 2 at l=1
    point = generator_limit(KernelSpec(3, 1e-3), 1)
    assert point.value == pytest.approx(-2.0, abs=5e-2)


@pytest.mark.parametrize("n", [2, 3])
def test_generator_envelope(n):
    ts = [10 ** (-1 - k / 3) for k in range(10)]  # 1e-1 down to 1e-4
    for l in range(4):
        env = generator_envelope(n, l, ts)
        assert env.within, [(p.t, p.deviation) for p in env.points]


def test_quadrature_error_carries_nodes_and_estimates():
    with pytest.raises(QuadratureError, match="kernel underflow at t=1e-09") as info:
        normalization_constant(KernelSpec(4, 1e-9))
    assert info.value.nodes == 64 and info.value.estimates == (math.inf,)
    # agreement out of reach: a window of width ~t holds a handful of nodes
    with pytest.raises(QuadratureError, match="did not reach") as info:
        funk_hecke_eigenvalue(KernelSpec(3, 1e-6, MAX_NODES_JACOBI // 2), 2)
    error = info.value
    assert error.nodes == MAX_NODES_JACOBI and len(error.estimates) == 2
    assert all(math.isfinite(e) for e in error.estimates)
    assert f"reached {MAX_NODES_JACOBI} nodes" in str(error)
    assert repr(error.estimates[1]) in str(error)
