"""Acceptance gate: every criterion at full scale, one pass/fail line each.

These call the same criterion implementations as ``rotorlab suite full``
(rotorlab.suites) and additionally re-assert the headline exact values
inline so a regression in the suite plumbing cannot silently pass.

Criterion 8 is split in two.  The small-t bound (8a) holds for n = 2 and
n = 3.  The n = 3 slope check (8b) is asserted exactly as specified and is
expected to FAIL: at n = 3 the zonal weight is constant, the kernel
normalizer matches its leading small-t form up to exp(-1/t) corrections,
and below t = 0.1 the computed deviation rounds to exactly 0, so no
first-order log-log slope exists (the fit reads nan).  The failure is genuine
mathematics, not a defect of this implementation; details in the repo
notes.
"""

import math
from fractions import Fraction

import pytest

from rotorlab import ratlin
from rotorlab.algebra import GAUSSIAN, ModelDims, variable
from rotorlab.chernoff import KernelSpec, normalization_constant
from rotorlab.gaussian import check_gaussian_griffiths, covariance, ferro_from_rows
from rotorlab.moments import sphere_moment
from rotorlab.numerics import loglog_slope
from rotorlab.suites import CRITERIA, NORMALIZATION_TS

RESULTS = {cid: (name, fn) for cid, name, fn in CRITERIA}
SEED = 7


def run(cid):
    name, fn = RESULTS[cid]
    passed, detail = fn("full", SEED)
    print(f"ACCEPTANCE {cid} {name}: {'PASS' if passed else 'FAIL'} - {detail}")
    return passed, detail


def test_criterion_01_exact_moments():
    for n in (2, 5, 8):
        dims = ModelDims(n, 2)
        assert sphere_moment(variable(dims, 1, 2, 2)) == Fraction(1, n)
    passed, detail = run("1")
    assert passed, detail


def test_criterion_02_gram_consistency():
    passed, detail = run("2")
    assert passed, detail


def test_criterion_03_griffiths_suite():
    passed, detail = run("3")
    assert passed, detail


def test_criterion_04_dirichlet_form():
    passed, detail = run("4")
    assert passed, detail


def test_criterion_05_heat_semigroup():
    passed, detail = run("5")
    assert passed, detail


def test_criterion_06_gegenbauer_eigencheck():
    passed, detail = run("6")
    assert passed, detail


def test_criterion_07_chernoff_products():
    passed, detail = run("7")
    assert passed, detail


def test_criterion_08a_normalization_bound():
    passed, detail = run("8a")
    assert passed, detail


def test_criterion_08b_normalization_n3_slope():
    """Asserted exactly as specified; fails for a proven mathematical reason.

    The check demands the log-log slope of |ratio - 1| against t to land in
    [0.8, 1.2] for n = 3 over t in {1e-1, 1e-2, 1e-3}.  The exact n = 3
    kernel integral is 2t(1 - e^{-1/t}), so ratio - 1 = e^{-1/t}/(1 - e^{-1/t}):
    4.5e-5 at t = 0.1, ~4e-44 at t = 0.01 (0 to double precision, since 1 + 4e-44
    rounds to 1), 0 at t = 0.001.  No t-linear regime exists to fit.
    """
    pts = [normalization_constant(KernelSpec(3, t)) for t in NORMALIZATION_TS]
    # the bound itself is comfortable ...
    assert all(abs(p.ratio_minus_1) <= 10 * p.t for p in pts)
    # ... and the exact exponential form is confirmed at t = 0.1:
    assert abs(pts[0].ratio_minus_1) == pytest.approx(
        math.exp(-10) / (1 - math.exp(-10)), rel=1e-6
    )
    passed, detail = run("8b")
    assert passed, detail  # expected FAIL: no first-order slope at n = 3


def test_criterion_09_generator_limit():
    passed, detail = run("9")
    assert passed, detail


def test_criterion_10_gaussian_ferromagnet():
    f2 = ferro_from_rows([[2, -1], [-1, 2]])
    assert covariance(f2) == ratlin.freeze([["2/3", "1/3"], ["1/3", "2/3"]])
    x12 = variable(ModelDims(1, 2), 1, 2, mode=GAUSSIAN)
    assert check_gaussian_griffiths(x12, x12, f2).gap == Fraction(5, 9)
    passed, detail = run("10")
    assert passed, detail


def test_criterion_11_trotter_splitting():
    passed, detail = run("11")
    assert passed, detail


def test_criterion_12_mc_cross_validation():
    passed, detail = run("12")
    assert passed, detail


def test_criterion_13_interacting_first_inequality():
    passed, detail = run("13")
    assert passed, detail
