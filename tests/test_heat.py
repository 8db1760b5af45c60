"""Heat semigroup: Laplacian rules, Dirichlet positivity, flows, eigenchecks."""

import hashlib
import math
import random
from fractions import Fraction

import pytest

from rotorlab import heat
from rotorlab.algebra import (
    GAUSSIAN,
    DotPolynomial,
    ModelDims,
    SPHERE,
    constant,
    mono_div,
    mono_mul,
    one,
    variable,
)
from rotorlab.errors import InputError, ResourceLimitError
from rotorlab.gaussian import ferro_from_rows, ou_invariant_basis, trotter_compare
from rotorlab.heat import (
    build_invariant_basis,
    correlation_flow,
    dirichlet,
    grad_dot,
    heat_evolve,
    laplacian,
)
from rotorlab.moments import sphere_moment
from rotorlab.zonal import gegenbauer_coefficients, laplace_eigenvalue
from test_algebra import random_poly

D23 = ModelDims(2, 3)
D33 = ModelDims(3, 3)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_laplacian_examples(n):
    dims = ModelDims(n, 2)
    u = variable(dims, 1, 2)
    assert laplacian(u) == -2 * (n - 1) * u
    assert laplacian(u ** 2) == constant(dims, 4) - 4 * n * u ** 2
    assert laplacian(constant(dims, Fraction(5, 3))) == 0


def test_laplacian_mode_check():
    from rotorlab.algebra import GAUSSIAN

    with pytest.raises(InputError):
        laplacian(variable(D23, 1, 2, mode=GAUSSIAN))


@pytest.mark.parametrize("n", [2, 3])
def test_grad_dot_examples(n):
    dims = ModelDims(n, 4)
    u12 = variable(dims, 1, 2)
    u13 = variable(dims, 1, 3)
    assert grad_dot(u12, u12) == 2 * one(dims) - 2 * u12 ** 2
    assert grad_dot(u12, u13) == variable(dims, 2, 3) - u12 * u13
    assert grad_dot(u12, variable(dims, 3, 4)) == 0


# -- reference: the per-site sphere contraction rules --------------------------
#
#     lap_i u_ij                = -(n-1) u_ij
#     grad_i u_ij . grad_i u_ij = 1 - u_ij^2
#     grad_i u_ij . grad_i u_ik = u_jk - u_ij u_ik          (j != k)
#     grad_i u_jk               = 0 whenever i is not an endpoint
#
# extended to monomials with the Leibniz rule.  The package derives both
# operators from the flat rules instead, so these stay as an independent check.

def _incidence(mono):
    """site -> [(pair, exponent, other endpoint)] for the pairs touching it."""
    table = {}
    for (i, j), p in mono:
        table.setdefault(i, []).append(((i, j), p, j))
        table.setdefault(j, []).append(((i, j), p, i))
    return table


def _accumulate(table, mono, coeff):
    table[mono] = table.get(mono, 0) + coeff


def reference_laplacian(poly):
    n = poly.dims.n
    out = {}
    for mono, c0 in poly.terms.items():
        for incident in _incidence(mono).values():
            degree = sum(p for _, p, _ in incident)
            _accumulate(out, mono, -c0 * (n - 1) * degree)
            for pair, p, _ in incident:
                if p >= 2:
                    _accumulate(out, mono_div(mono, pair, 2), c0 * p * (p - 1))
                    _accumulate(out, mono, -c0 * p * (p - 1))
            for a, (pair_a, pa, ja) in enumerate(incident):
                for pair_b, pb, jb in incident[a + 1:]:
                    base = mono_div(mono_div(mono, pair_a), pair_b)
                    bridge = ((tuple(sorted((ja, jb))), 1),)
                    _accumulate(out, mono_mul(base, bridge), 2 * c0 * pa * pb)
                    _accumulate(out, mono, -2 * c0 * pa * pb)
    return DotPolynomial(poly.dims, SPHERE, out)


def reference_grad_dot(f, h):
    out = {}
    for m1, c1 in f.terms.items():
        inc1 = _incidence(m1)
        for m2, c2 in h.terms.items():
            inc2 = _incidence(m2)
            for site in inc1.keys() & inc2.keys():
                for pair_a, pa, ja in inc1[site]:
                    for pair_b, pb, jb in inc2[site]:
                        coeff = c1 * c2 * pa * pb
                        base = mono_mul(mono_div(m1, pair_a), mono_div(m2, pair_b))
                        if ja != jb:
                            base = mono_mul(base, ((tuple(sorted((ja, jb))), 1),))
                        _accumulate(out, base, coeff)
                        _accumulate(out, mono_mul(m1, m2), -coeff)
    return DotPolynomial(f.dims, SPHERE, out)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_operators_match_per_site_rules(n):
    rng = random.Random(100 + n)
    for _ in range(25):
        dims = ModelDims(n, rng.randrange(2, 7))
        f = random_poly(dims, SPHERE, rng, terms=3, budget=4)
        h = random_poly(dims, SPHERE, rng, terms=3, budget=4)
        assert laplacian(f) == reference_laplacian(f)
        assert grad_dot(f, h) == reference_grad_dot(f, h)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_dirichlet_examples(n):
    dims = ModelDims(n, 3)
    u12 = variable(dims, 1, 2)
    assert dirichlet(u12, u12) == 2 - Fraction(2, n)
    assert dirichlet(u12, variable(dims, 1, 3)) == 0
    assert dirichlet(one(dims), variable(dims, 1, 3, 2)) == 0


def test_self_adjointness_randomized():
    rng = random.Random(29)
    for n in (2, 3):
        dims = ModelDims(n, 3)
        for _ in range(6):
            f = random_poly(dims, SPHERE, rng, terms=3, budget=3)
            h = random_poly(dims, SPHERE, rng, terms=3, budget=3)
            d = dirichlet(f, h)
            assert sphere_moment(f * laplacian(h)) == -d
            assert sphere_moment(h * laplacian(f)) == -d


def test_declared_site_count_costs_nothing():
    """Degrees are counted only on the sites a monomial touches: u12^2 declared on
    10^7 sites gives what it gives on 2, in the same memory."""
    import tracemalloc

    results = []
    for sites in (2, 10 ** 7):
        u = variable(ModelDims(3, sites), 1, 2, 2)
        tracemalloc.start()
        try:
            results.append((laplacian(u).terms, dirichlet(u, u)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
    assert results[0] == results[1]


def test_dirichlet_positivity_randomized():
    rng = random.Random(31)
    for n in (2, 3):
        dims = ModelDims(n, 3)
        for _ in range(8):
            f = random_poly(dims, SPHERE, rng, terms=2, budget=4, signed=False)
            h = random_poly(dims, SPHERE, rng, terms=2, budget=4, signed=False)
            assert dirichlet(f, h) >= 0


def entry(sg, i, j):
    """<basis_i | G basis_j> read from the exact sparse columns."""
    return sg.columns[j].get(sg.basis[i], 0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_invariant_basis_examples(n):
    dims = ModelDims(n, 2)
    u = variable(dims, 1, 2)
    sg = build_invariant_basis(u)
    assert sg.basis == (next(iter(u.terms)),)
    assert entry(sg, 0, 0) == Fraction(-2 * (n - 1))

    sg2 = build_invariant_basis(u ** 2)
    monos = {(): None, next(iter((u ** 2).terms)): None}
    assert set(sg2.basis) == set(monos)
    sq = sg2.index(next(iter((u ** 2).terms)))
    const = sg2.index(())
    assert entry(sg2, sq, sq) == -4 * n
    assert entry(sg2, const, sq) == 4
    assert entry(sg2, sq, const) == 0 and entry(sg2, const, const) == 0

    sg3 = build_invariant_basis(one(dims))
    assert sg3.basis == ((),) and entry(sg3, 0, 0) == Fraction(0)



def _gegenbauer(dims, l, i, j):
    u = variable(dims, i, j)
    return sum((c * u ** k for k, c in enumerate(gegenbauer_coefficients(dims.n, l))),
               constant(dims, 0))


def _cycle_product(dims):
    p = variable(dims, 1, 2)
    for i, j in ((2, 3), (3, 4), (4, 5), (1, 5), (1, 3), (2, 4)):
        p = p * variable(dims, i, j)
    return p


D34, D25, D23G = ModelDims(3, 4), ModelDims(3, 5), ModelDims(2, 3)


@pytest.mark.parametrize("build,size,digest", [
    (lambda: build_invariant_basis(_cycle_product(D25)), 117,
     "93ef159e005efcceeea3cf0b8d3236900f74cd17c583332f12f7a8f5038d9478"),
    (lambda: ou_invariant_basis(
        variable(D23G, 1, 2, 2, mode=GAUSSIAN) * variable(D23G, 3, 3, mode=GAUSSIAN)
        + variable(D23G, 2, 3, mode=GAUSSIAN),
        ferro_from_rows([[2, -1, 0], [-1, 3, -1], [0, -1, 2]])), 84,
     "440622de70f63228532a11b2ed67153cf911ad3eb96d5d14a64bb1dfe81b37fd"),
    (lambda: build_invariant_basis(_gegenbauer(D34, 4, 1, 2) * _gegenbauer(D34, 3, 3, 4)), 6,
     "e0052689db6685128b5a78bce25627de0126f8343ee01e1b76a1c7a5e6f73764"),
], ids=["sphere-cycle", "ou", "gegenbauer-product"])
def test_closures_are_pinned(build, size, digest):
    # the basis order and every exact column, so the dense generator and each
    # expm input, are held bit for bit (weights keep their int or Fraction type)
    sg = build()
    text = repr((sg.basis, [sorted(column.items()) for column in sg.columns]))
    assert len(sg.basis) == size
    assert hashlib.sha256(text.encode()).hexdigest() == digest

def test_basis_cap(monkeypatch):
    """Closure stops as soon as the basis outgrows the dense budget, before the rest of
    the basis is generated."""
    dims = ModelDims(2, 4)
    p = variable(dims, 1, 2, 4) * variable(dims, 3, 4, 4)
    size = len(build_invariant_basis(p).basis)
    calls = []

    def counting(mono, dims):
        calls.append(mono)
        return heat._laplacian_mono(mono, dims)

    monkeypatch.setattr(heat, "DENSE_BYTES_BUDGET", 80 * 3 * 3)  # room for three monomials
    with pytest.raises(ResourceLimitError, match="above the budget"):
        heat.close_basis(p.terms.keys(), dims, SPHERE, counting)
    assert 0 < len(calls) < size == 9


def test_dense_generator_budget(monkeypatch):
    dims = ModelDims(2, 4)
    p = variable(dims, 1, 2, 4) * variable(dims, 3, 4, 4)
    x = variable(ModelDims(2, 2), 1, 2, 2, mode=GAUSSIAN)
    f = ferro_from_rows([[2, -1], [-1, 2]])
    rows = [
        (len(build_invariant_basis(p).basis),
         [lambda: build_invariant_basis(p), lambda: heat_evolve(p, 0.5),
          lambda: correlation_flow(p, p, [0.0, 1.0])]),
        (len(ou_invariant_basis(x, f).basis),
         [lambda: ou_invariant_basis(x, f), lambda: trotter_compare(x, f, 0.5, [2])]),
    ]
    for size, runs in rows:
        # ten size x size float64 arrays: the generator and expm's workspace
        monkeypatch.setattr(heat, "DENSE_BYTES_BUDGET", 80 * size * size)
        for run in runs:
            run()
        monkeypatch.setattr(heat, "DENSE_BYTES_BUDGET", 80 * size * size - 1)
        refused = f"dense generator on at least {size} monomials"
        for run in runs:
            with pytest.raises(ResourceLimitError, match=refused):
                run()


def expm_rational(matrix, t, tol=Fraction(1, 10 ** 30)):
    """exp(t M) by its exact Taylor series; the slow oracle for evolve.

    Summation stops once the order k exceeds twice the 1-norm of tM and every
    entry of the last term is below tol: from there on each term at most
    halves, so the neglected tail is below 2 * size * tol entrywise.
    """
    size = len(matrix)
    norm = max((sum(abs(matrix[i][j]) for i in range(size)) for j in range(size)), default=0) * t
    result = [[Fraction(i == j) for j in range(size)] for i in range(size)]
    term = [row[:] for row in result]
    k = 0
    while k <= 2 * norm or max(abs(x) for row in term for x in row) >= tol:
        k += 1
        term = [
            [sum((term[i][r] * matrix[r][j] for r in range(size)), Fraction(0)) * t / k
             for j in range(size)]
            for i in range(size)
        ]
        for i in range(size):
            for j in range(size):
                result[i][j] += term[i][j]
    return result


def _sphere_case(n, sites=2):
    dims = ModelDims(n, sites)
    p = variable(dims, 1, 2, 2)
    if sites == 3:
        p = p * variable(dims, 1, 3, 2)
    return build_invariant_basis(p), p


def _ou_case(n):
    v11 = variable(ModelDims(n, 1), 1, 1, mode=GAUSSIAN)
    return ou_invariant_basis(v11, ferro_from_rows([[2]])), v11


def test_expm_rational_matches_float():
    # the engine's own exact columns, exponentiated exactly, against its float evolve
    cases = [_sphere_case(n) for n in (2, 3, 4)] + [_sphere_case(3, sites=3)]
    cases += [_ou_case(n) for n in (1, 3)]
    for sg, p in cases:
        size = len(sg.basis)
        matrix = [[entry(sg, i, j) for j in range(size)] for i in range(size)]
        coeffs = [p.terms.get(mono, Fraction(0)) for mono in sg.basis]
        for t in (Fraction(1, 4), Fraction(1)):
            exact = expm_rational(matrix, t)
            evolved = sg.evolve(p, float(t))
            for i, mono in enumerate(sg.basis):
                want = float(sum(exact[i][j] * coeffs[j] for j in range(size)))
                assert math.isclose(evolved.coefficient(mono), want, rel_tol=1e-12, abs_tol=1e-14)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("t", [0.0, 0.05, 0.5, 2.0])
def test_heat_evolve_closed_forms(n, t):
    dims = ModelDims(n, 2)
    u = variable(dims, 1, 2)
    mono = next(iter(u.terms))
    out = heat_evolve(u, t)
    assert math.isclose(out.coefficient(mono), math.exp(-2 * (n - 1) * t), abs_tol=1e-12)

    out2 = heat_evolve(u ** 2, t)
    sq = next(iter((u ** 2).terms))
    assert math.isclose(out2.coefficient(sq), math.exp(-4 * n * t), abs_tol=1e-12)
    expect_const = (1 - math.exp(-4 * n * t)) / n
    assert math.isclose(out2.coefficient(()), expect_const, abs_tol=1e-12)
    assert out2.min_coefficient() >= -1e-12


def test_heat_evolve_identity_at_zero():
    p = variable(D33, 1, 2, 2) * variable(D33, 2, 3) + 2 * variable(D33, 1, 3)
    out = heat_evolve(p, 0.0)
    for mono, coeff in p.terms.items():
        assert math.isclose(out.coefficient(mono), float(coeff), abs_tol=1e-14)


def test_heat_cone_preservation_randomized():
    rng = random.Random(37)
    for n, sites in ((2, 2), (3, 2), (3, 3), (4, 3)):
        dims = ModelDims(n, sites)
        for _ in range(4):
            p = random_poly(dims, SPHERE, rng, terms=2, budget=3, signed=False)
            for t in (0.01, 0.3, 1.0, 5.0):
                assert heat_evolve(p, t).min_coefficient() >= -1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_flow_eigen_case(n):
    dims = ModelDims(n, 2)
    u = variable(dims, 1, 2)
    ts = [0.1 * k for k in range(11)]
    flow = correlation_flow(u, u, ts)
    for t, h in zip(flow.times, flow.values):
        assert math.isclose(h, math.exp(-2 * (n - 1) * t) / n, abs_tol=1e-12)
    assert flow.monotone
    assert flow.product_of_means == 0.0


def test_flow_square_case():
    dims = ModelDims(2, 2)
    u2 = variable(dims, 1, 2, 2)
    ts = [0.0, 0.25, 0.5, 1.0, 3.0]
    flow = correlation_flow(u2, u2, ts)
    for t, h in zip(flow.times, flow.values):
        assert math.isclose(h, math.exp(-8 * t) / 8 + 0.25, abs_tol=1e-12)
    assert math.isclose(flow.values[0], 3 / 8, abs_tol=1e-14)
    assert flow.monotone


def test_flow_constant_f():
    g = variable(D33, 1, 2, 2) + variable(D33, 2, 3, 2)
    flow = correlation_flow(one(D33), g, [0.0, 0.5, 1.0])
    eg = float(sphere_moment(g))
    assert all(math.isclose(h, eg, abs_tol=1e-12) for h in flow.values)


def test_flow_random_monotone_to_limit():
    rng = random.Random(41)
    for n in (2, 3):
        dims = ModelDims(n, 3)
        for _ in range(3):
            f = random_poly(dims, SPHERE, rng, terms=2, budget=3, signed=False)
            g = random_poly(dims, SPHERE, rng, terms=2, budget=3, signed=False)
            tmax = 20.0 / (n - 1)
            ts = [tmax * k / 40 for k in range(41)]
            flow = correlation_flow(f, g, ts)
            assert flow.monotone
            assert flow.limit_gap <= 1e-8


def test_flow_grid_validation():
    u = variable(D23, 1, 2)
    for bad in ([0.5, 0.1], [], [0.0, math.nan], [0.0, math.inf], [-0.1, 0.0]):
        with pytest.raises(InputError):
            correlation_flow(u, u, bad)


@pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
def test_evolve_rejects_bad_time(t):
    u = variable(D23, 1, 2)
    with pytest.raises(InputError):
        heat_evolve(u, t)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_gegenbauer_eigencheck_exact(n):
    # lap G_l(u12) = -2 l (l + n - 2) G_l(u12), exactly, summed over both sites
    dims = ModelDims(n, 2)
    u = variable(dims, 1, 2)
    for l in range(7):
        coeffs = gegenbauer_coefficients(n, l)
        gl = sum((c * u ** k for k, c in enumerate(coeffs)), constant(dims, 0))
        assert laplacian(gl) == -2 * laplace_eigenvalue(n, l) * gl


@pytest.mark.parametrize("n", [2, 3])
def test_heat_evolve_gegenbauer_scaling(n):
    # exp(t lap) G_l(u12) = exp(-2 l (l+n-2) t) G_l(u12) in floats; the
    # per-sphere kernel reference exp(-l (l+n-2) t) must be the square root
    # of the observed two-site factor
    dims = ModelDims(n, 2)
    u = variable(dims, 1, 2)
    for l in (1, 2, 3):
        coeffs = gegenbauer_coefficients(n, l)
        gl = sum((c * u ** k for k, c in enumerate(coeffs)), constant(dims, 0))
        t = 0.3
        out = heat_evolve(gl, t)
        scale = math.exp(-2 * laplace_eigenvalue(n, l) * t)
        for mono, coeff in gl.terms.items():
            assert math.isclose(out.coefficient(mono), scale * float(coeff), abs_tol=1e-10)
        top = max(gl.terms, key=len)
        observed = out.coefficient(top) / float(gl.terms[top])
        per_sphere = math.exp(-laplace_eigenvalue(n, l) * t)
        assert math.isclose(math.sqrt(observed), per_sphere, abs_tol=1e-10)
