"""Sphere moment engine: radial moments, elimination, oracle equivalence, truncations."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from scipy.integrate import quad

import rotorlab
from rotorlab import moments
from rotorlab.algebra import (
    SPHERE,
    DotPolynomial,
    ModelDims,
    ModelDims as MD,
    one,
    variable,
)
from rotorlab.errors import InputError, ResourceLimitError
from rotorlab.moments import (
    interacting_moment,
    radial_moment,
    sphere_moment,
    sphere_moment_oracle,
)
from test_algebra import random_poly, relabel


def all_monomials(dims, max_degree):
    """Every canonical monomial over dims with total degree <= max_degree."""
    pairs = [
        (i, j) for i in range(1, dims.sites + 1) for j in range(i + 1, dims.sites + 1)
    ]
    for total in range(max_degree + 1):
        for exps in itertools.product(range(total + 1), repeat=len(pairs)):
            if sum(exps) == total:
                yield tuple((pair, e) for pair, e in zip(pairs, exps) if e)


def gaussian_radial_moment_quadrature(n, d):
    """Independent oracle: E|x|^d for x ~ N(0, I_n) by 1-d radial quadrature."""
    num = quad(lambda r: r ** (d + n - 1) * math.exp(-r * r / 2), 0, math.inf)[0]
    den = quad(lambda r: r ** (n - 1) * math.exp(-r * r / 2), 0, math.inf)[0]
    return num / den


@pytest.mark.parametrize("n,d", [(3, 2), (3, 4), (2, 6), (5, 8), (4, 0)])
def test_radial_moment_against_quadrature(n, d):
    exact = radial_moment(n, d)
    approx = gaussian_radial_moment_quadrature(n, d)
    assert math.isclose(float(exact), approx, rel_tol=1e-10)


def test_radial_moment_values():
    assert radial_moment(3, 2) == 3
    assert radial_moment(3, 4) == 15
    assert radial_moment(7, 0) == 1
    assert radial_moment(2, 6) == 2 * 4 * 6
    with pytest.raises(InputError):
        radial_moment(3, 3)


def test_radial_moment_recurrence():
    for n in (2, 3, 5):
        for d in (0, 2, 4, 6):
            assert radial_moment(n, d + 2) == (n + d) * radial_moment(n, d)


def circle_moment_quadrature(expr):
    """Oracle for n=2: direct angular integral over independent circle spins."""
    val = quad(lambda t: expr(math.cos(t)), 0, 2 * math.pi)[0] / (2 * math.pi)
    return val


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
def test_sphere_moment_closed_forms(n):
    dims = MD(n, 3)
    u12 = variable(dims, 1, 2)
    assert sphere_moment(u12 ** 2) == Fraction(1, n)
    assert sphere_moment(u12 ** 4) == Fraction(3, n * (n + 2))
    tri = u12 * variable(dims, 2, 3) * variable(dims, 1, 3)
    assert sphere_moment(tri) == Fraction(1, n * n)
    assert sphere_moment(u12 ** 2 * variable(dims, 1, 3) ** 2) == Fraction(1, n * n)


def test_sphere_moment_circle_cross_check():
    # independent circle integral: E cos^2 = 1/2, E cos^4 = 3/8
    assert math.isclose(circle_moment_quadrature(lambda c: c * c), 0.5, abs_tol=1e-12)
    assert math.isclose(circle_moment_quadrature(lambda c: c ** 4), 0.375, abs_tol=1e-12)
    dims = MD(2, 2)
    assert sphere_moment(variable(dims, 1, 2, 2)) == Fraction(1, 2)
    assert sphere_moment(variable(dims, 1, 2, 4)) == Fraction(3, 8)


def test_sphere_moment_parity():
    dims = MD(3, 3)
    assert sphere_moment(variable(dims, 1, 2)) == 0
    assert sphere_moment(variable(dims, 1, 2) * variable(dims, 2, 3)) == 0
    assert sphere_moment(variable(dims, 1, 2, 3)) == 0


def test_elimination_order_independence():
    # every site order, each from a cold memo: a relabelling changes which
    # site is eliminated first
    rng = random.Random(11)
    dims = MD(3, 4)
    pairs = [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
    for _ in range(8):
        powers = {}
        for _ in range(rng.randrange(1, 6)):
            pair = rng.choice(pairs)
            powers[pair] = powers.get(pair, 0) + 1
        p = DotPolynomial(dims, SPHERE, [(tuple(powers.items()), Fraction(1))])
        results = set()
        for perm in itertools.permutations(range(1, 5)):
            rotorlab.clear_caches()
            results.add(sphere_moment(relabel(p, perm)))
        assert len(results) == 1
        assert results == {sphere_moment_oracle(next(iter(p.terms)), dims)}


def test_relabel_invariance():
    rng = random.Random(13)
    dims = MD(3, 4)
    for _ in range(8):
        p = random_poly(dims, SPHERE, rng, terms=3, budget=4)
        for perm in ([2, 1, 4, 3], [4, 3, 2, 1], [2, 3, 4, 1]):
            assert sphere_moment(relabel(p, perm)) == sphere_moment(p)


@pytest.mark.parametrize("n", [2, 3])
def test_oracle_matches_elimination_small(n):
    dims = MD(n, 3)
    for mono in all_monomials(dims, 4):
        p = DotPolynomial(dims, SPHERE, [(mono, Fraction(1))])
        assert sphere_moment_oracle(mono, dims) == sphere_moment(p), mono


def random_even_monomial(rng, sites, max_degree):
    """Random monomial over 1..sites with every site degree even and <= max_degree."""
    pairs = [(i, j) for i in range(1, sites + 1) for j in range(i + 1, sites + 1)]
    degs = [0] * (sites + 1)
    powers = {}
    for _ in range(rng.randrange(sites, 3 * sites)):
        i, j = rng.choice(pairs)
        if degs[i] < max_degree - 1 and degs[j] < max_degree - 1:
            powers[(i, j)] = powers.get((i, j), 0) + 1
            degs[i] += 1
            degs[j] += 1
    odd = [s for s in range(1, sites + 1) if degs[s] % 2]  # always an even count
    for i, j in zip(odd[::2], odd[1::2]):
        powers[(i, j)] = powers.get((i, j), 0) + 1
    return tuple(sorted(powers.items()))


@pytest.mark.parametrize("seed", range(4))
def test_integer_elimination_matches_oracle(seed):
    # exercises the integer N / R bookkeeping on site degrees up to 8, where a
    # wrong radial quotient would show against the independent route
    rng = random.Random(seed)
    for n in (2, 3, 4):
        for _ in range(3):
            dims = MD(n, rng.choice([4, 5]))
            mono = random_even_monomial(rng, dims.sites, 8)
            p = DotPolynomial(dims, SPHERE, [(mono, Fraction(1))])
            assert sphere_moment(p) == sphere_moment_oracle(mono, dims), (n, mono)


def test_oracle_examples():
    dims = MD(3, 3)
    m = next(iter(variable(dims, 1, 2, 2).terms))
    assert sphere_moment_oracle(m, dims) == Fraction(1, 3)
    tri = variable(dims, 1, 2) * variable(dims, 2, 3) * variable(dims, 1, 3)
    assert sphere_moment_oracle(next(iter(tri.terms)), dims) == Fraction(1, 9)
    assert sphere_moment_oracle(next(iter(variable(dims, 1, 2).terms)), dims) == 0


def test_gram_relation_consistency():
    # det Gram(s1, s2, s3) vanishes identically for three unit vectors in the
    # plane; its expectation must be exactly zero term by term.
    dims = MD(2, 3)
    u12, u13, u23 = (variable(dims, *p) for p in [(1, 2), (1, 3), (2, 3)])
    gram = one(dims) + 2 * u12 * u13 * u23 - u12 ** 2 - u13 ** 2 - u23 ** 2
    assert sphere_moment(gram) == 0


def test_griffiths_first_randomized():
    rng = random.Random(17)
    for n in (2, 3, 5):
        dims = MD(n, 4)
        for _ in range(10):
            p = random_poly(dims, SPHERE, rng, terms=3, budget=4, signed=False)
            assert sphere_moment(p) >= 0


def test_interacting_free_case():
    dims = MD(3, 2)
    p = variable(dims, 1, 2, 2)
    result = interacting_moment(p, {}, order=5)
    assert result.value == sphere_moment(p)
    assert result.tail_gap == 0


def test_interacting_partition_lower_bound():
    dims = MD(3, 2)
    result = interacting_moment(one(dims), {(1, 2): Fraction(1, 2)}, order=6)
    assert result.partition >= 1
    assert result.value == 1  # E_J[1] is exactly 1 at any truncation order


def test_interacting_odd_moment_positive():
    dims = MD(3, 2)
    result = interacting_moment(variable(dims, 1, 2), {(1, 2): Fraction(1, 10)}, order=6)
    assert result.value > 0
    # manual series: sum over odd k of J^k/k! E[u^(k+1)]
    J = Fraction(1, 10)
    expect_num = sum(
        J ** k / math.factorial(k) * sphere_moment(variable(dims, 1, 2, k + 1))
        for k in range(7)
    )
    assert result.numerator == expect_num


def test_interacting_tail_bound_in_log_space():
    # e^S S^(K+1) exceeds the float range at S = 560, K = 32; tau = e^S S^(K+1)/(K+1)! does not
    dims = MD(3, 2)
    p = variable(dims, 1, 2)
    order = moments.MAX_ORDER
    assert interacting_moment(p, {}, order=order).tail_gap == 0
    result = interacting_moment(p, {(1, 2): 560}, order=order)
    tau = math.exp(560 + (order + 1) * math.log(560) - math.lgamma(order + 2))
    assert result.tail_gap == pytest.approx(tau * (1 + float(result.value)), rel=1e-12)


def test_interacting_refuses_orders_above_the_cap(monkeypatch):
    dims = MD(3, 2)
    monkeypatch.setattr(moments, "sphere_moment", None)  # no moment may be taken
    for order in (moments.MAX_ORDER + 1, 10 ** 9):
        with pytest.raises(ResourceLimitError, match=f"order {order} is above the cap"):
            interacting_moment(variable(dims, 1, 2), {(1, 2): Fraction(1, 10)}, order=order)


def test_interacting_rejects_negative_coupling():
    dims = MD(3, 2)
    with pytest.raises(InputError):
        interacting_moment(one(dims), {(1, 2): Fraction(-1, 2)})


def test_interacting_rejects_non_cone():
    dims = MD(3, 2)
    with pytest.raises(InputError):
        interacting_moment(-one(dims), {})


def test_vector_keeps_present_sites_in_order():
    # sites 2, 4, 5 become 0, 1, 2; slots run (0,1), (0,2), (1,2)
    m = next(iter((variable(MD(2, 5), 2, 4) * variable(MD(2, 5), 4, 5, 3)).terms))
    assert moments._vector(m) == (1, 0, 3)
    assert moments._vector(()) == ()


def vanishing_partner_shapes(sites):
    """Monomials where eliminating a site leaves a partner with degree 0."""
    u = lambda i, j, p: (((i, j), p),)
    yield u(1, 2, 2) + u(1, 3, 2)
    yield u(1, 2, 2) + u(3, 4, 2)
    yield u(1, 2, 4) + u(2, 3, 2) + u(4, 5, 2)
    yield tuple(sorted(u(1, sites, 2) + u(2, 3, 2) + u(3, sites, 2)))


@pytest.mark.parametrize("sites", [7, 8])
def test_sphere_moment_matches_oracle_on_many_sites(sites):
    rng = random.Random(sites)
    monos = list(vanishing_partner_shapes(sites))
    monos += [random_even_monomial(rng, sites, 4) for _ in range(6)]
    for n in (2, 3, 5):
        dims = MD(n, sites)
        for mono in monos:
            p = DotPolynomial(dims, SPHERE, [(mono, Fraction(1))])
            assert sphere_moment(p) == sphere_moment_oracle(mono, dims), (n, mono)


def test_mono_moment_visits_pinned_states():
    # the memo's hits and misses count the elimination states, a relabelled
    # state counting twice (its own vector and the relabelled one); any change
    # to which children the kernel builds, how it keys them, or how it
    # relabels them moves them.  A monomial with an odd site degree is 0
    # before it reaches the memo, so the odd terms of these powers count nothing
    rotorlab.clear_caches()
    for n in (2, 3):
        dims = MD(n, 5)
        u = lambda i, j, p=1: variable(dims, i, j, p)
        for p in (
            u(1, 2, 2) * u(1, 3, 2),
            u(1, 2, 2) * u(3, 4, 2) * u(4, 5, 2),
            (u(1, 2) * u(2, 3) * u(1, 3) + u(4, 5)) ** 2,
            (u(1, 2) + u(2, 3) + u(3, 4) + u(4, 5) + u(1, 5)) ** 4,
        ):
            sphere_moment(p)
    info = moments._mono_moment.cache_info()
    assert (info.hits, info.misses) == (38, 22)
    assert moments._partner_pairing_sum.cache_info().misses == 7


def test_odd_monomials_never_reach_the_memo():
    dims = MD(3, 4)
    u = lambda i, j, p=1: variable(dims, i, j, p)
    # every term has a site of odd degree: u12 u23^2, u13^3 u24^2, u12 u23 u34
    p = u(1, 2) * u(2, 3, 2) + 3 * u(1, 3, 3) * u(2, 4, 2) + u(1, 2) * u(2, 3) * u(3, 4)
    rotorlab.clear_caches()
    before = moments._mono_moment.cache_info()
    assert sphere_moment(p) == 0
    assert moments._mono_moment.cache_info() == before


@pytest.mark.parametrize("n", [2, 3, 5])
def test_permuted_sites_match_oracle_from_a_cold_memo(n):
    # a cold memo makes every value run its own eliminations, relabelled or
    # not, so a wrong relabelling cannot hide behind a memoised state
    rng = random.Random(40 + n)
    for sites in range(2, moments.RELABEL_SITES + 1):
        dims = MD(n, sites)
        mono = random_even_monomial(rng, sites, 4)
        expect = sphere_moment_oracle(mono, dims)
        p = DotPolynomial(dims, SPHERE, [(mono, Fraction(1))])
        for _ in range(3):
            permuted = relabel(p, rng.sample(range(1, sites + 1), sites))
            rotorlab.clear_caches()
            assert sphere_moment(permuted) == expect, (n, permuted)


def test_relabelling_a_relabelled_vector_is_the_identity():
    rng = random.Random(9)
    for sites in range(2, moments.RELABEL_SITES + 1):
        for _ in range(25):
            vec = moments._vector(random_even_monomial(rng, sites, 6))
            degs, order = moments._site_order(vec)
            identity = tuple(range(len(order)))
            if order == identity:
                continue
            relabelled = moments._relabelling(order)(vec)
            assert sorted(relabelled) == sorted(vec)
            assert moments._site_order(relabelled) == ([degs[s] for s in order], identity)
            assert moments._relabelling(identity)(relabelled) == relabelled


def test_exponents_past_the_weight_table_are_relabelled_exactly():
    # E[(s1.s2)^a (s2.s3)^b] = E[(s.e)^a] E[(s.e)^b], E[(s.e)^k] = (k-1)!! / radial_moment(n, k)
    n = 3
    dims = MD(n, 3)
    line = lambda k: Fraction(math.prod(range(k - 1, 0, -2)), radial_moment(n, k))
    for a, b in ((64, 70), (2, 100)):
        for i, j, k in itertools.permutations((1, 2, 3)):
            p = variable(dims, *sorted((i, j)), a) * variable(dims, *sorted((j, k)), b)
            rotorlab.clear_caches()
            assert sphere_moment(p) == line(a) * line(b), (a, b, i, j, k)


def test_long_chain_counts_its_relabelled_frames():
    # only states on at most RELABEL_SITES sites take the extra relabelling
    # frame, so the 390-site chain stays inside the recursion budget
    chain = tuple(((i, i + 1), 2) for i in range(1, 390))
    rotorlab.clear_caches()
    got = sphere_moment(DotPolynomial(MD(3, 390), SPHERE, [(chain, Fraction(1))]))
    assert got == Fraction(1, 3 ** 389)
    # 392 sites, 8 relabelled states and a pairing sum of depth 2 need 402 frames
    chain = tuple(((i, i + 1), 2) for i in range(1, 392))
    with pytest.raises(ResourceLimitError, match="392 sites of degree up to 4 needs about 402"):
        sphere_moment(DotPolynomial(MD(3, 392), SPHERE, [(chain, Fraction(1))]))


def test_many_sites_are_refused_before_their_vector_is_built():
    dims = MD(3, 1000)
    chain = tuple(((i, i + 1), 2) for i in range(1, 1000))
    p = DotPolynomial(dims, SPHERE, [(chain, Fraction(1))])
    with pytest.raises(ResourceLimitError, match="eliminating 1000 sites"):
        sphere_moment(p)
