"""Ferromagnetic Gaussian spins: moments, positivity, OU generator, Trotter."""

import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from rotorlab import gaussian, ratlin
from rotorlab.algebra import (
    CONST_MONO,
    GAUSSIAN,
    DotPolynomial,
    FloatPolynomial,
    ModelDims,
    constant,
    mono_mul,
    one,
    save_polynomial,
    variable,
    zero,
)
from rotorlab.cli import main
from rotorlab.errors import InputError, ResourceLimitError
from rotorlab.gaussian import (
    FerroMatrix,
    check_gaussian_griffiths,
    covariance,
    ferro_from_dict,
    ferro_from_rows,
    gaussian_laplacian,
    gaussian_moment,
    heat_apply,
    matrix_semigroup,
    ou_generator,
    ou_invariant_basis,
    random_ferro,
    trotter_compare,
)
from rotorlab.griffiths import random_cone_poly
from rotorlab.heat import _flat_laplacian_mono, _pair
from rotorlab.mc import estimate_moment
from rotorlab.moments import radial_moment
from rotorlab.numerics import fitted_order
from rotorlab.wick import vector_moment

F2 = ferro_from_rows([[2, -1], [-1, 2]])


def mixed_ferro(size):
    """4 on the diagonal, -1 on the neighbours, -1/(7+i+j) everywhere else:
    mixed denominators, so D F has entries far wider than F's."""
    return ferro_from_rows([[4 if i == j else -1 if abs(i - j) == 1 else Fraction(-1, 7 + i + j)
                             for j in range(size)] for i in range(size)])


MIXED = [mixed_ferro(size) for size in range(2, 11)]


def pairings(labels):
    """Yield all perfect matchings of the labels (none when the count is odd)."""
    items = list(labels)
    if len(items) % 2:
        return
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for k, partner in enumerate(rest):
        for tail in pairings(rest[:k] + rest[k + 1:]):
            yield [(first, partner)] + tail


def test_pairings_counts():
    for labels in ([1, 2], [1, 2, 3, 4], list(range(6)), list(range(8))):
        matchings = list(pairings(labels))
        assert len(matchings) == math.prod(range(len(labels) - 1, 0, -2))  # (L-1)!!
        # each matching covers every label exactly once
        for m in matchings:
            flat = sorted(x for pair in m for x in pair)
            assert flat == sorted(labels)
    assert list(pairings([1, 2, 3])) == []


def brute_force_vector_moment(factors, cov, n):
    """Oracle: explicit slot pairings with union-find loop counting.

    Entirely different code path from the chain-walk in rotorlab.wick.
    """
    slots = []
    for t, (a, b) in enumerate(factors):
        slots.append((t, a))
        slots.append((t, b))
    total = Fraction(0)
    for matching in pairings(range(len(slots))):
        parent = list(range(len(factors)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        weight = Fraction(1)
        loops = 0
        for s1, s2 in matching:
            t1, site1 = slots[s1]
            t2, site2 = slots[s2]
            weight *= Fraction(cov[site1][site2])
            r1, r2 = find(t1), find(t2)
            if r1 == r2:
                loops += 1
            else:
                parent[r1] = r2
        total += weight * n ** loops
    return total


@pytest.mark.parametrize("n", [1, 2, 3])
def test_vector_moment_matches_brute_force(n):
    rng = random.Random(47)
    cov = [[Fraction(2, 3), Fraction(1, 3), Fraction(1, 4)],
           [Fraction(1, 3), Fraction(1, 1), Fraction(1, 5)],
           [Fraction(1, 4), Fraction(1, 5), Fraction(3, 4)]]
    sites = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    for _ in range(12):
        factors = [rng.choice(sites) for _ in range(rng.randrange(1, 5))]
        expect = brute_force_vector_moment(factors, cov, n)
        assert vector_moment(factors, cov, n) == expect, factors


@pytest.mark.parametrize("seed", [1, 6, 9])
def test_vector_moment_mixed_denominators(seed):
    # the integer engine scales by the lcm D and divides by D^k; covariances
    # whose entries have different denominators catch a wrong D or power
    cov = covariance(random_ferro(4, seed))
    assert len({x.denominator for row in cov for x in row}) > 2
    rng = random.Random(seed)
    sites = [(i, j) for i in range(4) for j in range(i, 4)]
    for n in (1, 2, 3):
        for _ in range(6):
            factors = [rng.choice(sites) for _ in range(rng.randrange(1, 6))]
            expect = brute_force_vector_moment(factors, cov, n)
            assert vector_moment(factors, cov, n) == expect, factors


def test_factor_codes_fit_every_site_of_a_large_covariance():
    # a factor (a, b) is coded a * N + b on an N x N covariance; a code of
    # fixed width 64 would read the pair (1, 69) as (2, 5)
    size = 70
    f = ferro_from_rows([[3 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(size)]
                         for i in range(size)])
    cov = covariance(f)
    dims = ModelDims(2, size)
    for factors in ([(0, 69), (0, 69)], [(0, 63), (63, 64), (64, 69), (0, 69)],
                    [(0, 0), (63, 69), (64, 64), (1, 69)]):
        expect = brute_force_vector_moment(factors, cov, 2)
        assert vector_moment(factors, cov, 2) == expect, factors
        p = one(dims, GAUSSIAN)
        for a, b in factors:
            p = p * variable(dims, a + 1, b + 1, mode=GAUSSIAN)
        assert gaussian_moment(p, cov) == expect, factors


def test_vector_moment_refuses_sites_outside_the_covariance():
    cov = covariance(F2)
    for factors in ([(0, 2)], [(-1, 0)], [(0, 1), (2, 2)]):
        with pytest.raises(InputError, match="factor sites must lie in 0..1"):
            vector_moment(factors, cov, 2)


def test_vector_moment_radial_consistency():
    # E |x|^{2k} for one site with unit covariance must hit the radial moments
    for n in (2, 3, 5):
        for k in (1, 2, 3):
            got = vector_moment([(0, 0)] * k, [[Fraction(1)]], n)
            assert got == radial_moment(n, 2 * k)


NOT_SYMMETRIC = "matrix is not symmetric"
NOT_PD = "matrix is not positive definite (some leading minor <= 0)"
POSITIVE = "some off-diagonal entry is positive (not ferromagnetic)"


def _ferro_message(failures):
    return "invalid coupling matrix: " + "; ".join(failures)


INVALID_FERRO = [
    ([[1, 2], [2, 1]], [NOT_PD, POSITIVE]),
    ([[2, -1], [0, 2]], [NOT_SYMMETRIC, NOT_PD]),  # asymmetric counts as not PD
    ([[2, 1], [0, 2]], [NOT_SYMMETRIC, NOT_PD, POSITIVE]),
    ([[1, -2], [-2, 1]], [NOT_PD]),
    ([[1, -1], [-1, 1]], [NOT_PD]),  # singular: the last leading minor is 0
    ([[0]], [NOT_PD]),
    ([[2, 1], [1, 2]], [POSITIVE]),
]


def test_invalid_ferro_matrices_cannot_be_built():
    for rows, failures in INVALID_FERRO:
        builders = (
            lambda: FerroMatrix(ratlin.freeze(rows)),
            lambda: ferro_from_rows(rows),
            lambda: ferro_from_dict({"N": len(rows), "entries": rows}),
        )
        for build in builders:
            with pytest.raises(InputError) as err:
                build()
            assert str(err.value) == _ferro_message(failures), rows


def test_non_square_ferro_matrix_cannot_be_built():
    for entries in (((Fraction(2), Fraction(-1)),), ((Fraction(2),), (Fraction(-1), Fraction(2)))):
        with pytest.raises(InputError, match="matrix must be square"):
            FerroMatrix(entries)


def test_valid_ferro_matrices_build():
    for rows in ([[2, -1], [-1, 2]], [[1, 0], [0, 1]], [[3, 0], [0, "1/2"]], []):
        assert ferro_from_rows(rows).entries == ratlin.freeze(rows)


def _leibniz_det(m):
    """det by the Leibniz permutation sum: an elimination-free reference."""
    total = Fraction(0)
    for perm in itertools.permutations(range(len(m))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = Fraction(-1) ** inversions
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def test_construction_verdict_matches_sylvester():
    rng = random.Random(2024)
    verdicts = set()
    for _ in range(400):
        size = rng.randint(1, 5)
        rows = [[Fraction(0)] * size for _ in range(size)]
        for i in range(size):
            rows[i][i] = Fraction(rng.randint(0, 12), rng.randint(1, 3))
            for j in range(i):
                rows[i][j] = rows[j][i] = Fraction(rng.randint(-6, 1), rng.randint(1, 3))
        if size > 1 and rng.random() < 0.2:
            i, j = rng.sample(range(size), 2)
            rows[i][j] -= 1
        symmetric = all(rows[i][j] == rows[j][i] for i in range(size) for j in range(size))
        minors = [_leibniz_det([row[:k] for row in rows[:k]]) for k in range(1, size + 1)]
        pd = symmetric and all(d > 0 for d in minors)
        positive = any(rows[i][j] > 0 for i in range(size) for j in range(size) if i != j)
        failures = ([] if symmetric else [NOT_SYMMETRIC]) + ([] if pd else [NOT_PD]) + (
            [POSITIVE] if positive else [])
        verdicts.add(tuple(failures))
        if failures:
            with pytest.raises(InputError) as err:
                ferro_from_rows(rows)
            assert str(err.value) == _ferro_message(failures)
        else:
            assert ferro_from_rows(rows).entries == ratlin.freeze(rows)
    assert {(), (NOT_PD,), (POSITIVE,), (NOT_SYMMETRIC, NOT_PD)} <= verdicts, verdicts


def test_covariance_examples():
    assert covariance(F2) == ratlin.freeze([["2/3", "1/3"], ["1/3", "2/3"]])
    eye = ferro_from_rows([[1, 0], [0, 1]])
    assert covariance(eye) == ratlin.freeze([[1, 0], [0, 1]])
    diag = ferro_from_rows([[3, 0], [0, "1/2"]])
    assert covariance(diag) == ratlin.freeze([["1/3", 0], [0, 2]])


def test_empty_coupling_has_an_empty_covariance_and_factor():
    assert covariance(FerroMatrix(())) == ()
    assert ratlin.cholesky_float([]) == []


def test_covariance_is_the_exact_inverse():
    for size in range(1, 7):
        for seed in range(6):
            f = random_ferro(size, seed)
            cov = covariance(f)
            product = [
                [sum(cov[i][k] * f.entries[k][j] for k in range(size)) for j in range(size)]
                for i in range(size)
            ]
            assert product == [[int(i == j) for j in range(size)] for i in range(size)]


def ldlt(m):
    """Oracle: M = L D L^T with unit lower-triangular L, in Fractions.

    Reads only the lower triangle; raises InputError at a pivot <= 0.
    Independent of the Bareiss elimination in ``ratlin``.
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
    return lower, diag


def ldlt_inverse(m):
    """Oracle: M^{-1} = L^{-T} D^{-1} L^{-1} from the exact factors of M = L D L^T."""
    lower, diag = ldlt(m)
    size = len(lower)
    # rows of L^{-1}, by forward substitution on the unit lower triangle
    inv_lower = []
    for i in range(size):
        row = [Fraction(0)] * size
        row[i] = Fraction(1)
        for j in range(i):
            row[j] = -sum(lower[i][k] * inv_lower[k][j] for k in range(j, i))
        inv_lower.append(row)
    out = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1):
            out[i][j] = out[j][i] = sum(
                inv_lower[k][i] * inv_lower[k][j] / diag[k] for k in range(i, size)
            )
    return tuple(tuple(row) for row in out)


def test_covariance_matches_the_ldlt_oracle():
    for f in (F2, ferro_from_rows([[1, 0], [0, 1]]), ferro_from_rows([[3, 0], [0, "1/2"]])):
        assert covariance(f) == ldlt_inverse(f.entries)
    for size in range(1, 7):
        for seed in range(6):
            f = random_ferro(size, seed)
            assert covariance(f) == ldlt_inverse(f.entries), (size, seed)
    for f in MIXED:
        assert covariance(f) == ldlt_inverse(f.entries), f.size


def test_cholesky_float_is_the_rounded_ldlt_factor():
    # Monte Carlo's Gaussian draws, and the recorded bits of test_mc, are
    # built on these floats: one rounding of each exact factor
    cases = [covariance(F2), F2.entries]
    cases += [covariance(random_ferro(size, seed)) for size in range(1, 7) for seed in range(6)]
    cases += [m for f in MIXED for m in (f.entries, covariance(f))]
    for m in cases:
        lower, diag = ldlt(m)
        expect = [[float(lower[i][j]) * float(diag[j]) ** 0.5 for j in range(len(m))]
                  for i in range(len(m))]
        assert repr(ratlin.cholesky_float(m)) == repr(expect), m


def test_echelon_holds_the_leading_minors_and_the_ldlt_factors():
    # pivot k is the leading principal minor of order k + 1, and the entries
    # it cleared, row k's upper triangle, are p_k L_ik
    cases = [random_ferro(size, seed).entries for size in range(1, 7) for seed in range(3)]
    cases += [f.entries for f in MIXED if f.size <= 7]
    for m in cases:
        a, _ = ratlin.scaled(m)
        rows = ratlin.echelon(a)
        lower, _ = ldlt(m)
        for k in range(len(m)):
            assert rows[k][k] == _leibniz_det([row[:k + 1] for row in a[:k + 1]]), (m, k)
            assert [rows[k][i] for i in range(k + 1, len(m))] == [
                rows[k][k] * lower[i][k] for i in range(k + 1, len(m))], (m, k)


def test_validation_and_cholesky_run_the_forward_half_only(monkeypatch, tmp_path, capsys):
    def refuse(rows):
        raise AssertionError("the back half of the elimination ran")

    monkeypatch.setattr(ratlin, "adjugate", refuse)
    f = mixed_ferro(6)
    assert len(ratlin.cholesky_float(f.entries)) == 6
    path = str(tmp_path / "x12.json")
    save_polynomial(variable(ModelDims(2, 2), 1, 2, mode=GAUSSIAN), path)
    fp = tmp_path / "F.json"
    fp.write_text(json.dumps(F2.to_dict()))
    argv = ["gaussian", "trotter", "--input", path, "--t", "1.0", "--m", "4", "--F", str(fp)]
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("m,max_error,min_intermediate_coeff")


def test_covariance_runs_one_elimination(monkeypatch):
    f = mixed_ferro(5)
    calls = []
    for name in ("echelon", "adjugate"):
        half = getattr(ratlin, name)
        monkeypatch.setattr(ratlin, name, lambda x, name=name, half=half: calls.append(name) or half(x))
    assert covariance(f) == ldlt_inverse(f.entries)
    assert calls == ["echelon", "adjugate"]


@pytest.mark.parametrize("cov,message", [
    ([[1, 0], [0]], "matrix must be square"),
    ([[1, Fraction(1, 2)], [0, 1]], "matrix is not symmetric"),
], ids=["ragged", "asymmetric"])
@pytest.mark.parametrize("engine", [
    lambda cov: gaussian_moment(variable(ModelDims(2, 2), 1, 2, mode=GAUSSIAN), cov),
    lambda cov: vector_moment([(0, 1), (0, 1)], cov, 2),
    lambda cov: estimate_moment(variable(ModelDims(2, 2), 1, 2, mode=GAUSSIAN), 1000, 1,
                                covariance=cov),
], ids=["gaussian_moment", "vector_moment", "estimate_moment"])
def test_malformed_covariances_are_refused(engine, cov, message):
    with pytest.raises(InputError, match=message):
        engine(cov)


def test_ferro_matrix_equality_hash_and_repr_see_only_entries():
    f = random_ferro(4, 3)
    twin = FerroMatrix(f.entries)
    assert twin == f and hash(twin) == hash(f)
    assert repr(f) == f"FerroMatrix(entries={f.entries!r})"
    assert covariance(f) == ldlt_inverse(f.entries)


def test_covariance_nonnegative_randomized():
    for seed in range(30):
        cov = covariance(random_ferro(2 + seed % 3, seed))
        assert all(x >= 0 for row in cov for x in row)


@pytest.mark.parametrize(
    "n,expected",
    [(1, Fraction(1, 3)), (2, Fraction(2, 3)), (3, Fraction(1, 1))],
)
def test_gaussian_moment_pair(n, expected):
    dims = ModelDims(max(n, 2), 2) if n >= 2 else None
    # dims.n must be >= 2 per the model type; n=1 is exercised through the
    # covariance directly via vector_moment in the test above, and through
    # a dims-free check here:
    cov = covariance(F2)
    factors = [(0, 1)]
    assert vector_moment(factors, cov, n) == expected


def test_gaussian_moment_polynomial_level():
    dims = ModelDims(2, 2)
    x12 = variable(dims, 1, 2, mode=GAUSSIAN)
    cov = covariance(F2)
    assert gaussian_moment(x12, cov) == Fraction(2, 3)  # n * C12
    n = 2
    c11 = c22 = Fraction(2, 3)
    c12 = Fraction(1, 3)
    expect = n * n * c12 ** 2 + n * c11 * c22 + n * c12 ** 2
    assert gaussian_moment(x12 * x12, cov) == expect
    x11 = variable(dims, 1, 1, mode=GAUSSIAN)
    assert gaussian_moment(x11, cov) == n * c11


def test_gaussian_moment_mode_check():
    dims = ModelDims(2, 2)
    with pytest.raises(InputError):
        gaussian_moment(variable(dims, 1, 2), covariance(F2))


def test_gaussian_griffiths_hand_value():
    # the acceptance pair: f = g = x1.x2 with the standard 2x2 coupling at
    # n = 1 has E[fg] = 2/3, E[f] = 1/3, gap = 5/9
    cov = covariance(F2)
    ef = vector_moment([(0, 1)], cov, 1)
    efg = vector_moment([(0, 1), (0, 1)], cov, 1)
    assert efg - ef * ef == Fraction(5, 9)
    dims = ModelDims(1, 2)
    x12 = variable(dims, 1, 2, mode=GAUSSIAN)
    report = check_gaussian_griffiths(x12, x12, F2)
    assert report.gap == Fraction(5, 9)
    assert report.Ef == Fraction(1, 3) and report.Efg == Fraction(2, 3)


def test_gaussian_griffiths_report():
    dims = ModelDims(2, 2)
    x12 = variable(dims, 1, 2, mode=GAUSSIAN)
    report = check_gaussian_griffiths(x12, x12, F2)
    assert report.verdict == "holds" and report.gap >= 0
    report = check_gaussian_griffiths(
        variable(dims, 1, 1, mode=GAUSSIAN), one(dims, GAUSSIAN), F2
    )
    assert report.gap == 0
    x22 = variable(dims, 2, 2, mode=GAUSSIAN)
    report = check_gaussian_griffiths(x12, x22, F2)
    cov = covariance(F2)
    brute = brute_force_vector_moment([(0, 1), (1, 1)], cov, 2) - (
        brute_force_vector_moment([(0, 1)], cov, 2)
        * brute_force_vector_moment([(1, 1)], cov, 2)
    )
    assert report.gap == brute and report.gap >= 0


def test_gaussian_griffiths_randomized():
    rng = random.Random(53)
    for case in range(25):
        sites = rng.choice([2, 3])
        n = rng.choice([1, 2, 3])
        f_mat = random_ferro(sites, rng.randrange(2**31))
        cov = covariance(f_mat)
        if n == 1:
            # run at the slot level to cover the n = 1 classical case
            pair_pool = [(i, j) for i in range(sites) for j in range(i, sites)]
            factors_f = [rng.choice(pair_pool) for _ in range(rng.randrange(0, 4))]
            factors_g = [rng.choice(pair_pool) for _ in range(rng.randrange(0, 4))]
            ef = vector_moment(factors_f, cov, 1)
            eg = vector_moment(factors_g, cov, 1)
            efg = vector_moment(factors_f + factors_g, cov, 1)
            assert efg - ef * eg >= 0
        else:
            dims = ModelDims(n, sites)
            f = random_cone_poly(dims, 4, 2, rng.randrange(2**31), mode=GAUSSIAN)
            g = random_cone_poly(dims, 4, 2, rng.randrange(2**31), mode=GAUSSIAN)
            report = check_gaussian_griffiths(f, g, f_mat)
            assert report.verdict == "holds" and report.gap >= 0


def test_matrix_semigroup_closed_form():
    # F = 2I - offdiag: exp(-tF) = e^{-2t} [[cosh t, sinh t], [sinh t, cosh t]]
    for t in (0.0, 0.3, 1.0, 5.0):
        got = matrix_semigroup(F2, t)
        expect = math.exp(-2 * t) * np.array(
            [[math.cosh(t), math.sinh(t)], [math.sinh(t), math.cosh(t)]]
        )
        assert np.allclose(got, expect, atol=1e-13)
        assert got.min() >= -1e-12
    assert np.allclose(matrix_semigroup(F2, 0.0), np.eye(2))


@pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
def test_semigroups_reject_bad_time(t):
    with pytest.raises(InputError):
        matrix_semigroup(F2, t)
    v11 = variable(ModelDims(1, 1), 1, 1, mode=GAUSSIAN)
    with pytest.raises(InputError):
        ou_invariant_basis(v11, ferro_from_rows([[2]])).evolve(v11, t)
    with pytest.raises(InputError):
        heat_apply(v11, t)


def test_matrix_semigroup_diagonal():
    f = ferro_from_rows([[3, 0], [0, "1/2"]])
    got = matrix_semigroup(f, 0.7)
    assert np.allclose(got, np.diag([math.exp(-2.1), math.exp(-0.35)]), atol=1e-14)


def test_semigroup_approximant_converges():
    # the Euler product (I - tF/m)^m converges to exp(-tF)
    t = 0.8
    target = matrix_semigroup(F2, t)
    errors = []
    for m in (4, 16, 64, 256):
        approximant = np.linalg.matrix_power(np.eye(2) - (t / m) * F2.as_float(), m)
        errors.append(np.abs(approximant - target).max())
    assert all(b < a for a, b in zip(errors, errors[1:]))
    assert errors[-1] < 1e-3


def to_float_poly(p):
    return FloatPolynomial(p.dims, p.mode, {m: float(c) for m, c in p.terms.items()})


def substitute(fp, s_matrix):
    """Substitute x_k -> sum_a S_ka x_a into a float polynomial, lifted to pair
    variables term by term: an engine-free oracle for the drift factor."""
    size = s_matrix.shape[0]
    lifted = {}
    for k in range(1, size + 1):
        for l in range(k, size + 1):
            image = lifted[(k, l)] = {}
            for a in range(1, size + 1):
                for b in range(1, size + 1):
                    weight = float(s_matrix[k - 1][a - 1]) * float(s_matrix[l - 1][b - 1])
                    if weight != 0.0:
                        key = _pair(a, b)
                        image[key] = image.get(key, 0.0) + weight
    total = {}
    for mono, coeff in fp.terms.items():
        expanded = {CONST_MONO: coeff}
        for pair, power in mono:
            for _ in range(power):
                nxt = {}
                for part, c in expanded.items():
                    for new_pair, w in lifted[pair].items():
                        key = mono_mul(part, ((new_pair, 1),))
                        nxt[key] = nxt.get(key, 0.0) + c * w
                expanded = nxt
        for m, c in expanded.items():
            total[m] = total.get(m, 0.0) + c
    return FloatPolynomial(fp.dims, GAUSSIAN, {m: c for m, c in total.items() if c != 0.0})


def heat_series(fp, s):
    """exp(s Delta) as the finite series sum_k (s Delta)^k / k! on a float polynomial:
    an engine-free oracle for the heat factor (Delta lowers total degree by 2)."""
    result = dict(fp.terms)
    current = dict(fp.terms)
    k = 0
    while current:
        k += 1
        image = {}
        for mono, coeff in current.items():
            for out_mono, weight in _flat_laplacian_mono(mono, fp.dims).items():
                image[out_mono] = image.get(out_mono, 0.0) + coeff * float(weight)
        current = {m: c * s / k for m, c in image.items() if c}
        for mono, coeff in current.items():
            result[mono] = result.get(mono, 0.0) + coeff
    return FloatPolynomial(fp.dims, GAUSSIAN, {m: c for m, c in result.items() if c != 0.0})


def trotter_oracle(p, f, t, ms):
    """(m, max_error, min_intermediate_coeff) per m from split steps on float
    polynomials, against trotter_compare's reference exp(tA) p."""
    reference = ou_invariant_basis(p, f).evolve(p, t)
    rows = []
    for m in ms:
        step_matrix = matrix_semigroup(f, t / m)
        state = to_float_poly(p)
        worst = 0.0
        for _ in range(m):
            state = substitute(state, step_matrix)
            worst = min(worst, state.min_coefficient())
            state = heat_series(state, t / m)
            worst = min(worst, state.min_coefficient())
        keys = set(state.terms) | set(reference.terms)
        err = max(abs(state.coefficient(k) - reference.coefficient(k)) for k in keys)
        rows.append((m, err, worst))
    return rows


def flow_map(p, f, t):
    """Substitute x_k -> sum_a exp(-tF)_{ka} x_a, lifted to pair variables.

    The substitution matrix is entrywise non-negative for valid couplings,
    so the lifted map preserves the cone coefficientwise.
    """
    fp = to_float_poly(p) if isinstance(p, DotPolynomial) else p
    return substitute(fp, matrix_semigroup(f, t))


def test_flow_map_examples():
    dims = ModelDims(2, 2)
    x12 = variable(dims, 1, 2, mode=GAUSSIAN)
    out = flow_map(x12, F2, 0.0)
    assert out.terms == {next(iter(x12.terms)): 1.0}

    eye = ferro_from_rows([[1, 0], [0, 1]])
    x11 = variable(dims, 1, 1, mode=GAUSSIAN)
    t = 0.4
    out = flow_map(x11, eye, t)
    assert out.coefficient(next(iter(x11.terms))) == pytest.approx(math.exp(-2 * t))
    assert len(out.terms) == 1

    out = flow_map(x12, F2, 0.5)
    assert out.min_coefficient() >= 0.0  # entrywise nonneg substitution matrix


@pytest.mark.parametrize("n", [2, 3])
def test_gaussian_laplacian_examples(n):
    dims = ModelDims(n, 2)
    v11 = variable(dims, 1, 1, mode=GAUSSIAN)
    v12 = variable(dims, 1, 2, mode=GAUSSIAN)
    assert gaussian_laplacian(v11) == constant(dims, 2 * n, GAUSSIAN)
    assert gaussian_laplacian(v12) == 0
    # Leibniz on a square: Delta v11^2 = 4n v11 + 8 v11
    assert gaussian_laplacian(v11 * v11) == (4 * n + 8) * v11
    # cross rule: grad_1 v12 . grad_1 v12 = v22 (plus site 2 giving v11)
    assert gaussian_laplacian(v12 * v12) == 2 * (
        variable(dims, 1, 1, mode=GAUSSIAN) + variable(dims, 2, 2, mode=GAUSSIAN)
    )


def test_drift_example():
    dims = ModelDims(2, 2)
    v12 = variable(dims, 1, 2, mode=GAUSSIAN)
    v11 = variable(dims, 1, 1, mode=GAUSSIAN)
    v22 = variable(dims, 2, 2, mode=GAUSSIAN)
    # A = Delta - drift, so drift v12 = Delta v12 - A v12
    assert gaussian_laplacian(v12) - ou_generator(v12, F2) == 4 * v12 - v11 - v22
    assert ou_generator(one(dims, GAUSSIAN), F2) == 0


@pytest.mark.parametrize("operator", [ou_generator, ou_invariant_basis])
def test_generators_check_their_operand(operator):
    with pytest.raises(InputError, match="gaussian-mode"):
        operator(variable(ModelDims(2, 2), 1, 2), F2)
    with pytest.raises(InputError, match="coupling is 2x2 but N=3"):
        operator(variable(ModelDims(2, 3), 1, 2, mode=GAUSSIAN), F2)


def test_integration_by_parts_exact():
    # E[f A g] = -E[grad f . grad g] with rational covariance, done exactly
    rng = random.Random(59)
    dims = ModelDims(2, 2)
    cov = covariance(F2)
    for _ in range(8):
        f = random_cone_poly(dims, 3, 2, rng.randrange(2**31), mode=GAUSSIAN)
        g = random_cone_poly(dims, 3, 2, rng.randrange(2**31), mode=GAUSSIAN)
        lhs = gaussian_moment(f * ou_generator(g, F2), cov)
        # grad f . grad g by polarization from the generator pieces:
        # A(fg) = f Ag + g Af + 2 grad f . grad g
        cross = ou_generator(f * g, F2) - f * ou_generator(g, F2) - g * ou_generator(f, F2)
        rhs = -gaussian_moment(Fraction(1, 2) * cross, cov)
        assert lhs == rhs
        assert gaussian_moment(ou_generator(f, F2), cov) == 0  # A is mean-zero


def test_heat_apply_is_finite_series():
    dims = ModelDims(3, 2)
    v11 = variable(dims, 1, 1, mode=GAUSSIAN)
    out = heat_apply(v11 * v11, 0.25)
    # Delta^1 (v11^2) = (4n+8) v11, Delta^2 (v11^2) = (4n+8) 2n
    n = 3
    c1 = (4 * n + 8) * 0.25
    c2 = (4 * n + 8) * 2 * n * 0.25 ** 2 / 2
    sq = next(iter((v11 * v11).terms))
    lin = next(iter(v11.terms))
    assert out.coefficient(sq) == pytest.approx(1.0)
    assert out.coefficient(lin) == pytest.approx(c1)
    assert out.coefficient(()) == pytest.approx(c2)


def test_ou_closed_form_one_site():
    # exp(tA) v11 = e^{-2 F11 t} v11 + (n / F11)(1 - e^{-2 F11 t})
    for n, f11 in ((2, Fraction(2)), (3, Fraction(1, 2))):
        dims = ModelDims(n, 1)
        f = ferro_from_rows([[f11]])
        v11 = variable(dims, 1, 1, mode=GAUSSIAN)
        semi = ou_invariant_basis(v11, f)
        for t in (0.1, 0.5, 2.0):
            out = semi.evolve(v11, t)
            decay = math.exp(-2 * float(f11) * t)
            assert out.coefficient(next(iter(v11.terms))) == pytest.approx(decay, abs=1e-10)
            expect_const = (n / float(f11)) * (1 - decay)
            assert out.coefficient(()) == pytest.approx(expect_const, abs=1e-9)


def test_trotter_zero_time_exact():
    dims = ModelDims(2, 2)
    v12 = variable(dims, 1, 2, mode=GAUSSIAN)
    report = trotter_compare(v12, F2, 0.0, [1, 4])
    assert all(p.max_error <= 1e-14 for p in report.points)


def test_trotter_on_the_zero_polynomial():
    report = trotter_compare(zero(ModelDims(2, 2), GAUSSIAN), F2, 1.0, [1, 4])
    assert [(p.m, p.max_error, p.min_intermediate_coeff) for p in report.points] == [
        (1, 0.0, 0.0), (4, 0.0, 0.0)]
    assert report.cone_preserved and not report.reference.terms


@pytest.mark.parametrize("n", [1, 2])
def test_trotter_convergence_and_cone(n):
    dims = ModelDims(n, 2)
    v12 = variable(dims, 1, 2, mode=GAUSSIAN)
    ms = [4, 8, 16, 32, 64, 128, 256]
    report = trotter_compare(v12, F2, 1.0, ms)
    errors = [p.max_error for p in report.points]
    assert all(b < a for a, b in zip(errors, errors[1:]))
    # first-order splitting: the clean 1/m rate sets in beyond a threshold
    tail = len(ms) // 2
    assert fitted_order(ms[tail:], errors[tail:]) >= 0.8
    assert report.cone_preserved


def test_trotter_steps_are_capped_before_the_basis(monkeypatch):
    def no_basis(*args):
        raise AssertionError("the basis was built")

    v12 = variable(ModelDims(2, 2), 1, 2, mode=GAUSSIAN)
    monkeypatch.setattr(gaussian, "ou_invariant_basis", no_basis)
    for ms in ([gaussian.MAX_TROTTER_STEPS + 1], [gaussian.MAX_TROTTER_STEPS, 1]):
        with pytest.raises(ResourceLimitError, match="steps"):
            trotter_compare(v12, F2, 1.0, ms)
    with pytest.raises(InputError):
        trotter_compare(v12, F2, 1.0, [4, 0])


def test_trotter_diagonal_coupling():
    # one site, diagonal coupling: the Laplacian and the drift still fail to
    # commute on v11 (Delta drift v11 = 4 F11 n, drift Delta v11 = 0), so the
    # split error is O(1/m) rather than zero; it must vanish with m
    dims = ModelDims(3, 1)
    f = ferro_from_rows([[2]])
    v11 = variable(dims, 1, 1, mode=GAUSSIAN)
    report = trotter_compare(v11, f, 0.7, [1, 8, 64, 512])
    errors = [p.max_error for p in report.points]
    assert all(b < a for a, b in zip(errors, errors[1:]))
    assert errors[-1] < 5e-3
    assert report.cone_preserved


def test_equilibrium_convergence():
    dims = ModelDims(2, 2)
    v12 = variable(dims, 1, 2, mode=GAUSSIAN)
    p = v12 * v12 + 2 * v12
    semi = ou_invariant_basis(p, F2)
    target = float(gaussian_moment(p, covariance(F2)))  # the t -> infinity limit
    out = semi.evolve(p, 30.0)
    assert out.coefficient(()) == pytest.approx(target, abs=1e-9)
    for mono, coeff in out.terms.items():
        if mono != ():
            assert abs(coeff) < 1e-9


def _small_ou_cases(seed, count, max_basis):
    """Seeded (p, f, basis) with n = 1-3 on 2-3 sites, half of them off the cone."""
    rng = random.Random(seed)
    while count:
        n, sites = rng.choice([1, 2, 3]), rng.choice([2, 3])
        dims = ModelDims(n, sites)
        p = random_cone_poly(dims, 2, 2, rng.randrange(2**31), mode=GAUSSIAN)
        if rng.random() < 0.5:
            p = p - 2 * random_cone_poly(dims, 1, 2, rng.randrange(2**31), mode=GAUSSIAN)
        f = random_ferro(sites, rng.randrange(2**31))
        semi = ou_invariant_basis(p, f)
        if len(semi.basis) <= max_basis:
            count -= 1
            yield p, f, semi


def test_trotter_matches_the_float_split_oracle():
    ms = [1, 2, 8, 32]
    rng = random.Random(141)
    off_cone = 0
    for p, f, _ in _small_ou_cases(14, 12, 30):
        t = rng.choice([0.25, 1.0, 2.0])
        report = trotter_compare(p, f, t, ms)
        rows = trotter_oracle(p, f, t, ms)
        for point, (m, err, worst) in zip(report.points, rows):
            assert point.m == m
            assert point.max_error == pytest.approx(err, rel=1e-10, abs=1e-14), (p, m)
            assert abs(point.min_intermediate_coeff - worst) <= 1e-12, (p, m)
        cone_ok = not p.is_cone() or all(worst >= -1e-12 for _, _, worst in rows)
        assert report.cone_preserved == cone_ok
        off_cone += any(worst < 0 for _, _, worst in rows)
    assert off_cone  # some cases reach negative coefficients


def test_heat_apply_matches_the_float_series():
    for p, _, _ in _small_ou_cases(15, 20, 84):
        for s in (0.0, 0.3, 2.0):
            engine, series = heat_apply(p, s), heat_series(to_float_poly(p), s)
            for mono in set(engine.terms) | set(series.terms):
                assert engine.coefficient(mono) == pytest.approx(
                    series.coefficient(mono), rel=1e-12, abs=1e-12), (p, s, mono)


def test_ou_columns_split_exactly_by_degree():
    # trotter_compare splits the OU matrix by total degree into Delta and -drift
    def degree(mono):
        return sum(power for _, power in mono)

    for p, f, semi in _small_ou_cases(16, 200, math.inf):
        for mono, column in zip(semi.basis, semi.columns):
            d = degree(mono)
            assert all(degree(out) <= d for out in column)
            lower = {out: w for out, w in column.items() if degree(out) < d}
            level = {out: w for out, w in column.items() if degree(out) == d}
            assert lower == _flat_laplacian_mono(mono, p.dims)
            assert level == {out: -w for out, w in gaussian._drift_mono(mono, f).items()}


def test_ferro_serialization():
    data = {"N": 2, "entries": [["2", "-1"], ["-1", "2"]]}
    f = ferro_from_dict(data)
    assert f == F2
    assert f.to_dict() == data
    with pytest.raises(InputError):
        ferro_from_dict({"N": 3, "entries": [["2", "-1"], ["-1", "2"]]})
    with pytest.raises(InputError):
        ferro_from_dict({"entries": [["2", "-1"]]})
