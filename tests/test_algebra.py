"""Core algebra: canonical forms, ring axioms, relabeling, serialization, couplings."""

import json
import random
from fractions import Fraction

import pytest

from rotorlab.algebra import (
    CONST_MONO,
    GAUSSIAN,
    SPHERE,
    Coupling,
    DotPolynomial,
    ModelDims,
    constant,
    load_polynomial,
    one,
    polynomial_from_dict,
    polynomial_to_dict,
    read_json,
    save_polynomial,
    site_degrees,
    variable,
)
from rotorlab.errors import InputError

D23 = ModelDims(2, 3)
D33 = ModelDims(3, 3)


def random_poly(dims, mode, rng, terms=4, budget=3, signed=True):
    pairs = [
        (i, j)
        for i in range(1, dims.sites + 1)
        for j in range(i + (1 if mode == SPHERE else 0), dims.sites + 1)
    ]
    out = []
    for _ in range(terms):
        powers = {}
        for _ in range(rng.randrange(budget + 1)):
            pair = rng.choice(pairs)
            powers[pair] = powers.get(pair, 0) + 1
        lo = -6 if signed else 1
        coeff = Fraction(rng.randrange(lo, 7), rng.randrange(1, 5))
        out.append((tuple(powers.items()), coeff))
    return DotPolynomial(dims, mode, out)


# Polynomial queries only the tests ask; the package itself never needs them.

def mono_degree(m):
    """Total degree: the number of dot-product factors counted with multiplicity."""
    return sum(p for _, p in m)


def total_degree(p):
    return max((mono_degree(m) for m in p.terms), default=0)


def constant_term(p):
    return p.terms.get(CONST_MONO, Fraction(0))


def is_constant(p):
    return all(m == CONST_MONO for m in p.terms)


def relabel(p, permutation):
    """Apply a site permutation; ``permutation[i-1]`` is the image of site i."""
    if sorted(permutation) != list(range(1, p.dims.sites + 1)):
        raise InputError(f"not a permutation of 1..{p.dims.sites}: {list(permutation)!r}")
    moved = (
        (tuple(((permutation[i - 1], permutation[j - 1]), e) for (i, j), e in mono), coeff)
        for mono, coeff in p.terms.items()
    )
    return DotPolynomial(p.dims, p.mode, moved)


def test_dims_validation():
    with pytest.raises(InputError):
        ModelDims(0, 3)
    with pytest.raises(InputError):
        ModelDims(3, 0)
    # n = 1 is fine for gaussian spins but not for unit spins
    ModelDims(1, 3)
    with pytest.raises(InputError):
        variable(ModelDims(1, 3), 1, 2)
    variable(ModelDims(1, 3), 1, 2, mode=GAUSSIAN)


def test_canonical_merge():
    p = DotPolynomial(D23, SPHERE, [((((1, 2), 1),), 2), ((((1, 2), 1),), 1)])
    assert p == 3 * variable(D23, 1, 2)


def test_canonical_cancellation():
    p = variable(D23, 1, 2) - variable(D23, 1, 2)
    assert not p
    assert p.terms == {}


def test_exponent_zero_removed():
    p = DotPolynomial(D23, SPHERE, [([((1, 2), 0), ((1, 3), 1)], 1)])
    assert p == variable(D23, 1, 3)


def test_sphere_diagonal_rejected():
    with pytest.raises(InputError):
        variable(D23, 2, 2)


def test_gaussian_diagonal_allowed():
    p = variable(D23, 2, 2, mode=GAUSSIAN)
    assert site_degrees(next(iter(p.terms))) == {2: 2}


def test_mul_examples():
    u12 = variable(D33, 1, 2)
    u13 = variable(D33, 1, 3)
    u23 = variable(D33, 2, 3)
    assert u12 * u12 == variable(D33, 1, 2, 2)
    assert (u12 + u13) * u23 == u12 * u23 + u13 * u23
    assert Fraction(1, 2) * u12 + Fraction(1, 2) * u12 == u12


def test_dims_mode_mismatch():
    with pytest.raises(InputError):
        variable(D23, 1, 2) + variable(D33, 1, 2)
    with pytest.raises(InputError):
        variable(D33, 1, 2) * variable(D33, 1, 2, mode=GAUSSIAN)


def test_site_degrees_counting():
    m = next(iter((variable(D33, 1, 2, 2) * variable(D33, 2, 3)).terms))
    assert site_degrees(m) == {1: 2, 2: 3, 3: 1}
    assert site_degrees(()) == {}


def test_power_operator():
    u = variable(D23, 1, 2)
    assert u ** 3 == u * u * u
    assert u ** 0 == one(D23)
    with pytest.raises(InputError):
        u ** -1


def test_relabel_examples():
    u12 = variable(D33, 1, 2)
    assert relabel(u12, [3, 2, 1]) == variable(D33, 2, 3)
    p = variable(D33, 1, 2) * variable(D33, 1, 3)
    assert relabel(p, [1, 3, 2]) == p
    assert relabel(p, [1, 2, 3]) == p
    with pytest.raises(InputError):
        relabel(p, [1, 1, 2])


def test_relabel_preserves_cone():
    rng = random.Random(5)
    for _ in range(10):
        p = random_poly(D33, SPHERE, rng, signed=False)
        assert relabel(p, [2, 3, 1]).is_cone()


@pytest.mark.parametrize("mode", [SPHERE, GAUSSIAN])
def test_ring_axioms_randomized(mode):
    rng = random.Random(42)
    for _ in range(12):
        p = random_poly(D33, mode, rng)
        q = random_poly(D33, mode, rng)
        r = random_poly(D33, mode, rng)
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r


def test_cone_closure():
    rng = random.Random(7)
    for _ in range(10):
        p = random_poly(D33, SPHERE, rng, signed=False)
        q = random_poly(D33, SPHERE, rng, signed=False)
        assert (p + q).is_cone() and (p * q).is_cone()


def test_negative_terms_reported():
    p = variable(D23, 1, 2) - constant(D23, 2)
    assert p.negative_terms() == [((), Fraction(-2))]
    assert not p.is_cone()


def test_json_round_trip(tmp_path):
    p = DotPolynomial(
        D33, SPHERE, [([((1, 2), 2), ((2, 3), 1)], Fraction(3, 2)), ([((1, 3), 1)], -2)]
    )
    path = tmp_path / "p.json"
    save_polynomial(p, str(path))
    assert load_polynomial(str(path)) == p
    data = json.loads(path.read_text())
    assert data["mode"] == "sphere" and data["n"] == 3 and data["N"] == 3
    coeffs = [t["coeff"] for t in data["terms"]]
    assert coeffs == ["3/2", "-2"]  # sorted by monomial order, exact strings


def test_json_format_example():
    data = {
        "mode": "sphere",
        "n": 3,
        "N": 3,
        "terms": [
            {"coeff": "3/2", "powers": [{"i": 1, "j": 2, "p": 2}, {"i": 2, "j": 3, "p": 1}]}
        ],
    }
    p = polynomial_from_dict(data)
    assert polynomial_to_dict(p) == data


def test_json_rejects_garbage():
    with pytest.raises(InputError):
        polynomial_from_dict({"mode": "sphere", "n": 3, "N": 3})
    with pytest.raises(InputError):
        polynomial_from_dict(
            {"mode": "sphere", "n": 3, "N": 3,
             "terms": [{"coeff": "x", "powers": []}]}
        )
    with pytest.raises(InputError):
        polynomial_from_dict(
            {"mode": "sphere", "n": 3, "N": 3,
             "terms": [{"coeff": "1", "powers": [{"i": 2, "j": 2, "p": 1}]}]}
        )


def test_missing_file():
    with pytest.raises(InputError):
        load_polynomial("/nonexistent/nowhere.json")


def test_total_degree_and_sum():
    p = variable(D33, 1, 2, 2) * variable(D33, 2, 3) + constant(D33, 5)
    assert total_degree(p) == 3
    assert p.coefficient_sum() == 6
    assert mono_degree(max(p.terms, key=mono_degree)) == 3


def test_json_rejects_boolean_coefficients():
    with pytest.raises(InputError, match="not a rational number"):
        polynomial_from_dict(
            {"mode": "sphere", "n": 3, "N": 2,
             "terms": [{"coeff": True, "powers": [{"i": 1, "j": 2, "p": 2}]}]}
        )


def test_read_json_names_the_file(tmp_path):
    with pytest.raises(InputError, match="cannot read coupling file"):
        read_json(str(tmp_path / "missing.json"), "coupling")
    for name, content in (("utf16.json", b"\xff\xfe{"), ("deep.json", b"[" * 100_000)):
        bad = tmp_path / name
        bad.write_bytes(content)
        with pytest.raises(InputError, match="invalid JSON"):
            read_json(str(bad), "matrix")


def test_coupling_merges_both_orientations_in_first_appearance_order():
    dims = ModelDims(3, 3)
    table = {(3, 2): "1/5", (2, 1): Fraction(1, 7), (1, 2): Fraction(1, 10)}
    coupling = Coupling.of(dims, table)
    assert list(coupling.strengths.items()) == [
        ((2, 3), Fraction(1, 5)), ((1, 2), Fraction(17, 70))
    ]
    # a negative entry is fine when its merged strength is not
    assert Coupling.of(dims, {(1, 2): Fraction(-1, 2), (2, 1): 1}).strengths == {
        (1, 2): Fraction(1, 2)
    }
    assert Coupling.of(dims, coupling) is coupling


@pytest.mark.parametrize("table, message", [
    ({(1, 2): Fraction(-1, 2)}, "not ferromagnetic"),
    ({(1, 2): -1, (2, 1): Fraction(1, 2)}, "not ferromagnetic"),
    ({(1, 1): 1}, "with itself"),
    ({(1, 4): 1}, "out of range"),
    ({(True, 2): 1}, "integers"),
    ({(1, 2): True}, "not a rational number"),
    ({(1, 2): "x"}, "not a rational number"),
])
def test_coupling_rejects(table, message):
    with pytest.raises(InputError, match=message):
        Coupling.of(ModelDims(3, 3), table)


def test_coupling_rejects_other_dims():
    coupling = Coupling.of(ModelDims(3, 3), {(1, 2): 1})
    with pytest.raises(InputError, match="coupling is for"):
        Coupling.of(ModelDims(3, 4), coupling)


@pytest.mark.parametrize("data, message", [
    ({"terms": 5}, "'terms' list"),
    ([1], "'terms' list"),
    ({"terms": [5]}, "malformed coupling entry"),
    ({"terms": [{"i": 1, "j": 2}]}, "malformed coupling entry"),
    ({"terms": [{"i": 1, "j": 2, "coeff": True}]}, "not a rational number"),
])
def test_coupling_from_dict_rejects(data, message):
    with pytest.raises(InputError, match=message):
        Coupling.from_dict(ModelDims(3, 2), data)


def test_coupling_from_dict_merges_repeated_entries():
    data = {"terms": [{"i": 1, "j": 2, "coeff": "1/10"}, {"i": 2, "j": 1, "coeff": "1/5"}]}
    assert Coupling.from_dict(ModelDims(3, 2), data).strengths == {(1, 2): Fraction(3, 10)}
