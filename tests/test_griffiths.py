"""Griffiths inequality checker: exact gaps, cone validation, random suite."""

import json
import random
from fractions import Fraction

import pytest

from rotorlab import griffiths
from rotorlab.algebra import GAUSSIAN, ModelDims, constant, one, variable
from rotorlab.errors import InputError, ViolationError
from rotorlab.griffiths import (
    GriffithsReport,
    check_second,
    random_cone_poly,
    run_random_suite,
    second_report,
    write_counterexample,
)
from test_algebra import constant_term, is_constant

D23 = ModelDims(2, 3)
D33 = ModelDims(3, 3)


def test_check_second_square_pair():
    f = variable(D23, 1, 2, 2)
    report = check_second(f, f)
    assert report.Efg == Fraction(3, 8)
    assert report.Ef == report.Eg == Fraction(1, 4) * 2  # 1/2 each
    assert report.gap == Fraction(1, 8)
    assert report.verdict == "holds"


@pytest.mark.parametrize("n", [2, 3, 5])
def test_check_second_equality_edge(n):
    dims = ModelDims(n, 3)
    report = check_second(variable(dims, 1, 2, 2), variable(dims, 1, 3, 2))
    assert report.Efg == Fraction(1, n * n)
    assert report.gap == 0


def test_check_second_odd_pair():
    report = check_second(variable(D33, 1, 2), variable(D33, 2, 3))
    assert report.Ef == report.Eg == report.Efg == report.gap == 0
    assert report.verdict == "holds"


def test_check_second_constant_g():
    f = variable(D33, 1, 2, 2) + 3 * variable(D33, 2, 3, 4)
    report = check_second(f, constant(D33, Fraction(7, 3)))
    assert report.gap == 0


def test_check_second_dims_mismatch():
    with pytest.raises(InputError):
        check_second(variable(D23, 1, 2), variable(D33, 1, 2))


def test_check_second_refuses_gaussian_mode():
    x12 = variable(D23, 1, 2, mode=GAUSSIAN)
    with pytest.raises(InputError, match="integrates over spheres"):
        check_second(x12, x12)


def test_second_report_takes_any_moment():
    # under a point mass at u12 = 1/2, E[fg] = E[f]E[g] for every pair
    f = variable(D33, 1, 2, 2) + 1
    g = 3 * variable(D33, 1, 2)

    def point_mass(p):
        return sum((c * Fraction(1, 2) ** sum(e for _, e in m) for m, c in p.terms.items()),
                   Fraction(0))

    report = second_report(f, g, point_mass)
    assert (report.Ef, report.Eg, report.gap) == (Fraction(5, 4), Fraction(3, 2), 0)
    assert report.verdict == "holds"
    with pytest.raises(InputError, match="not in the cone"):
        second_report(-f, g, point_mass)


def test_random_cone_poly_determinism():
    a = random_cone_poly(D33, 4, 5, seed=7)
    b = random_cone_poly(D33, 4, 5, seed=7)
    assert a == b
    assert a != random_cone_poly(D33, 4, 5, seed=8)


def test_random_cone_poly_budget_zero():
    p = random_cone_poly(D33, 0, 3, seed=1)
    assert is_constant(p)
    assert constant_term(p) > 0


def test_random_cone_poly_structure():
    from rotorlab.algebra import site_degrees

    p = random_cone_poly(ModelDims(3, 4), 4, 5, seed=7)
    assert p.is_cone() and p
    assert all(c > 0 for c in p.terms.values())
    for mono in p.terms:
        assert all(d <= 4 for d in site_degrees(mono).values())


def test_gap_properties_randomized():
    rng = random.Random(23)
    for _ in range(15):
        dims = ModelDims(rng.choice([2, 3]), rng.choice([2, 3]))
        f = random_cone_poly(dims, 4, 2, rng.randrange(2**31))
        g = random_cone_poly(dims, 4, 2, rng.randrange(2**31))
        rep = check_second(f, g)
        assert rep.gap >= 0
        assert check_second(g, f).gap == rep.gap
        scale = Fraction(rng.randrange(1, 7), rng.randrange(1, 7))
        assert check_second(scale * f, g).gap == scale * rep.gap


def test_run_random_suite_clean(tmp_path):
    reports = run_random_suite(
        10, seed=3, ns=(2, 3), site_counts=(3,), degree_budget=4, term_count=2,
        counterexample_dir=str(tmp_path),
    )
    assert len(reports) == 10
    assert all(r.verdict == "holds" for r in reports)
    assert not list(tmp_path.iterdir())


def test_run_random_suite_pins_the_criterion_3_stream():
    # (n, N, gap) of the first five cases of criterion 3 at seed 7, as the
    # suite's own loop produced them before it called this sweep
    reports = run_random_suite(200, 7, (2, 3, 5), (2, 3, 4))
    got = [(r.model.split()[1], r.model.split()[2], r.gap) for r in reports[:5]]
    assert got == [
        ("n=3", "N=2", Fraction(1130, 1911)),
        ("n=2", "N=4", Fraction(0)),
        ("n=5", "N=2", Fraction(0)),
        ("n=2", "N=3", Fraction(11447, 102400)),
        ("n=2", "N=2", Fraction(7467, 16384)),
    ]


def test_run_random_suite_serializes_violations(tmp_path, monkeypatch):
    def broken_check(f, g):
        return GriffithsReport("fake", Fraction(0), Fraction(0), Fraction(0),
                               Fraction(-1), "violated")

    monkeypatch.setattr(griffiths, "check_second", broken_check)
    with pytest.raises(ViolationError) as err:
        run_random_suite(
            3, seed=3, ns=(2,), site_counts=(3,), degree_budget=2, term_count=1,
            counterexample_dir=str(tmp_path),
        )
    path = err.value.counterexample_path
    assert path is not None
    payload = json.loads(open(path).read())
    assert payload["report"]["verdict"] == "violated"
    assert payload["f"]["mode"] == "sphere"


def test_write_counterexample_round_trip(tmp_path):
    f = variable(D23, 1, 2, 2)
    rep = check_second(f, f)
    path = write_counterexample(str(tmp_path / "c.json"), f, f, rep)
    payload = json.loads(open(path).read())
    assert payload["report"]["gap"] == "1/8"
