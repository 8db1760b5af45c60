"""The benchmark's two workloads, generated from a seed.

A workload is a list of checks.  Each check holds one timed call into
rotorlab and, outside the timing, the code that reduces its result to a
tuple of numbers and verifies that tuple.  The first number of every tuple
is one that the verification pins down, so perturbing it always makes the
check fail (the self-test relies on this).

Each workload joins two families of checks, spread evenly over each other:
``exact`` joins ``gaussian-exact`` (Gaussian Griffiths checks, all ``wick``)
and ``sphere-exact`` (sphere moments, all ``moments`` and ``algebra``);
``flows`` joins ``semigroup`` (heat and OU semigroups, ``numerics.expm``,
Chernoff tables) and ``mc`` (Monte Carlo estimates).  Two workloads of
long runs rather than four of short ones: the shared host's speed drifts
by a third from one minute to the next, and within the time allowed for
all runs only two workloads leave room for runs of about a minute.

Inputs come from ``random.Random("<family>:<seed>")`` and are built only
through public constructors (``ModelDims``, ``DotPolynomial``, ``variable``,
``ferro_from_rows``, ``KernelSpec``) before any timing starts.  Calls go
through module attributes (``griffiths.check_second`` rather than an
imported name) so that a traced run sees the wrapped entry points.

Polynomial terms are multigraphs on the sites with a fixed degree per site.
The cost of a moment or a closure depends mostly on the shape of those
multigraphs, and a few dozen checks are too few to average the shapes out,
so the shapes and sizes come from a plan that is the same for every seed
(``random.Random("<family>:plan")``).  The seed draws everything else:
a relabelling of the sites of every check, every coefficient, every
coupling, every time and every Monte Carlo seed.  Each seed thus gives new
inputs and the same amount of algebraic work.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from rotorlab import chernoff, gaussian, griffiths, heat, mc, moments
from rotorlab.algebra import GAUSSIAN, SPHERE, DotPolynomial, ModelDims, variable

import refs

FAMILIES = {
    "exact": ("gaussian-exact", "sphere-exact"),
    "flows": ("semigroup", "mc"),
}
WORKLOADS = tuple(FAMILIES)
SCALES = ("full", "tiny")


@dataclass(frozen=True)
class Check:
    part: str
    run: Callable[[], object]
    summarize: Callable[[object], tuple]
    verify: Callable[[tuple], list[str]]
    exact: bool = False  # exact results are compared against recorded digests


# -- input generation -----------------------------------------------------------

def _coeff(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 9), rng.randint(1, 9))


def _graph_mono(rng: random.Random, degrees: Sequence[int], loops: bool = False) -> tuple:
    """Random multigraph with the given site degrees, as a monomial table.

    Stubs are shuffled and paired (configuration model).  Sphere monomials
    may not pair a site with itself, so those pairings are redrawn.
    """
    stubs = [site for site, d in enumerate(degrees, 1) for _ in range(d)]
    while True:
        rng.shuffle(stubs)
        pairs = [tuple(sorted(p)) for p in zip(stubs[::2], stubs[1::2])]
        if loops or all(a != b for a, b in pairs):
            powers: dict[tuple[int, int], int] = {}
            for pair in pairs:
                powers[pair] = powers.get(pair, 0) + 1
            return tuple(powers.items())


def _relabelling(rng: random.Random, sites: int) -> list[int]:
    perm = list(range(1, sites + 1))
    rng.shuffle(perm)
    return perm


def _graph_poly(rng, plan, dims: ModelDims, degrees, terms: int, mode: str = SPHERE,
                perm: Sequence[int] | None = None) -> DotPolynomial:
    """Terms shaped by the plan, sites relabelled by ``perm``, coefficients from the seed."""
    perm = perm or _relabelling(rng, dims.sites)
    out = []
    for _ in range(terms):
        mono = _graph_mono(plan, degrees, mode == GAUSSIAN)
        out.append(([((perm[i - 1], perm[j - 1]), p) for (i, j), p in mono], _coeff(rng)))
    return DotPolynomial(dims, mode, out)


def _ferro(rng: random.Random, size: int) -> gaussian.FerroMatrix:
    """Coupling drawn like the package's own random ones: off-diagonals -k/9, diagonal 1 + sum.

    Off-diagonals take k in 1..9 and the diagonal is 1 plus the row's sum of
    |off-diagonal|, so the covariance's rationals are as large as on the
    couplings users generate.  Unlike those, no off-diagonal is zero: a zero
    coupling zeroes covariance entries and prunes most of the Isserlis
    recursion, which would make a check's cost depend on the seed several-fold.
    """
    rows = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            rows[i][j] = rows[j][i] = -Fraction(rng.randint(1, 9), 9)
    for i in range(size):
        rows[i][i] = 1 + sum(abs(rows[i][j]) for j in range(size) if j != i)
    return gaussian.ferro_from_rows(rows)


def _factors(mono) -> list[tuple[int, int]]:
    return [(i - 1, j - 1) for (i, j), p in mono for _ in range(p)]


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _report(r) -> tuple:
    return (r.gap, r.Ef, r.Eg, r.Efg)


def _report_problems(values: tuple) -> list[str]:
    gap, ef, eg, efg = values
    out = []
    if gap != efg - ef * eg:
        out.append(f"gap {gap} != Efg - Ef Eg")
    if gap < 0 or ef < 0 or eg < 0:
        out.append(f"Griffiths violated: gap {gap}, Ef {ef}, Eg {eg}")
    return out


# -- gaussian-exact -------------------------------------------------------------

# (sites, n, degrees of every term); most checks on 3 sites, some on 4 at low degree.
GAUSSIAN_MIX = (
    (3, 1, (2, 2, 2)),
    (3, 2, (2, 2, 2)),
    (3, 3, (2, 2, 2)),
    (3, 2, (4, 2, 2)),
    (4, 2, (2, 2, 1, 1)),
    (3, 1, (2, 2, 2)),
    (3, 3, (2, 2, 2)),
    (3, 2, (2, 2, 2)),
    (3, 3, (4, 2, 2)),
    (4, 1, (2, 2, 1, 1)),
)


def _gaussian_verify(f: DotPolynomial, coupling, sample: bool):
    def verify(values: tuple) -> list[str]:
        out = _report_problems(values)
        if sample:
            cov = gaussian.covariance(coupling)
            size = len(cov)
            ident = [
                [sum(coupling.entries[i][k] * cov[k][j] for k in range(size)) for j in range(size)]
                for i in range(size)
            ]
            if any(ident[i][j] != (i == j) for i in range(size) for j in range(size)):
                out.append("covariance is not the inverse of the coupling")
            ef = sum(
                (c * refs.brute_gaussian_moment(_factors(m), cov, f.dims.n) for m, c in f.terms.items()),
                Fraction(0),
            )
            if ef != values[1]:
                out.append(f"Ef {values[1]} != brute-force Isserlis {ef}")
        return out

    return verify


def gaussian_exact(rng: random.Random, plan: random.Random, size: dict) -> list[Check]:
    checks = []
    for k in range(size["checks"]):
        sites, n, degrees = GAUSSIAN_MIX[k % len(GAUSSIAN_MIX)]
        dims = ModelDims(n, sites)
        perm = _relabelling(rng, sites)
        f = _graph_poly(rng, plan, dims, degrees, 2, GAUSSIAN, perm)
        g = _graph_poly(rng, plan, dims, degrees, 2, GAUSSIAN, perm)
        coupling = _ferro(rng, sites)
        checks.append(Check(
            "griffiths",
            lambda f=f, g=g, c=coupling: gaussian.check_gaussian_griffiths(f, g, c),
            _report,
            # brute-force Isserlis on the first check of every mix entry
            _gaussian_verify(f, coupling, sample=k < len(GAUSSIAN_MIX)),
            exact=True,
        ))
    return checks


# -- sphere-exact ---------------------------------------------------------------

SPHERE_MIX = (
    (3, (6, 6, 6, 6, 4, 4)),
    (5, (6, 6, 6, 6, 4, 4)),
    (5, (4, 4, 4, 4, 4, 4)),
    (3, (8, 8, 6, 6, 4)),
    (2, (4, 4, 4, 4, 4, 4)),
    (5, (6, 6, 4, 4, 4)),
    (3, (4, 4, 4, 4, 4, 4)),
    (2, (6, 6, 4, 4, 2, 2)),
)

def _oracle_sum(p: DotPolynomial) -> Fraction:
    return sum(
        (c * moments.sphere_moment_oracle(m, p.dims) for m, c in p.terms.items()), Fraction(0)
    )


def _second_verify(f: DotPolynomial, sample: bool):
    def verify(values: tuple) -> list[str]:
        out = _report_problems(values)
        if sample and values[1] != _oracle_sum(f):
            out.append("Ef differs from the one-shot Isserlis oracle")
        return out

    return verify


def _exponents(slots: int, budget: int):
    """Every exponent vector of the given length with sum <= budget."""
    if slots == 0:
        yield ()
        return
    for e in range(budget + 1):
        for rest in _exponents(slots - 1, budget - e):
            yield (e,) + rest


def _all_monomials(sites: int, max_degree: int):
    pairs = [(i, j) for i in range(1, sites + 1) for j in range(i + 1, sites + 1)]
    for exps in _exponents(len(pairs), max_degree):
        yield tuple((p, e) for p, e in zip(pairs, exps) if e)


def _oracle_chunk(items):
    def run():
        elim = [moments.sphere_moment(poly) for poly, _, _ in items]
        return elim, [moments.sphere_moment_oracle(mono, dims) for _, mono, dims in items]

    return run


def _split_halves(values: tuple) -> list[str]:
    half = len(values) // 2
    bad = sum(a != b for a, b in zip(values[:half], values[half:]))
    return [f"{bad} monomials where elimination != oracle"] if bad else []


def _dirichlet_verify(f: DotPolynomial, h: DotPolynomial):
    def verify(values: tuple) -> list[str]:
        (d,) = values
        out = [] if d >= 0 else [f"dirichlet {d} < 0"]
        if moments.sphere_moment(f * heat.laplacian(h)) != -d:
            out.append("dirichlet(f, h) != -E[f lap h]")
        return out

    return verify


def _interacting_verify(p: DotPolynomial):
    def verify(values: tuple) -> list[str]:
        value, numerator, partition = values
        out = []
        if value != numerator / partition:
            out.append("value != numerator / partition")
        if partition < 1 or numerator < moments.sphere_moment(p) or value < 0:
            out.append("truncated series is not a non-negative lower bound")
        return out

    return verify


def sphere_exact(rng: random.Random, plan: random.Random, size: dict) -> list[Check]:
    checks = []
    for k in range(size["second"]):
        n, degrees = SPHERE_MIX[k % len(SPHERE_MIX)]
        dims = ModelDims(n, len(degrees))
        perm = _relabelling(rng, dims.sites)
        f = _graph_poly(rng, plan, dims, degrees, 3, perm=perm)
        g = _graph_poly(rng, plan, dims, degrees, 3, perm=perm)
        checks.append(Check(
            "second",
            lambda f=f, g=g: griffiths.check_second(f, g),
            _report,
            # the oracle is slow on high degrees: sample checks of the
            # all-degree-4 mix only
            _second_verify(f, sample=k % 40 == 2),
            exact=True,
        ))
    items = []
    for mono in _all_monomials(4, size["oracle_degree"]):
        dims = ModelDims(rng.choice((2, 3, 5)), 4)
        items.append((DotPolynomial(dims, SPHERE, {mono: 1}), mono, dims))
    chunk = size["oracle_chunk"]
    for start in range(0, len(items), chunk):
        checks.append(Check(
            "oracle",
            _oracle_chunk(items[start:start + chunk]),
            lambda out: tuple(out[0]) + tuple(out[1]),
            _split_halves,
            exact=True,
        ))
    for _ in range(size["dirichlet"]):
        dims = ModelDims(plan.choice((2, 3)), 3)
        perm = _relabelling(rng, 3)
        f = _graph_poly(rng, plan, dims, (4, 2, 2), 2, perm=perm)
        h = _graph_poly(rng, plan, dims, (2, 2, 2), 2, perm=perm)
        checks.append(Check(
            "dirichlet",
            lambda f=f, h=h: heat.dirichlet(f, h),
            lambda d: (d,),
            _dirichlet_verify(f, h),
            exact=True,
        ))
    for _ in range(size["interacting"]):
        dims = ModelDims(plan.choice((2, 3)), 4)
        p = _graph_poly(rng, plan, dims, (2, 2, 1, 1), 2)
        pairs = rng.sample([(i, j) for i in range(1, 5) for j in range(i + 1, 5)], 3)
        coupling = {pair: Fraction(rng.randint(1, 5), 10) for pair in pairs}
        checks.append(Check(
            "interacting",
            lambda p=p, c=coupling: moments.interacting_moment(p, c, order=size["order"]),
            lambda r: (r.value, r.numerator, r.partition),
            _interacting_verify(p),
            exact=True,
        ))
    return checks


# -- semigroup ------------------------------------------------------------------

# (n, per-site degrees): invariant bases from a few dozen to a few hundred monomials.
EVOLVE_MIX = (
    (3, (4, 4, 4, 4)),
    (2, (6, 6, 4, 4)),
    (3, (6, 6, 4, 4)),
    (2, (6, 4, 4, 4)),
    (3, (6, 6, 6, 4)),
    (3, (4, 4, 4, 2, 2)),
)
FLOW_MIX = (
    (3, (4, 4, 4, 4)),
    (2, (4, 4, 2, 2)),
    (2, (6, 4, 4, 2)),
    (3, (4, 4, 2, 2)),
)
# (n, l) pairs whose Chernoff errors decrease strictly, at order >= 0.85, up to
# m = 256 for t in CHERNOFF_TS; at t = 1 some of them fall below order 0.8.
CHERNOFF_MIX = ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (5, 1))
CHERNOFF_TS = (0.25, 0.5)
CHERNOFF_MS = (8, 16, 32, 64, 128, 256)
ENVELOPE_TS = tuple(10 ** (-1 - 3 * k / 9) for k in range(10))
TROTTER_MS = (2, 4, 8, 16, 32)


def _float_mean(poly) -> float:
    """E of a FloatPolynomial from exact monomial moments."""
    return math.fsum(
        c * float(moments.sphere_moment(DotPolynomial(poly.dims, SPHERE, {m: 1})))
        for m, c in poly.terms.items()
    )


def _evolve_verify(values: tuple) -> list[str]:
    after, before, scale = values
    if abs(after - before) > 1e-9 * max(1.0, scale):
        return [f"heat flow moved the mean: {before} -> {after}"]
    return []


def _flow_summary(f: DotPolynomial, g: DotPolynomial):
    def summarize(flow) -> tuple:
        efg = float(moments.sphere_moment(f * g))
        limit = float(moments.sphere_moment(f) * moments.sphere_moment(g))
        return (flow.values[0], flow.values[-1], efg, limit, float(flow.monotone))

    return summarize


def _flow_verify(values: tuple) -> list[str]:
    start, end, efg, limit, monotone = values
    out = []
    if not _close(start, efg, 1e-9):
        out.append(f"h(0) = {start} != E[fg] = {efg}")
    if not _close(end, limit, 1e-8):
        out.append(f"h(T) = {end} != E[f]E[g] = {limit}")
    if not monotone:
        out.append("correlation flow is not monotone")
    return out


def _gegenbauer_product(dims: ModelDims, a: int, b: int) -> DotPolynomial:
    ga = refs.gegenbauer_coeffs(dims.n, a)
    gb = refs.gegenbauer_coeffs(dims.n, b)
    terms = []
    for i, ci in enumerate(ga):
        for j, cj in enumerate(gb):
            if ci and cj:
                terms.append(((((1, 2), i), ((3, 4), j)), ci * cj))
    return DotPolynomial(dims, SPHERE, terms)


def _closed_summary(p: DotPolynomial, decay: float):
    def summarize(out) -> tuple:
        keys = set(out.terms) | set(p.terms)
        worst = max(abs(out.coefficient(m) - decay * float(p.terms.get(m, 0))) for m in keys)
        return (worst,)

    return summarize


def _small(values: tuple, tol: float = 1e-9) -> list[str]:
    return [] if abs(values[0]) <= tol else [f"off the closed form by {values[0]}"]


def _ou_summary(p: DotPolynomial, coupling):
    def summarize(out) -> tuple:
        exact = float(gaussian.gaussian_moment(p, gaussian.covariance(coupling)))
        rest = max((abs(c) for m, c in out.terms.items() if m), default=0.0)
        return (out.coefficient(()), exact, rest)

    return summarize


def _ou_verify(values: tuple) -> list[str]:
    const, exact, rest = values
    out = []
    if not _close(const, exact, 1e-8):
        out.append(f"OU limit {const} != Gaussian mean {exact}")
    if rest > 1e-8 * max(1.0, abs(exact)):
        out.append(f"non-constant coefficients {rest} have not decayed")
    return out


def _ou_closed_summary(n: int, f11: Fraction, t: float):
    def summarize(out) -> tuple:
        decay = math.exp(-2 * float(f11) * t)
        const = (n / float(f11)) * (1 - decay)
        return (out.coefficient((((1, 1), 1),)) - decay, out.coefficient(()) - const)

    return summarize


def _trotter_verify(values: tuple) -> list[str]:
    *errors_desc, cone = values
    errors = errors_desc[::-1]
    out = []
    if not all(b < a for a, b in zip(errors, errors[1:])):
        out.append(f"Trotter errors not decreasing: {errors}")
    elif refs.loglog_slope(TROTTER_MS[2:], errors[2:]) > -0.5:
        # first order shows only past m = 8; over 2..8 the order can dip to 0.4
        out.append(f"Trotter errors shrink slower than m^-0.5 over m = 8..32: {errors}")
    if not cone:
        out.append("a Trotter factor left the cone")
    return out


def _chernoff_verify(n: int, l: int, t: float):
    def verify(values: tuple) -> list[str]:
        half = len(values) // 2
        refs_, errors = values[:half], values[half:]
        out = []
        if any(r != math.exp(-refs.laplace_eigenvalue(n, l) * t) for r in refs_):
            out.append("Chernoff reference != exp(-l(l+n-2)t)")
        if not all(b < a for a, b in zip(errors, errors[1:])):
            out.append("Chernoff errors not strictly decreasing")
        elif refs.loglog_slope(CHERNOFF_MS, errors) > -0.8:
            out.append("Chernoff order below 0.8")
        return out

    return verify


def _envelope_verify(n: int, l: int):
    lam = refs.laplace_eigenvalue(n, l)

    def verify(values: tuple) -> list[str]:
        value, deviation, within = values
        out = []
        if not _close(deviation, abs(value + lam), 1e-12):
            out.append("deviation != |value + l(l+n-2)|")
        if abs(value + lam) > 0.05 * max(1, lam):
            out.append(f"generator quotient {value} far from -{lam} at t = 1e-4")
        if not within:
            out.append("deviation left the sqrt(t) envelope")
        return out

    return verify


def semigroup(rng: random.Random, plan: random.Random, size: dict) -> list[Check]:
    checks = []
    for k in range(size["evolve"]):
        n, degrees = EVOLVE_MIX[k % len(EVOLVE_MIX)]
        f = _graph_poly(rng, plan, ModelDims(n, len(degrees)), degrees, 2)
        t = rng.uniform(0.05, 1.0)
        checks.append(Check(
            "evolve",
            lambda f=f, t=t: heat.heat_evolve(f, t),
            lambda out, f=f: (
                _float_mean(out),
                float(moments.sphere_moment(f)),
                math.fsum(abs(c) for c in out.terms.values()),
            ),
            _evolve_verify,
        ))
    for k in range(size["flow"]):
        n, degrees = FLOW_MIX[k % len(FLOW_MIX)]
        dims = ModelDims(n, len(degrees))
        perm = _relabelling(rng, dims.sites)
        f = _graph_poly(rng, plan, dims, degrees, 2, perm=perm)
        g = _graph_poly(rng, plan, dims, degrees, 2, perm=perm)
        grid = [20.0 / (n - 1) * j / 20 for j in range(21)]
        checks.append(Check(
            "flow",
            lambda f=f, g=g, grid=grid: heat.correlation_flow(f, g, grid),
            _flow_summary(f, g),
            _flow_verify,
        ))
    for _ in range(size["closed"]):
        n = plan.choice((2, 3, 4))
        a, b = plan.randint(0, 6), plan.randint(1, 6)
        p = _gegenbauer_product(ModelDims(n, 4), a, b)
        t = rng.uniform(0.01, 0.5)
        lam = refs.laplace_eigenvalue(n, a) + refs.laplace_eigenvalue(n, b)
        checks.append(Check(
            "closed",
            lambda p=p, t=t: heat.heat_evolve(p, t),
            _closed_summary(p, math.exp(-2 * lam * t)),
            _small,
        ))
    for _ in range(size["ou"]):
        sites = plan.choice((2, 3))
        dims = ModelDims(plan.choice((1, 2, 3)), sites)
        p = _graph_poly(rng, plan, dims, (2,) * sites, 2, GAUSSIAN)
        coupling = _ferro(rng, sites)
        checks.append(Check(
            "ou",
            lambda p=p, c=coupling: gaussian.ou_invariant_basis(p, c).evolve(p, 15.0),
            _ou_summary(p, coupling),
            _ou_verify,
        ))
    for _ in range(size["ou_closed"]):
        n = plan.choice((1, 2, 3))
        f11 = Fraction(rng.randint(1, 8), rng.randint(1, 4))
        v11 = variable(ModelDims(n, 1), 1, 1, mode=GAUSSIAN)
        coupling = gaussian.ferro_from_rows([[f11]])
        t = rng.uniform(0.05, 2.0)
        checks.append(Check(
            "ou-closed",
            lambda p=v11, c=coupling, t=t: gaussian.ou_invariant_basis(p, c).evolve(p, t),
            _ou_closed_summary(n, f11, t),
            lambda values: _small(values) + _small(values[1:]),
        ))
    for _ in range(size["trotter"]):
        dims = ModelDims(plan.choice((1, 2, 3)), 2)
        p = _graph_poly(rng, plan, dims, (2, 2), 2, GAUSSIAN)
        coupling = _ferro(rng, 2)
        t = rng.uniform(0.3, 1.0)
        checks.append(Check(
            "trotter",
            lambda p=p, c=coupling, t=t: gaussian.trotter_compare(p, c, t, TROTTER_MS),
            lambda r: tuple(pt.max_error for pt in reversed(r.points)) + (float(r.cone_preserved),),
            _trotter_verify,
        ))
    for _ in range(size["chernoff"]):
        n, l = plan.choice(CHERNOFF_MIX)
        t = rng.choice(CHERNOFF_TS)
        spec = chernoff.KernelSpec(n, t)
        checks.append(Check(
            "chernoff",
            lambda spec=spec, l=l: chernoff.chernoff_table(spec, l, CHERNOFF_MS),
            lambda pts: tuple(p.reference for p in pts) + tuple(p.error for p in pts),
            _chernoff_verify(n, l, t),
        ))
    for _ in range(size["envelope"]):
        n, l = plan.choice(((2, 0), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)))
        checks.append(Check(
            "envelope",
            lambda n=n, l=l: chernoff.generator_envelope(n, l, ENVELOPE_TS),
            lambda env: (env.points[0].value, env.points[0].deviation, float(env.within)),
            _envelope_verify(n, l),
        ))
    return checks


# -- mc -------------------------------------------------------------------------

MC_SPHERE_MIX = ((2, (2, 2)), (3, (2, 2, 2)), (5, (4, 2, 2)), (8, (2, 2)), (3, (2, 2, 2, 2)), (4, (4, 4)))


def _mc_verify(rerun: Callable[[int, int], object]):
    """Within 4 sigma of the exact value, or a retry at 4x samples is.

    The retry mirrors the suite's protocol, so a plain 4-sigma excursion does
    not fail a run; a result more than 6 sigma off fails outright.
    """

    def verify(values: tuple) -> list[str]:
        mean, stderr, exact, slack, samples, seed = values
        dist = abs(mean - exact) - slack
        if dist <= 4 * stderr:
            return []
        if dist <= 6 * stderr:
            retry = rerun(4 * int(samples), int(seed) + 1)
            if abs(retry.mean - exact) - slack <= 4 * retry.stderr:
                return []
        return [f"MC mean {mean} is {dist / stderr:.1f} sigma from exact {exact}"]

    return verify


def _mc_summary(exact: Callable[[], tuple[float, float]]):
    def summarize(est) -> tuple:
        value, slack = exact()
        return (est.mean, est.stderr, value, slack, est.samples, est.seed)

    return summarize


def mc_workload(rng: random.Random, plan: random.Random, size: dict) -> list[Check]:
    checks = []
    samples = size["samples"]
    kinds = ["sphere", "gaussian", "sphere", "weighted"] * (size["checks"] // 4)
    for kind in kinds[: size["checks"] - 1]:
        seed = rng.randrange(2**32)
        if kind == "gaussian":
            sites = plan.choice((2, 3))
            dims = ModelDims(plan.choice((1, 2, 3)), sites)
            p = _graph_poly(rng, plan, dims, (2,) * sites, 2, GAUSSIAN)
            cov = gaussian.covariance(_ferro(rng, sites))
            kwargs = {"covariance": cov}
            exact = lambda p=p, cov=cov: (float(gaussian.gaussian_moment(p, cov)), 0.0)
        elif kind == "weighted":
            dims = ModelDims(plan.choice((2, 3, 4)), 3)
            p = _graph_poly(rng, plan, dims, (2, 2, 2), 2)
            pair = rng.choice(((1, 2), (1, 3), (2, 3)))
            coupling = {pair: Fraction(rng.randint(1, 5), 10)}
            kwargs = {"coupling": coupling}

            def exact(p=p, coupling=coupling):
                r = moments.interacting_moment(p, coupling, order=8)
                return float(r.value), r.tail_gap
        else:
            n, degrees = plan.choice(MC_SPHERE_MIX)
            p = _graph_poly(rng, plan, ModelDims(n, len(degrees)), degrees, 2)
            kwargs = {}
            exact = lambda p=p: (float(moments.sphere_moment(p)), 0.0)

        def rerun(count, s, p=p, kwargs=kwargs):
            return mc.estimate_moment(p, count, s, **kwargs)

        checks.append(Check(
            kind,
            lambda rerun=rerun, seed=seed: rerun(samples, seed),
            _mc_summary(exact),
            _mc_verify(rerun),
        ))
    p = _graph_poly(rng, plan, ModelDims(3, 3), (2, 2, 2), 2)
    seed = rng.randrange(2**32)
    checks.append(Check(
        "replay",
        lambda p=p, seed=seed: (mc.estimate_moment(p, samples, seed), mc.estimate_moment(p, samples, seed)),
        lambda pair: (pair[0].mean, pair[1].mean, pair[0].stderr, pair[1].stderr),
        lambda v: [] if (v[0], v[2]) == (v[1], v[3]) else ["MC replay is not bit-exact"],
    ))
    return checks


FAMILY_BUILDERS = {
    "gaussian-exact": gaussian_exact,
    "sphere-exact": sphere_exact,
    "semigroup": semigroup,
    "mc": mc_workload,
}

SIZES = {
    "gaussian-exact": {
        "full": {"checks": 110},
        "tiny": {"checks": 10},
    },
    "sphere-exact": {
        "full": {"second": 100, "oracle_degree": 8, "oracle_chunk": 100,
                 "dirichlet": 10, "interacting": 3, "order": 10},
        "tiny": {"second": 4, "oracle_degree": 3, "oracle_chunk": 40,
                 "dirichlet": 2, "interacting": 1, "order": 4},
    },
    "semigroup": {
        "full": {"evolve": 12, "flow": 8, "closed": 30, "ou": 8, "ou_closed": 8,
                 "trotter": 8, "chernoff": 16, "envelope": 12},
        "tiny": {"evolve": 2, "flow": 1, "closed": 2, "ou": 1, "ou_closed": 1,
                 "trotter": 1, "chernoff": 1, "envelope": 1},
    },
    "mc": {
        "full": {"checks": 100, "samples": 50_000},
        "tiny": {"checks": 8, "samples": 2_000},
    },
}


def build(workload: str, seed: int, scale: str = "full") -> list[Check]:
    checks = []
    for family in FAMILIES[workload]:
        rng = random.Random(f"{family}:{seed}")
        plan = random.Random(f"{family}:plan")
        checks += FAMILY_BUILDERS[family](rng, plan, SIZES[family][scale])
    return _interleave(checks)


def _interleave(checks: list[Check]) -> list[Check]:
    """Spread the checks of every part evenly over the list, keeping their order.

    Parts differ in cost up to a thousandfold.  Run part after part, the
    checks of one part would all fall in one short stretch of each
    repetition and be timed at whatever speed the shared host had during
    it; spread out, each repetition samples many stretches.
    """
    counts: dict[str, int] = {}
    for check in checks:
        counts[check.part] = counts.get(check.part, 0) + 1
    seen: dict[str, int] = {}
    keyed = []
    for index, check in enumerate(checks):
        rank = seen.get(check.part, 0)
        seen[check.part] = rank + 1
        keyed.append(((rank + 0.5) / counts[check.part], index, check))
    return [check for _, _, check in sorted(keyed, key=lambda item: item[:2])]
