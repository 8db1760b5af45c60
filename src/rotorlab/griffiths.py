"""First and second Griffiths inequality checks with exact arithmetic.

Everything here is rational: a report's ``gap`` is E[fg] - E[f]E[g] as an
exact Fraction, so a verdict never depends on a tolerance.  One report
builder, :func:`second_report`, serves every measure: :func:`check_second`
passes it the sphere moment, and ``gaussian.check_gaussian_griffiths`` the
Gaussian moment of a ferromagnetic covariance.  A violated verdict would
disprove the underlying theorem (or expose a bug), so the randomized sweep
:func:`run_random_suite`, which acceptance criterion 3 also runs, treats it
as a hard failure and serializes the offending pair before raising.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .algebra import (
    SPHERE,
    DotPolynomial,
    ModelDims,
    polynomial_to_dict,
)
from .errors import InputError, ViolationError
from .moments import sphere_moment

HOLDS = "holds"
VIOLATED = "violated"


@dataclass(frozen=True)
class GriffithsReport:
    """Exact outcome of a second-inequality check for one cone pair."""

    model: str
    Ef: Fraction
    Eg: Fraction
    Efg: Fraction
    gap: Fraction
    verdict: str

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "Ef": str(self.Ef),
            "Eg": str(self.Eg),
            "Efg": str(self.Efg),
            "gap": str(self.gap),
            "verdict": self.verdict,
        }


def _require_cone(p: DotPolynomial, name: str) -> None:
    bad = p.negative_terms()
    if bad:
        listing = ", ".join(f"{mono}: {coeff}" for mono, coeff in bad[:8])
        raise InputError(
            f"{name} is not in the cone; negative coefficients at {listing}"
        )


def _model_descriptor(p: DotPolynomial) -> str:
    # cone membership is checked on formal coefficients; distinct
    # representatives of one function exist when sites > n.
    return f"{p.mode} n={p.dims.n} N={p.dims.sites} (cone checked at representation level)"


def second_report(
    f: DotPolynomial,
    g: DotPolynomial,
    moment: Callable[[DotPolynomial], Fraction],
) -> GriffithsReport:
    """Exact E[fg] - E[f]E[g] for cone polynomials over the same model.

    ``moment`` is the expectation of the measure under test; the verdict
    also asks E[f] and E[g] to be non-negative (the first inequality).
    """
    if f.dims != g.dims or f.mode != g.mode:
        raise InputError(f"f and g disagree: ({f.dims}, {f.mode}) vs ({g.dims}, {g.mode})")
    _require_cone(f, "f")
    _require_cone(g, "g")
    Ef = moment(f)
    Eg = moment(g)
    Efg = moment(f * g)
    gap = Efg - Ef * Eg
    verdict = HOLDS if (gap >= 0 and Ef >= 0 and Eg >= 0) else VIOLATED
    return GriffithsReport(_model_descriptor(f), Ef, Eg, Efg, gap, verdict)


def check_second(f: DotPolynomial, g: DotPolynomial) -> GriffithsReport:
    """:func:`second_report` under the product of normalized sphere measures."""
    if f.mode != SPHERE:
        raise InputError("check_second integrates over spheres; use the gaussian module otherwise")
    return second_report(f, g, sphere_moment)


def random_cone_poly(
    dims: ModelDims,
    degree_budget: int,
    term_count: int,
    seed: int,
    mode: str = SPHERE,
) -> DotPolynomial:
    """Deterministic random cone element with per-site degree <= budget."""
    if degree_budget < 0 or term_count < 0:
        raise InputError("budgets must be >= 0")
    rng = random.Random(seed)
    lo = 1 if mode == SPHERE else 0
    pairs = [
        (i, j)
        for i in range(1, dims.sites + 1)
        for j in range(i + lo, dims.sites + 1)
    ]
    terms = []
    for _ in range(max(term_count, 1)):
        powers: dict[tuple[int, int], int] = {}
        degrees = [0] * dims.sites
        for _ in range(rng.randrange(0, 3 * degree_budget + 1) if degree_budget else 0):
            i, j = rng.choice(pairs)
            bump = 2 if i == j else 1
            if degrees[i - 1] + bump > degree_budget or degrees[j - 1] + 1 > degree_budget:
                continue
            degrees[i - 1] += bump
            if i != j:
                degrees[j - 1] += 1
            powers[(i, j)] = powers.get((i, j), 0) + 1
        coeff = Fraction(rng.randrange(1, 10), rng.randrange(1, 10))
        terms.append((tuple(powers.items()), coeff))
    return DotPolynomial(dims, mode, terms)


def write_counterexample(
    path: str,
    f: DotPolynomial,
    g: DotPolynomial,
    report: GriffithsReport,
    context: dict | None = None,
) -> str:
    payload = {
        "report": report.to_dict(),
        "f": polynomial_to_dict(f),
        "g": polynomial_to_dict(g),
    }
    if context:
        payload["context"] = context
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return path


def run_random_suite(
    cases: int,
    seed: int,
    ns: Sequence[int],
    site_counts: Sequence[int],
    degree_budget: int = 6,
    term_count: int = 3,
    counterexample_dir: str = ".",
) -> list[GriffithsReport]:
    """Randomized sphere second-inequality sweep; aborts on any violation.

    Each case draws n from ``ns``, then the site count from
    ``site_counts``, then the seeds of f and g, all from one
    ``random.Random(seed)``.  A violation is serialized to
    ``counterexample_dir`` so it can be replayed with the CLI, then raised
    as :class:`ViolationError`.
    """
    rng = random.Random(seed)
    reports = []
    for case in range(cases):
        dims = ModelDims(rng.choice(ns), rng.choice(site_counts))
        f = random_cone_poly(dims, degree_budget, term_count, rng.randrange(2**31))
        g = random_cone_poly(dims, degree_budget, term_count, rng.randrange(2**31))
        report = check_second(f, g)
        if report.verdict != HOLDS:
            path = write_counterexample(
                f"{counterexample_dir}/griffiths_counterexample_{seed}_{case}.json",
                f,
                g,
                report,
                context={"suite_seed": seed, "case": case},
            )
            raise ViolationError(
                f"Griffiths inequality violated (gap {report.gap}); counterexample at {path}",
                counterexample_path=path,
            )
        reports.append(report)
    return reports
