"""Exact sparse algebra of spin dot-product polynomials.

A monomial is a finite table of site pairs with positive integer exponents,
standing for ``prod (sigma_i . sigma_j)^p`` over unit spins (sphere mode,
strictly i < j, since sigma_i . sigma_i == 1 is never stored) or for
``prod (x_i . x_j)^p`` over R^n-valued spins (gaussian mode, i <= j,
diagonals allowed).  Coefficients are :class:`fractions.Fraction`, so ring
arithmetic is exact end to end.

The pair variables are treated as free commuting symbols: algebraic
relations among actual dot products (Gram identities, which exist whenever
the site count exceeds n) are intentionally not quotiented out.  Every
expectation functional built on top of this algebra respects those
relations automatically, which the test suite checks.

Monomials are stored as tuples ``(((i, j), p), ...)`` sorted by pair; that
sort order is also the canonical term order used for serialization.

:class:`Coupling` is the one validated table of ferromagnetic strengths J_ij,
and :func:`read_json` the one reader of JSON input files.  JSON booleans
pass neither as integers nor as rationals.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Union

from .errors import InputError, ResourceLimitError

SPHERE = "sphere"
GAUSSIAN = "gaussian"
MODES = (SPHERE, GAUSSIAN)

Pair = tuple[int, int]
Mono = tuple[tuple[Pair, int], ...]
Coeff = Union[Fraction, int, str]
Weight = Fraction | int  # integer operators keep plain ints

CONST_MONO: Mono = ()

MAX_PRODUCT_PAIRS = 1 << 16
"""Term pairs a polynomial product may multiply, refused before the first.  The
largest product the benchmark and the full suite build has 165 pairs, the test
suite's 4,900; two 1,000-term inputs (10^6 pairs) took 19 s and 1.2 GB on a
2-core host."""


def _is_int(value: object) -> bool:
    """True for integers proper; JSON ``true``/``false`` arrive as bool, an int subclass."""
    return isinstance(value, int) and not isinstance(value, bool)


def frac(value: Coeff) -> Fraction:
    """Coerce to Fraction, mapping parse failures and JSON booleans to :class:`InputError`."""
    if isinstance(value, Fraction):
        return value
    try:
        if isinstance(value, bool):
            raise TypeError("a boolean is not a number")
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError, ArithmeticError) as exc:
        raise InputError(f"not a rational number: {value!r}") from exc


@dataclass(frozen=True)
class ModelDims:
    """Ambient dimension n and the number of sites.

    Gaussian spins make sense for any n >= 1; unit spins need n >= 2, which
    sphere-mode polynomial construction enforces separately.
    """

    n: int
    sites: int

    def __post_init__(self) -> None:
        if not _is_int(self.n) or self.n < 1:
            raise InputError(f"ambient dimension must be an integer >= 1, got {self.n!r}")
        if not _is_int(self.sites) or self.sites < 1:
            raise InputError(f"site count must be an integer >= 1, got {self.sites!r}")


def validate_pair(dims: ModelDims, mode: str, i: int, j: int) -> Pair:
    """Normalize a site pair to (min, max) and enforce the mode's constraints."""
    if not (_is_int(i) and _is_int(j)):
        raise InputError(f"site indices must be integers, got ({i!r}, {j!r})")
    if not (1 <= i <= dims.sites and 1 <= j <= dims.sites):
        raise InputError(f"site pair ({i}, {j}) out of range 1..{dims.sites}")
    if i > j:
        i, j = j, i
    if i == j and mode == SPHERE:
        raise InputError(
            f"sphere monomials may not pair site {i} with itself (sigma.sigma == 1)"
        )
    return (i, j)


def make_mono(
    dims: ModelDims,
    mode: str,
    powers: Mapping[Pair, int] | Iterable[tuple[Pair, int]],
) -> Mono:
    """Build a canonical monomial: pairs normalized, merged, zero powers dropped."""
    items = powers.items() if isinstance(powers, Mapping) else powers
    table: dict[Pair, int] = {}
    for (i, j), p in items:
        if not _is_int(p):
            raise InputError(f"exponent must be an integer, got {p!r}")
        if p < 0:
            raise InputError(f"negative exponent {p} on pair ({i}, {j})")
        if p == 0:
            continue
        pair = validate_pair(dims, mode, i, j)
        table[pair] = table.get(pair, 0) + p
    return tuple(sorted(table.items()))


def mono_mul(a: Mono, b: Mono) -> Mono:
    """Product of two monomials (exponent addition)."""
    if not a:
        return b
    if not b:
        return a
    table = dict(a)
    for pair, p in b:
        table[pair] = table.get(pair, 0) + p
    return tuple(sorted(table.items()))


def mono_div(m: Mono, pair: Pair, k: int = 1) -> Mono:
    """Divide a monomial by ``pair^k``; the factor must be present."""
    table = dict(m)
    have = table.get(pair, 0)
    if have < k:
        raise ValueError(f"monomial has {pair}^{have}, cannot remove ^{k}")
    if have == k:
        del table[pair]
    else:
        table[pair] = have - k
    return tuple(sorted(table.items()))


def site_degrees(m: Mono) -> dict[int, int]:
    """Degree d_i of each site the monomial touches; a diagonal pair (i, i) adds 2 per exponent."""
    degs: dict[int, int] = {}
    for (i, j), p in m:
        degs[i] = degs.get(i, 0) + p
        degs[j] = degs.get(j, 0) + p  # i == j lands here twice, as it must
    return degs


def _add(table: dict, mono: Mono, coeff) -> None:
    """Accumulate coeff on mono in a sparse term table, dropping zeros."""
    merged = table.get(mono, 0) + coeff
    if merged:
        table[mono] = merged
    elif mono in table:
        del table[mono]


class DotPolynomial:
    """Finite rational linear combination of dot-product monomials.

    Instances are canonical on construction (duplicate monomials merged, zero
    coefficients dropped) and treated as immutable; no method mutates an
    existing polynomial, so values are safe to share across threads.
    """

    __slots__ = ("dims", "mode", "terms")

    def __init__(
        self,
        dims: ModelDims,
        mode: str = SPHERE,
        terms: Mapping[Mono, Coeff] | Iterable[tuple[object, Coeff]] = (),
    ):
        if mode not in MODES:
            raise InputError(f"unknown mode {mode!r}; expected one of {MODES}")
        if mode == SPHERE and dims.n < 2:
            raise InputError("sphere-mode polynomials need ambient dimension n >= 2")
        items = terms.items() if isinstance(terms, Mapping) else terms
        table: dict[Mono, Fraction] = {}
        for raw_mono, raw_coeff in items:
            _add(table, make_mono(dims, mode, raw_mono), frac(raw_coeff))
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "terms", table)

    @classmethod
    def _raw(cls, dims: ModelDims, mode: str, table: dict[Mono, Fraction]) -> "DotPolynomial":
        """Wrap an already-canonical term table without re-validating it."""
        out = object.__new__(cls)
        object.__setattr__(out, "dims", dims)
        object.__setattr__(out, "mode", mode)
        object.__setattr__(out, "terms", table)
        return out

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("DotPolynomial is immutable")

    # -- ring structure ----------------------------------------------------

    def _require_compatible(self, other: "DotPolynomial") -> None:
        if self.dims != other.dims or self.mode != other.mode:
            raise InputError(
                f"incompatible polynomials: ({self.dims}, {self.mode}) vs "
                f"({other.dims}, {other.mode})"
            )

    def __add__(self, other: object) -> "DotPolynomial":
        if isinstance(other, (int, Fraction)):
            other = constant(self.dims, other, self.mode)
        if not isinstance(other, DotPolynomial):
            return NotImplemented
        self._require_compatible(other)
        table = dict(self.terms)
        for mono, coeff in other.terms.items():
            _add(table, mono, coeff)
        return DotPolynomial._raw(self.dims, self.mode, table)

    __radd__ = __add__

    def __neg__(self) -> "DotPolynomial":
        return DotPolynomial._raw(
            self.dims, self.mode, {m: -c for m, c in self.terms.items()}
        )

    def __sub__(self, other: object) -> "DotPolynomial":
        if isinstance(other, (int, Fraction)):
            other = constant(self.dims, other, self.mode)
        if not isinstance(other, DotPolynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: object) -> "DotPolynomial":
        return (-self) + other

    def __mul__(self, other: object) -> "DotPolynomial":
        if isinstance(other, (int, Fraction)):
            scalar = frac(other)
            if not scalar:
                return DotPolynomial._raw(self.dims, self.mode, {})
            return DotPolynomial._raw(
                self.dims, self.mode, {m: c * scalar for m, c in self.terms.items()}
            )
        if not isinstance(other, DotPolynomial):
            return NotImplemented
        self._require_compatible(other)
        pairs = len(self.terms) * len(other.terms)
        if pairs > MAX_PRODUCT_PAIRS:
            raise ResourceLimitError(
                f"a product of {len(self.terms)} by {len(other.terms)} terms multiplies "
                f"{pairs} term pairs, above the budget of {MAX_PRODUCT_PAIRS}"
            )
        table: dict[Mono, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                _add(table, mono_mul(m1, m2), c1 * c2)
        return DotPolynomial._raw(self.dims, self.mode, table)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "DotPolynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise InputError(f"polynomial powers need integer exponents >= 0, got {exponent!r}")
        result = one(self.dims, self.mode)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = constant(self.dims, other, self.mode)
        return (
            isinstance(other, DotPolynomial)
            and self.dims == other.dims
            and self.mode == other.mode
            and self.terms == other.terms
        )

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- queries -------------------------------------------------------------

    def sorted_terms(self) -> Iterator[tuple[Mono, Fraction]]:
        """Terms in the canonical (lexicographic-on-pair-list) order."""
        for mono in sorted(self.terms):
            yield mono, self.terms[mono]

    def is_cone(self) -> bool:
        """True iff every coefficient is >= 0 (formal, representation-level)."""
        return all(c >= 0 for c in self.terms.values())

    def negative_terms(self) -> list[tuple[Mono, Fraction]]:
        return [(m, c) for m, c in self.sorted_terms() if c < 0]

    def coefficient_sum(self) -> Fraction:
        return sum(self.terms.values(), Fraction(0))

    def __repr__(self) -> str:
        sym = "u" if self.mode == SPHERE else "v"
        if not self.terms:
            return "0"
        bits = []
        for mono, coeff in self.sorted_terms():
            factors = "".join(
                f"{sym}[{i},{j}]" + (f"^{p}" if p > 1 else "") for (i, j), p in mono
            )
            bits.append(f"{coeff}" + (f"*{factors}" if factors else ""))
        return " + ".join(bits)


Generator = Callable[[Mono, ModelDims], dict[Mono, Weight]]


def apply_generator(p: DotPolynomial, generator: Generator) -> DotPolynomial:
    """Extend a monomial map generator(mono, dims) -> {mono: Weight} linearly to p."""
    table: dict[Mono, Fraction] = {}
    for mono, coeff in p.terms.items():
        for out_mono, weight in generator(mono, p.dims).items():
            _add(table, out_mono, coeff * weight)
    return DotPolynomial._raw(p.dims, p.mode, table)


def zero(dims: ModelDims, mode: str = SPHERE) -> DotPolynomial:
    return DotPolynomial(dims, mode)


def one(dims: ModelDims, mode: str = SPHERE) -> DotPolynomial:
    return DotPolynomial(dims, mode, {CONST_MONO: 1})


def constant(dims: ModelDims, value: Coeff, mode: str = SPHERE) -> DotPolynomial:
    return DotPolynomial(dims, mode, {CONST_MONO: value})


def variable(dims: ModelDims, i: int, j: int, power: int = 1, mode: str = SPHERE) -> DotPolynomial:
    """The single monomial ``(sigma_i . sigma_j)^power`` with coefficient 1."""
    return DotPolynomial(dims, mode, {(((i, j), power),): 1})


@dataclass
class FloatPolynomial:
    """A dot-product polynomial with floating-point coefficients.

    Produced by the semigroup operations, where coefficients pass through a
    matrix exponential and exactness is deliberately given up.
    """

    dims: ModelDims
    mode: str
    terms: dict[Mono, float]

    def min_coefficient(self) -> float:
        return min(self.terms.values(), default=0.0)

    def sorted_terms(self) -> Iterator[tuple[Mono, float]]:
        for mono in sorted(self.terms):
            yield mono, self.terms[mono]

    def coefficient(self, mono: Mono) -> float:
        return self.terms.get(mono, 0.0)


@dataclass(frozen=True)
class Coupling:
    """Ferromagnetic strengths J_ij >= 0 of the sphere weight exp(sum J_ij u_ij).

    ``strengths`` maps pairs (i < j) to merged strengths in first-appearance
    order.  The engines take a Coupling or a raw ``{pair: strength}`` table
    and pass either through :meth:`of`, which validates the table once.
    """

    dims: ModelDims
    strengths: Mapping[Pair, Fraction]

    @classmethod
    def of(
        cls,
        dims: ModelDims,
        table: "Coupling | Mapping[Pair, Coeff] | Iterable[tuple[Pair, Coeff]]",
    ) -> "Coupling":
        """Normalize pairs, merge duplicates, then reject negative merged strengths."""
        if isinstance(table, Coupling):
            if table.dims != dims:
                raise InputError(f"coupling is for {table.dims}, not {dims}")
            return table
        items = table.items() if isinstance(table, Mapping) else table
        merged: dict[Pair, Fraction] = {}
        for (i, j), value in items:
            pair = validate_pair(dims, SPHERE, i, j)
            merged[pair] = merged.get(pair, Fraction(0)) + frac(value)
        for pair, strength in merged.items():
            if strength < 0:
                raise InputError(f"coupling J{pair} = {strength} is not ferromagnetic")
        return cls(dims, merged)

    @classmethod
    def from_dict(cls, dims: ModelDims, data: object) -> "Coupling":
        """Parse ``{"terms": [{"i": .., "j": .., "coeff": ..}, ...]}``."""
        terms = data.get("terms") if isinstance(data, dict) else None
        if not isinstance(terms, list):
            raise InputError("coupling JSON must be an object with a 'terms' list")
        items = []
        for entry in terms:
            try:
                items.append(((entry["i"], entry["j"]), entry["coeff"]))
            except (KeyError, TypeError) as exc:
                raise InputError(f"malformed coupling entry {entry!r}") from exc
        return cls.of(dims, items)

    def exponent(self) -> DotPolynomial:
        """sum J_ij u_ij, the exponent of the weight, in first-appearance order."""
        terms = [(((pair, 1),), c) for pair, c in self.strengths.items()]
        return DotPolynomial(self.dims, SPHERE, terms)


# -- serialization ------------------------------------------------------------

def polynomial_to_dict(p: DotPolynomial) -> dict:
    """Canonical JSON-ready form; terms sorted by monomial order."""
    return {
        "mode": p.mode,
        "n": p.dims.n,
        "N": p.dims.sites,
        "terms": [
            {
                "coeff": str(coeff),
                "powers": [{"i": i, "j": j, "p": power} for (i, j), power in mono],
            }
            for mono, coeff in p.sorted_terms()
        ],
    }


def polynomial_from_dict(data: object) -> DotPolynomial:
    if not isinstance(data, dict):
        raise InputError("polynomial JSON must be an object")
    try:
        mode = data["mode"]
        n = data["n"]
        sites = data["N"]
        raw_terms = data["terms"]
    except KeyError as exc:
        raise InputError(f"polynomial JSON missing key {exc}") from exc
    dims = ModelDims(n, sites)
    items = []
    if not isinstance(raw_terms, list):
        raise InputError("'terms' must be a list")
    for entry in raw_terms:
        try:
            coeff = entry["coeff"]
            powers = [((q["i"], q["j"]), q["p"]) for q in entry["powers"]]
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed term entry {entry!r}") from exc
        items.append((powers, coeff))
    return DotPolynomial(dims, mode, items)


def save_polynomial(p: DotPolynomial, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(polynomial_to_dict(p), fh, indent=2)
        fh.write("\n")


def read_json(path: str, what: str) -> object:
    """Parse a JSON input file; anything but a readable regular file holding
    valid JSON is an InputError (opening a FIFO would block)."""
    if not os.path.isfile(path):
        raise InputError(f"input file not found: {path} (cannot read {what} file)")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {what} file {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, nesting too deep
        raise InputError(f"invalid JSON in {path}: {exc}") from exc


def load_polynomial(path: str) -> DotPolynomial:
    return polynomial_from_dict(read_json(path, "polynomial"))
