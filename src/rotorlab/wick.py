"""Isserlis (Wick) sums for dot products of Gaussian vectors.

``vector_moment`` evaluates E prod (x_a . x_b) for centred jointly-Gaussian
vectors in R^n with covariance C per component (full covariance C tensor
identity).  Expanding every dot product into components and applying
Isserlis pairwise, a matching of the component slots only survives when its
per-slot covariances allow it, and the surviving component deltas chain the
factors into closed loops, each loop contributing one free component index
(a factor n).  The implementation walks those loops directly: a chain is
opened at the first remaining factor, extended one factor at a time, and
closed against its starting end, and closing one loop opens the next at the
first factor left, so each matching is generated once and the loop count is
known for free.  States repeat heavily, hence the memo.

The walk runs in integers.  The covariance is scaled by D, the lcm of its
entries' denominators (:func:`ratlin.scaled`, which also refuses a matrix
that is not square or not symmetric); every term of the sum is a product of
exactly one covariance entry per factor, so the integer total over k factors
divided by D^k is the exact moment.  ``gaussian.gaussian_moment`` scales
once per polynomial and walks each monomial through :func:`isserlis_total`.

On an N x N covariance the factor (a, b) is the one int a * N + b, and so is
a chain with start a and open end b.  A state is the sorted tuple of the
factors left plus the chain.  How a tuple splits (the factor the chain takes
next, its multiplicity, the factors left after it) does not depend on the
covariance, so :func:`_splits` memoises it once for every covariance and n.
State values are memoised in one dict per call, which
``gaussian.gaussian_moment`` shares between a polynomial's monomials.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from typing import Iterable, Sequence

from . import ratlin
from .errors import InputError, ResourceLimitError

Pair0 = tuple[int, int]  # 0-based site pair
Codes = tuple[int, ...]  # sorted factor codes a * N + b
Memo = dict[tuple[Codes, int], int]  # (factors left, chain code) -> scaled sum

# The recursions here and in `moments` nest one Python frame per step.  They
# stay within this many frames, which leaves most of the interpreter's
# default limit of 1000 to their callers.
RECURSION_BUDGET = 400
# Split tables kept.  The most measured is 13,854 (`suite full`, 13 MB);
# an `exact` run with its verification stores up to 2,700 (2.1 MB).
SPLIT_SLOTS = 1 << 14


def require_depth(frames: int, what: str) -> None:
    """Refuse a recursion that would nest deeper than :data:`RECURSION_BUDGET`."""
    if frames > RECURSION_BUDGET:
        raise ResourceLimitError(
            f"{what} needs about {frames} nested calls, above the limit of {RECURSION_BUDGET}"
        )


def require_factors(count: int) -> None:
    """Refuse an Isserlis sum over more factors than :data:`RECURSION_BUDGET` allows."""
    require_depth(2 * count + 1, f"an Isserlis sum over {count} factors")


@lru_cache(maxsize=SPLIT_SLOTS)
def _splits(remaining: Codes) -> tuple[int, Codes, tuple[tuple[int, int, Codes], ...]]:
    """The first code, the codes after it, and (code, multiplicity, codes left
    after dropping one copy) for each distinct code of a non-empty sorted tuple.

    Shared by every covariance and n.  One entry holds O(distinct factors x k)
    ints for k factors, so, as with ``moments._partner_pairing_sum``, the
    entry bound alone does not bound its memory.
    """
    out = []
    start = 0
    for code, copies in groupby(remaining):
        count = sum(1 for _ in copies)
        out.append((code, count, remaining[:start] + remaining[start + 1:]))
        start += count
    return remaining[0], remaining[1:], tuple(out)


def _chain_sum(state: tuple[Codes, int], cov: ratlin.IntMatrix, n: int, memo: Memo) -> int:
    """The scaled sum over the ways to close the chain and pair up the factors left."""
    remaining, chain = state
    width = len(cov)
    p, q = divmod(chain, width)
    total = n * cov[p][q]
    if remaining:
        head, tail, splits = _splits(remaining)
        if total:
            # closing the loop opens the next one at head: `remaining` is
            # sorted, and fixing the opener's orientation counts each loop once
            child = (tail, head)
            found = memo.get(child)
            total *= _chain_sum(child, cov, n, memo) if found is None else found
        row, start = cov[q], p * width
        for code, count, rest in splits:
            a, b = divmod(code, width)
            if row[a]:
                child = (rest, start + b)
                found = memo.get(child)
                if found is None:
                    found = _chain_sum(child, cov, n, memo)
                total += count * row[a] * found
            if row[b]:
                child = (rest, start + a)
                found = memo.get(child)
                if found is None:
                    found = _chain_sum(child, cov, n, memo)
                total += count * row[b] * found
    memo[state] = total
    return total


def isserlis_total(
    pairs: Iterable[tuple[Pair0, int]], scaled: ratlin.IntMatrix, n: int, memo: Memo
) -> int:
    """D^k E prod (x_a . x_b) on the scaled covariance, over k factors given
    as sorted 0-based site pairs (a, b) with their multiplicities."""
    width = len(scaled)
    codes: list[int] = []
    for (a, b), power in pairs:
        codes.extend([a * width + b] * power)  # b < width: sorted pairs give sorted codes
    if not codes:
        return 1
    return _chain_sum((tuple(codes[1:]), codes[0]), scaled, n, memo)


def vector_moment(
    factors: Sequence[Pair0],
    cov: Sequence[Sequence[object]],
    n: int,
) -> Fraction:
    """E prod (x_a . x_b) over centred Gaussians with covariance cov (x) I_n.

    ``factors`` lists 0-based site pairs with multiplicity.  Exact.
    """
    require_factors(len(factors))
    scaled, denom = ratlin.scaled(cov)
    if not factors:
        return Fraction(1)
    width = len(scaled)
    if not all(0 <= site < width for pair in factors for site in pair):
        raise InputError(
            f"factor sites must lie in 0..{width - 1} for a {width}x{width} covariance"
        )
    pairs = [(pair, 1) for pair in sorted(factors)]
    return Fraction(isserlis_total(pairs, scaled, n, {}), denom ** len(factors))
