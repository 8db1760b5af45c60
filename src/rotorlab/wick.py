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
entries' denominators; every term of the sum is a product of exactly one
covariance entry per factor, so the integer total over k factors divided by
D^k is the exact moment, and one ``Fraction`` is built per call.  Chain
states are memoised per (scaled covariance, n), and only the
:data:`MEMO_SLOTS` most recently used covariances keep their memo.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .errors import ResourceLimitError

Pair0 = tuple[int, int]  # 0-based site pair
IntMatrix = tuple[tuple[int, ...], ...]

# The recursions here and in `moments` nest one Python frame per step.  They
# stay within this many frames, which leaves most of the interpreter's
# default limit of 1000 to their callers.
RECURSION_BUDGET = 400
# Chain memos are kept for this many (scaled covariance, n) keys.
MEMO_SLOTS = 8


def require_depth(frames: int, what: str) -> None:
    """Refuse a recursion that would nest deeper than :data:`RECURSION_BUDGET`."""
    if frames > RECURSION_BUDGET:
        raise ResourceLimitError(
            f"{what} needs about {frames} nested calls, above the limit of {RECURSION_BUDGET}"
        )


def require_factors(count: int) -> None:
    """Refuse an Isserlis sum over more factors than :data:`RECURSION_BUDGET` allows."""
    require_depth(2 * count + 1, f"an Isserlis sum over {count} factors")


def _scale_cov(cov: Sequence[Sequence[object]]) -> tuple[IntMatrix, int]:
    """Integer matrix D * cov and D, the lcm of the entries' denominators."""
    rows = [[x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row] for row in cov]
    denom = math.lcm(*(x.denominator for row in rows for x in row))
    return tuple(tuple(x.numerator * (denom // x.denominator) for x in row) for row in rows), denom


@lru_cache(maxsize=MEMO_SLOTS)
def _memo(scaled: IntMatrix, n: int) -> dict[tuple[tuple[Pair0, ...], Pair0], int]:
    """The chain memo of one (scaled covariance, n); the least recently used is dropped."""
    return {}


def _chain_sum(
    remaining: tuple[Pair0, ...],
    chain: Pair0,
    cov: IntMatrix,
    n: int,
    memo: dict[tuple[tuple[Pair0, ...], Pair0], int],
) -> int:
    key = (remaining, chain)
    found = memo.get(key)
    if found is not None:
        return found
    p, q = chain
    # closing the loop opens the next one at remaining[0]: `remaining` is
    # sorted, and fixing the opener's orientation counts each loop once
    total = n * cov[p][q]
    if remaining:
        total *= _chain_sum(remaining[1:], remaining[0], cov, n, memo)
    index = 0
    while index < len(remaining):
        a, b = remaining[index]
        count = 1
        while index + count < len(remaining) and remaining[index + count] == (a, b):
            count += 1
        rest = remaining[:index] + remaining[index + 1:]  # drop one copy, stays sorted
        if cov[q][a]:
            total += count * cov[q][a] * _chain_sum(rest, (p, b), cov, n, memo)
        if cov[q][b]:
            total += count * cov[q][b] * _chain_sum(rest, (p, a), cov, n, memo)
        index += count
    memo[key] = total
    return total


def vector_moment(
    factors: Sequence[Pair0],
    cov: Sequence[Sequence[object]],
    n: int,
) -> Fraction:
    """E prod (x_a . x_b) over centred Gaussians with covariance cov (x) I_n.

    ``factors`` lists 0-based site pairs with multiplicity.  Exact.
    """
    require_factors(len(factors))
    scaled, denom = _scale_cov(cov)
    if not factors:
        return Fraction(1)
    # every term of the sum is a product of exactly one covariance entry per factor
    remaining = tuple(sorted(factors))
    total = _chain_sum(remaining[1:], remaining[0], scaled, n, _memo(scaled, n))
    return Fraction(total, denom ** len(factors))
