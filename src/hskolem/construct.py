"""Closed-form (2,1)-hooked Skolem graceful labelings of nK2.

Covers exactly n = 1 or 2 (mod 4): five small orders come from a fixed
table, the rest from two piecewise label families (n = 4r-2 with r >= 4,
n = 4r-3 with r >= 3).  Every output is re-verified before return, so a
transcription slip in the many formula branches fails loudly.
"""

from __future__ import annotations

from .core import MAX_ORDER, DomainError, PairSystem
from .verify import verify_pair_system


class NotGraceful(DomainError):
    """nK2 has no (2,1)-hooked Skolem graceful labeling for this n."""


class UseBaseCase(DomainError):
    """The formula family does not start this low; use the base-case table."""


class ConstructionBug(RuntimeError):
    """A constructor emitted a labeling that failed certification."""


_BASE_CASES: dict[int, tuple[tuple[int, int], ...]] = {
    1: ((1, 3),),
    2: ((1, 3), (2, 5)),
    5: ((1, 4), (2, 6), (3, 8), (5, 11), (7, 9)),
    6: ((1, 8), (2, 7), (3, 6), (4, 10), (5, 9), (11, 13)),
    10: ((1, 3), (2, 6), (4, 9), (5, 15), (7, 14), (8, 17),
         (10, 21), (11, 19), (12, 18), (13, 16)),
}


def base_cases() -> dict[int, PairSystem]:
    """The five tabulated labelings: n = 1, 2, 5, 6, 10."""
    return {n: PairSystem(pairs) for n, pairs in _BASE_CASES.items()}


def _even_a(i: int, n: int, r: int) -> int:
    if i in (1, 2):
        return i
    if 3 <= i <= 2 * r - 2:
        return i + 1
    if i == 2 * r - 1:
        return (n + 4) // 2
    if i == 2 * r:
        return (3 * n + 2) // 4
    return (n - 4) // 2 + i  # 2r+1 <= i <= n


def _even_b(i: int, n: int, r: int) -> int:
    if i == 1:
        return 3
    if i == 2:
        return (n + 2) // 2
    if 3 <= i <= r:
        return n + 2 - i
    if r + 1 <= i <= 2 * r - 3:
        return n + 1 - i
    if i == 2 * r - 2:
        return 3 * n // 2
    if i == 2 * r - 1:
        return (3 * n - 2) // 2
    if i == 2 * r:
        return (7 * n - 2) // 4
    if i == 2 * r + 1:
        return 2 * n + 1
    if 2 * r + 2 <= i <= 3 * r:
        return (5 * n + 4) // 2 - i
    return (5 * n + 2) // 2 - i  # 3r+1 <= i <= n


def even_family_labels(r: int) -> PairSystem:
    """Labeling of nK2 for n = 4r-2, r >= 4 (differences 2..n+1)."""
    if r < 4:
        raise UseBaseCase(f"even family starts at r=4, got r={r}")
    n = 4 * r - 2
    return PairSystem(tuple((_even_a(i, n, r), _even_b(i, n, r)) for i in range(1, n + 1)))


def _odd_a(i: int, n: int, r: int) -> int:
    if 1 <= i <= 2 * r - 1:
        return i
    if 2 * r <= i <= 3 * r - 2:
        return (n - 3) // 2 + i
    return (n - 1) // 2 + i  # 3r-1 <= i <= n


def _odd_b(i: int, n: int, r: int) -> int:
    # i = r and i = n share one branch, so they take precedence.
    if i in (r, n):
        return n - 1 + i
    if 1 <= i <= r - 1:
        return n - i
    if r + 1 <= i <= 2 * r - 2:
        return n + 1 - i
    if i == 2 * r - 1:
        return (3 * n + 1) // 2
    if i == 2 * r:
        return 2 * n + 1
    return (5 * n + 1) // 2 - i  # 2r+1 <= i <= n-1


def odd_family_labels(r: int) -> PairSystem:
    """Labeling of nK2 for n = 4r-3, r >= 3 (differences 2..n+1)."""
    if r < 3:
        raise UseBaseCase(f"odd family starts at r=3, got r={r}")
    n = 4 * r - 3
    return PairSystem(tuple((_odd_a(i, n, r), _odd_b(i, n, r)) for i in range(1, n + 1)))


def construct_nk2_21(n: int) -> PairSystem:
    """(2,1)-hooked Skolem graceful labeling of nK2, self-certified.

    Raises NotGraceful for n = 0 or 3 (mod 4): no such labeling exists.
    """
    if n < 1:
        raise DomainError(f"n must be positive, got {n}")
    if n > MAX_ORDER:
        raise DomainError(f"n exceeds supported bound {MAX_ORDER}")
    if n % 4 in (0, 3):
        raise NotGraceful(f"nK2 is not (2,1)-hooked Skolem graceful for n={n}")
    if n in _BASE_CASES:
        ps = base_cases()[n]
    elif n % 4 == 2:
        ps = even_family_labels((n + 2) // 4)
    else:
        ps = odd_family_labels((n + 3) // 4)
    report = verify_pair_system(ps, k=2, d=1)
    if not report.valid:
        raise ConstructionBug(
            f"constructed labeling for n={n} failed certification:\n{report.to_text()}"
        )
    return ps
