"""Closed-form (2,1)-hooked Skolem graceful labelings of nK2.

Covers exactly n = 1 or 2 (mod 4): five small orders come from a fixed
table, the rest from two piecewise label families (n = 4r-2 with r >= 4,
n = 4r-3 with r >= 3), each built as a few integer spans, one per branch
of the paper's per-index formulas.  Every output is re-verified before
return, so a slip in a span's bounds fails loudly.
"""

from __future__ import annotations

from .conditions import nk2_parity_feasible
from .core import MAX_ORDER, ContradictionDetected, DomainError, NotGraceful, PairSystem
from .verify import verify_pair_system


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


def _span(c: int, lo: int, hi: int, sign: int = 1) -> range:
    """c + sign*i for i = lo..hi: one branch of a per-index label formula."""
    return range(c + sign * lo, c + sign * (hi + 1), sign)


def even_family_labels(r: int) -> PairSystem:
    """Labeling of nK2 for n = 4r-2, r >= 4 (differences 2..n+1): a_i and
    b_i listed for i = 1..n, one entry or span per formula branch."""
    if r < 4:
        raise DomainError(f"even family starts at r=4, got r={r}")
    n = 4 * r - 2
    a = [1, 2, *_span(1, 3, 2 * r - 2), (n + 4) // 2, (3 * n + 2) // 4,
         *_span((n - 4) // 2, 2 * r + 1, n)]
    b = [3, (n + 2) // 2, *_span(n + 2, 3, r, -1), *_span(n + 1, r + 1, 2 * r - 3, -1),
         3 * n // 2, (3 * n - 2) // 2, (7 * n - 2) // 4, 2 * n + 1,
         *_span((5 * n + 4) // 2, 2 * r + 2, 3 * r, -1), *_span((5 * n + 2) // 2, 3 * r + 1, n, -1)]
    return PairSystem(zip(a, b))


def odd_family_labels(r: int) -> PairSystem:
    """Labeling of nK2 for n = 4r-3, r >= 3 (differences 2..n+1), listed
    as in even_family_labels."""
    if r < 3:
        raise DomainError(f"odd family starts at r=3, got r={r}")
    n = 4 * r - 3
    a = [*_span(0, 1, 2 * r - 1), *_span((n - 3) // 2, 2 * r, 3 * r - 2),
         *_span((n - 1) // 2, 3 * r - 1, n)]
    b = [*_span(n, 1, r - 1, -1), n - 1 + r, *_span(n + 1, r + 1, 2 * r - 2, -1),
         (3 * n + 1) // 2, 2 * n + 1, *_span((5 * n + 1) // 2, 2 * r + 1, n - 1, -1), 2 * n - 1]
    return PairSystem(zip(a, b))


def construct_nk2_21(n: int) -> PairSystem:
    """(2,1)-hooked Skolem graceful labeling of nK2, self-certified.

    Raises NotGraceful when n fails the parity predicate, exact at (2, 1).
    """
    if n < 1:
        raise DomainError(f"n must be positive, got {n}")
    if n > MAX_ORDER:
        raise DomainError(f"n exceeds supported bound {MAX_ORDER}")
    if not nk2_parity_feasible(n, 2, 1):
        raise NotGraceful(f"nK2 is not (2,1)-hooked Skolem graceful for n={n}")
    if n in _BASE_CASES:
        ps = base_cases()[n]
    elif n % 4 == 2:
        ps = even_family_labels((n + 2) // 4)
    else:
        ps = odd_family_labels((n + 3) // 4)
    report = verify_pair_system(ps, k=2, d=1)
    if not report.valid:
        raise ContradictionDetected(
            f"constructed labeling for n={n} failed certification:\n{report.to_text()}"
        )
    return ps
