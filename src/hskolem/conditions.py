"""Closed-form necessary conditions for hooked Skolem graceful labelings.

Every predicate here is necessary, never sufficient: a True result means
"feasible so far", not "exists".
"""

from __future__ import annotations

from .core import DomainError


class BothEven(DomainError):
    """The cross-edge count is only determined when k, d are not both even."""


def size_necessary(p: int, q: int) -> bool:
    """A (k,d)-hooked Skolem graceful graph has at most p-1 edges."""
    if p < 2 or q < 0:
        raise DomainError(f"need p >= 2, q >= 0, got p={p}, q={q}")
    return q <= p - 1


def expected_cross_edges(k: int, d: int, q: int) -> int:
    """Number of odd-labeled/even-labeled cross edges forced on any valid
    labeling: the count of odd terms in the edge target progression."""
    if k % 2 == 0 and d % 2 == 0:
        raise BothEven(f"k={k}, d={d} are both even")
    if q < 0:
        raise DomainError("q must be non-negative")
    if k % 2 == 1 and d % 2 == 1:
        return (q + 1) // 2
    if k % 2 == 0:  # d odd
        return q // 2
    return q  # k odd, d even: every term is odd


def nk2_parity_feasible(n: int, k: int, d: int) -> bool:
    """Parity feasibility of a (k,d)-hooked Skolem graceful labeling of nK2.

    Twice the sum of the larger pair members equals
    n*k + n(n-1)d/2 + 2n^2 + n + 1, which therefore must be even.
    Case form: n=1 (mod 4) needs k even; n=2 needs d odd; n=3 needs
    k = d (mod 2); n=0 (mod 4) is never feasible.
    """
    if n < 1 or k < 1 or d < 1:
        raise DomainError("n, k, d must be positive")
    total = n * k + n * (n - 1) * d // 2 + 2 * n * n + n + 1
    return total % 2 == 0


def hooked_sequence_necessary(d: int, m: int) -> bool:
    """Simpson's necessary condition for a hooked sequence with differences
    d, ..., d+m-1.  Such a sequence is a (d,1) labeling of mK2 (its slots are
    {1..2m-1, 2m+1}), so its mod-4 part is nk2_parity_feasible(m, d, 1)."""
    if d < 1 or m < 1:
        raise DomainError("d, m must be positive")
    return m * (m + 1 - 2 * d) + 2 >= 0 and nk2_parity_feasible(m, d, 1)
