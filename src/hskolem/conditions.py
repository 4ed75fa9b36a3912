"""Closed-form necessary conditions for hooked Skolem graceful labelings.

Every predicate here is necessary, never sufficient: a True result means
"feasible so far", not "exists".
"""

from __future__ import annotations

from .core import DomainError


def size_necessary(p: int, q: int) -> bool:
    """A (k,d)-hooked Skolem graceful graph has q <= p: its q edge labels
    are distinct differences of {1..p-1, p+1}, whose largest is p."""
    if p < 2 or q < 0:
        raise DomainError(f"need p >= 2, q >= 0, got p={p}, q={q}")
    return q <= p


def expected_cross_edges(k: int, d: int, q: int) -> int:
    """Number of edges joining an odd and an even vertex label on any valid
    labeling: the odd terms of k, k+d, ..., k+(q-1)d.  With d even every
    term has k's parity; with d odd the terms alternate, starting at k."""
    if k < 1 or d < 1 or q < 0:
        raise DomainError(f"need k, d >= 1, q >= 0, got k={k}, d={d}, q={q}")
    if d % 2 == 0:
        return q if k % 2 else 0
    return (q + k % 2) // 2


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
