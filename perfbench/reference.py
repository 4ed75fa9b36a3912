"""Reference counts and output checks that share no code with hskolem.

Every count below was produced by the memoized pair-partition counter and
the graph backtracker in this file, which are written independently of the
library's engines.  Skolem counts also match OEIS A004075 times two (a
sequence and its reversal both count), e.g. 504 and 2656 for m = 8, 9.

    python3 perfbench/reference.py     # recount every entry, exit 1 on a mismatch
"""

from __future__ import annotations

import sys
from functools import lru_cache

# (n, k, d) -> number of (k,d)-hooked Skolem graceful labelings of nK2 as
# pair systems, for n <= 10 and k, d <= 4.  Entries not listed are 0.
NK2_COUNTS = {
    (1, 2, 1): 1, (1, 2, 2): 1, (1, 2, 3): 1, (1, 2, 4): 1,
    (2, 1, 1): 1, (2, 1, 3): 1, (2, 2, 1): 1, (3, 1, 1): 2,
    (5, 2, 1): 6, (6, 1, 1): 38, (6, 2, 1): 18, (6, 3, 1): 10,
    (7, 1, 1): 124, (7, 3, 1): 44, (9, 2, 1): 1348, (9, 4, 1): 432,
    (10, 1, 1): 12808, (10, 2, 1): 6824, (10, 3, 1): 3580, (10, 4, 1): 2256,
}
NK2_DOMAIN = [(n, k, d) for n in range(1, 11) for k in range(1, 5) for d in range(1, 5)]

# ("skolem", m), ("hooked_skolem", m) and ("hooked", d, m) for m <= 10 and
# d in 2..4.  Entries not listed are 0.
SEQ_COUNTS = {
    ("skolem", 1): 1, ("skolem", 4): 6, ("skolem", 5): 10,
    ("skolem", 8): 504, ("skolem", 9): 2656,
    ("hooked_skolem", 2): 1, ("hooked_skolem", 3): 2, ("hooked_skolem", 6): 38,
    ("hooked_skolem", 7): 124, ("hooked_skolem", 10): 12808,
    ("hooked", 2, 1): 1, ("hooked", 2, 2): 1, ("hooked", 2, 5): 6,
    ("hooked", 2, 6): 18, ("hooked", 3, 6): 10, ("hooked", 3, 7): 44,
    ("hooked", 2, 9): 1348, ("hooked", 4, 9): 432,
    ("hooked", 2, 10): 6824, ("hooked", 3, 10): 3580, ("hooked", 4, 10): 2256,
}
SEQ_DOMAIN = [(kind, m) for kind in ("skolem", "hooked_skolem") for m in range(1, 11)] + [
    ("hooked", d, m) for d in (2, 3, 4) for m in range(1, 11)
]

# Graphs searched by the benchmark: 1-based edge lists.
GRAPHS = {
    "5K2": (10, tuple((2 * i - 1, 2 * i) for i in range(1, 6))),
    "2K2": (4, ((1, 2), (3, 4))),
    "path5": (5, ((1, 2), (2, 3), (3, 4), (4, 5))),
    "star5": (5, ((1, 2), (1, 3), (1, 4), (1, 5))),
    "path9": (9, tuple((i, i + 1) for i in range(1, 9))),
    "spider3x2": (9, ((1, 2), (2, 3), (1, 4), (4, 5), (1, 6), (6, 7), (1, 8), (8, 9))),
    "caterpillar9": (9, ((1, 2), (2, 3), (3, 4), (4, 5), (1, 6), (2, 7), (3, 8), (4, 9))),
    "binary9": (9, ((1, 2), (1, 3), (2, 4), (2, 5), (3, 6), (3, 7), (4, 8), (4, 9))),
    "broom9": (9, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (5, 7), (5, 8), (5, 9))),
    "spider3-2-2": (9, ((1, 2), (2, 3), (3, 4), (1, 5), (5, 6), (6, 7), (1, 8), (8, 9))),
}
# (graph, k, d) -> number of labelings as label vectors.
GRAPH_COUNTS = {
    ("5K2", 2, 1): 23040,
    ("2K2", 2, 1): 8, ("2K2", 1, 1): 8,
    ("path5", 1, 1): 4, ("path5", 2, 1): 0,
    ("star5", 1, 1): 0, ("star5", 2, 1): 24,
    ("path9", 1, 1): 228, ("path9", 2, 1): 0, ("spider3x2", 1, 1): 456, ("caterpillar9", 1, 1): 352,
    ("binary9", 1, 1): 432, ("broom9", 1, 1): 504, ("spider3-2-2", 1, 1): 294,
}


def nk2_count(n: int, k: int, d: int) -> int:
    if (n, k, d) not in NK2_DOMAIN:
        raise KeyError(f"nK2 ({n},{k},{d}) is outside the reference table")
    return NK2_COUNTS.get((n, k, d), 0)


def seq_count(key: tuple) -> int:
    if key not in SEQ_DOMAIN:
        raise KeyError(f"{key} is outside the reference table")
    return SEQ_COUNTS.get(key, 0)


def hooked_positions(m: int) -> list[int]:
    return list(range(1, 2 * m)) + [2 * m + 1]


def seq_spec(key: tuple) -> tuple[list[int], list[int]]:
    """(positions, differences) of a sequence kind: a Skolem-type sequence of
    order m pairs the positions so that each difference is used once."""
    if key[0] == "skolem":
        return list(range(1, 2 * key[1] + 1)), list(range(1, key[1] + 1))
    if key[0] == "hooked_skolem":
        return hooked_positions(key[1]), list(range(1, key[1] + 1))
    d, m = key[1], key[2]
    return hooked_positions(m), list(range(d, d + m))


def nk2_spec(n: int, k: int, d: int) -> tuple[list[int], list[int]]:
    return hooked_positions(n), [k + i * d for i in range(n)]


def pairs_problem(pairs, positions, diffs) -> str | None:
    """Why `pairs` is not a partition of `positions` into pairs whose
    differences are exactly `diffs`, or None when it is."""
    pairs = [tuple(p) for p in pairs]
    values = sorted(x for p in pairs for x in p)
    if values != sorted(positions):
        return "pair values are not the required position set"
    if sorted(abs(b - a) for a, b in pairs) != sorted(diffs):
        return "pair differences are not the required difference set"
    return None


def sequence_problem(entries, hook_index, positions, diffs) -> str | None:
    """Check a Skolem-type sequence given as a list with None at the hook."""
    if len(entries) != max(positions):
        return f"length {len(entries)} != {max(positions)}"
    if hook_index is not None and entries[hook_index] is not None:
        return "hook slot is filled"
    where: dict = {}
    for i, x in enumerate(entries, start=1):
        if i - 1 != hook_index:
            where.setdefault(x, []).append(i)
    pairs = []
    for value, at in where.items():
        if len(at) != 2 or at[1] - at[0] != value:
            return f"value {value} at positions {at}"
        pairs.append(at)
    return pairs_problem(pairs, positions, diffs)


def labeling_problem(p, edges, labels, k, d) -> str | None:
    """Check a vertex labeling of a graph with vertices 1..p."""
    if sorted(labels) != list(range(1, p)) + [p + 1]:
        return "vertex labels are not {1..p-1, p+1}"
    induced = sorted(abs(labels[u - 1] - labels[v - 1]) for u, v in edges)
    if induced != [k + i * d for i in range(len(edges))]:
        return "edge labels are not the target progression"
    return None


def parity_feasible(n: int, k: int, d: int) -> bool:
    """Parity condition for nK2, in the case form of the source paper."""
    r = n % 4
    if r == 0:
        return False
    if r == 1:
        return k % 2 == 0
    if r == 2:
        return d % 2 == 1
    return k % 2 == d % 2


def count_pairings(positions, diffs) -> int:
    """Memoized count of partitions of `positions` into pairs whose
    differences are `diffs`, each used once."""

    @lru_cache(maxsize=None)
    def count(free: int, dmask: int) -> int:
        if not free:
            return 1
        a = (free & -free).bit_length() - 1
        total = 0
        rest = dmask
        while rest:
            low = rest & -rest
            rest ^= low
            b = a + low.bit_length() - 1
            if free >> b & 1:
                total += count(free & ~(1 << a) & ~(1 << b), dmask & ~low)
        return total

    if len(positions) != 2 * len(diffs):
        return 0
    return count(sum(1 << x for x in positions), sum(1 << x for x in diffs))


def count_graph_labelings(p, edges, k, d) -> int:
    """Backtracking count of (k,d)-hooked Skolem graceful labelings."""
    targets = {k + i * d for i in range(len(edges))}
    earlier = [[] for _ in range(p + 1)]
    for u, v in edges:
        earlier[max(u, v)].append(min(u, v))
    labels = [0] * (p + 1)
    free = set(range(1, p)) | {p + 1}

    def place(v: int, used: frozenset) -> int:
        if v > p:
            return 1
        total = 0
        for lab in sorted(free):
            diffs = [abs(lab - labels[u]) for u in earlier[v]]
            if len(set(diffs)) != len(diffs) or not targets.issuperset(diffs) or used.intersection(diffs):
                continue
            free.remove(lab)
            labels[v] = lab
            total += place(v + 1, used.union(diffs))
            free.add(lab)
        return total

    return place(1, frozenset())


def main() -> int:
    bad = 0
    for key in NK2_DOMAIN:
        got = count_pairings(*nk2_spec(*key))
        if got != nk2_count(*key):
            print(f"nK2 {key}: table {nk2_count(*key)}, recount {got}")
            bad += 1
    for key in SEQ_DOMAIN:
        got = count_pairings(*seq_spec(key))
        if got != seq_count(key):
            print(f"{key}: table {seq_count(key)}, recount {got}")
            bad += 1
    for (name, k, d), want in GRAPH_COUNTS.items():
        p, edges = GRAPHS[name]
        got = count_graph_labelings(p, edges, k, d)
        if got != want:
            print(f"graph {name} ({k},{d}): table {want}, recount {got}")
            bad += 1
    print("reference table", "MISMATCH" if bad else "ok")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
