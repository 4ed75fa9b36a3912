"""Independent brute-force oracles used to cross-check the search engine.

These deliberately traverse the problem differently from the package (by
value, not by position/label), so agreement is meaningful.
"""

from __future__ import annotations

from itertools import permutations


def pairings(values):
    """All partitions of values into unordered pairs (a, b) with a < b,
    emitted with pairs sorted by smaller element."""
    values = sorted(values)
    if not values:
        yield ()
        return
    a = values[0]
    for i in range(1, len(values)):
        b = values[i]
        rest = values[1:i] + values[i + 1:]
        for sub in pairings(rest):
            yield ((a, b),) + sub


def nk2_solutions_brute(n, k, d):
    """All pair systems on {1..2n-1, 2n+1} with difference set
    {k, k+d, ..., k+(n-1)d}, filtered from every perfect pairing."""
    labels = list(range(1, 2 * n)) + [2 * n + 1]
    target = sorted(k + i * d for i in range(n))
    return [p for p in pairings(labels)
            if sorted(b - a for a, b in p) == target]


def sequence_solutions_brute(length, values, hook_index=None):
    """All Skolem-type fillings, placing values one at a time (descending)
    into any free slot pair (i, i+r).  Returns entry tuples with 0 at the
    hook slot, as a set."""
    free = [True] * length
    if hook_index is not None:
        free[hook_index] = False
    ordered = sorted(values, reverse=True)
    results = set()

    def rec(idx, acc):
        if idx == len(ordered):
            seq = [0] * length
            for r, (i, j) in acc:
                seq[i] = seq[j] = r
            results.add(tuple(seq))
            return
        r = ordered[idx]
        for i in range(length):
            j = i + r
            if j < length and free[i] and free[j]:
                free[i] = free[j] = False
                rec(idx + 1, acc + [(r, (i, j))])
                free[i] = free[j] = True

    rec(0, [])
    return results


def graph_labelings_brute(p, edges, k, d):
    """All (k,d)-hooked Skolem graceful labelings of the graph on vertices
    1..p, as label tuples in lexicographic order: every bijection onto
    {1..p-1, p+1}, filtered by its edge differences."""
    target = sorted(k + i * d for i in range(len(edges)))
    labels = list(range(1, p)) + [p + 1]
    return sorted(f for f in permutations(labels)
                  if sorted(abs(f[u - 1] - f[v - 1]) for u, v in edges) == target)


def graph_tree_nodes(p, edges, k, d):
    """Size of the plain labeled search tree of the graph on vertices 1..p.
    Vertices take labels in the order 1..p; a vertex may take any unused
    label of {1..p-1, p+1} whose differences to its earlier neighbours'
    labels are distinct and still among the unused targets.  Every partial
    labeling reached this way is one node, the empty one included."""
    targets = frozenset(k + i * d for i in range(len(edges)))
    earlier = {v: [min(a, b) for a, b in edges if max(a, b) == v]
               for v in range(1, p + 1)}
    labels = set(range(1, p)) | {p + 1}

    def nodes(v, given, left):
        if v > p:
            return 1
        total = 1
        for x in labels - set(given.values()):
            diffs = {abs(x - given[u]) for u in earlier[v]}
            if len(diffs) == len(earlier[v]) and diffs <= left:
                total += nodes(v + 1, {**given, v: x}, left - diffs)
        return total

    return nodes(1, {}, targets)


def hooked_sequence_table(d, m):
    """Simpson's condition for a hooked sequence with differences
    d, ..., d+m-1, in its published form: the quadratic bound, then
    m = 2, 3 (mod 4) for odd d and m = 1, 2 (mod 4) for even d."""
    if m * (m + 1 - 2 * d) + 2 < 0:
        return False
    if d % 2 == 1:
        return m % 4 in (2, 3)
    return m % 4 in (1, 2)
