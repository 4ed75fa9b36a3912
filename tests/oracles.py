"""Independent brute-force oracles used to cross-check the search engine,
and the paper's per-index label formulas for the construct families.

These deliberately traverse the problem differently from the package (by
value, not by position/label), so agreement is meaningful.
"""

from __future__ import annotations

import json
from itertools import permutations
from math import prod

from hskolem.core import DomainError, PairSystem, _ascii_int, _json_int, _quote, sequence_shape


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


def pair_tree_nodes(free, diffs):
    """Size of the plain pair-partition search tree on the position set free
    and the difference set diffs.  A state pairs min(free) with min(free) + e
    for each unused e whose partner is free, and has no children when the
    largest unused difference exceeds max(free) - min(free).  Every state
    reached this way is one node, the first one and the leaves included."""
    if not free:
        return 1
    a = min(free)
    if max(diffs) > max(free) - a:
        return 1
    return 1 + sum(pair_tree_nodes(free - {a, a + e}, diffs - {e})
                   for e in diffs if a + e in free)


def pair_partition_count(positions, diffs):
    """Number of partitions of the nonempty position set into pairs whose
    differences are diffs, each used once, by Godfrey's +-1 formula.  With
    S_e(x) the sum of x_i * x_j over positions i < j with j - i = e, the
    count is 2^-N times the sum, over x in {+1, -1}^positions, of
    prod(x) * prod(S_e(x) for e in diffs), N = len(positions): a term
    survives the sum iff its chosen pairs cover every position once.  x and
    -x give the same term, so the first coordinate stays +1 and the others
    are walked in Gray-code order; flipping x_j moves each S_e by
    -2 * x_j * x_o for each position o at distance e from j.  It counts
    without searching."""
    pos, diffs = sorted(positions), sorted(diffs)
    n = len(pos)
    if n != 2 * len(diffs):
        return 0
    index = {q: i for i, q in enumerate(pos)}
    links = [[(t, index[q + s * e]) for t, e in enumerate(diffs) for s in (1, -1)
              if q + s * e in index] for q in pos]
    sums = [sum(q + e in index for q in pos) for e in diffs]
    x = [1] * n
    sign, total = 1, prod(sums)
    for g in range(1, 1 << (n - 1)):
        j = (g & -g).bit_length()  # the coordinate to flip, 1..n-1
        for t, o in links[j]:
            sums[t] -= 2 * x[j] * x[o]
        x[j] = -x[j]
        sign = -sign
        total += sign * prod(sums)
    return 2 * total >> n


def hooked_sequence_table(d, m):
    """Simpson's condition for a hooked sequence with differences
    d, ..., d+m-1, in its published form: the quadratic bound, then
    m = 2, 3 (mod 4) for odd d and m = 1, 2 (mod 4) for even d."""
    if m * (m + 1 - 2 * d) + 2 < 0:
        return False
    if d % 2 == 1:
        return m % 4 in (2, 3)
    return m % 4 in (1, 2)


# The (2,1) families of nK2, label by label: pair i of the even family
# (n = 4r-2) is (_even_a(i, n, r), _even_b(i, n, r)), of the odd family
# (n = 4r-3) (_odd_a(i, n, r), _odd_b(i, n, r)), for i = 1..n.

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


# The readers one token or pair at a time: any faster reader in core must
# give the same PairSystem, or raise the same exception type with the same
# message.

def parse_pairs_per_token(text):
    pairs = []
    for tok in text.split():
        parts = tok.split("-")
        if len(parts) != 2:
            raise DomainError(f"bad pair token {_quote(tok)}")
        pairs.append((_ascii_int(parts[0]), _ascii_int(parts[1])))
    return PairSystem(tuple(pairs))


def pair_system_from_json_per_pair(text):
    try:
        record = json.loads(text)
        n, k, d = (_json_int(record[key]) for key in ("n", "k", "d"))
        pairs = tuple((_json_int(a), _json_int(b)) for a, b in record["pairs"])
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise DomainError(f"bad pair-system record: {exc}") from exc
    if k < 1 or d < 1:
        raise DomainError(f"record needs positive k and d, got k={k}, d={d}")
    ps = PairSystem(pairs)
    if ps.n != n:
        raise DomainError(f"record says n={n} but has {ps.n} pairs")
    return ps, k, d


def position_set_message(ps, kind, d=1):
    """The position-set error text of pairs_to_sequence, from a comparison
    of the value set with the position set; None when the two agree."""
    length, hook, _ = sequence_shape(kind, ps.n, d)
    required, values = set(range(1, length + 1)) - {hook}, set(ps.values())
    if values == required:
        return None
    missing, extra = sorted(required - values), sorted(values - required)
    return (f"pair values are not the sequence positions: {len(missing)} missing "
            f"{_quote(missing[:5])}, {len(extra)} extra {_quote(extra[:5])}")
