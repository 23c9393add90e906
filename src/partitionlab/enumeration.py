"""Combinatorial oracles for every partition statistic.

Everything in this module computes statistics from their verbal
definitions by counting objects (partitions, marked overpartitions,
subsets), independently of the series machinery in `stats`.  The a/b
statistics come from a dynamic program over part values that adds up
every partition of each total at once (`stat_sum_tables`); the others
walk the objects one by one.  Partitions are represented as weakly
decreasing tuples of positive integers; the empty tuple is the single
partition of 0.  `partitions` walks them with the ZS1 generator of
Zoghbi & Stojmenovic, in constant amortized time per partition besides
the copy of each yielded tuple.

The statistics are capped (PARTITION_SWEEP_CAP / SUBSET_SWEEP_CAP) so
the oracle suite stays fast; pass an explicit `cap` to go further.
"""

import threading
from dataclasses import dataclass

from .series import pentagonal_number

PARTITION_SWEEP_CAP = 60
SUBSET_SWEEP_CAP = 25


def partitions(n, max_part=None):
    """Yield every partition of n exactly once, in reverse-lexicographic order.

    For n=5: (5,), (4,1), (3,2), (3,1,1), (2,2,1), (2,1,1,1), (1,1,1,1,1).
    With max_part set, only partitions whose largest part is <= max_part
    are produced (same order).

    This is ZS1 (Zoghbi & Stojmenovic, "Fast algorithms for generating
    integer partitions", Int. J. Comput. Math. 70, 1998): one mutable
    list of parts, whose entries past the current partition are all 1,
    and the index h of its last part greater than 1.  Each successor
    costs O(1) amortized list updates, plus the O(length) copy of the
    yielded tuple.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        yield ()
        return
    cap = n if max_part is None or max_part > n else max_part
    if cap < 1:
        return
    full, rem = divmod(n, cap)
    x = [cap] * full + [1] * (n - full)
    m = full  # number of parts
    if rem:
        x[m] = rem
        m += 1
    if cap == 1:
        h = -1
    else:
        h = full if rem > 1 else full - 1
    yield tuple(x[:m])
    while h >= 0:
        if x[h] == 2:
            # 2 becomes 1 + 1: the trailing 1 is already in place
            x[h] = 1
            h -= 1
            m += 1
        else:
            # decrement x[h], then refill the freed weight t (that one
            # plus the trailing 1s) greedily with parts <= r
            r = x[h] - 1
            t = m - h
            x[h] = r
            while t >= r:
                h += 1
                x[h] = r
                t -= r
            if t == 0:
                m = h + 1
            else:
                m = h + 2
                if t > 1:
                    h += 1
                    x[h] = t
        yield tuple(x[:m])


def part_multiplicities(parts):
    """Map each distinct part value of a partition to its multiplicity."""
    m = {}
    for v in parts:
        m[v] = m.get(v, 0) + 1
    return m


def partition_count_table(n_max):
    """p(0..n_max) by the pentagonal-number recurrence (fast count oracle)."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    p = [0] * (n_max + 1)
    p[0] = 1
    for n in range(1, n_max + 1):
        total = 0
        j = 1
        while True:
            g_pos = pentagonal_number(j)
            g_neg = pentagonal_number(-j)
            if g_pos > n and g_neg > n:
                break
            sign = -1 if j % 2 == 0 else 1
            if g_pos <= n:
                total += sign * p[n - g_pos]
            if g_neg <= n:
                total += sign * p[n - g_neg]
            j += 1
        p[n] = total
    return p


def _check_sweep(n, cap):
    """The enumeration cap in force; raises when n exceeds it."""
    limit = PARTITION_SWEEP_CAP if cap is None else cap
    if n > limit:
        raise ValueError("n=%d exceeds the enumeration cap %d" % (n, limit))
    return limit


def stat_sum_tables(n_max, k_max):
    """The a/b statistics for every n <= n_max and k <= k_max, as (A, B)
    with A[k-1][p][n] = a_{k,p}(n) and B[k-1][n] = b_k(n).

    One dynamic-programming pass over the part values v = 1..n_max.
    After value v, entry r of each list aggregates the partitions of r
    whose parts are all <= v: their number, and the totals of their
    distinct values per residue class and per multiplicity bound.
    Admitting v with multiplicity m maps the partitions of r - m*v onto
    those of r, so every list becomes its own sum over m >= 0.  The
    value v itself then adds v once for each partition with m >= 1 to
    A[k-1][v mod k], and once for each with m >= k to B[k-1]; with the
    new counts C those numbers are C[r - v] and C[r - k*v].
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    size = n_max + 1
    count = [1] + [0] * n_max
    A = [[[0] * size for _ in range(k)] for k in range(1, k_max + 1)]
    B = [[0] * size for _ in range(k_max)]
    rows = [count] + [row for rows_k in A for row in rows_k] + B
    for v in range(1, size):
        for row in rows:
            # row[r] += row[r - v] for r ascending, one stride-v block
            # at a time
            for lo in range(v, size, v):
                row[lo : lo + v] = map(int.__add__, row[lo : lo + v], row[lo - v : lo])
        for k in range(1, k_max + 1):
            _add_scaled(A[k - 1][v % k], v, count, v)
            _add_scaled(B[k - 1], v, count, k * v)
    return A, B


def _add_scaled(row, v, count, shift):
    # row[r] += v * count[r - shift] for shift <= r <= n_max
    if shift < len(row):
        row[shift:] = [x + v * c for x, c in zip(row[shift:], count)]


# the a/b tables of the widest stat_sum_tables pass so far, as
# (n_max, k_max, A, B); one pass serves every n <= n_max and k <= k_max.
# Callers' own threads may share it; the lock keeps a narrower pass from
# replacing a wider one, and two threads from running the same pass.
_stat_cache = None
_stat_lock = threading.Lock()


def _stat_sums(n, k, limit):
    # a miss past the cached n at least doubles it (up to limit, the cap
    # in force), so calls with ascending n run O(log n) passes, not one
    # pass each
    global _stat_cache
    with _stat_lock:
        entry = _stat_cache
        if entry is None or entry[0] < n or entry[1] < k:
            if entry is not None:
                if n > entry[0]:
                    n = max(n, min(2 * entry[0], limit))
                else:
                    n = entry[0]
                k = max(k, entry[1])
            entry = _stat_cache = (n, k) + stat_sum_tables(n, k)
    return entry[2:]


def warm_statistics_cache(n_max, k_max):
    """Fill the a/b tables for every n <= n_max and k <= k_max in one pass."""
    _stat_sums(n_max, k_max, n_max)


def clear_statistics_cache():
    global _stat_cache
    with _stat_lock:
        _stat_cache = None


def a_kp(n, k, p, cap=None):
    """Total over all partitions of n of the distinct part values = p (mod k).

    Each qualifying value contributes once per partition no matter how
    many times it occurs there.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0 <= p < k:
        raise ValueError("need 0 <= p < k")
    return _stat_sums(n, k, _check_sweep(n, cap))[0][k - 1][p][n]


def a_k(n, k, cap=None):
    """Total over all partitions of n of the distinct part values divisible by k."""
    return a_kp(n, k, 0, cap)


def b_k(n, k, cap=None):
    """Total over all partitions of n of the distinct part values with multiplicity >= k."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    return _stat_sums(n, k, _check_sweep(n, cap))[1][k - 1][n]


def m_ell(n, ell, cap=None):
    """Count partitions of n where ell is the least positive non-part and
    parts greater than ell outnumber parts less than ell.

    Both counts take multiplicity into account.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if ell < 1:
        raise ValueError("ell must be >= 1")
    _check_sweep(n, cap)
    count = 0
    for parts in partitions(n):
        values = set(parts)
        if ell in values:
            continue
        if any(v not in values for v in range(1, ell)):
            continue
        greater = sum(1 for v in parts if v > ell)
        less = sum(1 for v in parts if v < ell)
        if greater > less:
            count += 1
    return count


def q_distinct(n, cap=None):
    """Number of partitions of n into distinct parts; 1 for n=0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    _check_sweep(n, cap)
    return sum(1 for parts in partitions(n) if len(set(parts)) == len(parts))


def c_subsets(n, cap=None):
    """Count subsets of {1..n} containing an element greater than the sum
    of the other elements (singletons qualify).

    Counted by top element: a subset whose largest element is m qualifies
    iff its other elements, a subset of {1..m-1}, sum to less than m.  A
    depth-first walk counts those one by one, extending a subset only
    while its sum stays below m, so the qualifying subsets are all it
    visits instead of all 2^n.
    """
    limit = SUBSET_SWEEP_CAP if cap is None else cap
    if not 0 <= n <= limit:
        raise ValueError("n=%d outside 0..%d (exhaustive 2^n sweep)" % (n, limit))
    return sum(_subsets_below(m, m - 1) for m in range(1, n + 1))


def _subsets_below(bound, top):
    # subsets of {1..top} summing to less than bound >= 1: the empty one,
    # plus for each largest element v < bound the subsets of {1..v-1}
    # summing to less than bound - v
    return 1 + sum(
        _subsets_below(bound - v, v - 1) for v in range(1, min(top, bound - 1) + 1)
    )


@dataclass(frozen=True)
class OverpartitionMarked:
    """A partition with one overlined part value and optionally one colored one.

    Overline and color mark distinct part occurrences, so colored may
    equal overlined only when that value occurs at least twice in base.
    """

    base: tuple
    overlined: int
    colored: int | None = None


def overpartitions_p(n, k):
    """Yield the overpartitions of n with exactly one overlined part divisible by k."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    for parts in partitions(n):
        for v in sorted(part_multiplicities(parts)):
            if v % k == 0:
                yield OverpartitionMarked(parts, v)


def overpartitions_a(n, k):
    """Yield the colored overpartitions of n: one overlined part divisible
    by k plus at most one other colored part divisible by k.

    Marks attach to part occurrences: overlining and coloring the same
    value needs multiplicity >= 2, and (overlined v, colored w) is a
    different object from (overlined w, colored v).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    for parts in partitions(n):
        mults = part_multiplicities(parts)
        divisible = [v for v in sorted(mults) if v % k == 0]
        for v in divisible:
            yield OverpartitionMarked(parts, v)
            for w in divisible:
                if w == v and mults[v] < 2:
                    continue
                yield OverpartitionMarked(parts, v, w)


def overpartition_counts(n, ks):
    """For each k in ks, the overlined total of overpartitions_p(n, k) and
    the number of objects overpartitions_a(n, k) yields, as
    {k: (overlined_total, colored_count)}.

    One walk over the partitions of n serves every k, and no object is
    built: a partition with d distinct values divisible by k, t of them
    occurring at least twice, carries d overlined objects (one per value)
    and d + d^2 - (d - t) = d^2 + t colored ones (each overlined value
    alone, or with a colored value, which may be itself only if repeated).
    d and t come from one pass over the descending parts, which touches
    only the ks dividing each value.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    ks = list(ks)
    if any(k < 1 for k in ks):
        raise ValueError("k must be >= 1")
    # dividing[v]: the positions in ks of the k that divide v
    dividing = [[i for i, k in enumerate(ks) if v % k == 0] for v in range(n + 1)]
    width = len(ks)
    overlined = [0] * width
    colored = [0] * width
    for parts in partitions(n):
        d = [0] * width
        t = [0] * width
        prev = 0
        for v in parts:
            if v != prev:
                prev = v
                repeated = False
                for i in dividing[v]:
                    overlined[i] += v
                    d[i] += 1
            elif not repeated:
                repeated = True
                for i in dividing[v]:
                    t[i] += 1
        for i in range(width):
            colored[i] += d[i] * d[i] + t[i]
    return {k: (overlined[i], colored[i]) for i, k in enumerate(ks)}


def mp_ell(n, ell, cap=None):
    """Count partitions of n whose smallest part greater than 2*ell-1 is odd
    and occurs exactly ell times, with every other odd part occurring at
    most once (even parts are unrestricted).

    Partitions with no part above 2*ell-1 are not counted.  This is the
    reading that agrees with the series evaluation (stats.mp_ell_table)
    everywhere; see mp_ell_verbal for the looser published wording.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if ell < 1:
        raise ValueError("ell must be >= 1")
    _check_sweep(n, cap)
    count = 0
    threshold = 2 * ell - 1
    for parts in partitions(n):
        mults = part_multiplicities(parts)
        above = [v for v in mults if v > threshold]
        if not above:
            continue
        special = min(above)
        if special % 2 == 0 or mults[special] != ell:
            continue
        if any(v % 2 == 1 and m > 1 for v, m in mults.items() if v != special):
            continue
        count += 1
    return count


def mp_ell_verbal(n, ell, cap=None):
    """The literal verbal counting: smallest part greater than 2*ell-1 is odd
    and occurs exactly ell times, ALL other parts occur at most once; when no
    part exceeds 2*ell-1 the condition degenerates to all parts distinct.

    Disagrees with the series evaluation (e.g. gives 3 instead of 0 at
    n=5, ell=3); kept so the discrepancy can be inspected, not patched.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if ell < 1:
        raise ValueError("ell must be >= 1")
    _check_sweep(n, cap)
    count = 0
    threshold = 2 * ell - 1
    for parts in partitions(n):
        mults = part_multiplicities(parts)
        above = [v for v in mults if v > threshold]
        if not above:
            if all(m == 1 for m in mults.values()):
                count += 1
            continue
        special = min(above)
        if special % 2 == 0 or mults[special] != ell:
            continue
        if any(m > 1 for v, m in mults.items() if v != special):
            continue
        count += 1
    return count


def mp_verbal_discrepancies(ell, n_max, series_values):
    """List (n, verbal count, series value) wherever the two disagree.

    series_values must cover 0..n_max (e.g. stats.mp_ell_table(ell, n_max)
    values); the series side is the authoritative one.
    """
    out = []
    for n in range(1, n_max + 1):
        verbal = mp_ell_verbal(n, ell)
        if verbal != series_values[n]:
            out.append((n, verbal, series_values[n]))
    return out
