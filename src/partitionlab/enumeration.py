"""Combinatorial oracles for every partition statistic.

Everything in this module computes statistics from their verbal
definitions by counting objects (partitions, marked overpartitions,
subsets), independently of the series machinery in `stats`.  The a/b
statistics come from a dynamic program over part values that adds up
every partition of each total at once, with the count and every a/b
row packed as fields of one int per total (`stat_sum_tables`); each of
the lookups `a_kp` and `b_k` runs one such pass, so callers that need
many values call `stat_sum_tables` once and index its tables, as one
`verify` run does for all its suites.  The module keeps no state
between calls.  The marked-overpartition counts come from one
depth-first walk over every partition of every total up to a bound, in
multiplicity form, that counts the marked objects of each partition in
closed form and makes one call per partition whose parts are all >= 3
(`overpartition_counts`); the generators `overpartitions_p` and
`overpartitions_a` build the objects themselves and are its oracle.
The other statistics walk the objects one by one.  Partitions are
represented as weakly decreasing tuples of positive integers; the
empty tuple is the single partition of 0.  `partitions` walks them with
the ZS1 generator of Zoghbi & Stojmenovic, in constant amortized time
per partition besides the copy of each yielded tuple.

The walks over partitions (`m_ell`, `q_distinct`, `mp_ell`,
`mp_ell_verbal`) stop at n = PARTITION_SWEEP_CAP and the subset count
`c_subsets` at n = SUBSET_SWEEP_CAP, so the oracle suite stays fast; the
a/b lookups walk no partition and have no cap.
"""

from collections import Counter, namedtuple

from .series import pentagonal_number

PARTITION_SWEEP_CAP = 60
SUBSET_SWEEP_CAP = 25


def partitions(n):
    """Yield every partition of n exactly once, in reverse-lexicographic order.

    For n=5: (5,), (4,1), (3,2), (3,1,1), (2,2,1), (2,1,1,1), (1,1,1,1,1).

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
    x = [n] + [1] * (n - 1)
    m = 1  # number of parts
    h = 0 if n > 1 else -1
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


def _check_sweep(n):
    """Raise when n exceeds the cap of the walks over partitions."""
    if n > PARTITION_SWEEP_CAP:
        raise ValueError(
            "n=%d exceeds the enumeration cap %d" % (n, PARTITION_SWEEP_CAP)
        )


def stat_sum_tables(n_max, k_max):
    """The a/b statistics for every n <= n_max and k <= k_max, as (A, B)
    with A[k-1][p][n] = a_{k,p}(n) and B[k-1][n] = b_k(n).

    One dynamic-programming pass over the part values v = 1..n_max.
    After value v, entry r aggregates the partitions of r whose parts
    are all <= v: their number C[r], and the totals of their distinct
    values per residue class and per multiplicity bound.  Admitting v
    with multiplicity m maps the partitions of r - m*v onto those of r,
    so every entry r becomes its own sum over m >= 0.  The value v
    itself then adds v once for each partition with m >= 1 to
    A[k-1][v mod k], and once for each with m >= k to B[k-1]; with the
    new counts those numbers are C[r - v] and C[r - k*v].

    The count and every A and B row are packed as fields of one int per
    total, so the sum over m is one big-int add per (v, r), the A terms
    of every k are one multiply-add per r, and the B terms one per
    (k, r).  No field ever carries into the next: every value at a
    total r <= n_max is at most n_max p(n_max).  One `verify` run makes
    one pass, which its suites share.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    size = n_max + 1
    p_top = partition_count_table(n_max)[n_max]
    width = (max(n_max, 1) * p_top).bit_length()
    field = (1 << width) - 1
    # field 0 is C; A[k-1][p] is field a_base[k] + p, B[k-1] field b_base + k
    a_base = [0] + [1 + k * (k - 1) // 2 for k in range(1, k_max + 1)]
    b_base = a_base[k_max] + k_max - 1
    packed = [1] + [0] * n_max
    for v in range(1, size):
        for r in range(v, size):
            packed[r] += packed[r - v]
        a_step = sum(v << ((a_base[k] + v % k) * width) for k in range(1, k_max + 1))
        for r in range(v, size):
            packed[r] += (packed[r - v] & field) * a_step
        for k in range(1, min(k_max, n_max // v) + 1):
            b_step = v << ((b_base + k) * width)
            for r in range(k * v, size):
                packed[r] += (packed[r - k * v] & field) * b_step
    rows = [
        [(x >> (i * width)) & field for x in packed]
        for i in range(b_base + k_max + 1)
    ]
    A = [rows[a_base[k] : a_base[k] + k] for k in range(1, k_max + 1)]
    B = rows[b_base + 1 :]
    return A, B


# perfbench/tracer.py wraps this name; the alias goes with the next
# benchmark change (ROADMAP item 1)
warm_statistics_cache = stat_sum_tables


def a_kp(n, k, p):
    """Total over all partitions of n of the distinct part values = p (mod k).

    Each qualifying value contributes once per partition no matter how
    many times it occurs there.  One stat_sum_tables pass per call.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0 <= p < k:
        raise ValueError("need 0 <= p < k")
    return stat_sum_tables(n, k)[0][k - 1][p][n]


def b_k(n, k):
    """Total over all partitions of n of the distinct part values with
    multiplicity >= k.  One stat_sum_tables pass per call."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    return stat_sum_tables(n, k)[1][k - 1][n]


def m_ell(n, ell):
    """Count partitions of n where ell is the least positive non-part and
    parts greater than ell outnumber parts less than ell.

    Both counts take multiplicity into account.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if ell < 1:
        raise ValueError("ell must be >= 1")
    _check_sweep(n)
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


def q_distinct(n):
    """Number of partitions of n into distinct parts; 1 for n=0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    _check_sweep(n)
    return sum(1 for parts in partitions(n) if len(set(parts)) == len(parts))


def c_subsets(n):
    """Count subsets of {1..n} containing an element greater than the sum
    of the other elements (singletons qualify).

    Counted by top element: a subset whose largest element is m qualifies
    iff its other elements, a subset of {1..m-1}, sum to less than m.  A
    depth-first walk counts those one by one, extending a subset only
    while its sum stays below m, so its cost grows with the count itself.
    """
    if not 0 <= n <= SUBSET_SWEEP_CAP:
        raise ValueError(
            "n=%d outside 0..%d (the subset-count cap)" % (n, SUBSET_SWEEP_CAP)
        )
    return sum(_subsets_below(m, m - 1) for m in range(1, n + 1))


def _subsets_below(bound, top):
    # subsets of {1..top} summing to less than bound >= 1: the empty one,
    # plus for each largest element v < bound the subsets of {1..v-1}
    # summing to less than bound - v
    return 1 + sum(
        _subsets_below(bound - v, v - 1) for v in range(1, min(top, bound - 1) + 1)
    )


# A partition with one overlined part value and optionally one colored
# one.  Overline and color mark distinct part occurrences, so colored may
# equal overlined only when that value occurs at least twice in base.
OverpartitionMarked = namedtuple(
    "OverpartitionMarked", "base overlined colored", defaults=(None,)
)


def overpartitions_p(n, k):
    """Yield the overpartitions of n with exactly one overlined part divisible by k."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    for parts in partitions(n):
        for v in sorted(Counter(parts)):
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
        mults = Counter(parts)
        divisible = [v for v in sorted(mults) if v % k == 0]
        for v in divisible:
            yield OverpartitionMarked(parts, v)
            for w in divisible:
                if w == v and mults[v] < 2:
                    continue
                yield OverpartitionMarked(parts, v, w)


def overpartition_counts(n_max, ks):
    """For each k in ks, the overlined totals of overpartitions_p(n, k) and
    the numbers of objects overpartitions_a(n, k) yields, for every
    n = 0..n_max, as {k: (overlined, colored)} with two tuples indexed by n.

    No object is built: a partition with d distinct values divisible by
    k, t of them occurring at least twice, carries d overlined objects
    (one per value) and d + d^2 - (d - t) = d^2 + t colored ones (each
    overlined value alone, or with a colored value, which may be itself
    only if repeated).

    One depth-first walk serves every n and every k.  Its nodes are the
    partitions of every total <= n_max in multiplicity form: a child adds
    a value v smaller than every value of its parent, with multiplicity
    m >= 1, so each partition is reached once.  A node's counters (per k
    the overlined total, d^2 + t and d, and a node count of 1) are packed
    into fields of one int, so a node costs O(1) big-int operations
    however many ks there are, and the sum of the nodes of one total holds
    their number and their totals of d.  Parts 1 and 2 take no call.  The
    children that add 1 with multiplicity 1, 2, ... to the nodes of total
    s follow from that sum at the end (the counters of m >= 2 all equal
    that of m = 2, one more repeated value).  The children that add 2
    to a node of total s are booked as two entries, at s + 2 and s + 4,
    of a table summed with stride 2 at the end, and their children are
    the first kind.  So the walk makes one call per partition whose
    parts are all >= 3.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    ks = sorted(set(ks))
    if ks and ks[0] < 1:
        raise ValueError("k must be >= 1")
    if not ks:
        return {}
    # per partition the overlined total is <= n and d^2 + t <= n^2 + n,
    # so each field of a row stays below (n_max + 1)^2 p(n_max)
    p_top = partition_count_table(n_max)[n_max]
    width = ((n_max + 1) ** 2 * p_top).bit_length()
    field = (1 << width) - 1
    # for the i-th k, the overlined total sits in field i, d^2 + t in
    # field K + i and d in field 2K + i; the node count is field 3K
    K = len(ks)
    over = [0] * (n_max + 3)  # v in the overlined field of each k | v
    repeat = [0] * (n_max + 3)  # 1 in the d^2 + t field of each k | v
    first = [0] * (n_max + 3)  # that, and 1 in the d field of each k | v
    sel = [0] * (n_max + 3)  # the whole d field of each k | v
    for v in range(1, n_max + 3):
        for i, k in enumerate(ks):
            if v % k == 0:
                over[v] += v << (i * width)
                repeat[v] += 1 << ((K + i) * width)
                first[v] += (1 << ((K + i) * width)) + (1 << ((2 * K + i) * width))
                sel[v] += field << ((2 * K + i) * width)
    twice = K * width - 1  # (x & sel[v]) >> twice is 2d in the d^2 + t fields
    rows = [0] * (n_max + 1)  # the visited nodes, then every partition
    twos = [0] * (n_max + 5)  # the value-2 children, summed with stride 2

    def visit(s, top, counts):
        # the partition of total s with smallest value top; adding v with
        # d_k distinct multiples of k so far raises d_k^2 + t_k by
        # 2 d_k + 1, plus 1 if m >= 2
        rows[s] += counts
        if top > 2:
            twos[s + 2] += counts + over[2] + ((counts & sel[2]) >> twice) + first[2]
            twos[s + 4] += repeat[2]
        for v in range(3, min(top, n_max - s + 1)):
            child = counts + over[v] + ((counts & sel[v]) >> twice) + first[v]
            visit(s + v, v, child)
            child += repeat[v]
            for t in range(s + 2 * v, n_max + 1, v):
                visit(t, v, child)

    count_shift = 3 * K * width
    visit(0, n_max + 1, 1 << count_shift)
    # ones: the partitions of n with a part 1, each a node of total s < n
    # plus n - s ones; repeated: the one more repeated value of those whose
    # node has total n - 1, which holds from n + 1 on
    ones = repeated = 0
    for n in range(n_max + 1):
        if n >= 2:
            twos[n] += twos[n - 2]
        row = rows[n] + twos[n]
        rows[n] = row + ones
        count = row >> count_shift
        ones += row + count * (over[1] + repeat[1]) + ((row & sel[1]) >> twice)
        ones += repeated
        repeated = count * repeat[1]
    return {
        k: (
            tuple((row >> (i * width)) & field for row in rows),
            tuple((row >> ((K + i) * width)) & field for row in rows),
        )
        for i, k in enumerate(ks)
    }


def mp_ell(n, ell):
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
    _check_sweep(n)
    count = 0
    threshold = 2 * ell - 1
    for parts in partitions(n):
        mults = Counter(parts)
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


def mp_ell_verbal(n, ell):
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
    _check_sweep(n)
    count = 0
    threshold = 2 * ell - 1
    for parts in partitions(n):
        mults = Counter(parts)
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

