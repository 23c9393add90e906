"""The inner loops of the series route, in pure Python.

`convolve` (truncated big-integer Cauchy product) and `invert_unit`
(series inversion) carry every `TruncatedSeries` multiplication and
inverse.  The third, the partition sweep `ab_stat_sums` that
accumulates the a/b statistics, no longer runs in the package; it is
the test oracle of `enumeration.stat_sum_tables`.
All arithmetic is exact (Python ints, never floats).
"""


def convolve(a, b):
    """Truncated Cauchy product of two coefficient lists of equal length."""
    n = len(a)
    if len(b) != n:
        raise ValueError("truncation order mismatch: %d != %d" % (n - 1, len(b) - 1))
    out = [0] * n
    for i, ai in enumerate(a):
        if ai:
            out[i:] = [s + ai * bj for s, bj in zip(out[i:], b)]
    return out


def invert_unit(a):
    """Multiplicative inverse of a coefficient list with leading term +-1.

    Triangular recurrence: with a0 = 1, b0 = 1 and
    b_m = -sum_{i=1..m} a_i b_{m-i}.  The a0 = -1 case flips both signs.
    """
    if not a:
        raise ValueError("empty coefficient list")
    c0 = a[0]
    if c0 != 1 and c0 != -1:
        raise ValueError("constant term must be 1 or -1, got %r" % (c0,))
    n = len(a)
    b = [0] * n
    b[0] = c0
    nz = [(i, ai) for i, ai in enumerate(a) if ai and i > 0]
    for m in range(1, n):
        s = 0
        for i, ai in nz:
            if i > m:
                break
            s += ai * b[m - i]
        b[m] = -s if c0 == 1 else s
    return b


def ab_stat_sums(n, k_max):
    """Accumulate the a/b partition statistics over all partitions of n.

    Returns (A, B) where A[k-1][p] is the total, over all partitions of
    n, of the distinct part values congruent to p mod k, and B[k-1] is
    the total of the distinct part values whose multiplicity is >= k,
    for k = 1..k_max.  Every distinct value is counted once per
    partition regardless of how often it occurs.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    A = [[0] * k for k in range(1, k_max + 1)]
    B = [0] * k_max
    if n == 0:
        return A, B
    ks = range(1, k_max + 1)
    # ascending-composition enumeration; parts arrive weakly increasing,
    # so each run of equal values is one (value, multiplicity) pair
    part = [0] * (n + 1)
    part[1] = n
    k = 1
    while k != 0:
        x = part[k - 1] + 1
        y = part[k] - 1
        k -= 1
        while x <= y:
            part[k] = x
            y -= x
            k += 1
        part[k] = x + y
        i = 0
        while i <= k:
            v = part[i]
            j = i
            while j <= k and part[j] == v:
                j += 1
            mult = j - i
            for kk in ks:
                A[kk - 1][v % kk] += v
            top = mult if mult < k_max else k_max
            for kk in range(top):
                B[kk] += v
            i = j
    return A, B
