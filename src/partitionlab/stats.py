"""Series-backed evaluation of every partition statistic.

Each table builder returns the TruncatedSeries whose coefficient of q^n
is the statistic at n, computed exactly from truncated series
arithmetic (never by enumerating partitions; the `enumeration` module is
the independent cross-check).

Every table but M_ell is a few O(n) steps on one base series: the
partition series 1/(q;q)_inf, Q(q^2), the MP base
(-q;q^2)_inf/(q^2;q^2)_inf or the distinct-parts series, as the one
registry of the builders, BUILDERS, records.  M_ell has two builders,
one route each, which share no algebra: m_ell_table sums the
Gaussian-binomial series and reads no base series, and
m_ell_table_pdiff multiplies the partition series by the pentagonal
truncation.  The `m-routes` suite of `verify` compares the two; neither
builder checks the other.  q2_mp_ell_table, Q(q^2) * MP_ell, is no
statistic but the one dense product behind the truncated theta
identity's remainder c_k * MP_ell for every k.  Every builder reads
its base series through a TableStore: a builder called alone makes one
of its own.  A caller that builds many tables, such as one `verify` run
or one `export` document, gives each builder the same store through the
keyword ``tables``; the store builds each table and each base series
once, and serves every smaller order of a base series as its exact
prefix.
"""

from .series import (
    TruncatedSeries,
    distinct_parts_gf,
    partition_gf,
    pentagonal_series,
    product,
    theta_truncated,
    triangular_number,
)


def q_squared_gf(n_max):
    """Q(q^2) = (-q^2;q^2)_inf, the base series of c_k."""
    return product(1, 2, 2, n_max)


def mp_base_gf(n_max):
    """(-q;q^2)_inf/(q^2;q^2)_inf, the base series of MP_ell: the product of
    the odd factors, then one O(n) division per even factor."""
    base = product(1, 1, 2, n_max)
    for e in range(2, n_max + 1, 2):
        base = base.div_binomial(-1, e)
    return base


# builder name -> (its statistic id in cli, or None; its parameters before
# n_max; the base series it reads, whose names make BASE_SERIES).  Each is
# named, not held, so that a traced or patched builder is the one that runs
BUILDERS = {
    "a_kp_table": ("a", ("k", "p"), (partition_gf,)),
    "b_k_table": ("b", ("k",), (partition_gf,)),
    "c_k_table": ("c", ("k",), (q_squared_gf,)),
    "m_ell_table": ("m", ("ell",), ()),
    "m_ell_table_pdiff": (None, ("ell",), (partition_gf,)),
    "mp_ell_table": ("mp", ("ell",), (mp_base_gf,)),
    "q2_mp_ell_table": (None, ("ell",), (q_squared_gf, mp_base_gf)),
    "q_table": ("q", (), (distinct_parts_gf,)),
    "p_table": ("p", (), (partition_gf,)),
}
BASE_SERIES = frozenset(f.__name__ for _, _, bases in BUILDERS.values() for f in bases)


class TableStore:
    """The tables and base series of one run, and anything else that the
    run shares between readers, each built once.

    ``keep(key, build)`` is the one memo: it calls build() only on the
    first request for key, so every reader gets the same value.
    ``get("b_k_table", k, n_max)`` keeps ``b_k_table(k, n_max,
    tables=store)`` under the key ``("b_k_table", (k, n_max))``.  A base
    series is served as ``get("partition_gf", order)`` and so on: it is
    built once, at series_order or at the order asked for if that is
    larger, and a smaller order is served as its prefix, which is exact.
    So a store given the largest order its run reads builds each base
    series once.  Builders are looked up in this module at call time, so
    a patched or traced replacement is the one that runs.  Each run makes
    its own store, so nothing outlives the run; a builder called without
    one reads its base series through a store of its own.
    """

    def __init__(self, series_order=0):
        self._series_order = series_order
        self._tables = {}

    def keep(self, key, build):
        """The value kept under key: build() runs on the first request for
        key only, and every later request gets the same value."""
        if key not in self._tables:
            self._tables[key] = build()
        return self._tables[key]

    def get(self, name, *args):
        return self.keep((name, args), lambda: self._build(name, args))

    def _build(self, name, args):
        build = globals()[name]
        if name not in BASE_SERIES:
            return build(*args, tables=self)
        (order,) = args
        # a negative order is built, so that its builder refuses it
        if 0 <= order < self._series_order:
            full = self.get(name, self._series_order)
            return TruncatedSeries(full.coeffs[: order + 1])
        return build(order)


def _store(tables):
    # the caller's store, or a store of the builder's own when called alone
    return TableStore() if tables is None else tables


def k_weighted(series, k):
    """series * q^k/(1-q^k)^2, whose coefficient of q^n is
    sum_{j>=1} j * series(n - kj): a shift and two O(n) divisions."""
    return series.shifted(k).div_binomial(-1, k).div_binomial(-1, k)


def p_table(n_max, *, tables=None):
    """p(n): number of partitions of n."""
    return _store(tables).get("partition_gf", n_max)


def q_table(n_max, *, tables=None):
    """Q(n): number of partitions of n into distinct parts."""
    return _store(tables).get("distinct_parts_gf", n_max)


def b_k_table(k, n_max, *, tables=None):
    """b_k(n): total of distinct part values with multiplicity >= k,
    over all partitions of n.

    Generating function: 1/(q;q)_inf * q^k/(1-q^k)^2.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return k_weighted(_store(tables).get("partition_gf", n_max), k)


def a_kp_table(k, p, n_max, *, tables=None):
    """a_{k,p}(n): total of distinct part values congruent to p mod k,
    over all partitions of n.

    Generating function: 1/(q;q)_inf * (p q^p + (k-p) q^(p+k)) / (1-q^k)^2.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0 <= p < k:
        raise ValueError("need 0 <= p < k")
    # the numerator is two monomials, so it scales two shifted copies of
    # the partition series, and the denominator is two O(n) divisions
    gf = _store(tables).get("partition_gf", n_max)
    numerator = gf.shift_sum(((p, p), (p + k, k - p)))
    return numerator.div_binomial(-1, k).div_binomial(-1, k)


def c_k_table(k, n_max, *, tables=None):
    """c_k(n) = sum_{j=1..floor(n/k)} j * Q((n-kj)/2), zero terms whenever
    (n-kj)/2 is not a nonnegative integer; Q(0) = 1 is included.

    Generating function: Q(q^2) * q^k/(1-q^k)^2, with Q(q^2) = (-q^2;q^2)_inf
    (q_squared_gf).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return k_weighted(_store(tables).get("q_squared_gf", n_max), k)


def _m_ell_from_gaussian(ell, n_max):
    # sum over m >= ell of q^(C(ell,2) + (ell+1) m) / (q;q)_m * [m-1, ell-1]_q,
    # maintaining 1/(q;q)_m and the Gaussian binomial incrementally; the
    # binomial is 1 when ell = 1 or m = ell, and (1 - q^(m-1))/(1 - q) when
    # ell = 2 or m = ell + 1, so only the other terms convolve
    lead = ell * (ell - 1) // 2
    out = [0] * (n_max + 1)
    m = ell
    if lead + (ell + 1) * m > n_max:
        return tuple(out)
    inv_poch = TruncatedSeries.one(n_max)
    for j in range(1, m + 1):
        inv_poch = inv_poch.div_binomial(-1, j)
    binom = TruncatedSeries.one(n_max)  # [ell-1, ell-1]_q
    while True:
        exponent = lead + (ell + 1) * m
        if exponent > n_max:
            break
        if ell == 1 or m == ell:
            term = inv_poch
        elif ell == 2 or m == ell + 1:
            term = inv_poch.mul_binomial(-1, m - 1).div_binomial(-1, 1)
        else:
            term = inv_poch * binom
        out[exponent:] = [s + t for s, t in zip(out[exponent:], term.coeffs)]
        # advance the running factors from m to m+1, the binomial only where
        # a dense term reads it: [m, ell-1] = [m-1, ell-1] * (1-q^m)/(1-q^(m-ell+1))
        if ell > 2:
            binom = binom.mul_binomial(-1, m).div_binomial(-1, m - ell + 1)
        m += 1
        inv_poch = inv_poch.div_binomial(-1, m)
    return tuple(out)


def m_ell_table(ell, n_max, *, tables=None):
    """M_ell(n): partitions of n in which ell is the least positive
    non-part and parts above ell outnumber parts below ell.

    Evaluated by the Gaussian-binomial sum of the truncated pentagonal
    number theorem (Andrews & Merca), which reads no base series; tables
    is accepted so that a store calls every builder alike.  The result
    counts partitions, so a negative entry raises.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    values = _m_ell_from_gaussian(ell, n_max)
    if any(v < 0 for v in values):
        raise ArithmeticError("M_%d produced a negative count" % ell)
    return TruncatedSeries(values)


def _signed_truncation(base, truncation, ell):
    # the coefficients of (-1)^(ell-1) * (base * truncation - 1): the
    # truncated pentagonal or theta sum's 2*ell terms scale shifted copies
    sign = -1 if ell % 2 == 0 else 1
    terms = ((e, sign * c) for e, c in enumerate(truncation.coeffs) if c)
    coeffs = list(base.shift_sum(terms).coeffs)
    coeffs[0] -= sign
    return coeffs


def m_ell_table_pdiff(ell, n_max, *, tables=None):
    """M_ell via partition-count differences:
    (-1)^(ell-1) sum_{j=0..ell-1} (-1)^j (p(n - j(3j+1)/2) - p(n - (j+1)(3j+2)/2)),
    valid for n >= 1 (the entry at n=0 is 0 by convention).  That is
    (-1)^(ell-1) * (pentagonal truncation / (q;q)_inf - 1), whose product
    is 2*ell shifted copies of the partition series.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    gf = _store(tables).get("partition_gf", n_max)
    return TruncatedSeries(_signed_truncation(gf, pentagonal_series(n_max, ell), ell))


def mp_ell_table(ell, n_max, *, tables=None):
    """MP_ell(n) via the truncated triangular theta:
    (-1)^(ell-1) * ( (-q;q^2)_inf/(q^2;q^2)_inf * theta_ell - 1 ), the
    base series being mp_base_gf.

    The result counts partitions, so every entry must be >= 0 and the
    constant term 0; violations raise.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    base = _store(tables).get("mp_base_gf", n_max)
    coeffs = _signed_truncation(base, theta_truncated(ell, n_max), ell)
    if coeffs[0] != 0:
        raise ArithmeticError("MP_%d has a nonzero constant term" % ell)
    bad = next((n for n, v in enumerate(coeffs) if v < 0), None)
    if bad is not None:
        raise ArithmeticError("MP_%d negative at n=%d" % (ell, bad))
    return TruncatedSeries(coeffs)


def q2_mp_ell_table(ell, n_max, *, tables=None):
    """Q(q^2) * MP_ell: times q^k/(1-q^k)^2 (k_weighted) it is
    c_k * MP_ell, the remainder sum_j c_k(j) MP_ell(n - j) of the
    truncated theta identity, so one dense product serves every k."""
    tables = _store(tables)
    return tables.get("q_squared_gf", n_max) * tables.get("mp_ell_table", ell, n_max)


def divisor_term(n, k):
    """n/k when k divides n, else 0 (the Iverson-bracket weight
    (1 + (-1)^([k|n]+1))/2 * n/k collapses to exactly this)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if k < 1:
        raise ValueError("k must be >= 1")
    return n // k if n % k == 0 else 0


def triangular_weight_sign(j):
    """(-1)^(j(j+1)/2): the corrected alternating sign of the theta sum."""
    return -1 if triangular_number(j) % 2 else 1
