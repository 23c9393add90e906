"""Series-backed evaluation of every partition statistic.

Each function returns a StatTable whose entry n is the statistic at n,
computed exactly from truncated series arithmetic (never by enumerating
partitions; the `enumeration` module is the independent cross-check).
"""

from .series import (
    INFINITE,
    ProductSpec,
    TruncatedSeries,
    distinct_parts_gf,
    partition_gf,
    pentagonal_number,
    pentagonal_series,
    product,
    theta_truncated,
    triangular_number,
)

# table builder -> (keyword, builder of the base series it reads): each
# table builder that reads a base series, such as the partition series
# 1/(q;q)_inf, also takes it through that keyword, so that a caller
# building many tables of one order (verify.TableStore) builds it once
_P_SERIES = ("p_series", "partition_gf")
BASE_SERIES = {
    "p_table": _P_SERIES,
    "a_kp_table": _P_SERIES,
    "a_k_table": _P_SERIES,
    "b_k_table": _P_SERIES,
    "m_ell_table": _P_SERIES,
    "m_ell_table_pdiff": _P_SERIES,
    "c_k_table": ("q2_series", "q_squared_gf"),
    "mp_ell_table": ("mp_base", "mp_base_gf"),
}


class StatTable:
    """A statistic's values indexed by n = 0..n_max.

    Indexing with a negative n reads 0 (shifted identities need that);
    indexing past n_max raises, so a too-short table is never silently
    treated as zero.
    """

    __slots__ = ("stat_id", "params", "values")

    def __init__(self, stat_id, params=None, values=()):
        self.stat_id = stat_id
        self.params = {} if params is None else params
        self.values = values

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self.__slots__)

    def __repr__(self):
        fields = ", ".join("%s=%r" % (f, getattr(self, f)) for f in self.__slots__)
        return "StatTable(%s)" % fields

    @property
    def n_max(self):
        return len(self.values) - 1

    def __getitem__(self, n):
        if n < 0:
            return 0
        if n > self.n_max:
            raise IndexError(
                "n=%d beyond table range 0..%d for stat %r"
                % (n, self.n_max, self.stat_id)
            )
        return self.values[n]

    def __len__(self):
        return len(self.values)


def _base_series(given, keyword, build, n_max):
    """given, the series a table builder was passed as keyword, which must
    have order n_max, or when it is None the series build(n_max)."""
    if given is None:
        return build(n_max)
    if given.order != n_max:
        raise ValueError(
            "%s has order %d, the table n_max=%d" % (keyword, given.order, n_max)
        )
    return given


def _partition_series(n_max, p_series):
    # partition_gf is looked up here at call time, so a patched one runs
    return _base_series(p_series, "p_series", partition_gf, n_max)


def q_squared_gf(n_max):
    """Q(q^2) = (-q^2;q^2)_inf, the base series of c_k."""
    return product([(ProductSpec(1, 2, 2), INFINITE)], n_max)


def mp_base_gf(n_max):
    """(-q;q^2)_inf/(q^2;q^2)_inf, the base series of MP_ell: the product of
    the odd factors, then one O(n) division per even factor."""
    base = product([(ProductSpec(1, 1, 2), INFINITE)], n_max)
    for e in range(2, n_max + 1, 2):
        base = base.div_binomial(-1, e)
    return base


def p_table(n_max, *, p_series=None):
    """p(n): number of partitions of n."""
    return StatTable("p", {}, _partition_series(n_max, p_series).coeffs)


def q_table(n_max):
    """Q(n): number of partitions of n into distinct parts."""
    return StatTable("q", {}, distinct_parts_gf(n_max).coeffs)


def b_k_table(k, n_max, *, p_series=None):
    """b_k(n): total of distinct part values with multiplicity >= k,
    over all partitions of n.

    Generating function: 1/(q;q)_inf * q^k/(1-q^k)^2.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    # q^k/(1-q^k)^2 is a shift and two O(n) divisions
    gf = _partition_series(n_max, p_series)
    series = gf.shifted(k).div_binomial(-1, k).div_binomial(-1, k)
    return StatTable("b", {"k": k}, series.coeffs)


def a_kp_table(k, p, n_max, *, p_series=None):
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
    gf = _partition_series(n_max, p_series)
    numerator = TruncatedSeries(
        [
            p * x + (k - p) * y
            for x, y in zip(gf.shifted(p).coeffs, gf.shifted(p + k).coeffs)
        ]
    )
    series = numerator.div_binomial(-1, k).div_binomial(-1, k)
    return StatTable("a", {"k": k, "p": p}, series.coeffs)


def a_k_table(k, n_max, *, p_series=None):
    """a_k(n): total of distinct part values divisible by k (p = 0 case)."""
    return a_kp_table(k, 0, n_max, p_series=p_series)


def c_k_table(k, n_max, *, q2_series=None):
    """c_k(n) = sum_{j=1..floor(n/k)} j * Q((n-kj)/2), zero terms whenever
    (n-kj)/2 is not a nonnegative integer; Q(0) = 1 is included.

    Generating function: Q(q^2) * q^k/(1-q^k)^2, with Q(q^2) = (-q^2;q^2)_inf
    (q_squared_gf, or q2_series when given).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    # q^k/(1-q^k)^2 is a shift and two O(n) divisions
    q_squared = _base_series(q2_series, "q2_series", q_squared_gf, n_max)
    series = q_squared.shifted(k).div_binomial(-1, k).div_binomial(-1, k)
    return StatTable("c", {"k": k}, series.coeffs)


def _m_ell_from_pentagonal(ell, gf):
    # (-1)^(ell-1) * (pentagonal truncation / (q;q)_inf  -  1); the
    # truncation has 2*ell terms, so the product is 2*ell shifted copies
    series = gf.mul_sparse(pentagonal_series(gf.order, ell))
    sign = -1 if ell % 2 == 0 else 1
    coeffs = [sign * c for c in series.coeffs]
    coeffs[0] -= sign
    return tuple(coeffs)


def _m_ell_from_gaussian(ell, n_max):
    # sum over m >= ell of q^(C(ell,2) + (ell+1) m) / (q;q)_m * [m-1, ell-1]_q,
    # maintaining 1/(q;q)_m and the Gaussian binomial incrementally
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
        term = (inv_poch * binom).shifted(exponent)
        out = [s + t for s, t in zip(out, term.coeffs)]
        # advance both running factors from m to m+1:
        # [m, ell-1] = [m-1, ell-1] * (1-q^m)/(1-q^(m-ell+1))
        binom = binom.mul_binomial(-1, m).div_binomial(-1, m - ell + 1)
        m += 1
        inv_poch = inv_poch.div_binomial(-1, m)
    return tuple(out)


def m_ell_table(ell, n_max, *, p_series=None):
    """M_ell(n): partitions of n in which ell is the least positive
    non-part and parts above ell outnumber parts below ell.

    Evaluated through the pentagonal truncation and, independently,
    through the Gaussian-binomial sum; the two must agree coefficientwise
    and be nonnegative, otherwise the computation itself is broken.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    primary = _m_ell_from_pentagonal(ell, _partition_series(n_max, p_series))
    second = _m_ell_from_gaussian(ell, n_max)
    if primary != second:
        raise ArithmeticError(
            "M_%d evaluation routes disagree at n=%d"
            % (ell, next(n for n in range(n_max + 1) if primary[n] != second[n]))
        )
    if any(v < 0 for v in primary):
        raise ArithmeticError("M_%d produced a negative count" % ell)
    return StatTable("m", {"ell": ell}, primary)


def m_ell_table_pdiff(ell, n_max, *, p_series=None):
    """Third evaluation of M_ell via partition-count differences:
    (-1)^(ell-1) sum_{j=0..ell-1} (-1)^j (p(n - j(3j+1)/2) - p(n - (j+1)(3j+2)/2)),
    valid for n >= 1 (the entry at n=0 is 0 by convention)."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    p = _partition_series(n_max, p_series).coeffs
    sign = -1 if ell % 2 == 0 else 1
    out = [0] * (n_max + 1)
    for n in range(1, n_max + 1):
        total = 0
        for j in range(ell):
            g1 = pentagonal_number(-j)
            g2 = pentagonal_number(j + 1)
            v1 = p[n - g1] if n >= g1 else 0
            v2 = p[n - g2] if n >= g2 else 0
            total += (v1 - v2) if j % 2 == 0 else (v2 - v1)
        out[n] = sign * total
    return StatTable("m", {"ell": ell}, tuple(out))


def mp_ell_table(ell, n_max, *, mp_base=None):
    """MP_ell(n) via the truncated triangular theta:
    (-1)^(ell-1) * ( (-q;q^2)_inf/(q^2;q^2)_inf * theta_ell - 1 ), the
    base series being mp_base_gf, or mp_base when given.

    The result counts partitions, so every entry must be >= 0 and the
    constant term 0; violations raise.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    # theta_ell has 2*ell terms
    base = _base_series(mp_base, "mp_base", mp_base_gf, n_max)
    series = base.mul_sparse(theta_truncated(ell, n_max))
    sign = -1 if ell % 2 == 0 else 1
    coeffs = [sign * c for c in series.coeffs]
    coeffs[0] -= sign
    if coeffs[0] != 0:
        raise ArithmeticError("MP_%d has a nonzero constant term" % ell)
    bad = next((n for n, v in enumerate(coeffs) if v < 0), None)
    if bad is not None:
        raise ArithmeticError("MP_%d negative at n=%d" % (ell, bad))
    return StatTable("mp", {"ell": ell}, tuple(coeffs))


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
