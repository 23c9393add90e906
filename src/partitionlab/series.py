"""Exact truncated formal power series over the integers.

A TruncatedSeries holds coefficients c_0..c_N of a series modulo
q^(N+1).  Everything is exact integer arithmetic; there is no float
anywhere in this module.  Operations require equal truncation orders --
mixing orders silently would lose precision, so it raises instead.

The module also provides constructors for the q-objects the rest of the
package is built from: the infinite products
prod_{j>=0} (1 +- q^(a + j*d)), the pentagonal-number series and the
truncated triangular-number theta.
"""

from . import kernels


class TruncatedSeries:
    """Dense, immutable integer series truncated at a fixed order."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("need at least the constant coefficient")
        object.__setattr__(self, "_coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    @classmethod
    def zero(cls, order):
        return cls(_zeros(order))

    @classmethod
    def one(cls, order):
        return cls.monomial(1, 0, order)

    @classmethod
    def monomial(cls, coeff, exponent, order):
        """The series coeff*q^exponent (zero if exponent exceeds the order)."""
        if exponent < 0:
            raise ValueError("exponent must be >= 0")
        c = _zeros(order)
        if exponent <= order:
            c[exponent] = coeff
        return cls(c)

    @property
    def order(self):
        return len(self._coeffs) - 1

    @property
    def coeffs(self):
        return self._coeffs

    def __getitem__(self, n):
        if not 0 <= n <= self.order:
            raise IndexError("exponent %d outside 0..%d" % (n, self.order))
        return self._coeffs[n]

    def __len__(self):
        return len(self._coeffs)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(self._coeffs)

    def __repr__(self):
        shown = []
        for e, c in enumerate(self._coeffs):
            if c:
                shown.append("%+d*q^%d" % (c, e))
            if len(shown) == 6:
                shown.append("...")
                break
        body = " ".join(shown) if shown else "0"
        return "TruncatedSeries(order=%d, %s)" % (self.order, body)

    def _check_order(self, other):
        if not isinstance(other, TruncatedSeries):
            raise TypeError("expected a TruncatedSeries")
        if other.order != self.order:
            raise ValueError(
                "truncation order mismatch: %d != %d" % (self.order, other.order)
            )

    def __add__(self, other):
        self._check_order(other)
        return TruncatedSeries([x + y for x, y in zip(self._coeffs, other._coeffs)])

    def __sub__(self, other):
        self._check_order(other)
        return TruncatedSeries([x - y for x, y in zip(self._coeffs, other._coeffs)])

    def __neg__(self):
        return TruncatedSeries([-x for x in self._coeffs])

    def __mul__(self, other):
        self._check_order(other)
        return TruncatedSeries(kernels.convolve(list(self._coeffs), list(other._coeffs)))

    def invert(self):
        """Series inverse; requires constant term +1 or -1."""
        return TruncatedSeries(kernels.invert_unit(list(self._coeffs)))

    def shifted(self, exponent):
        """Multiply by q^exponent, truncating at the same order."""
        if exponent < 0:
            raise ValueError("exponent must be >= 0")
        n = len(self._coeffs)
        if exponent >= n:
            return TruncatedSeries([0] * n)
        out = [0] * n
        out[exponent:] = self._coeffs[: n - exponent]
        return TruncatedSeries(out)

    def shift_sum(self, terms):
        """sum of c * q^e * self over the (e, c) in terms, truncated at the
        same order: one O(order) pass per term."""
        n = len(self._coeffs)
        out = [0] * n
        for e, c in terms:
            if e < 0:
                raise ValueError("exponent must be >= 0")
            if e < n:
                out[e:] = [o + c * v for o, v in zip(out[e:], self._coeffs)]
        return TruncatedSeries(out)

    def mul_sparse(self, other):
        """self * other in O(order) per nonzero coefficient of other, for
        a short factor such as a truncated pentagonal or theta sum."""
        self._check_order(other)
        return self.shift_sum((e, c) for e, c in enumerate(other._coeffs) if c)

    def mul_binomial(self, sign, exponent):
        """Multiply by (1 + sign*q^exponent) in O(order) time."""
        out = list(self._coeffs)
        _mul_binomial_inplace(out, sign, exponent)
        return TruncatedSeries(out)

    def div_binomial(self, sign, exponent):
        """Divide by (1 + sign*q^exponent) in O(order) time."""
        out = list(self._coeffs)
        _div_binomial_inplace(out, sign, exponent)
        return TruncatedSeries(out)


def _zeros(order):
    """The coefficients of the zero series truncated at order."""
    if order < 0:
        raise ValueError("order must be >= 0")
    return [0] * (order + 1)


def _mul_binomial_inplace(c, sign, exponent):
    if exponent < 1:
        raise ValueError("binomial exponent must be >= 1")
    for i in range(len(c) - 1, exponent - 1, -1):
        c[i] += sign * c[i - exponent]


def _div_binomial_inplace(c, sign, exponent):
    # (1 + s*q^e) * out = c  =>  out_i = c_i - s*out_(i-e)
    if exponent < 1:
        raise ValueError("binomial exponent must be >= 1")
    for i in range(exponent, len(c)):
        c[i] -= sign * c[i - exponent]


def product(sign, offset, step, order):
    """prod_{j>=0} (1 + sign*q^(offset + j*step)), truncated.

    Exactly the factors with exponent <= order are multiplied; every later
    one is 1 modulo q^(order+1).  sign=-1, offset=1, step=1 gives the
    Euler product (q;q)_inf.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if offset < 1:
        raise ValueError("offset must be >= 1")
    if step < 1:
        raise ValueError("step must be >= 1")
    c = _zeros(order)
    c[0] = 1
    for e in range(offset, order + 1, step):
        _mul_binomial_inplace(c, sign, e)
    return TruncatedSeries(c)


def euler_product(order):
    """(q;q)_inf = prod_{j>=1} (1 - q^j), truncated."""
    return product(-1, 1, 1, order)


def partition_gf(order):
    """1/(q;q)_inf; coefficient of q^n is the number of partitions of n."""
    return euler_product(order).invert()


def distinct_parts_gf(order):
    """prod_{j>=1} (1 + q^j); coefficient of q^n counts distinct-part partitions."""
    return product(1, 1, 1, order)


def pentagonal_number(j):
    """Generalized pentagonal number j(3j-1)/2 for any integer j."""
    return j * (3 * j - 1) // 2


def pentagonal_series(order, ell=None):
    """sum_j (-1)^j q^(j(3j-1)/2) over j = -(ell-1)..ell.

    ell=None means ell = order + 1: every exponent is at least |j|, so
    that truncation holds every term of degree <= order, and by Euler's
    pentagonal number theorem the sum equals euler_product(order).
    """
    c = _zeros(order)
    if ell is None:
        ell = order + 1
    if ell < 1:
        raise ValueError("ell must be >= 1")
    for j in range(-(ell - 1), ell + 1):
        g = pentagonal_number(j)
        if g <= order:
            c[g] += -1 if j % 2 else 1
    return TruncatedSeries(c)


def triangular_number(j):
    return j * (j + 1) // 2


def theta_truncated(ell, order):
    """sum_{j=0}^{2*ell-1} (-1)^(j(j+1)/2) q^(j(j+1)/2), truncated."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    c = _zeros(order)
    for j in range(2 * ell):
        t = triangular_number(j)
        if t <= order:
            c[t] += -1 if t % 2 else 1
    return TruncatedSeries(c)
