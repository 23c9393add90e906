"""Code that only the tests run: dense forms of the products the
package computes by shortcuts, kept here as oracles of those shortcuts,
and a reader of the CLI's CSV output.

- `geometric_kernel(k, order)` is sum_m m*q^(k*m); times a base series it
  is the dense product that `stats.k_weighted` replaces by a shift and
  two divisions.
- `gaussian_binomial(n, ell, order)` is [n, ell]_q from the q-Pascal
  recurrence, checked against box-partition counts.  No package function
  returns a Gaussian binomial (`stats.m_ell_table` steps [m-1, ell-1]_q
  inside its sum), so no test compares one with it yet.
- `theta_remainder(k, ell, order)` is sum_j c_k(j) MP_ell(n - j) as that
  double sum, the oracle of `verify`'s remainder of the truncated theta
  identity, which regroups it as (Q(q^2) MP_ell) * q^k/(1-q^k)^2.
- `theta_signed_sum(family, k, ell, n_max)` is the signed sum
  sum_{j in js(ell)} sign(j) b_k(n - exponent(j)) of a `verify.ThetaFamily`
  taken term by term from its definition, the oracle of the running sum
  that `verify` builds once per family and k.
- `binomial_product(c, sign, e)` and `binomial_quotient(c, sign, e)` are
  c times (1 + sign*q^e) and c divided by it, each coefficient summed
  from its definition, the oracles of the in-place steps that
  `series.product`, `mul_binomial` and `div_binomial` run.
- `parse_table_csv(text)` reads back the CSV of `compute`.
- `golden(name)` and `golden_digests()` read the pinned outputs under
  `tests/golden/`.
"""

from pathlib import Path

from partitionlab.series import TruncatedSeries
from partitionlab.stats import b_k_table, c_k_table, mp_ell_table


def geometric_kernel(k, order):
    """sum_{m>=0} m*q^(k*m): coefficient of q^e is e/k when k | e, else 0."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return TruncatedSeries(
        [e // k if e % k == 0 else 0 for e in range(order + 1)]
    )


def gaussian_binomial(n, ell, order):
    """Gaussian binomial [n, ell]_q as a truncated series.

    Computed by the q-Pascal recurrence
    [n, ell] = [n-1, ell-1] + q^ell * [n-1, ell]; zero when ell < 0 or
    ell > n.  The underlying polynomial has degree ell*(n-ell) and may
    be cut off by the truncation order.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if ell < 0 or ell > n:
        return TruncatedSeries.zero(order)
    # rows[j] holds [m, j] for the current m, as a plain list
    rows = [[0] * (order + 1) for _ in range(ell + 1)]
    rows[0][0] = 1
    for m in range(1, n + 1):
        for j in range(min(ell, m), 0, -1):
            prev = rows[j - 1]
            cur = rows[j]
            new = prev[:]
            for i in range(j, order + 1):
                new[i] += cur[i - j]
            rows[j] = new
    return TruncatedSeries(rows[ell])


def theta_remainder(k, ell, order):
    """sum_{j=0..n} c_k(j) MP_ell(n - j) for n = 0..order, summed term by
    term from the two tables each built alone."""
    c = c_k_table(k, order).coeffs
    mp = mp_ell_table(ell, order).coeffs
    return TruncatedSeries(
        [sum(c[j] * mp[n - j] for j in range(n + 1)) for n in range(order + 1)]
    )


def theta_signed_sum(family, k, ell, n_max):
    """sum_{j in js(ell)} sign(j) b_k(n - exponent(j)) for n = 0..n_max,
    each term read from the b_k table built alone; a term whose exponent
    exceeds n adds nothing."""
    b = b_k_table(k, n_max).coeffs
    return [
        sum(
            family.sign(j) * b[n - family.exponent(j)]
            for j in family.js(ell)
            if family.exponent(j) <= n
        )
        for n in range(n_max + 1)
    ]


def binomial_product(c, sign, e):
    """c * (1 + sign*q^e) truncated to len(c): out[n] = c[n] + sign*c[n-e]."""
    return [c[n] + (sign * c[n - e] if n >= e else 0) for n in range(len(c))]


def binomial_quotient(c, sign, e):
    """c / (1 + sign*q^e) truncated to len(c), as c times the geometric
    series sum_j (-sign)^j q^(j*e): out[n] = sum_j (-sign)^j c[n - j*e]."""
    return [
        sum((-sign) ** j * c[n - j * e] for j in range(n // e + 1))
        for n in range(len(c))
    ]


def parse_table_csv(text):
    """Inverse of cli.render_table_csv: returns the list of values."""
    lines = [ln for ln in text.split("\n") if ln]
    if not lines or lines[0] != "n,value":
        raise ValueError("missing 'n,value' header")
    values = []
    for i, line in enumerate(lines[1:]):
        n_str, v_str = line.split(",", 1)
        if int(n_str) != i:
            raise ValueError("non-contiguous n at row %d" % i)
        values.append(int(v_str))
    return values


GOLDEN = Path(__file__).resolve().parent / "golden"


def golden(name):
    """The pinned output tests/golden/<name>, byte for byte."""
    return (GOLDEN / name).read_bytes().decode("utf-8")


def golden_digests():
    """{name: sha256} of the outputs too large to keep as files, read from
    tests/golden/digests.sha256 (`sha256sum -c` format)."""
    entries = (line.split("  ") for line in golden("digests.sha256").splitlines())
    return {name: digest for digest, name in entries}
