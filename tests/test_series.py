"""Truncated series arithmetic and the q-object constructors."""

import random

import pytest

from oracles import gaussian_binomial, geometric_kernel
from partitionlab.series import (
    TruncatedSeries,
    distinct_parts_gf,
    euler_product,
    partition_gf,
    pentagonal_number,
    pentagonal_series,
    product,
    theta_truncated,
)

# ---------------------------------------------------------------------------
# construction and basic arithmetic


def test_zero_series():
    assert TruncatedSeries.zero(3).coeffs == (0, 0, 0, 0)
    assert TruncatedSeries.zero(0).coeffs == (0,)
    with pytest.raises(ValueError):
        TruncatedSeries.zero(-1)


def test_one_is_additive_identity_at_order_5():
    one = TruncatedSeries.one(5)
    assert (TruncatedSeries.zero(5) + one).coeffs == (1, 0, 0, 0, 0, 0)


def test_mul_binomials():
    one_plus_q = TruncatedSeries([1, 1, 0])
    one_minus_q = TruncatedSeries([1, -1, 0])
    assert (one_plus_q * one_minus_q).coeffs == (1, 0, -1)


def test_mul_rejects_order_mismatch():
    with pytest.raises(ValueError):
        TruncatedSeries([1, 1]) * TruncatedSeries([1, 1, 1])


def test_mul_commutative_associative():
    rng = random.Random(7)
    for _ in range(15):
        order = rng.randrange(0, 25)
        a, b, c = (
            TruncatedSeries([rng.randrange(-50, 50) for _ in range(order + 1)])
            for _ in range(3)
        )
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_invert_one_minus_q():
    assert TruncatedSeries([1, -1, 0, 0, 0]).invert().coeffs == (1, 1, 1, 1, 1)


def test_invert_requires_unit_constant():
    with pytest.raises(ValueError):
        TruncatedSeries([0, 1]).invert()


def test_invert_roundtrip_property():
    rng = random.Random(42)
    for lead in (1, -1):
        for _ in range(10):
            order = rng.randrange(0, 30)
            coeffs = [lead] + [rng.randrange(-99, 99) for _ in range(order)]
            s = TruncatedSeries(coeffs)
            assert s * s.invert() == TruncatedSeries.one(order)


def test_immutability_and_hash():
    s = TruncatedSeries([1, 2, 3])
    with pytest.raises(AttributeError):
        s._coeffs = (0,)
    assert hash(s) == hash(TruncatedSeries((1, 2, 3)))


def test_getitem_bounds():
    s = TruncatedSeries([5, 6])
    assert s[0] == 5 and s[1] == 6
    with pytest.raises(IndexError):
        s[2]
    with pytest.raises(IndexError):
        s[-1]


def test_shifted():
    s = TruncatedSeries([1, 2, 3, 4])
    assert s.shifted(2).coeffs == (0, 0, 1, 2)
    assert s.shifted(0) == s
    assert s.shifted(4).coeffs == (0, 0, 0, 0)
    assert s.shifted(99).coeffs == (0, 0, 0, 0)


# ---------------------------------------------------------------------------
# infinite products


def pentagonal_sign_expansion(order):
    """Independent expansion of (q;q)_inf: +-1 at generalized pentagonal
    numbers with sign (-1)^j, directly from the number formula."""
    c = [0] * (order + 1)
    c[0] = 1
    j = 1
    while True:
        g_pos = j * (3 * j - 1) // 2
        g_neg = j * (3 * j + 1) // 2
        if g_pos > order and g_neg > order:
            break
        sign = -1 if j % 2 else 1
        if g_pos <= order:
            c[g_pos] = sign
        if g_neg <= order:
            c[g_neg] = sign
        j += 1
    return tuple(c)


def test_euler_product_small():
    # pentagonal exponents 0, 1, 2, 5, 7, ... so the q^6 coefficient is 0
    assert euler_product(6).coeffs == (1, -1, -1, 0, 0, 1, 0)
    assert euler_product(7).coeffs == (1, -1, -1, 0, 0, 1, 0, 1)


def test_euler_product_matches_pentagonal_expansion():
    assert euler_product(150).coeffs == pentagonal_sign_expansion(150)


def test_distinct_parts_gf_counts_distinct_partitions():
    # Q(0..5) by hand: (), (1), (2), (3)(21), (4)(31), (5)(41)(32)
    assert distinct_parts_gf(5).coeffs == (1, 1, 1, 2, 2, 3)


def test_product_spec_validation():
    # the factors (1 + sign*q^(offset + j*step)) need a unit sign, a
    # positive first exponent and a positive step
    for sign, offset, step in ((2, 1, 1), (0, 1, 1), (1, 0, 1), (1, 1, 0)):
        with pytest.raises(ValueError):
            product(sign, offset, step, 5)
    with pytest.raises(ValueError, match="must be >= 0"):
        product(1, 1, 1, -1)


def test_partition_gf_matches_recurrence_oracle():
    from partitionlab.enumeration import partition_count_table

    assert partition_gf(80).coeffs == tuple(partition_count_table(80))


def test_partition_gf_times_pentagonal_is_unit():
    # p-counts from explicit enumeration, pentagonal signs by formula
    from partitionlab.enumeration import partitions

    order = 10
    p_counts = TruncatedSeries(
        [sum(1 for _ in partitions(n)) for n in range(order + 1)]
    )
    pent = TruncatedSeries(pentagonal_sign_expansion(order))
    assert p_counts * pent == TruncatedSeries.one(order)


# ---------------------------------------------------------------------------
# pentagonal series


def test_pentagonal_numbers():
    assert [pentagonal_number(j) for j in (0, 1, -1, 2, -2, 3)] == [0, 1, 2, 5, 7, 12]


def test_pentagonal_series_unbounded():
    assert pentagonal_series(7).coeffs == (1, -1, -1, 0, 0, 1, 0, 1)


def test_pentagonal_series_bounded():
    # ell=1 keeps exactly the indices 0 and 1
    assert pentagonal_series(5, ell=1).coeffs == (1, -1, 0, 0, 0, 0)
    # ell=2 keeps indices -1..2
    assert pentagonal_series(7, ell=2).coeffs == (1, -1, -1, 0, 0, 1, 0, 0)
    with pytest.raises(ValueError):
        pentagonal_series(5, ell=0)


def test_pentagonal_series_equals_euler_product():
    for order in (50, 400):
        assert pentagonal_series(order) == euler_product(order)


@pytest.mark.parametrize("order", range(13))
def test_pentagonal_series_default_at_edge_orders(order):
    # the default sum reaches every pentagonal exponent up to the order,
    # down to order 0, where only the constant term is left
    assert pentagonal_series(order).coeffs == pentagonal_sign_expansion(order)


# ---------------------------------------------------------------------------
# geometric kernel


def test_geometric_kernel_values():
    assert geometric_kernel(2, 6).coeffs == (0, 0, 1, 0, 2, 0, 3)
    assert geometric_kernel(1, 3).coeffs == (0, 1, 2, 3)
    assert geometric_kernel(5, 4).coeffs == (0, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        geometric_kernel(0, 4)


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_geometric_kernel_product_identity(k):
    # (1 - q^k)^2 * sum_m m q^(km) == q^k
    order = 30
    squared = TruncatedSeries.one(order).mul_binomial(-1, k).mul_binomial(-1, k)
    assert squared * geometric_kernel(k, order) == TruncatedSeries.monomial(
        1, k, order
    )


# ---------------------------------------------------------------------------
# Gaussian binomials


def box_partition_counts(rows, cols, order):
    """Oracle: number of partitions of m fitting in a rows x cols box."""
    from partitionlab.enumeration import partitions

    counts = [0] * (order + 1)
    for m in range(min(order, rows * cols) + 1):
        counts[m] = sum(
            1
            for parts in partitions(m, max_part=cols)
            if len(parts) <= rows
        )
    return tuple(counts)


def test_gaussian_binomial_small():
    assert gaussian_binomial(2, 1, 4).coeffs == (1, 1, 0, 0, 0)
    assert gaussian_binomial(4, 2, 4).coeffs == (1, 1, 2, 1, 1)


def test_gaussian_binomial_out_of_range_is_zero():
    assert gaussian_binomial(3, -1, 4) == TruncatedSeries.zero(4)
    assert gaussian_binomial(3, 4, 4) == TruncatedSeries.zero(4)


def test_gaussian_binomial_against_box_enumeration():
    from math import comb

    for n in range(0, 11):
        for ell in range(0, n + 1):
            order = ell * (n - ell)
            got = gaussian_binomial(n, ell, max(order, 1))
            expected = box_partition_counts(ell, n - ell, max(order, 1))
            assert got.coeffs == expected, (n, ell)
            # degree and coefficient-sum sanity
            assert sum(got.coeffs) == comb(n, ell)
            if order >= 1:
                assert got[order] == 1
            assert all(c >= 0 for c in got.coeffs)


def test_gaussian_binomial_truncates():
    # degree 4 polynomial cut at order 2
    assert gaussian_binomial(4, 2, 2).coeffs == (1, 1, 2)


# ---------------------------------------------------------------------------
# truncated theta


def test_theta_truncated_small():
    assert theta_truncated(1, 3).coeffs == (1, -1, 0, 0)
    assert theta_truncated(2, 6).coeffs == (1, -1, 0, -1, 0, 0, 1)
    with pytest.raises(ValueError):
        theta_truncated(0, 3)


def test_theta_truncated_signs_follow_triangular_parity():
    s = theta_truncated(4, 28)
    for j in range(8):
        t = j * (j + 1) // 2
        assert s[t] == (-1) ** t


def test_theta_full_sum_equals_its_product_form():
    # with 2*ell terms reaching past the order, the truncation is the whole
    # alternating triangular series, which factors as (q^2;q^2)/(−q;q^2)
    order = 100
    full = theta_truncated(8, order)  # next exponent T_16 = 136 > 100
    quotient = product(-1, 2, 2, order) * product(1, 1, 2, order).invert()
    assert full == quotient
