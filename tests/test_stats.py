"""Series-backed statistic tables against oracles and closed forms."""

from fractions import Fraction
from functools import partial

import pytest

from partitionlab import enumeration, stats
from partitionlab.series import (
    INFINITE,
    ProductSpec,
    TruncatedSeries,
    gaussian_binomial,
    geometric_kernel,
    partition_gf,
    pentagonal_series,
    product,
    theta_truncated,
)
from partitionlab.stats import (
    StatTable,
    a_k_table,
    a_kp_table,
    b_k_table,
    c_k_table,
    divisor_term,
    m_ell_table,
    m_ell_table_pdiff,
    mp_ell_table,
    p_table,
    q_table,
)

# ---------------------------------------------------------------------------
# StatTable indexing


def test_stat_table_negative_index_reads_zero():
    t = StatTable("b", {"k": 2}, (0, 1, 2))
    assert t[-1] == 0
    assert t[-99] == 0
    assert t[2] == 2


def test_stat_table_overflow_raises():
    t = StatTable("b", {"k": 2}, (0, 1, 2))
    with pytest.raises(IndexError):
        t[3]


def test_stat_tables_share_no_default_params():
    one, two = StatTable("x"), StatTable("x")
    assert one == two
    assert one.params is not two.params
    one.params["k"] = 1
    assert two.params == {}
    assert one != two
    # the default table is empty: n_max is -1
    assert two[-1] == 0
    with pytest.raises(IndexError):
        two[0]


def test_stat_table_equality_and_repr():
    t = StatTable("b", {"k": 2}, (0, 1, 2))
    assert t == StatTable(stat_id="b", params={"k": 2}, values=(0, 1, 2))
    assert t != StatTable("b", {"k": 3}, (0, 1, 2))
    assert t != StatTable("b", {"k": 2}, (0, 1))
    assert t != ("b", {"k": 2}, (0, 1, 2))
    assert repr(t) == "StatTable(stat_id='b', params={'k': 2}, values=(0, 1, 2))"


# ---------------------------------------------------------------------------
# p and Q


def test_p_table_values():
    t = p_table(10)
    assert t[0] == 1 and t[5] == 7 and t[10] == 42


def test_q_table_matches_enumeration():
    t = q_table(20)
    assert t[0] == 1
    for n in range(21):
        assert t[n] == enumeration.q_distinct(n)


# ---------------------------------------------------------------------------
# b and a tables


def test_b_table_reference_values():
    t = b_k_table(3, 10)
    assert t[5] == 2 and t[4] == 1 and t[7] == 7
    assert t[0] == 0
    for n in range(1, 3):
        assert t[n] == 0


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_b_table_matches_enumeration(k):
    t = b_k_table(k, 30)
    for n in range(1, 31):
        assert t[n] == enumeration.b_k(n, k)


def test_a_table_reference_values():
    assert a_k_table(3, 6)[5] == 6
    assert a_kp_table(3, 1, 6)[5] == 9
    assert a_kp_table(3, 2, 6)[5] == 11


def test_a_tables_match_enumeration():
    for k in range(1, 5):
        tables = [a_kp_table(k, p, 25) for p in range(k)]
        for n in range(1, 26):
            for p in range(k):
                assert tables[p][n] == enumeration.a_kp(n, k, p), (n, k, p)


def test_a_table_param_validation():
    with pytest.raises(ValueError):
        a_kp_table(0, 0, 5)
    with pytest.raises(ValueError):
        a_kp_table(3, 3, 5)


def test_a_table_equals_the_generating_function_product():
    # the table scales shifted partition series and divides twice by
    # (1 - q^k); it must equal the product P * (p q^p + (k-p) q^(p+k))
    # * (1 - q^k)^-2 coefficient for coefficient, also where p + k or p
    # runs past the truncation order
    for order in (0, 1, 7, 200):
        gf = partition_gf(order)
        for k in range(1, 7):
            inv_sq = (
                TruncatedSeries.one(order)
                .mul_binomial(-1, k)
                .mul_binomial(-1, k)
                .invert()
            )
            for p in range(k):
                numerator = TruncatedSeries.monomial(
                    p, p, order
                ) + TruncatedSeries.monomial(k - p, p + k, order)
                product = gf * numerator * inv_sq
                assert a_kp_table(k, p, order).values == product.coeffs, (
                    order,
                    k,
                    p,
                )


def test_a_even_odd_closed_forms():
    # a_{2,0} = 2q^2/(1-q^2)^2 / (q;q)_inf and
    # a_{2,1} = q(1+q^2)/(1-q^2)^2 / (q;q)_inf
    order = 40
    inv_sq = (
        TruncatedSeries.one(order).mul_binomial(-1, 2).mul_binomial(-1, 2).invert()
    )
    even = partition_gf(order) * TruncatedSeries.monomial(2, 2, order) * inv_sq
    odd_num = TruncatedSeries.monomial(1, 1, order) + TruncatedSeries.monomial(
        1, 3, order
    )
    odd = partition_gf(order) * odd_num * inv_sq
    assert a_kp_table(2, 0, order).values == even.coeffs
    assert a_kp_table(2, 1, order).values == odd.coeffs


def test_a_total_closed_form():
    # the k=1 statistic has generating function q/(1-q)^2 / (q;q)_inf
    order = 40
    inv_sq = (
        TruncatedSeries.one(order).mul_binomial(-1, 1).mul_binomial(-1, 1).invert()
    )
    total = partition_gf(order) * TruncatedSeries.monomial(1, 1, order) * inv_sq
    assert a_k_table(1, order).values == total.coeffs


def test_linear_relations_between_a_and_b():
    order = 60
    for k in range(1, 9):
        b = b_k_table(k, order + k + 1)
        a0 = a_k_table(k, order + k + 1)
        for n in range(1, order + 1):
            assert a0[n] == k * b[n]
        for p in range(1, k):
            ap = a_kp_table(k, p, order + k + 1)
            for n in range(1, order + 1):
                assert ap[n] == (k - p) * b[n - p] + p * b[n + k - p]


def test_three_term_b2_recurrence():
    # total statistic as a three-term window of the k=2 b-statistic
    order = 50
    a1 = a_k_table(1, order + 2)
    b2 = b_k_table(2, order + 2)
    for n in range(1, order + 1):
        assert a1[n] == b2[n + 1] + 2 * b2[n] + b2[n - 1]


# ---------------------------------------------------------------------------
# c_k


def test_c_k_small_values():
    t = c_k_table(2, 12)
    assert t[6] == 6  # 1*Q(2) + 2*Q(1) + 3*Q(0)
    for k in (2, 3, 5):
        tk = c_k_table(k, 12)
        for n in range(min(k, 13)):
            assert tk[n] == 0


def test_c_2_even_arguments_match_subset_count():
    t = c_k_table(2, 30)
    for n in range(16):
        assert t[2 * n] == enumeration.c_subsets(n)


def test_c_k_table_matches_the_literal_sum():
    # the table comes from the generating function Q(q^2) q^k/(1-q^k)^2;
    # the defining sum over j is its oracle
    n_max = 200
    q_values = q_table(n_max // 2).values
    for k in range(1, 7):
        literal = [
            sum(
                j * q_values[(n - k * j) // 2]
                for j in range(1, n // k + 1)
                if (n - k * j) % 2 == 0
            )
            for n in range(n_max + 1)
        ]
        assert list(c_k_table(k, n_max).values) == literal, k


def test_c_k_odd_arguments():
    # for even k every odd argument vanishes; for odd k it need not
    t4 = c_k_table(4, 21)
    assert all(t4[n] == 0 for n in range(1, 22, 2))
    t3 = c_k_table(3, 10)
    assert t3[5] == 1


# ---------------------------------------------------------------------------
# M tables


def test_m_reference_value():
    assert m_ell_table(3, 10)[5] == 0


@pytest.mark.parametrize("ell", [1, 2, 3, 4])
def test_m_table_matches_enumeration(ell):
    t = m_ell_table(ell, 40)
    for n in range(41):
        assert t[n] == enumeration.m_ell(n, ell), (ell, n)


def test_m_three_routes_agree():
    for ell in range(1, 6):
        main = m_ell_table(ell, 120)  # pentagonal + gaussian routes inside
        pdiff = m_ell_table_pdiff(ell, 120)
        assert main.values == pdiff.values


def test_m_table_rejects_bad_ell():
    with pytest.raises(ValueError):
        m_ell_table(0, 5)


# ---------------------------------------------------------------------------
# MP tables


def test_mp_reference_series_value():
    # the series route puts the first weight of the ell=3 count at q^21,
    # so its value at n=5 is 0 (the verbal reading in `enumeration`
    # gives 3 there; that mismatch is reported, not hidden)
    assert mp_ell_table(3, 21)[5] == 0
    assert enumeration.mp_ell_verbal(5, 3) == 3


def test_mp_first_support_is_ell_times_2ell_plus_1():
    for ell in (1, 2, 3):
        t = mp_ell_table(ell, ell * (2 * ell + 1) + 1)
        first = ell * (2 * ell + 1)
        assert all(t[n] == 0 for n in range(first))
        assert t[first] == 1


def test_mp_nonnegative_long_range():
    t = mp_ell_table(1, 200)
    assert t[0] == 0
    assert all(v >= 0 for v in t.values)


def test_mp_table_rejects_bad_ell():
    with pytest.raises(ValueError):
        mp_ell_table(0, 5)


# ---------------------------------------------------------------------------
# divisor indicator term


def test_divisor_term_values():
    assert divisor_term(6, 3) == 2
    assert divisor_term(5, 3) == 0
    assert divisor_term(0, 7) == 0


def test_divisor_term_equals_iverson_expression():
    # (1 + (-1)^([k|n] + 1)) / 2 * n/k, evaluated in exact rationals,
    # collapses to the implemented branch
    for n in range(0, 40):
        for k in range(1, 8):
            iverson = 1 if n % k == 0 else 0
            weight = Fraction(1 + (-1) ** (iverson + 1), 2)
            assert weight * Fraction(n, k) == divisor_term(n, k)


def test_divisor_term_domain():
    with pytest.raises(ValueError):
        divisor_term(-1, 2)
    with pytest.raises(ValueError):
        divisor_term(3, 0)


# ---------------------------------------------------------------------------
# the short-factor builders against their convolution forms


def signed_count(series, ell):
    # (-1)^(ell-1) * (series - 1), the form in which M_ell and MP_ell are read
    sign = -1 if ell % 2 == 0 else 1
    coeffs = [sign * c for c in series.coeffs]
    coeffs[0] -= sign
    return tuple(coeffs)


@pytest.mark.parametrize("n_max", [0, 1, 2, 5, 60, 240, 500])
def test_short_factor_builders_match_their_convolutions(n_max):
    # each builder multiplies by its short factor in O(n) steps; the dense
    # products they replaced are the oracles
    gf = partition_gf(n_max)
    for k in range(1, 7):
        oracle = (geometric_kernel(k, n_max) * gf).coeffs
        assert b_k_table(k, n_max).values == oracle, k
    odd = product([(ProductSpec(1, 1, 2), INFINITE)], n_max)
    even = product([(ProductSpec(-1, 2, 2), INFINITE)], n_max)
    mp_base = odd * even.invert()
    for ell in range(1, 6):
        pentagonal = pentagonal_series(n_max, ell) * gf
        assert stats._m_ell_from_pentagonal(ell, gf) == signed_count(pentagonal, ell)
        theta = theta_truncated(ell, n_max) * mp_base
        assert mp_ell_table(ell, n_max).values == signed_count(theta, ell), ell


def test_a_given_partition_series_is_the_one_read():
    # every builder that takes p_series gives the same table with it as
    # without it, and reads it: a doctored series shows in the table
    n_max = 40
    gf = partition_gf(n_max)
    doctored = TruncatedSeries(gf.coeffs[:7] + (gf[7] + 1,) + gf.coeffs[8:])
    args = {
        "p_table": (),
        "a_kp_table": (3, 1),
        "a_k_table": (2,),
        "b_k_table": (2,),
        "m_ell_table_pdiff": (2,),
    }
    p_series_tables = {
        name for name, (kw, _) in stats.BASE_SERIES.items() if kw == "p_series"
    }
    assert set(args) | {"m_ell_table"} == p_series_tables
    for name, head in args.items():
        build = getattr(stats, name)
        plain = build(*head, n_max)
        assert build(*head, n_max, p_series=gf) == plain, name
        assert build(*head, n_max, p_series=doctored) != plain, name
    # m_ell_table checks the given series against its Gaussian route
    assert m_ell_table(2, n_max, p_series=gf) == m_ell_table(2, n_max)
    with pytest.raises(ArithmeticError):
        m_ell_table(2, n_max, p_series=doctored)


def test_a_partition_series_of_another_order_is_refused():
    with pytest.raises(ValueError, match="order 30"):
        b_k_table(2, 40, p_series=partition_gf(30))


@pytest.mark.parametrize(
    "name,head,keyword,base",
    [
        ("c_k_table", (3,), "q2_series", "q_squared_gf"),
        ("mp_ell_table", (1,), "mp_base", "mp_base_gf"),
    ],
)
def test_a_given_base_series_is_the_one_read(name, head, keyword, base):
    # c_k reads Q(q^2) and MP_ell its base through a keyword, as the
    # p_series builders read P: the same table with the series given as
    # without it, a doctored series shows, and another order is refused
    assert stats.BASE_SERIES[name] == (keyword, base)
    n_max = 40
    build, series = getattr(stats, name), getattr(stats, base)(n_max)
    plain = build(*head, n_max)
    doctored = TruncatedSeries(
        series.coeffs[:7] + (series[7] + 1,) + series.coeffs[8:]
    )
    assert build(*head, n_max, **{keyword: series}) == plain
    assert build(*head, n_max, **{keyword: doctored}) != plain
    with pytest.raises(ValueError, match="%s has order 30" % keyword):
        build(*head, n_max, **{keyword: getattr(stats, base)(30)})


# ---------------------------------------------------------------------------
# truncation order


@pytest.mark.parametrize(
    "call",
    [
        partial(p_table, -1),
        partial(q_table, -1),
        partial(a_kp_table, 3, 1, -1),
        partial(b_k_table, 2, -1),
        partial(c_k_table, 2, -1),
        partial(m_ell_table, 2, -1),
        partial(mp_ell_table, 2, -1),
        partial(gaussian_binomial, 3, 1, -1),
        partial(enumeration.partition_count_table, -1),
    ],
    ids=lambda call: call.func.__name__,
)
def test_negative_order_raises_value_error(call):
    with pytest.raises(ValueError, match="must be >= 0"):
        call()
