"""Property tests of the kernels and the series ring (needs hypothesis:
the `test` extra)."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from oracles import binomial_product, binomial_quotient
from partitionlab import kernels, series
from partitionlab.series import TruncatedSeries
from test_kernels import naive_convolve

# signed coefficients of up to about 200 bits, and the small ones that
# make cancellation and zero runs likely
coefficient = st.integers(-(2**200), 2**200) | st.integers(-3, 3)


def same_length_lists(count):
    """count coefficient lists of one common length, 1 to 25."""
    return st.integers(1, 25).flatmap(
        lambda n: st.tuples(*[st.lists(coefficient, min_size=n, max_size=n)] * count)
    )


@settings(max_examples=60, deadline=None)
@given(ab=same_length_lists(2))
def test_convolve_matches_the_naive_product(ab):
    a, b = ab
    assert kernels.convolve(a, b) == naive_convolve(a, b)


@settings(max_examples=60, deadline=None)
@given(lead=st.sampled_from([1, -1]), tail=st.lists(coefficient, max_size=24))
def test_invert_unit_round_trip(lead, tail):
    a = [lead] + tail
    inverse = kernels.invert_unit(a)
    assert inverse[0] == lead
    assert kernels.convolve(a, inverse) == [1] + [0] * len(tail)


@settings(max_examples=60, deadline=None)
@given(
    coeffs=same_length_lists(1),
    sign=st.sampled_from([1, -1]),
    exponent=st.integers(1, 30),
)
def test_div_binomial_undoes_mul_binomial(coeffs, sign, exponent):
    s = TruncatedSeries(coeffs[0])
    assert s.mul_binomial(sign, exponent).div_binomial(sign, exponent) == s


@settings(max_examples=60, deadline=None)
@given(coeffs=same_length_lists(1))
def test_binomial_steps_match_their_definitions(coeffs):
    # every sign, and every exponent up to one past the last coefficient,
    # where the step leaves the list as it is
    (c,) = coeffs
    for sign in (1, -1):
        for e in range(1, len(c) + 2):
            out = list(c)
            series._mul_binomial_inplace(out, sign, e)
            assert out == binomial_product(c, sign, e), (sign, e)
            out = list(c)
            series._div_binomial_inplace(out, sign, e)
            assert out == binomial_quotient(c, sign, e), (sign, e)


@settings(max_examples=60, deadline=None)
@given(coeffs=same_length_lists(1), c=coefficient, data=st.data())
def test_a_product_with_a_constant_run_is_the_naive_product(coeffs, c, data):
    # a run is c at the exponents start..start+length-1: length = 1 is a
    # monomial; c = 0, length = 0 or start = order + 1 the zero series;
    # start + length = order + 1 a run that ends at the last coefficient
    s = TruncatedSeries(coeffs[0])
    start = data.draw(st.integers(0, s.order + 1))
    length = data.draw(st.integers(0, s.order + 1 - start))
    tail = len(s) - start - length
    run = TruncatedSeries([0] * start + [c] * length + [0] * tail)
    expected = naive_convolve(s.coeffs, run.coeffs)
    assert list((s * run).coeffs) == expected
    assert list((run * s).coeffs) == expected


@settings(max_examples=60, deadline=None)
@given(coeffs=same_length_lists(1), data=st.data())
def test_shift_sum_is_the_naive_product_with_its_terms(coeffs, data):
    # exponents run to two past the order, where a term adds nothing; a
    # repeated exponent adds its coefficients, and a zero one adds nothing
    s = TruncatedSeries(coeffs[0])
    exponent = st.integers(0, s.order + 2)
    terms = data.draw(st.lists(st.tuples(exponent, coefficient), max_size=8))
    t = [0] * len(s)
    for e, c in terms:
        if e <= s.order:
            t[e] += c
    assert list(s.shift_sum(terms).coeffs) == naive_convolve(s.coeffs, t)


@settings(max_examples=40, deadline=None)
@given(lists=same_length_lists(3))
def test_series_ring_laws(lists):
    a, b, c = map(TruncatedSeries, lists)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
