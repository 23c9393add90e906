"""Property tests of the kernels and the series ring (needs hypothesis:
the `test` extra)."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from partitionlab import kernels
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


@settings(max_examples=40, deadline=None)
@given(lists=same_length_lists(3))
def test_series_ring_laws(lists):
    a, b, c = map(TruncatedSeries, lists)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
