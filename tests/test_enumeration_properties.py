"""Property tests of the partition walk and the overpartition counts
against independent references (needs hypothesis: the `test` extra)."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from partitionlab.enumeration import (
    overpartition_counts,
    overpartitions_a,
    overpartitions_p,
    partitions,
)
from test_enumeration import reference_partitions


@settings(max_examples=80, deadline=None)
@given(n=st.integers(0, 30), cap=st.integers(1, 35))
def test_partitions_match_the_recursive_reference(n, cap):
    assert list(partitions(n)) == reference_partitions(n, n)
    # and in the same order on those with largest part <= cap
    capped = [parts for parts in partitions(n) if not parts or parts[0] <= cap]
    assert capped == reference_partitions(n, cap)


@settings(max_examples=40, deadline=None)
@given(
    n_max=st.integers(0, 25),
    ks=st.lists(st.integers(1, 30), max_size=5),
)
def test_overpartition_counts_match_the_generators(n_max, ks):
    # ks unsorted, possibly repeated and possibly above n_max: each k
    # gets its own rows, which the generators rebuild object by object
    expected = {
        k: (
            (0,) + tuple(
                sum(o.overlined for o in overpartitions_p(n, k))
                for n in range(1, n_max + 1)
            ),
            (0,) + tuple(
                sum(1 for _ in overpartitions_a(n, k)) for n in range(1, n_max + 1)
            ),
        )
        for k in ks
    }
    assert overpartition_counts(n_max, ks) == expected
