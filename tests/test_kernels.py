"""The pure-Python kernels against definitional oracles.  The partition
sweep `ab_stat_sums` is also the oracle of `enumeration.stat_sum_tables`,
the dynamic program behind the a/b statistics; past the sweep's reach,
that program is checked against the series tables of `stats`.
Property tests of the kernels are in `tests/test_series_properties.py`.
"""

import random
from collections import Counter

import pytest

from partitionlab import kernels
from partitionlab.enumeration import stat_sum_tables
from partitionlab.stats import a_kp_table, b_k_table


@pytest.fixture(params=["pure"])
def backend(request):
    """The kernels under test.  There is one implementation, the pure
    `partitionlab.kernels`; the fixture keeps each case's `[pure]` id.
    """
    return kernels


def naive_convolve(a, b):
    n = len(a)
    out = [0] * n
    for i in range(n):
        for j in range(n):
            if i + j < n:
                out[i + j] += a[i] * b[j]
    return out


def test_convolve_small(backend):
    assert backend.convolve([1, 1, 0], [1, -1, 0]) == [1, 0, -1]
    assert backend.convolve([2], [3]) == [6]
    assert backend.convolve([0, 1, 2], [5, 0, 0]) == [0, 5, 10]


def test_convolve_matches_naive_on_random_input(backend):
    rng = random.Random(12345)
    cases = []
    for _ in range(20):
        n = rng.randrange(1, 40)
        a = [rng.randrange(-10**30, 10**30) for _ in range(n)]
        b = [rng.randrange(-10**30, 10**30) for _ in range(n)]
        cases.append((a, b))
    cases.append(([rng.randrange(-10**30, 10**30)], [rng.randrange(-10**30, 10**30)]))
    # the shape of a Gaussian-binomial term: a dense series times a short
    # polynomial with a long zero tail, in both argument orders
    n = 211
    dense = [rng.randrange(-10**15, 10**15) for _ in range(n)]
    short = [rng.randrange(-50, 50) for _ in range(7)] + [0] * (n - 7)
    cases += [(dense, short), (short, dense)]
    for a, b in cases:
        expected = naive_convolve(a, b)
        assert backend.convolve(a, b) == expected
        # TruncatedSeries.__mul__ passes its coefficient tuples
        assert backend.convolve(tuple(a), tuple(b)) == expected


def test_convolve_rejects_order_mismatch(backend):
    with pytest.raises(ValueError):
        backend.convolve([1, 2], [1, 2, 3])


def test_invert_geometric(backend):
    assert backend.invert_unit([1, -1, 0, 0]) == [1, 1, 1, 1]


def test_invert_roundtrip_random(backend):
    rng = random.Random(999)
    for lead in (1, -1):
        for _ in range(10):
            n = rng.randrange(1, 30)
            a = [lead] + [rng.randrange(-10**20, 10**20) for _ in range(n)]
            inv = backend.invert_unit(a)
            unit = backend.convolve(a, inv)
            assert unit == [1] + [0] * n


def test_invert_rejects_non_unit(backend):
    with pytest.raises(ValueError):
        backend.invert_unit([0, 1])
    with pytest.raises(ValueError):
        backend.invert_unit([2, 1])
    with pytest.raises(ValueError):
        backend.invert_unit([])


def brute_stat_sums(n, k_max):
    """Definitional oracle: run over explicit partitions of n."""
    from partitionlab.enumeration import partitions

    A = [[0] * k for k in range(1, k_max + 1)]
    B = [0] * k_max
    for parts in partitions(n):
        mults = Counter(parts)
        for v, m in mults.items():
            for k in range(1, k_max + 1):
                A[k - 1][v % k] += v
                if m >= k:
                    B[k - 1] += v
    return A, B


@pytest.mark.parametrize("n", [0, 1, 2, 5, 9, 14])
def test_stat_sums_match_definition(backend, n):
    assert backend.ab_stat_sums(n, 6) == brute_stat_sums(n, 6)


def test_stat_sums_domain_errors(backend):
    with pytest.raises(ValueError):
        backend.ab_stat_sums(-1, 3)
    with pytest.raises(ValueError):
        backend.ab_stat_sums(5, 0)


def dp_stat_sums(tables, n, k_max):
    """The (A, B) of one n, cut out of stat_sum_tables' per-n lists."""
    A, B = tables
    return (
        [[A[k - 1][p][n] for p in range(k)] for k in range(1, k_max + 1)],
        [B[k - 1][n] for k in range(1, k_max + 1)],
    )


def test_stat_sum_tables_match_definition():
    tables = stat_sum_tables(25, 6)
    for n in range(26):
        assert dp_stat_sums(tables, n, 6) == brute_stat_sums(n, 6), n


def test_stat_sum_tables_match_the_sweep(backend):
    # the sweep visits every partition, so it stops at 30 to keep the
    # suite fast; the series tables take the check further
    tables = stat_sum_tables(30, 6)
    for n in range(31):
        assert dp_stat_sums(tables, n, 6) == backend.ab_stat_sums(n, 6), n


def test_stat_sum_tables_match_the_series():
    # up to the default enumeration cap, so part values above 30 enter the DP
    A, B = stat_sum_tables(60, 6)
    for k in range(1, 7):
        for p in range(k):
            assert A[k - 1][p] == list(a_kp_table(k, p, 60).coeffs), (k, p)
        assert B[k - 1] == list(b_k_table(k, 60).coeffs), k


@pytest.mark.parametrize("n_max", [1, 2, 3, 4, 7, 200])
def test_stat_sum_tables_fit_their_fields(n_max):
    # each n_max sizes the packed fields from n_max p(n_max); the small
    # ones leave the least room above the largest value
    A, B = stat_sum_tables(n_max, 5)
    for k in range(1, 6):
        for p in range(k):
            assert A[k - 1][p] == list(a_kp_table(k, p, n_max).coeffs), (k, p)
        assert B[k - 1] == list(b_k_table(k, n_max).coeffs), k


def test_stat_sum_tables_domain_errors():
    with pytest.raises(ValueError):
        stat_sum_tables(-1, 3)
    with pytest.raises(ValueError):
        stat_sum_tables(5, 0)
    assert stat_sum_tables(0, 2) == ([[[0]], [[0], [0]]], [[0], [0]])
