"""Brute-force oracles: partition streams, statistics, marked
overpartitions, subset counts."""

import itertools
import math
import sys
import threading
import time

import pytest

from partitionlab import enumeration
from partitionlab.enumeration import (
    OverpartitionMarked,
    a_k,
    a_kp,
    b_k,
    c_subsets,
    m_ell,
    mp_ell,
    mp_ell_verbal,
    mp_verbal_discrepancies,
    overpartition_counts,
    overpartitions_a,
    overpartitions_p,
    part_multiplicities,
    partition_count_table,
    partitions,
    q_distinct,
)

# ---------------------------------------------------------------------------
# partition streams


def test_partitions_of_5_in_reverse_lex_order():
    assert list(partitions(5)) == [
        (5,),
        (4, 1),
        (3, 2),
        (3, 1, 1),
        (2, 2, 1),
        (2, 1, 1, 1),
        (1, 1, 1, 1, 1),
    ]


def test_partitions_of_zero():
    assert list(partitions(0)) == [()]


def test_partitions_rejects_negative():
    with pytest.raises(ValueError):
        list(partitions(-1))


def test_partitions_are_weakly_decreasing_and_unique():
    for n in range(12):
        seen = list(partitions(n))
        assert len(seen) == len(set(seen))
        for parts in seen:
            assert sum(parts) == n
            assert all(parts[i] >= parts[i + 1] >= 1 for i in range(len(parts) - 1))


def test_partitions_with_max_part():
    assert list(partitions(5, max_part=2)) == [
        (2, 2, 1),
        (2, 1, 1, 1),
        (1, 1, 1, 1, 1),
    ]
    assert list(partitions(4, max_part=9)) == list(partitions(4))
    assert list(partitions(3, max_part=0)) == []


def reference_partitions(n, cap):
    """Simple recursive reference for the capped stream."""
    if n == 0:
        return [()]
    out = []
    for head in range(min(n, cap), 0, -1):
        out.extend((head,) + rest for rest in reference_partitions(n - head, head))
    return out


def test_capped_stream_matches_recursive_reference():
    for n in range(15):
        for cap in range(1, n + 2):
            assert list(partitions(n, max_part=cap)) == reference_partitions(n, cap)


def test_partition_counts_match_recurrence():
    p = partition_count_table(45)
    assert p[5] == 7
    assert p[10] == 42
    for n in range(46):
        assert sum(1 for _ in partitions(n)) == p[n]


def test_partition_count_endpoint_60():
    p = partition_count_table(60)
    assert sum(1 for _ in partitions(60)) == p[60] == 966467


def test_part_multiplicities():
    assert part_multiplicities((3, 1, 1)) == {3: 1, 1: 2}
    assert part_multiplicities(()) == {}


# ---------------------------------------------------------------------------
# a / b statistics


def test_reference_statistics_at_5():
    assert a_k(5, 3) == 6
    assert a_kp(5, 3, 0) == 6
    assert a_kp(5, 3, 1) == 9
    assert a_kp(5, 3, 2) == 11
    assert b_k(5, 3) == 2


def test_b_small_spot_values():
    assert b_k(4, 3) == 1
    assert b_k(7, 3) == 7


@pytest.mark.parametrize("k", [2, 3, 5])
def test_b_vanishes_below_k(k):
    for n in range(1, k):
        assert b_k(n, k) == 0


def test_a_k_equals_residue_zero():
    for n in range(1, 25):
        for k in range(1, 6):
            assert a_k(n, k) == a_kp(n, k, 0)


def test_residue_sums_recover_total():
    # summing a_{k,p} over all residues gives the k=1 statistic
    for n in range(1, 41):
        total = a_k(n, 1)
        for k in range(2, 7):
            assert sum(a_kp(n, k, p) for p in range(k)) == total


def test_statistics_domain_validation():
    with pytest.raises(ValueError):
        a_k(0, 3)
    with pytest.raises(ValueError):
        a_kp(5, 3, 3)
    with pytest.raises(ValueError):
        b_k(5, 0)
    with pytest.raises(ValueError):
        b_k(enumeration.PARTITION_SWEEP_CAP + 1, 2)
    # explicit cap override allows going past the default
    assert b_k(enumeration.PARTITION_SWEEP_CAP + 1, 2, cap=70) > 0


def test_statistics_past_the_sweep_bound_match_the_series(monkeypatch):
    # past n = 316, n * p(n), the bound on every a/b sum, outgrows 64
    # bits; the part-value DP adds Python ints, so n = 400 is as exact
    from partitionlab.stats import a_kp_table, b_k_table

    n_max = 400
    a_tables = [a_kp_table(3, p, n_max) for p in range(3)]
    b_table = b_k_table(3, n_max)
    # from a cold cache (the test's own: monkeypatch puts the shared one
    # back afterwards), the call at n_max fills every smaller n too
    monkeypatch.setattr(enumeration, "_stat_cache", None)
    for n in range(n_max, 0, -1):
        for p in range(3):
            assert a_kp(n, 3, p, cap=n_max) == a_tables[p][n], (n, p)
        assert b_k(n, 3, cap=n_max) == b_table[n], n


def test_ascending_lookups_widen_the_cache_geometrically(monkeypatch):
    # each miss past the cached n at least doubles it, so a cold ascending
    # loop runs O(log n) passes, not one pass per n
    n_max = 200
    real = enumeration.stat_sum_tables
    passes = []

    def recording(n, k):
        passes.append((n, k))
        return real(n, k)

    monkeypatch.setattr(enumeration, "stat_sum_tables", recording)
    monkeypatch.setattr(enumeration, "_stat_cache", None)
    values = [b_k(n, 3, cap=n_max) for n in range(1, n_max + 1)]
    assert len(passes) <= math.ceil(math.log2(n_max)) + 1, passes
    # the widening stops at the cap, and every value is the DP's
    assert passes[-1] == (n_max, 3)
    assert values == real(n_max, 3)[1][2][1:]


def test_statistics_cache_under_threads(monkeypatch):
    # callers' threads share the a/b cache: every lookup must read
    # the DP's value, and each pass must widen the cache, so no two threads
    # run the same pass and a narrower pass never replaces a wider one
    n_max, k_max = 36, 6
    A, B = enumeration.stat_sum_tables(n_max, k_max)
    requests = [(n, k) for n in range(6, n_max + 1, 6) for k in range(1, k_max + 1)]
    real = enumeration.stat_sum_tables
    passes = []
    wrong = []

    def recording(n, k):
        passes.append((n, k))
        time.sleep(0.001)  # widen the window between the check and the store
        return real(n, k)

    def worker(seed):
        # a miss widens the cache geometrically up to the cap, so with the
        # cap at n_max the last pass is exactly the widest request
        order = requests[seed:] + requests[:seed]
        for n, k in (order[::-1] if seed % 2 else order):
            b = b_k(n, k, cap=n_max)
            a = a_kp(n, k, n % k, cap=n_max)
            if b != B[k - 1][n] or a != A[k - 1][n % k][n]:
                wrong.append((n, k))

    monkeypatch.setattr(enumeration, "stat_sum_tables", recording)
    monkeypatch.setattr(enumeration, "_stat_cache", None)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    for (n0, k0), (n1, k1) in zip(passes, passes[1:]):
        assert n1 >= n0 and k1 >= k0 and (n1, k1) != (n0, k0), passes
    assert passes[-1] == (n_max, k_max)


# ---------------------------------------------------------------------------
# M and Q


def test_m_spot_values():
    assert m_ell(5, 3) == 0
    assert m_ell(3, 4) == 0
    assert m_ell(2, 1) == 1
    # least non-part 1 means no 1s and at least one part
    p = partition_count_table(12)
    for n in range(1, 13):
        assert m_ell(n, 1) == p[n] - p[n - 1]


def test_q_distinct_values():
    assert q_distinct(0) == 1
    assert q_distinct(5) == 3
    from partitionlab.series import distinct_parts_gf

    gf = distinct_parts_gf(25)
    for n in range(26):
        assert q_distinct(n) == gf[n]


# ---------------------------------------------------------------------------
# dominant-element subsets


def itertools_subset_oracle(n):
    count = 0
    for r in range(1, n + 1):
        for combo in itertools.combinations(range(1, n + 1), r):
            if max(combo) > sum(combo) - max(combo):
                count += 1
    return count


def test_c_subsets_small():
    assert c_subsets(0) == 0
    assert c_subsets(1) == 1
    assert c_subsets(3) == 6


def test_c_subsets_matches_itertools_oracle():
    for n in range(13):
        assert c_subsets(n) == itertools_subset_oracle(n)


def test_c_subsets_cap():
    with pytest.raises(ValueError):
        c_subsets(enumeration.SUBSET_SWEEP_CAP + 1)
    with pytest.raises(ValueError):
        c_subsets(15, cap=14)


# ---------------------------------------------------------------------------
# marked overpartitions


def test_overpartitions_p_of_6_mod_3():
    objs = list(overpartitions_p(6, 3))
    assert len(objs) == 4
    assert set(objs) == {
        OverpartitionMarked((6,), 6),
        OverpartitionMarked((3, 3), 3),
        OverpartitionMarked((3, 2, 1), 3),
        OverpartitionMarked((3, 1, 1, 1), 3),
    }


def test_overpartitions_a_of_6_mod_3():
    objs = list(overpartitions_a(6, 3))
    assert len(objs) == 5
    # the one extra object overlines one 3 and colors the other
    assert OverpartitionMarked((3, 3), 3, 3) in objs


def test_overpartition_streams_unique_and_nested():
    for k in (2, 3):
        for n in range(1, 16):
            plain = list(overpartitions_p(n, k))
            colored = list(overpartitions_a(n, k))
            assert len(plain) == len(set(plain))
            assert len(colored) == len(set(colored))
            assert set(plain) <= set(colored)
            for obj in colored:
                assert obj.overlined % k == 0
                mults = part_multiplicities(obj.base)
                assert obj.overlined in mults
                if obj.colored is not None:
                    assert obj.colored % k == 0
                    need = 2 if obj.colored == obj.overlined else 1
                    assert mults[obj.colored] >= need


def test_overlined_totals_equal_a_statistic():
    for k in (1, 2, 3):
        for n in range(1, 16):
            total = sum(o.overlined for o in overpartitions_p(n, k))
            assert total == a_k(n, k)


def test_overpartition_counts_match_the_generators():
    # the closed form d^2 + t against the objects the generators build
    for n in range(1, 26):
        counts = overpartition_counts(n, range(1, 6))
        for k in range(1, 6):
            total = sum(o.overlined for o in overpartitions_p(n, k))
            colored = sum(1 for _ in overpartitions_a(n, k))
            assert counts[k] == (total, colored), (n, k)


def test_overpartition_domain():
    with pytest.raises(ValueError):
        list(overpartitions_p(0, 2))
    with pytest.raises(ValueError):
        list(overpartitions_a(3, 0))
    with pytest.raises(ValueError):
        overpartition_counts(0, [1])
    with pytest.raises(ValueError):
        overpartition_counts(3, [2, 0])


# ---------------------------------------------------------------------------
# MP readings


def test_mp_matches_series_everywhere_tested():
    from partitionlab.stats import mp_ell_table

    for ell in (1, 2, 3):
        table = mp_ell_table(ell, 40)
        for n in range(41):
            assert mp_ell(n, ell) == table[n], (ell, n)


def test_mp_matches_series_at_ell_4():
    # first support for ell=4 is n=36; cover a window around it
    from partitionlab.stats import mp_ell_table

    table = mp_ell_table(4, 42)
    for n in range(30, 43):
        assert mp_ell(n, 4) == table[n], n


def test_mp_first_support():
    # smallest counted n is ell*(2*ell+1)
    for ell in (1, 2, 3):
        first = ell * (2 * ell + 1)
        for n in range(first):
            assert mp_ell(n, ell) == 0
        assert mp_ell(first, ell) == 1


def test_mp_verbal_reading_differs():
    # the looser wording counts distinct-part partitions when nothing
    # exceeds 2*ell-1; at n=5, ell=3 it sees 5, 4+1, 3+2
    assert mp_ell_verbal(5, 3) == 3
    assert mp_ell(5, 3) == 0


def test_mp_verbal_discrepancies_are_reported():
    from partitionlab.stats import mp_ell_table

    table = mp_ell_table(3, 21).values
    reported = mp_verbal_discrepancies(3, 21, table)
    assert (5, 3, 0) in reported
    # every discrepancy really is a disagreement
    for n, verbal, series in reported:
        assert verbal != series
        assert mp_ell_verbal(n, 3) == verbal


def test_mp_domain():
    with pytest.raises(ValueError):
        mp_ell(-1, 2)
    with pytest.raises(ValueError):
        mp_ell(5, 0)
    with pytest.raises(ValueError):
        mp_ell_verbal(0, 2)
