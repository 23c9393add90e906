"""Brute-force oracles: partition streams, statistics, marked
overpartitions, subset counts."""

import itertools

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
    stat_sum_tables,
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
    # summing a_{k,p} over all residues gives the k=1 statistic; one DP
    # pass holds every value, where each lookup would run a pass of its own
    A = enumeration.stat_sum_tables(40, 6)[0]
    for n in range(1, 41):
        total = A[0][0][n]
        for k in range(2, 7):
            assert sum(A[k - 1][p][n] for p in range(k)) == total
    assert a_k(40, 1) == total


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


def test_statistics_past_the_sweep_bound_match_the_series():
    # past n = 316, n * p(n), the bound on every a/b sum, outgrows 64
    # bits; the part-value DP adds Python ints, so n = 400 is as exact
    from partitionlab.stats import a_kp_table, b_k_table

    n_max = 400
    A, B = enumeration.stat_sum_tables(n_max, 3)
    b_table = b_k_table(3, n_max)
    for p in range(3):
        a_table = a_kp_table(3, p, n_max)
        assert A[2][p] == list(a_table.coeffs)
        # the lookup past the default cap reads the same DP
        assert a_kp(n_max, 3, p, cap=n_max) == a_table[n_max]
    assert B[2] == list(b_table.coeffs)
    assert b_k(n_max, 3, cap=n_max) == b_table[n_max]


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


def test_overpartition_marked_defaults_to_no_color():
    obj = OverpartitionMarked((3, 3), 3)
    assert obj.colored is None
    assert obj == OverpartitionMarked(base=(3, 3), overlined=3, colored=None)
    colored = OverpartitionMarked((3, 3), 3, 3)
    assert obj != colored
    assert len({obj, OverpartitionMarked((3, 3), 3), colored}) == 2


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
    counts = overpartition_counts(25, range(1, 6))
    for k in range(1, 6):
        overlined, colored = counts[k]
        assert (overlined[0], colored[0]) == (0, 0)
        for n in range(1, 26):
            total = sum(o.overlined for o in overpartitions_p(n, k))
            count = sum(1 for _ in overpartitions_a(n, k))
            assert (overlined[n], colored[n]) == (total, count), (n, k)


def test_overpartition_counts_fit_their_fields_at_the_largest_golden_cap():
    # the walk packs the per-k counters into fields of one int; a field
    # that overflowed would carry into its neighbour and break P1 or P3.
    # enum cap 45 with k 1..6 is the largest a verify golden runs
    n_max, ks = 45, range(1, 7)
    A = stat_sum_tables(n_max, max(ks))[0]
    counts = overpartition_counts(n_max, ks)
    for k in ks:
        overlined, colored = counts[k]
        for n in range(n_max + 1):
            assert overlined[n] == A[k - 1][0][n], (k, n)
            assert overlined[n] == k * colored[n], (k, n)


def test_overpartition_domain():
    with pytest.raises(ValueError):
        list(overpartitions_p(0, 2))
    with pytest.raises(ValueError):
        list(overpartitions_a(3, 0))
    with pytest.raises(ValueError):
        overpartition_counts(-1, [1])
    assert overpartition_counts(0, [1, 3]) == {1: ((0,), (0,)), 3: ((0,), (0,))}
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

    table = mp_ell_table(3, 21).coeffs
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
