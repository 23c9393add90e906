"""Verification suites: spot cells, passing grids, fault injection,
report plumbing."""

import hashlib
from collections import Counter

import pytest

from oracles import (
    geometric_kernel,
    golden,
    golden_digests,
    theta_remainder,
    theta_signed_sum,
)
from partitionlab import cli, enumeration, stats, verify
from partitionlab.series import TruncatedSeries, partition_gf
from partitionlab.cli import reports_to_json
from partitionlab.verify import RunConfig, run_all, uncorrected_exponent_report

# ---------------------------------------------------------------------------
# suite-level passes


def test_thmgf_passes():
    (report,) = run_all(RunConfig(20, (1, 4), enum_cap=20), suites={"thmgf"})
    assert report.passed and report.total > 0


def test_thmcomb_passes():
    (report,) = run_all(RunConfig(80, (1, 6)), suites={"thmcomb"})
    assert report.passed


@pytest.mark.parametrize("k,ell", [(1, 1), (2, 3), (3, 2), (4, 5)])
def test_trunc_passes(k, ell):
    (report,) = run_all(RunConfig(60, (k, k), (ell, ell)), suites={"trunc"})
    assert report.passed


def test_trunc_corollaries_pass():
    config = RunConfig(60, (1, 3), (1, 4))
    (report,) = run_all(config, suites={"trunc-corollaries"})
    assert report.passed


@pytest.mark.parametrize("k,ell", [(1, 1), (2, 2), (3, 1), (4, 3)])
def test_gen17_passes(k, ell):
    (report,) = run_all(RunConfig(60, (k, k), (ell, ell)), suites={"gen17"})
    assert report.passed


def test_overpartition_identities_pass():
    config = RunConfig(20, (1, 3), enum_cap=20)
    (report,) = run_all(config, suites={"overpartitions"})
    assert report.passed


def test_m_routes_pass():
    (report,) = run_all(RunConfig(80, ell_range=(1, 4)), suites={"m-routes"})
    assert report.passed


# ---------------------------------------------------------------------------
# spot cells


def test_trunc_spot_cell_6_3_1():
    # n=6, k=3, ell=1: lhs = b_3(6) - b_3(5) - 6/3, rhs = 1*M_1(3) + 2*M_1(0)
    b3 = stats.b_k_table(3, 6)
    m1 = stats.m_ell_table(1, 6)
    lhs = b3[6] - b3[5] - 2
    rhs = 1 * m1[3] + 2 * m1[0]
    assert lhs == rhs == 1
    (report,) = run_all(RunConfig(6, (3, 3), (1, 1)), suites={"trunc"})
    assert report.passed


def test_trunc_zero_below_first_window():
    # tiny n, and k above n_max: both sides are empty sums
    (report,) = run_all(RunConfig(4, (5, 5), (2, 2)), suites={"trunc"})
    assert report.passed
    assert report.total == 5


def test_bilateral_sum_spot_values():
    # k=3: at n=6 the bilateral alternating sum equals 6/3 = 2, and it
    # vanishes whenever 3 does not divide n
    b3 = stats.b_k_table(3, 30)
    def bilateral(n):
        total = 0
        j = 0
        while True:
            g1 = j * (3 * j - 1) // 2
            g2 = j * (3 * j + 1) // 2
            if g1 > n and g2 > n:
                break
            s = -1 if j % 2 else 1
            if g1 <= n:
                total += s * b3[n - g1]
            if j and g2 <= n:
                total += s * b3[n - g2]
            j += 1
        return total

    assert bilateral(6) == 2
    for n in range(1, 30):
        if n % 3:
            assert bilateral(n) == 0


def test_trunc_expression_vanishes_beyond_pentagonal_support():
    # once ell exceeds every j with a pentagonal number <= n, the
    # truncated sum is the full bilateral one, so the whole signed
    # expression collapses to exactly zero
    for k in (2, 3):
        lhs = verify.PENTAGONAL.lhs(stats.TableStore(), k, 10, 30)
        assert lhs == [0] * 31
    (report,) = run_all(RunConfig(30, (2, 2), (10, 10)), suites={"trunc"})
    assert report.passed


def test_gen17_spot_cell_3_1_9():
    b3 = stats.b_k_table(3, 9)
    c3 = stats.c_k_table(3, 9)
    mp1 = stats.mp_ell_table(1, 9)
    lhs = b3[9] - b3[8] - c3[9]
    rhs = sum(c3[j] * mp1[9 - j] for j in range(10))
    assert lhs == rhs == 4


@pytest.mark.parametrize("n_max", [60, 240])
def test_theta_remainder_matches_its_dense_sum(n_max):
    # the remainder regrouped as (Q(q^2) MP_ell) * q^k/(1-q^k)^2, one dense
    # product per ell, against sum_j c_k(j) MP_ell(n - j) term by term
    tables = stats.TableStore()
    for k in range(1, 6):
        for ell in range(1, 4):
            remainder = verify.TRIANGULAR.remainder(tables, k, ell, n_max)
            assert remainder == theta_remainder(k, ell, n_max).coeffs, (k, ell)


THETA_FAMILIES = (
    "PENTAGONAL",
    "TRIANGULAR",
    "TRIANGULAR_UNCORRECTED",
    "TRIANGULAR_INDICATOR",
)


@pytest.mark.parametrize("n_max", [0, 1, 30])
@pytest.mark.parametrize("name", THETA_FAMILIES)
def test_running_sums_match_the_signed_sum_of_their_definition(name, n_max):
    # lhs and bilateral_sum read one running sum per family and k, which
    # adds each ell's new terms to the last; the oracle sums js(ell) term
    # by term, and js(n_max + 1) holds every term of degree <= n_max.  At
    # n_max = 30, ell = 6 lies past the last pentagonal term.  A run's
    # store, read from ell 1 up, and a bare store, read from ell 6 down,
    # keep the sum alike and give the same sides
    family = getattr(verify, name)
    for k in (1, 2, 5):
        run = stats.TableStore(RunConfig(n_max, (k, k), (1, 6)).series_order())
        for tables, ells in ((run, range(1, 7)), (stats.TableStore(), range(6, 0, -1))):
            main = family.main(tables, k, n_max)
            for ell in ells:
                sums = theta_signed_sum(family, k, ell, n_max)
                sign = 1 if ell % 2 else -1
                expected = [sign * (s - m) for s, m in zip(sums, main)]
                assert family.lhs(tables, k, ell, n_max) == expected, (k, ell)
            bilateral = theta_signed_sum(family, k, n_max + 1, n_max)
            assert family.bilateral_sum(tables, k, n_max) == bilateral, k


def test_a_run_builds_one_running_sum_per_family_and_k(monkeypatch):
    # trunc and trunc-corollaries share PENTAGONAL's sums, and gen17 and
    # the bad-exponent witness TRIANGULAR's; the witness alone reads the
    # uncorrected sign, at k = 2
    names = {getattr(verify, name): name for name in THETA_FAMILIES}
    builds = Counter()
    real = verify.ThetaFamily.running_sums

    def counting(family, tables, k, n_max):
        builds[(names[family], k)] += 1
        return real(family, tables, k, n_max)

    monkeypatch.setattr(verify.ThetaFamily, "running_sums", counting)
    assert all(r.passed for r in run_all(RunConfig()))
    assert sum(builds.values()) == 9
    assert set(builds.values()) == {1}
    assert Counter(name for name, _ in builds) == Counter(
        PENTAGONAL=4, TRIANGULAR=4, TRIANGULAR_UNCORRECTED=1
    )


def test_a_bare_store_builds_one_running_sum_per_family_and_k(monkeypatch):
    # every left side and the bilateral sum read the sums kept in the store
    # they are given, whichever store that is
    builds = Counter()
    real = verify.ThetaFamily.running_sums

    def counting(family, tables, k, n_max):
        builds[(family, k)] += 1
        return real(family, tables, k, n_max)

    monkeypatch.setattr(verify.ThetaFamily, "running_sums", counting)
    tables = stats.TableStore()
    families = [getattr(verify, name) for name in THETA_FAMILIES]
    for family in families:
        for k in (2, 3):
            for ell in (3, 1, 8, 2, 3):  # ell = 8 lies past the last term
                family.lhs(tables, k, ell, 30)
            family.bilateral_sum(tables, k, 30)
    assert builds == Counter({(family, k): 1 for family in families for k in (2, 3)})


def test_triangular_indicator_fails_where_c_k_is_nonzero_off_the_multiples():
    # restricting the main term to multiples of k breaks the identity and
    # its bilateral sum exactly where k does not divide n and c_k(n) != 0:
    # nowhere for k <= 2 (c_2 vanishes on odd n), first at k=3, n=5
    family, n_max = verify.TRIANGULAR_INDICATOR, 60
    tables = stats.TableStore(n_max)
    first = {}
    for k in range(1, 6):
        c_k = stats.c_k_table(k, n_max)
        expected = [n for n in range(n_max + 1) if n % k and c_k[n]]
        infsum = family.bilateral_sum(tables, k, n_max)
        main = family.main(tables, k, n_max)
        assert [n for n in range(n_max + 1) if infsum[n] != main[n]] == expected
        for ell in range(1, 4):
            lhs = family.lhs(tables, k, ell, n_max)
            rhs = family.remainder(tables, k, ell, n_max)
            assert [n for n in range(n_max + 1) if lhs[n] != rhs[n]] == expected
        first[k] = expected[:1]
    assert first == {1: [], 2: [], 3: [5], 4: [6], 5: [7]}


def test_a_fourth_theta_family_is_one_suites_row(monkeypatch):
    # the indicator variant in gen17's row, under gen17's ids, fails the
    # README's diagnostic cells: k=3, n = 5, 7, 8, 10, on the identity
    # and its bilateral sum, and nowhere else
    _, describe = verify.SUITES["gen17"]
    cells = verify._theta_cells(
        verify.TRIANGULAR_INDICATOR, "Gen17-eq", "Gen17-nonneg", "Gen17-infsum", True
    )
    monkeypatch.setitem(verify.SUITES, "gen17", (cells, describe))
    (report,) = run_all(RunConfig(10, (3, 3), (1, 1)), suites={"gen17"})
    assert report.total == 33
    failed = [(c.identity_id, c.params["n"]) for c in report.failures]
    expected = [(id_, n) for id_ in ("Gen17-eq", "Gen17-infsum") for n in (5, 7, 8, 10)]
    assert failed == expected


def test_gen17_displayed_indicator_variant_fails_for_k3():
    # restricting the subtrahend to multiples of k breaks the identity
    # as soon as c_k is nonzero off the multiples; first cell: k=3, n=5
    family, tables = verify.TRIANGULAR_INDICATOR, stats.TableStore(10)
    lhs = family.lhs(tables, 3, 1, 10)
    rhs = family.remainder(tables, 3, 1, 10)
    assert [n for n in range(11) if lhs[n] != rhs[n]][0] == 5


def test_gen17_indicator_variant_is_identical_for_k2():
    # c_2 vanishes on odd arguments, so the indicator is a no-op there
    family, tables = verify.TRIANGULAR_INDICATOR, stats.TableStore(40)
    indicator_main = family.main(tables, 2, 40)
    assert indicator_main == list(verify.TRIANGULAR.main(tables, 2, 40))
    lhs = family.lhs(tables, 2, 2, 40)
    assert list(lhs) == list(family.remainder(tables, 2, 2, 40))


# ---------------------------------------------------------------------------
# the exponent correction


def test_bad_exponent_witness():
    witness = uncorrected_exponent_report(60, 3).first_failure
    assert witness.params == {"k": 2, "ell": 2, "n": 5}


def test_bad_exponent_absent_for_ell_1():
    # with ell=1 the two sign rules coincide on j in {0, 1}
    assert uncorrected_exponent_report(120, 1).first_failure is None


def test_uncorrected_exponent_report_collects_failures():
    report = uncorrected_exponent_report(30, 2)
    assert not report.passed
    first = report.failures[0]
    assert (first.params["n"], first.params["ell"]) == (5, 2)


def test_bad_exponent_witness_report_passes_when_witness_exists():
    config = RunConfig(60, ell_range=(1, 3))
    (report,) = run_all(config, suites={"bad-exponent"})
    assert report.passed
    assert report.total == 1


# ---------------------------------------------------------------------------
# fault injection


def corrupt_b_tables(monkeypatch):
    # every b_k table reads one too many at n = 7
    real = stats.b_k_table

    def corrupted(k, n_max, **kwargs):
        values = list(real(k, n_max, **kwargs).coeffs)
        if len(values) > 7:
            values[7] += 1
        return TruncatedSeries(values)

    monkeypatch.setattr(stats, "b_k_table", corrupted)


def test_injected_fault_breaks_dependent_suites_only(monkeypatch):
    corrupt_b_tables(monkeypatch)
    (trunc,) = run_all(RunConfig(30, (2, 2), (1, 1)), suites={"trunc"})
    (thmgf,) = run_all(RunConfig(12, (1, 2), enum_cap=12), suites={"thmgf"})
    assert not trunc.passed and not thmgf.passed
    # suites that never touch the b tables stay green
    (m_routes,) = run_all(RunConfig(30, ell_range=(1, 2)), suites={"m-routes"})
    config = RunConfig(10, (2, 2), enum_cap=10)
    (overpartitions,) = run_all(config, suites={"overpartitions"})
    assert m_routes.passed and overpartitions.passed


# reports_to_json under corrupt_b_tables, captured before the
# theta-family generators were merged: it pins which cells fail, their
# sides and their order, which the all-pass goldens cannot see
FAILING_CELL_ORDER = [
    pytest.param(
        lambda: run_all(
            RunConfig(n_max=30, enum_cap=12),
            suites={"trunc", "trunc-corollaries", "gen17", "bad-exponent"},
        ),
        "failing-theta-suites.json",
        id="theta-suites",
    ),
    pytest.param(
        lambda: [uncorrected_exponent_report(30, 3)],
        "failing-uncorrected-exponent.json",
        id="uncorrected-exponent",
    ),
]


@pytest.mark.parametrize("reports,name", FAILING_CELL_ORDER)
def test_failing_cells_keep_their_order(monkeypatch, reports, name):
    corrupt_b_tables(monkeypatch)
    assert reports_to_json(reports()) == golden(name)


@pytest.mark.parametrize("k,ell,i", [(1, 1, 0), (2, 3, 7), (3, 2, 12)])
def test_corrupted_m_entry_fails_trunc_from_i_plus_k(monkeypatch, k, ell, i):
    # the right side sum_j j M_ell(n - kj) reads M_ell(i) exactly at
    # n = i + kj, j >= 1, so the sweep fails there and nowhere else
    real = stats.m_ell_table

    def corrupted(ell_, n_max, **kwargs):
        values = list(real(ell_, n_max, **kwargs).coeffs)
        values[i] += 1
        return TruncatedSeries(values)

    monkeypatch.setattr(stats, "m_ell_table", corrupted)
    (report,) = run_all(RunConfig(30, (k, k), (ell, ell)), suites={"trunc"})
    assert report.first_failure.params == {"k": k, "ell": ell, "n": i + k}
    assert [c.params["n"] for c in report.failures] == list(range(i + k, 31, k))


@pytest.mark.parametrize("k,ell,i", [(1, 1, 3), (2, 2, 10), (3, 1, 4), (3, 3, 21)])
def test_corrupted_mp_entry_fails_gen17_from_i_plus_k(monkeypatch, k, ell, i):
    # the right side sum_j c_k(j) MP_ell(n - j) reads MP_ell(i) exactly at
    # n = i + j with c_k(j) != 0, the first such j being k; the left side
    # and the bilateral sum read no MP_ell, so only Gen17-eq fails
    real = stats.mp_ell_table

    def corrupted(ell_, n_max, **kwargs):
        values = list(real(ell_, n_max, **kwargs).coeffs)
        values[i] += 1
        return TruncatedSeries(values)

    monkeypatch.setattr(stats, "mp_ell_table", corrupted)
    (report,) = run_all(RunConfig(30, (k, k), (ell, ell)), suites={"gen17"})
    c_k = stats.c_k_table(k, 30)
    assert {c.identity_id for c in report.failures} == {"Gen17-eq"}
    assert report.first_failure.params == {"k": k, "ell": ell, "n": i + k}
    assert [c.params["n"] for c in report.failures] == [
        i + j for j in range(31 - i) if c_k[j] != 0
    ]


def test_dropped_partition_breaks_overpartition_identities_only(monkeypatch):
    # P1 sets the overpartition walk against the part-value DP behind a_k,
    # which walks no partition; losing one partition of 7 from the walk
    # must fail P1, and leave a suite that never walks it green.  The
    # walk's rows are the sums of what each partition carries, so the
    # partition (4, 3) is dropped by taking its share out of row 7: for
    # each k, the overlined total and d^2 + t of its distinct values
    # divisible by k (d of them, t repeated)
    real = enumeration.overpartition_counts
    mults = Counter((4, 3))

    def dropping(n_max, ks):
        counts = real(n_max, ks)
        if n_max < 7:
            return counts
        for k, (overlined, colored) in counts.items():
            values = [v for v in mults if v % k == 0]
            d, t = len(values), sum(1 for v in values if mults[v] > 1)
            overlined, colored = list(overlined), list(colored)
            overlined[7] -= sum(values)
            colored[7] -= d * d + t
            counts[k] = (tuple(overlined), tuple(colored))
        return counts

    monkeypatch.setattr(enumeration, "overpartition_counts", dropping)
    config = RunConfig(10, (1, 1), enum_cap=10)
    (report,) = run_all(config, suites={"overpartitions"})
    assert not report.passed
    first = report.first_failure
    assert (first.identity_id, first.params) == ("P1", {"k": 1, "n": 7})
    assert run_all(RunConfig(10, (1, 2)), suites={"thmcomb"})[0].passed


# ---------------------------------------------------------------------------
# fault coverage: every table and base series a store serves


def corrupt_store_entry(monkeypatch, target, n):
    """Make every run's TableStore add 1 to entry n of each table or base
    series named target that it builds."""

    class CorruptingStore(stats.TableStore):
        def _build(self, name, args):
            built = super()._build(name, args)
            if name != target or len(built) <= n:
                return built
            coeffs = list(built.coeffs)
            coeffs[n] += 1
            return TruncatedSeries(coeffs)

    monkeypatch.setattr(stats, "TableStore", CorruptingStore)


# every name a store serves: the base series and every table builder
STORE_NAMES = sorted(stats.BASE_SERIES | set(stats.BUILDERS))
# (name, n) whose corruption fails no cell of verify all at the default
# config.  No suite reads Q or p; a corrupted MP base at n = 5 makes
# mp_ell_table raise its negativity ArithmeticError instead.  The set may
# only shrink
EXPECTED_MISSES = {
    ("distinct_parts_gf", 5),
    ("distinct_parts_gf", 45),
    ("p_table", 5),
    ("p_table", 45),
    ("q_table", 5),
    ("q_table", 45),
    ("mp_base_gf", 5),
}


CORRUPTED_ENTRIES = [5, 45]

GEN17 = {"Gen17-eq", "Gen17-infsum"}
TRUNC = {"Trunc-eq", "Trunc-infsum"}
THMGF = {"ThmGF-a", "ThmGF-ap", "ThmGF-b"}
NONNEG = {"Gen17-nonneg", "Trunc-nonneg"}
# (name, n) -> the identities whose cells its corruption fails at the
# default config.  A set may only grow.  At n = 45 nothing reaches ThmGF
# or P2, which stop at the enum cap 30
FAILED_IDENTITIES = {
    ("a_kp_table", 5): {"ThmComb-1", "ThmComb-2", "ThmGF-a", "ThmGF-ap"},
    ("a_kp_table", 45): {"ThmComb-1", "ThmComb-2"},
    ("b_k_table", 5): {"ThmComb-1", "ThmComb-2", "ThmGF-b"} | GEN17 | TRUNC | NONNEG,
    ("b_k_table", 45): {"ThmComb-1", "ThmComb-2"} | GEN17 | TRUNC,
    ("c_k_table", 5): GEN17 | {"Gen17-nonneg"},
    ("c_k_table", 45): GEN17,
    ("m_ell_table", 5): {"PfT2", "Trunc-eq"},
    ("m_ell_table", 45): {"PfT2", "Trunc-eq"},
    ("m_ell_table_pdiff", 5): {"PfT2"},
    ("m_ell_table_pdiff", 45): {"PfT2"},
    ("mp_base_gf", 45): {"Gen17-eq"},
    ("mp_ell_table", 5): {"Gen17-eq"},
    ("mp_ell_table", 45): {"Gen17-eq"},
    ("partition_gf", 5): {"P2", "PfT2"} | THMGF | GEN17 | TRUNC | NONNEG,
    ("partition_gf", 45): {"PfT2"} | GEN17 | TRUNC,
    ("q2_mp_ell_table", 5): {"Gen17-eq"},
    ("q2_mp_ell_table", 45): {"Gen17-eq"},
    ("q_squared_gf", 5): GEN17 | {"Gen17-nonneg"},
    ("q_squared_gf", 45): GEN17,
}


def test_expected_misses_are_cases_of_the_matrix():
    cases = {(name, n) for name in STORE_NAMES for n in CORRUPTED_ENTRIES}
    assert EXPECTED_MISSES <= cases
    assert set(FAILED_IDENTITIES) == cases - EXPECTED_MISSES


@pytest.mark.parametrize("n", CORRUPTED_ENTRIES)
@pytest.mark.parametrize("name", STORE_NAMES)
def test_a_corrupted_store_entry_fails_a_cell(monkeypatch, name, n):
    corrupt_store_entry(monkeypatch, name, n)
    try:
        failed = {c.identity_id for r in run_all(RunConfig()) for c in r.failures}
    except ArithmeticError:
        failed = set()
    assert (not failed) == ((name, n) in EXPECTED_MISSES), failed
    assert FAILED_IDENTITIES.get((name, n), set()) <= failed, failed


def add_one_at(value, path):
    """A copy of value, nested lists, tuples and dicts, with 1 added at
    value[path[0]][path[1]]...; each level keeps its type."""
    head, *rest = path
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[head] = add_one_at(copy[head], rest) if rest else copy[head] + 1
    return type(value)(copy)


def add_one_at_each(value, paths):
    for path in paths:
        value = add_one_at(value, path)
    return value


# an enumeration source, the paths of the entries to corrupt, at k = 2
# and n = 7 (k = 3, p = 1 for a residue), and the failing cells those
# entries feed, as (identity, params) in report order: stat_sum_tables
# returns (A, B) with A[k-1][p][n] and B[k-1][n], overpartition_counts
# {k: (overlined, colored)}.  B and A fail two rows of one thmgf block,
# whose cells run by n, then by row: at one n ThmGF-b comes before
# ThmGF-a, and ThmGF-a at n = 7 before ThmGF-b at n = 8
K2N7, K3P1N7 = {"k": 2, "n": 7}, {"k": 3, "p": 1, "n": 7}
ENUMERATION_FAULTS = [
    pytest.param(
        "stat_sum_tables", [(0, 1, 0, 7)], [("ThmGF-a", K2N7), ("P1", K2N7)], id="A"
    ),
    pytest.param(
        "stat_sum_tables", [(0, 2, 1, 7)], [("ThmGF-ap", K3P1N7)], id="A-residue"
    ),
    pytest.param("stat_sum_tables", [(1, 1, 7)], [("ThmGF-b", K2N7)], id="B"),
    pytest.param(
        "stat_sum_tables",
        [(0, 1, 0, 7), (1, 1, 7)],
        [("ThmGF-b", K2N7), ("ThmGF-a", K2N7), ("P1", K2N7)],
        id="A-and-B",
    ),
    pytest.param(
        "stat_sum_tables",
        [(0, 1, 0, 7), (1, 1, 8)],
        [("ThmGF-a", K2N7), ("ThmGF-b", {"k": 2, "n": 8}), ("P1", K2N7)],
        id="A-then-B",
    ),
    pytest.param(
        "overpartition_counts",
        [(2, 0, 7)],
        [("P1", K2N7), ("P3", K2N7)],
        id="overlined",
    ),
    pytest.param(
        "overpartition_counts",
        [(2, 1, 7)],
        [("P2", K2N7), ("P3", K2N7)],
        id="colored",
    ),
]


@pytest.mark.parametrize("source,paths,failures", ENUMERATION_FAULTS)
def test_a_corrupted_enumeration_entry_fails_its_identities(
    monkeypatch, source, paths, failures
):
    real = getattr(enumeration, source)
    monkeypatch.setattr(
        enumeration, source, lambda *args: add_one_at_each(real(*args), paths)
    )
    reports = run_all(RunConfig())
    assert [(c.identity_id, c.params) for r in reports for c in r.failures] == failures


def identity_ids(config):
    """The identity id of every row that the cells of verify.SUITES yield."""
    tables = stats.TableStore(config.series_order())
    return {
        row[0]
        for cells, _ in verify.SUITES.values()
        for block in cells(tables, config)
        for row in block
    }


def test_every_identity_but_the_witness_fails_under_some_corruption():
    # BadExponent is the witness meta-check: its one cell fails only when
    # no cell of the uncorrected sign fails, not when a value is wrong
    failed = set().union(
        *FAILED_IDENTITIES.values(),
        *({identity for identity, _ in p.values[2]} for p in ENUMERATION_FAULTS),
    )
    ids = identity_ids(RunConfig())
    assert "BadExponent" in ids
    assert failed == ids - {"BadExponent"}


# `verify all --format json` with one store entry corrupted, captured
# while every cell was still an IdentityCase: the order, params and sides
# of every failure, which the all-pass goldens cannot see.  A wrong P
# fails cells of every suite that reads it (373 KB, kept as its sha256),
# a wrong MP_ell only through the theta remainder
FAILING_RUN_GOLDENS = [
    pytest.param(
        "partition_gf", 5, "failing-run-partition_gf-5.json", id="partition_gf-5"
    ),
    pytest.param(
        "mp_ell_table", 45, "failing-run-mp_ell_table-45.json", id="mp_ell_table-45"
    ),
]


@pytest.mark.parametrize("target,n,name", FAILING_RUN_GOLDENS)
def test_verify_all_with_a_corrupted_store_entry_is_golden(
    monkeypatch, capsys, target, n, name
):
    corrupt_store_entry(monkeypatch, target, n)
    assert cli.main(["verify", "all", "--format", "json"]) == cli.EXIT_FAILURES
    out = capsys.readouterr().out
    digests = golden_digests()
    if name in digests:
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digests[name]
    else:
        assert out == golden(name)


def test_verify_all_with_a_corrupted_partition_series_exits_1(monkeypatch, capsys):
    # a wrong P is a failed identity, not an internal inconsistency
    corrupt_store_entry(monkeypatch, "partition_gf", 5)
    assert cli.main(["verify", "all"]) == cli.EXIT_FAILURES == 1
    assert capsys.readouterr().err == ""


# ---------------------------------------------------------------------------
# the table store of a run

SUITES_READING_B = ("thmgf", "thmcomb", "trunc", "trunc-corollaries", "gen17")


def count_table_builds(monkeypatch):
    """Wrap every stats.BUILDERS table builder; return the Counter of its
    (name, args) calls."""
    builds = Counter()

    def counting(name, real):
        def wrapper(*args, **kwargs):
            builds[(name, args)] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in stats.BUILDERS:
        monkeypatch.setattr(stats, name, counting(name, getattr(stats, name)))
    return builds


def test_run_all_builds_each_table_once(monkeypatch):
    builds = count_table_builds(monkeypatch)
    reports = run_all(RunConfig(n_max=60, k_range=(1, 5)))
    assert all(r.passed for r in reports)
    repeated = {key: n for key, n in builds.items() if n > 1}
    assert repeated == {}
    m_builds = sorted(args for (name, args) in builds if name == "m_ell_table")
    assert m_builds == [(1, 60), (2, 60), (3, 60)]
    # the suites that read b_k share its table at n_max
    assert builds[("b_k_table", (3, 60))] == 1
    # gen17 and bad-exponent share one Q(q^2) * MP_ell product per ell
    q2_builds = sorted(args for (name, args) in builds if name == "q2_mp_ell_table")
    assert q2_builds == [(1, 60), (2, 60), (3, 60)]


class Unmultiplied(TruncatedSeries):
    """A series that refuses to be a factor of a dense product."""

    __slots__ = ()

    def __mul__(self, other):
        raise AssertionError("a c_k table is a factor of a dense product")

    __rmul__ = __mul__


def test_no_suite_multiplies_c_k(monkeypatch):
    # the theta remainder reads c_k * MP_ell as k_weighted(Q(q^2) MP_ell),
    # so no c_k table enters a product, on either side, nor the indicator
    # variant's main term
    real = stats.c_k_table

    def unmultiplied(*args, **kwargs):
        return Unmultiplied(real(*args, **kwargs).coeffs)

    monkeypatch.setattr(stats, "c_k_table", unmultiplied)
    reports = run_all(RunConfig(n_max=60, k_range=(1, 5)))
    assert all(r.passed for r in reports)
    assert not uncorrected_exponent_report(30, 3).passed
    indicator, tables = verify.TRIANGULAR_INDICATOR, stats.TableStore(12)
    assert indicator.lhs(tables, 3, 1, 12) != indicator.remainder(tables, 3, 1, 12)
    assert indicator.main(tables, 3, 12)[5] == 0


def count_identity_cases(monkeypatch):
    """Count every IdentityCase that verify builds."""
    made = Counter()

    class Counted(verify.IdentityCase):
        __slots__ = ()

        def __new__(cls, *args):
            made[args[0]] += 1
            return super().__new__(cls, *args)

    monkeypatch.setattr(verify, "IdentityCase", Counted)
    return made


def test_only_a_failing_cell_becomes_an_identity_case(monkeypatch):
    made = count_identity_cases(monkeypatch)
    config = RunConfig(n_max=30, enum_cap=12)
    # bad-exponent scans the raw cells of the uncorrected sign, which fail
    # by design, for its witness without making a case of any
    assert all(r.passed for r in run_all(config))
    assert made == Counter()
    raw = uncorrected_exponent_report(30, 3)
    assert made == Counter(BadExponent=len(raw.failures)) != Counter()
    made.clear()
    corrupt_b_tables(monkeypatch)
    reports = run_all(config)
    failures = Counter(c.identity_id for r in reports for c in r.failures)
    assert failures and made == failures
    assert all(c.lhs != c.rhs for r in reports for c in r.failures)


def test_store_serves_every_suite_that_reads_b(monkeypatch):
    corrupt_b_tables(monkeypatch)
    reports = {r.suite_id: r for r in run_all(RunConfig(n_max=30, enum_cap=12))}
    for sid in SUITES_READING_B:
        assert not reports[sid].passed, sid
    assert reports["m-routes"].passed
    assert reports["overpartitions"].passed


def test_no_table_outlives_a_run(monkeypatch):
    config = RunConfig(n_max=20, enum_cap=10)
    assert all(r.passed for r in run_all(config))
    corrupt_b_tables(monkeypatch)
    reports = {r.suite_id: r for r in run_all(config)}
    assert all(not reports[sid].passed for sid in SUITES_READING_B)
    monkeypatch.undo()
    assert all(r.passed for r in run_all(config))


def test_a_run_makes_one_statistic_sum_pass(monkeypatch):
    # thmgf and overpartitions read one stat_sum_tables pass of their
    # run, and a run of neither makes none
    calls = Counter()
    real = enumeration.stat_sum_tables

    def counting(n_max, k_max):
        calls[(n_max, k_max)] += 1
        return real(n_max, k_max)

    monkeypatch.setattr(enumeration, "stat_sum_tables", counting)
    assert all(r.passed for r in run_all(RunConfig()))
    assert calls == Counter({(30, 4): 1})
    calls.clear()
    config = RunConfig(n_max=20, k_range=(2, 3), enum_cap=12)
    assert run_all(config, suites={"overpartitions"})[0].passed
    assert calls == Counter({(12, 3): 1})
    calls.clear()
    assert run_all(config, suites={"trunc", "thmcomb"})[0].passed
    assert calls == Counter()


def test_no_statistic_sum_outlives_a_run(monkeypatch):
    # thmgf and P1 read the a/b values from a stat_sum_tables pass of
    # their own run, so a DP corrupted between runs fails the next run
    # exactly at the cells it corrupts, and undoing it clears them
    config = RunConfig(n_max=20, enum_cap=12)
    assert all(r.passed for r in run_all(config))
    real = enumeration.stat_sum_tables

    def corrupted(n_max, k_max):
        A, B = real(n_max, k_max)
        A[1][0][7] += 1  # a_2(7)
        B[1][7] += 1  # b_2(7)
        return A, B

    monkeypatch.setattr(enumeration, "stat_sum_tables", corrupted)
    failures = [
        (r.suite_id, c.identity_id, c.params)
        for r in run_all(config)
        for c in r.failures
    ]
    cell = {"k": 2, "n": 7}
    assert failures == [
        ("thmgf", "ThmGF-b", cell),
        ("thmgf", "ThmGF-a", cell),
        ("overpartitions", "P1", cell),
    ]
    monkeypatch.undo()
    assert all(r.passed for r in run_all(config))


def count_partition_series_builds(monkeypatch):
    """Wrap stats.partition_gf, where the store and the table builders
    look it up; return the Counter of its orders."""
    builds = Counter()
    real = stats.partition_gf

    def counting(order):
        builds[order] += 1
        return real(order)

    monkeypatch.setattr(stats, "partition_gf", counting)
    return builds


def test_run_all_builds_the_partition_series_once_per_order(monkeypatch):
    builds = count_partition_series_builds(monkeypatch)
    reports = run_all(RunConfig(n_max=240, k_range=(1, 5)))
    assert all(r.passed for r in reports)
    # thmcomb reads the largest order, 240 + k + 1 for k = 5; thmgf and
    # overpartitions (order 30, the enum cap), trunc, gen17 and m-routes
    # (order 240) and thmcomb at the smaller k read prefixes of that one
    assert builds == Counter({246: 1})


def test_a_single_suite_builds_the_partition_series_once(monkeypatch):
    # a single-suite run reads k = 1..4 at orders 62..65 and builds P
    # once, at the largest, serving the others as prefixes
    builds = count_partition_series_builds(monkeypatch)
    assert run_all(RunConfig(60, (1, 4)), suites={"thmcomb"})[0].passed
    assert builds == Counter({65: 1})


def test_run_all_builds_the_c_and_mp_bases_once(monkeypatch):
    # Q(q^2), read by every c_k, and the MP base, read by every MP_ell,
    # are built once per run, as P is, at the largest order any suite
    # reads (thmcomb's 60 + 5 + 1); gen17 reads prefixes of them
    builds = Counter()
    for name in ("q_squared_gf", "mp_base_gf"):

        def counting(order, name=name, real=getattr(stats, name)):
            builds[(name, order)] += 1
            return real(order)

        monkeypatch.setattr(stats, name, counting)
    reports = run_all(RunConfig(n_max=60, k_range=(1, 5)))
    assert all(r.passed for r in reports)
    assert builds == Counter({("q_squared_gf", 66): 1, ("mp_base_gf", 66): 1})


def test_store_serves_a_smaller_order_as_an_exact_prefix():
    tables = stats.TableStore(50)
    for name in ("partition_gf", "q_squared_gf", "mp_base_gf"):
        assert tables.get(name, 20) == getattr(stats, name)(20), name
    # an order above the store's is built at that order
    assert tables.get("partition_gf", 70) == partition_gf(70)


def test_no_partition_series_outlives_a_run(monkeypatch):
    # the store of each run builds its own series, so one patched between
    # two runs reaches every table built from it in the next run, and
    # P2's series too.  Each is p(n) times a factor of positive degree, so
    # the doctored p(7) shows from n = 8 on
    config = RunConfig(n_max=20, enum_cap=12)
    suites = {"thmgf", "overpartitions"}
    assert all(r.passed for r in run_all(config, suites))
    real = stats.partition_gf

    def doctored(order):
        coeffs = list(real(order).coeffs)
        coeffs[7] += 1
        return TruncatedSeries(coeffs)

    monkeypatch.setattr(stats, "partition_gf", doctored)
    failures = [c for r in run_all(config, suites) for c in r.failures]
    assert {c.identity_id for c in failures} == {"ThmGF-b", "ThmGF-a", "ThmGF-ap", "P2"}
    assert min(c.params["n"] for c in failures) == 8
    monkeypatch.undo()
    assert all(r.passed for r in run_all(config, suites))


@pytest.mark.parametrize("n_max", [0, 1, 2, 5, 60, 240, 500])
def test_colored_object_series_matches_its_convolution(n_max):
    gf = partition_gf(n_max)
    for k in range(1, 7):
        oracle = (geometric_kernel(k, n_max) * gf).coeffs
        assert stats.k_weighted(gf, k).coeffs == oracle, k


def test_table_store_builds_on_first_request_only(monkeypatch):
    builds = count_table_builds(monkeypatch)
    tables = stats.TableStore()
    first = tables.get("m_ell_table", 2, 30)
    assert tables.get("m_ell_table", 2, 30) is first
    assert tables.get("m_ell_table", 2, 31) is not first
    assert builds == Counter({("m_ell_table", (2, 30)): 1, ("m_ell_table", (2, 31)): 1})
    # every run makes its own store
    assert run_all(RunConfig(30, ell_range=(1, 2)), suites={"m-routes"})[0].passed
    assert builds[("m_ell_table", (2, 30))] == 2


# ---------------------------------------------------------------------------
# the suite registry


def full_run_row(suite_id, config, row_id=None):
    """A row of SINGLE_SUITE_RUNS: the suite's report from a run of every
    suite at config, over the one store that the suites share."""

    def in_a_full_run():
        (report,) = [r for r in run_all(config) if r.suite_id == suite_id]
        return report

    return pytest.param(in_a_full_run, config, id=row_id or suite_id)


# each row: a call that runs a suite inside a run of every suite, and
# the run_all config of that suite alone
SINGLE_SUITE_RUNS = [
    full_run_row("thmgf", RunConfig(n_max=36, k_range=(1, 3), enum_cap=36)),
    full_run_row("thmcomb", RunConfig(n_max=30, k_range=(1, 4))),
    full_run_row("trunc", RunConfig(n_max=30, k_range=(2, 2), ell_range=(3, 3))),
    full_run_row(
        "trunc-corollaries", RunConfig(n_max=30, k_range=(3, 3), ell_range=(1, 4))
    ),
    full_run_row("gen17", RunConfig(n_max=30, k_range=(3, 3), ell_range=(2, 2))),
    full_run_row("overpartitions", RunConfig(n_max=32, k_range=(2, 2), enum_cap=32)),
    full_run_row("m-routes", RunConfig(n_max=30, ell_range=(1, 3))),
    full_run_row("bad-exponent", RunConfig(n_max=30, ell_range=(1, 3))),
    full_run_row(
        "bad-exponent", RunConfig(n_max=30, ell_range=(1, 1)), "bad-exponent-vacuous"
    ),
]


@pytest.mark.parametrize(
    "entry_point",
    [
        lambda: run_all(RunConfig(-1), suites={"thmgf"}),
        lambda: run_all(RunConfig(-1), suites={"thmcomb"}),
        lambda: run_all(RunConfig(-1), suites={"trunc"}),
        lambda: run_all(RunConfig(-1), suites={"trunc-corollaries"}),
        lambda: run_all(RunConfig(-1), suites={"gen17"}),
        lambda: run_all(RunConfig(-1), suites={"overpartitions"}),
        lambda: run_all(RunConfig(-1), suites={"m-routes"}),
        lambda: uncorrected_exponent_report(-1, 3),
        lambda: run_all(RunConfig(-1)),
    ],
    ids=[
        "thmgf",
        "thmcomb",
        "trunc",
        "trunc-corollaries",
        "gen17",
        "overpartitions",
        "m-routes",
        "uncorrected-exponent",
        "run-all",
    ],
)
def test_every_entry_point_rejects_negative_n_max(entry_point):
    # every public entry point checks its config as run_all does; none
    # returns an empty passing report
    with pytest.raises(ValueError, match="n_max must be >= 0"):
        entry_point()


@pytest.mark.parametrize("faulty", [False, True], ids=["clean", "faulty-b"])
@pytest.mark.parametrize("in_a_full_run,config", SINGLE_SUITE_RUNS)
def test_a_suite_reports_the_same_alone_and_in_a_full_run(
    monkeypatch, in_a_full_run, config, faulty
):
    # a suite reports the same inside a run of every suite as alone
    if faulty:
        corrupt_b_tables(monkeypatch)
    shared = in_a_full_run()
    (alone,) = run_all(config, suites={shared.suite_id})
    if shared.suite_id == "thmcomb":
        # thmcomb records no all_residues, as it never did
        assert "all_residues" not in shared.range_desc
    assert shared.range_desc == alone.range_desc
    assert (shared.total, shared.failures) == (alone.total, alone.failures)


def test_enum_cap_above_the_sweep_cap_reaches_the_oracle(monkeypatch):
    # the enumeration-backed suites read the part-value DP, which walks
    # no partition, so --enum-cap may exceed the sweep cap of the walks
    monkeypatch.setattr(enumeration, "PARTITION_SWEEP_CAP", 10)
    reports = {r.suite_id: r for r in run_all(RunConfig(n_max=20, enum_cap=15))}
    assert all(r.passed for r in reports.values())
    assert reports["thmgf"].range_desc["n_max"] == 15
    assert reports["overpartitions"].range_desc["n_max"] == 15


# ---------------------------------------------------------------------------
# run_all and reports


def test_run_all_default_passes():
    reports = run_all(RunConfig())
    assert [r.suite_id for r in reports] == list(verify.SUITE_ORDER)
    assert all(r.passed for r in reports)


def test_run_all_at_n240_is_golden():
    # the one golden in which trunc and m-routes read M_ell past order 60
    text = reports_to_json(run_all(RunConfig(n_max=240, k_range=(1, 5))))
    assert text == golden("verify-n240.json")


def test_export_at_n500_is_golden(capsys):
    # the tables-n500 benchmark export, whose bytes perfbench gates
    argv = "export --stats a,b,c,m,mp,q,p --k 1..5 --ell 3 --n-max 500"
    assert cli.main(argv.split()) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == golden_digests()["export-n500.json"]


def test_run_all_empty_ranges_pass():
    cfg = RunConfig(n_max=10, k_range=(2, 1), ell_range=(2, 1))
    reports = run_all(cfg)
    for r in reports:
        assert r.passed
        if r.suite_id != "bad-exponent":
            assert r.total == 0


def test_run_all_selected_suite():
    reports = run_all(RunConfig(n_max=20, enum_cap=10), suites={"trunc"})
    assert len(reports) == 1
    assert reports[0].suite_id == "trunc"


@pytest.mark.parametrize("suite", ["bad-exponent", "m-routes"])
def test_a_k_free_suite_reads_no_k(suite):
    # its cells and range are the same whatever the k range, also with k
    # above n_max
    narrow = run_all(RunConfig(n_max=12, k_range=(1, 1)), suites={suite})
    wide = run_all(RunConfig(n_max=12, k_range=(2, 20)), suites={suite})
    assert narrow == wide


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(n_max=-1).validate()
    # a k above n_max is a cell like any other
    RunConfig(n_max=2, k_range=(1, 5)).validate()


@pytest.mark.parametrize(
    "call,error,message",
    [
        (
            lambda: RunConfig(ell_range=(0, 2)).validate(),
            ValueError,
            "ell values must be >= 1",
        ),
        (
            lambda: RunConfig(enum_cap=-1).validate(),
            ValueError,
            "enum_cap must be >= 0",
        ),
        (
            lambda: RunConfig(k_range=(0, 2)).validate(),
            ValueError,
            "k values must be >= 1",
        ),
    ],
    ids=["ell", "enum-cap", "k"],
)
def test_run_config_rejects_bad_input(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_run_config_defaults_are_the_verify_cli_defaults():
    config = RunConfig()
    assert config == cli._build_config(cli.build_parser().parse_args(["verify", "all"]))
    assert (
        config.n_max,
        config.k_range,
        config.ell_range,
        config.enum_cap,
    ) == (60, (1, 4), (1, 3), 30)


def test_report_jsonable_reads_the_report_and_case_fields():
    case = verify.IdentityCase(identity_id="P1", params={"k": 2, "n": 5}, lhs=3, rhs=4)
    report = verify.VerificationReport(
        suite_id="overpartitions",
        range_desc={"n": [1, 5]},
        total=7,
        failures=[case],
    )
    assert "wall_time" not in verify.VerificationReport._fields
    assert not report.passed
    assert report.first_failure is case
    assert cli.report_jsonable(report) == {
        "suite": "overpartitions",
        "range": {"n": [1, 5]},
        "total": 7,
        "failed": 1,
        "failures": [
            {
                "identity": "P1",
                "params": {"k": 2, "n": 5},
                "lhs": 3,
                "rhs": 4,
            }
        ],
    }


def test_report_judges_a_row_by_its_rhs():
    # a list rhs is an equality check, even where lhs is negative; a row
    # whose rhs is None is a nonnegativity check, its failures recorded
    # against 0
    at = verify._at_n({}, 0)  # cell i is n = i
    rows = [
        ("eq-holds", at, [-1, 2], [-1, 2]),
        ("eq-fails", at, [1, 2], [1, 3]),
        ("ge-holds", at, [0, 5], None),
        ("ge-fails", at, [0, -1], None),
    ]
    report = verify._report("suite", {}, [rows])
    assert report.total == 8
    assert report.failures == [
        ("eq-fails", {"n": 1}, 2, 3),
        ("ge-fails", {"n": 1}, -1, 0),
    ]
    assert verify.IdentityCase._fields == ("identity_id", "params", "lhs", "rhs")
    assert all("passed" not in cli.case_jsonable(c) for c in report.failures)


def test_report_json_big_integers_become_strings():
    big = 1 << 60
    case = verify.IdentityCase("Trunc-eq", {"n": 1}, big, big + 1)
    payload = cli.case_jsonable(case)
    assert payload["lhs"] == str(big)
    assert payload["rhs"] == str(big + 1)
    small = verify.IdentityCase("Trunc-eq", {"n": 1}, 7, 8)
    assert cli.case_jsonable(small)["lhs"] == 7


def test_json_serialization_excludes_wall_time():
    reports = run_all(RunConfig(n_max=12, enum_cap=6), suites={"m-routes"})
    text = reports_to_json(reports)
    assert "wall" not in text
    assert '"suite": "m-routes"' in text
