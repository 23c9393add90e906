"""Verification suites: spot cells, passing grids, fault injection,
report plumbing."""

import hashlib
from collections import Counter

import pytest

from oracles import geometric_kernel, theta_remainder
from partitionlab import cli, enumeration, stats, verify
from partitionlab.series import TruncatedSeries, partition_gf
from partitionlab.verify import (
    RunConfig,
    bad_exponent_witness_report,
    find_bad_exponent_counterexample,
    reports_to_json,
    run_all,
    uncorrected_exponent_report,
    verify_gen17,
    verify_m_routes,
    verify_overpartition_identities,
    verify_thmcomb,
    verify_thmgf,
    verify_trunc,
    verify_trunc_corollaries,
)

# ---------------------------------------------------------------------------
# suite-level passes


def test_thmgf_passes():
    report = verify_thmgf(20, 4)
    assert report.passed and report.total > 0


def test_thmcomb_passes():
    report = verify_thmcomb(80, 6)
    assert report.passed


@pytest.mark.parametrize("k,ell", [(1, 1), (2, 3), (3, 2), (4, 5)])
def test_trunc_passes(k, ell):
    assert verify_trunc(k, ell, 60).passed


def test_trunc_corollaries_pass():
    for k in (1, 2, 3):
        assert verify_trunc_corollaries(k, 4, 60).passed


@pytest.mark.parametrize("k,ell", [(1, 1), (2, 2), (3, 1), (4, 3)])
def test_gen17_passes(k, ell):
    assert verify_gen17(k, ell, 60).passed


def test_overpartition_identities_pass():
    for k in (1, 2, 3):
        assert verify_overpartition_identities(k, 20).passed


def test_m_routes_pass():
    assert verify_m_routes(4, 80).passed


# ---------------------------------------------------------------------------
# spot cells


def test_trunc_spot_cell_6_3_1():
    # n=6, k=3, ell=1: lhs = b_3(6) - b_3(5) - 6/3, rhs = 1*M_1(3) + 2*M_1(0)
    b3 = stats.b_k_table(3, 6)
    m1 = stats.m_ell_table(1, 6)
    lhs = b3[6] - b3[5] - 2
    rhs = 1 * m1[3] + 2 * m1[0]
    assert lhs == rhs == 1
    report = verify_trunc(3, 1, 6)
    assert report.passed


def test_trunc_zero_below_first_window():
    # tiny n: both sides are empty sums
    report = verify_trunc(5, 2, 4)
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
    assert verify.verify_trunc(2, 10, 30).passed


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


def test_gen17_displayed_indicator_variant_fails_for_k3():
    # restricting the subtrahend to multiples of k breaks the identity
    # as soon as c_k is nonzero off the multiples; first cell: k=3, n=5
    report = verify_gen17(3, 1, 10, indicator_form=True)
    assert not report.passed
    first = report.failures[0]
    assert first.identity_id == "Gen17-eq"
    assert first.params["n"] == 5


def test_gen17_indicator_variant_is_identical_for_k2():
    # c_2 vanishes on odd arguments, so the indicator is a no-op there
    assert verify_gen17(2, 2, 40, indicator_form=True).passed


# ---------------------------------------------------------------------------
# the exponent correction


def test_bad_exponent_witness():
    assert find_bad_exponent_counterexample(60) == (5, 2)


def test_bad_exponent_absent_for_ell_1():
    # with ell=1 the two sign rules coincide on j in {0, 1}
    assert find_bad_exponent_counterexample(120, ell_max=1) is None


def test_uncorrected_exponent_report_collects_failures():
    report = uncorrected_exponent_report(30, 2)
    assert not report.passed
    first = report.failures[0]
    assert (first.params["n"], first.params["ell"]) == (5, 2)


def test_bad_exponent_witness_report_passes_when_witness_exists():
    report = bad_exponent_witness_report(60, 3)
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
    assert not verify_trunc(2, 1, 30).passed
    assert not verify_thmgf(12, 2).passed
    # suites that never touch the b tables stay green
    assert verify_m_routes(2, 30).passed
    assert verify_overpartition_identities(2, 10).passed


# sha256 of reports_to_json under corrupt_b_tables, captured before the
# theta-family generators were merged: it pins which cells fail, their
# sides and their order, which the all-pass goldens cannot see
FAILING_CELL_ORDER = [
    pytest.param(
        lambda: run_all(
            RunConfig(n_max=30, enum_cap=12),
            suites={"trunc", "trunc-corollaries", "gen17", "bad-exponent"},
        ),
        "c6e30c440df4d09a59af3b1c8118c91c3d5a3effe8768ec3ef2646254d2ee70e",
        id="theta-suites",
    ),
    pytest.param(
        lambda: [uncorrected_exponent_report(30, 3)],
        "81627511c334c94e793966f7b2c86505788eb0c3b32784435f1e94c210097ab4",
        id="uncorrected-exponent",
    ),
    pytest.param(
        lambda: [verify_gen17(3, 1, 12, indicator_form=True)],
        "0f25f024fde2c00b5b3478aba4d5eae67a65019b07667acfa8d5f05341a4c240",
        id="gen17-indicator",
    ),
]


@pytest.mark.parametrize("reports,digest", FAILING_CELL_ORDER)
def test_failing_cells_keep_their_order(monkeypatch, reports, digest):
    corrupt_b_tables(monkeypatch)
    text = reports_to_json(reports())
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


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
    report = verify_trunc(k, ell, 30)
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
    report = verify_gen17(k, ell, 30)
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
    mults = enumeration.part_multiplicities((4, 3))

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
    report = verify_overpartition_identities(1, 10)
    assert not report.passed
    first = report.first_failure
    assert (first.identity_id, first.params) == ("P1", {"k": 1, "n": 7})
    assert verify_thmcomb(10, 2).passed


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


# every name a store serves: the base series and every table builder,
# m_ell_table_pdiff included
STORE_NAMES = sorted(
    stats.BASE_SERIES | {name for name in dir(stats) if "_table" in name}
)
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


def test_expected_misses_are_cases_of_the_matrix():
    cases = {(name, n) for name in STORE_NAMES for n in CORRUPTED_ENTRIES}
    assert EXPECTED_MISSES <= cases
    assert {"m_ell_table_pdiff", "q2_mp_ell_table"} <= set(STORE_NAMES)


@pytest.mark.parametrize("n", CORRUPTED_ENTRIES)
@pytest.mark.parametrize("name", STORE_NAMES)
def test_a_corrupted_store_entry_fails_a_cell(monkeypatch, name, n):
    corrupt_store_entry(monkeypatch, name, n)
    try:
        failed = sum(len(r.failures) for r in run_all(RunConfig()))
    except ArithmeticError:
        failed = 0
    assert (failed == 0) == ((name, n) in EXPECTED_MISSES), failed


# sha256 of `verify all --format json` with one store entry corrupted,
# captured while every cell was still an IdentityCase: the order, params
# and sides of every failure, which the all-pass goldens cannot see.  A
# wrong P fails cells of every suite that reads it, a wrong MP_ell only
# through the theta remainder
FAILING_RUN_GOLDENS = [
    pytest.param(
        "partition_gf",
        5,
        "57cf8c99cabf0ae1ca6092dc98ec320f83d9017449e9c25bfbe32c2117828980",
        id="partition_gf-5",
    ),
    pytest.param(
        "mp_ell_table",
        45,
        "a00f5a8aa7db8052336eeaf0b855bdec4b4cd86ca8c2c0644613170e972747df",
        id="mp_ell_table-45",
    ),
]


@pytest.mark.parametrize("name,n,digest", FAILING_RUN_GOLDENS)
def test_verify_all_with_a_corrupted_store_entry_is_golden(
    monkeypatch, capsys, name, n, digest
):
    corrupt_store_entry(monkeypatch, name, n)
    assert cli.main(["verify", "all", "--format", "json"]) == cli.EXIT_FAILURES
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_verify_all_with_a_corrupted_partition_series_exits_1(monkeypatch, capsys):
    # a wrong P is a failed identity, not an internal inconsistency
    corrupt_store_entry(monkeypatch, "partition_gf", 5)
    assert cli.main(["verify", "all"]) == cli.EXIT_FAILURES == 1
    assert capsys.readouterr().err == ""


# ---------------------------------------------------------------------------
# the table store of a run

SUITES_READING_B = ("thmgf", "thmcomb", "trunc", "trunc-corollaries", "gen17")


def count_table_builds(monkeypatch):
    """Wrap every stats table function; return the Counter of its
    (name, args) calls."""
    builds = Counter()

    def counting(name, real):
        def wrapper(*args, **kwargs):
            builds[(name, args)] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in dir(stats):
        if name.endswith("_table"):
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
    # so no c_k table enters a product, on either side
    real = stats.c_k_table

    def unmultiplied(*args, **kwargs):
        return Unmultiplied(real(*args, **kwargs).coeffs)

    monkeypatch.setattr(stats, "c_k_table", unmultiplied)
    reports = run_all(RunConfig(n_max=60, k_range=(1, 5)))
    assert all(r.passed for r in reports)
    assert not uncorrected_exponent_report(30, 3).passed
    assert not verify_gen17(3, 1, 12, indicator_form=True).passed


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
    # bad-exponent judges the raw cells of the uncorrected sign, which
    # fail by design, to find its witness
    suites = set(verify.SUITE_ORDER) - {"bad-exponent"}
    assert all(r.passed for r in run_all(config, suites))
    assert made == Counter()
    raw = uncorrected_exponent_report(30, 3)
    assert made == Counter(BadExponent=len(raw.failures)) != Counter()
    made.clear()
    corrupt_b_tables(monkeypatch)
    reports = run_all(config, suites)
    failures = Counter(c.identity_id for r in reports for c in r.failures)
    assert failures and made == failures
    assert all(not c.passed for r in reports for c in r.failures)


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
    # a single-suite entry point reads k = 1..4 at orders 62..65 and builds
    # P once, at the largest, serving the others as prefixes
    builds = count_partition_series_builds(monkeypatch)
    assert verify_thmcomb(60, 4).passed
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
    # every public suite makes its own store
    assert verify_m_routes(2, 30).passed
    assert builds[("m_ell_table", (2, 30))] == 2


# ---------------------------------------------------------------------------
# the suite registry

# each public wrapper call, and the run_all config of the same suite
WRAPPED_SUITES = [
    pytest.param(
        lambda: verify_thmgf(36, 3, all_residues=False),
        RunConfig(n_max=36, k_range=(1, 3), all_residues=False, enum_cap=36),
        id="thmgf",
    ),
    pytest.param(
        lambda: verify_thmcomb(30, 4),
        RunConfig(n_max=30, k_range=(1, 4)),
        id="thmcomb",
    ),
    pytest.param(
        lambda: verify_trunc(2, 3, 30),
        RunConfig(n_max=30, k_range=(2, 2), ell_range=(3, 3)),
        id="trunc",
    ),
    pytest.param(
        lambda: verify_trunc_corollaries(3, 4, 30),
        RunConfig(n_max=30, k_range=(3, 3), ell_range=(1, 4)),
        id="trunc-corollaries",
    ),
    pytest.param(
        lambda: verify_gen17(3, 2, 30),
        RunConfig(n_max=30, k_range=(3, 3), ell_range=(2, 2)),
        id="gen17",
    ),
    pytest.param(
        lambda: verify_overpartition_identities(2, 32),
        RunConfig(n_max=32, k_range=(2, 2), enum_cap=32),
        id="overpartitions",
    ),
    pytest.param(
        lambda: verify_m_routes(3, 30),
        RunConfig(n_max=30, ell_range=(1, 3)),
        id="m-routes",
    ),
    pytest.param(
        lambda: bad_exponent_witness_report(30, 3),
        RunConfig(n_max=30, ell_range=(1, 3)),
        id="bad-exponent",
    ),
    pytest.param(
        lambda: bad_exponent_witness_report(30, 1),
        RunConfig(n_max=30, ell_range=(1, 1)),
        id="bad-exponent-vacuous",
    ),
]


@pytest.mark.parametrize("faulty", [False, True], ids=["clean", "faulty-b"])
@pytest.mark.parametrize("wrapper,config", WRAPPED_SUITES)
def test_wrappers_agree_with_run_all(monkeypatch, wrapper, config, faulty):
    if faulty:
        corrupt_b_tables(monkeypatch)
    wrapped = wrapper()
    (full,) = run_all(config, suites={wrapped.suite_id})
    expected_range = dict(full.range_desc)
    if wrapped.suite_id == "gen17":
        # the wrapper's diagnostic indicator form, which run_all never uses
        expected_range["indicator_form"] = False
    if wrapped.suite_id == "thmcomb":
        # the wrapper records no all_residues, as run_all's thmcomb never did
        assert "all_residues" not in wrapped.range_desc
    assert wrapped.range_desc == expected_range
    assert (wrapped.total, wrapped.failures) == (full.total, full.failures)


def test_enum_cap_above_the_sweep_cap_reaches_the_oracle(monkeypatch):
    # the enumeration-backed suites pass their own bound to the a/b
    # oracle as its cap, so --enum-cap may exceed the default sweep cap
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
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "29992289d7239c8366541bcd34010dbb9def10ce39501bc146cbabe7345e06a2"
    )


def test_run_all_empty_ranges_pass():
    cfg = RunConfig(n_max=10, k_range=(2, 1), ell_range=(2, 1))
    reports = run_all(cfg)
    for r in reports:
        assert r.passed
        if r.suite_id != "bad-exponent":
            assert r.total == 0 or r.suite_id in ()


def test_run_all_selected_suite():
    reports = run_all(RunConfig(n_max=20, enum_cap=10), suites={"trunc"})
    assert len(reports) == 1
    assert reports[0].suite_id == "trunc"


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(n_max=-1).validate()
    with pytest.raises(ValueError):
        RunConfig(k_range=(0, 2)).validate()
    with pytest.raises(ValueError):
        RunConfig(n_max=2, k_range=(1, 5)).validate()


def test_run_config_defaults_are_the_verify_cli_defaults():
    config = RunConfig()
    assert config == cli._build_config(cli.build_parser().parse_args(["verify", "all"]))
    assert (
        config.n_max,
        config.k_range,
        config.ell_range,
        config.all_residues,
        config.enum_cap,
    ) == (60, (1, 4), (1, 3), True, 30)


def test_report_jsonable_reads_the_report_and_case_fields():
    case = verify.IdentityCase(
        identity_id="P1", params={"k": 2, "n": 5}, lhs=3, rhs=4, passed=False
    )
    report = verify.VerificationReport(
        suite_id="overpartitions",
        range_desc={"n": [1, 5]},
        total=7,
        failures=[case],
    )
    assert "wall_time" not in verify.VerificationReport._fields
    assert not report.passed
    assert report.first_failure is case
    assert verify.report_jsonable(report) == {
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
                "passed": False,
            }
        ],
    }


def test_report_json_big_integers_become_strings():
    big = 1 << 60
    case = verify.IdentityCase("Trunc-eq", {"n": 1}, big, big + 1, False)
    payload = verify.case_jsonable(case)
    assert payload["lhs"] == str(big)
    assert payload["rhs"] == str(big + 1)
    small = verify.IdentityCase("Trunc-eq", {"n": 1}, 7, 7, True)
    assert verify.case_jsonable(small)["lhs"] == 7


def test_json_serialization_excludes_wall_time():
    reports = run_all(RunConfig(n_max=12, enum_cap=6), suites={"m-routes"})
    text = reports_to_json(reports)
    assert "wall" not in text
    assert '"suite": "m-routes"' in text
