"""Acceptance suite: one test per acceptance criterion, each printing a
single pass/fail line.  Every comparison is exact integer equality --
there are no numeric tolerances anywhere.

Run it alone with:  pytest tests/test_acceptance.py -v -s
"""

from partitionlab.enumeration import (
    a_kp,
    b_k,
    c_subsets,
    m_ell,
    mp_ell_verbal,
    overpartitions_a,
    overpartitions_p,
)
from partitionlab.series import euler_product, pentagonal_series
from partitionlab.stats import c_k_table, m_ell_table, mp_ell_table, p_table
from partitionlab.verify import RunConfig, run_all, uncorrected_exponent_report


def check(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print("criterion %02d %s: %s" % (number, status, label))
    assert ok, "criterion %02d failed: %s %s" % (number, label, detail)


def test_criterion_01_reference_values():
    values = {
        "p(5)": (p_table(5)[5], 7),
        "a_3(5) = a_{3,0}(5)": (a_kp(5, 3, 0), 6),
        "a_{3,1}(5)": (a_kp(5, 3, 1), 9),
        "a_{3,2}(5)": (a_kp(5, 3, 2), 11),
        "b_3(5)": (b_k(5, 3), 2),
        "M_3(5) (enumeration)": (m_ell(5, 3), 0),
        "M_3(5) (series)": (m_ell_table(3, 5)[5], 0),
        "MP_3(5) (verbal reading)": (mp_ell_verbal(5, 3), 3),
    }
    bad = {name: got for name, (got, want) in values.items() if got != want}
    # the series evaluation of the ell=3 theta count has no weight below
    # q^21, so it reads 0 at n=5 while the verbal reading gives 3; both
    # sides are pinned here and the mismatch is reported as data
    series_side = mp_ell_table(3, 5)[5]
    if series_side != 0:
        bad["MP_3(5) (series)"] = series_side
    check(1, "reference statistic values at n=5", not bad, str(bad))


def test_criterion_02_series_vs_enumeration():
    (report,) = run_all(RunConfig(45, (1, 6), enum_cap=45), suites={"thmgf"})
    check(
        2,
        "closed-form a/b tables match enumeration (n<=45, k<=6, all residues)",
        report.passed and report.total == sum(45 * (2 + (k - 1)) for k in range(1, 7)),
        str(report.failures[:3]),
    )


def test_criterion_03_linear_relations():
    (report,) = run_all(RunConfig(300, (1, 8)), suites={"thmcomb"})
    check(
        3,
        "a_k = k*b_k and the shifted refinement (n<=300, k<=8)",
        report.passed,
        str(report.failures[:3]),
    )


def test_criterion_04_pentagonal_truncation():
    suites = {"trunc", "trunc-corollaries", "m-routes"}
    reports = run_all(RunConfig(120, (1, 4), (1, 5)), suites=suites)
    # the bilateral sum at n <= 300, k <= 6
    reports += run_all(RunConfig(300, (1, 6), (1, 1)), suites={"trunc-corollaries"})
    detail = [(r.range_desc, r.failures[:2]) for r in reports if not r.passed]
    check(
        4,
        "pentagonal truncation, nonnegativity, bilateral sum, 3-way M agreement",
        not detail,
        str(detail),
    )


def test_criterion_05_theta_truncation():
    (report,) = run_all(RunConfig(120, (1, 4), (1, 3)), suites={"gen17"})
    check(
        5,
        "theta truncation identity and both corollaries (n<=120, k<=4, ell<=3)",
        report.passed,
        str(report.failures[:3]),
    )


def test_criterion_06_exponent_correction():
    first = uncorrected_exponent_report(60, 3).first_failure
    witness = None if first is None else (first.params["n"], first.params["ell"])
    (corrected,) = run_all(RunConfig(60, (2, 2), (1, 3)), suites={"gen17"})
    corrected_ok = corrected.passed
    (report,) = run_all(RunConfig(60, ell_range=(1, 3)), suites={"bad-exponent"})
    recorded = report.passed and not report.failures
    check(
        6,
        "uncorrected sign fails at a witness (found %r) and corrected passes"
        % (witness,),
        witness is not None and witness[1] == 2 and corrected_ok and recorded,
    )


def test_criterion_07_subset_bridge():
    c2 = c_k_table(2, 40)
    mismatches = [
        n for n in range(21) if c2[2 * n] != c_subsets(n)
    ]
    check(
        7,
        "c_2(2n) equals the exhaustive dominant-subset count (n<=20)",
        not mismatches,
        str(mismatches),
    )


def test_criterion_08_overpartition_identities():
    ok = len(list(overpartitions_p(6, 3))) == 4
    ok = ok and len(list(overpartitions_a(6, 3))) == 5
    (report,) = run_all(RunConfig(40, (1, 5), enum_cap=40), suites={"overpartitions"})
    check(
        8,
        "marked-overpartition identities (n<=40, k<=5) incl. the two displays",
        ok and report.passed,
        str(report.failures[:3]),
    )


def test_criterion_09_pentagonal_product_identity():
    check(
        9,
        "product form of (q;q)_inf equals the bilateral pentagonal series at order 400",
        euler_product(400) == pentagonal_series(400, 401),
    )
