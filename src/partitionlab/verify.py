"""Identity verification sweeps.

Every theorem-level identity of the package is restated here as an
executable check over a parameter grid.  A suite yields one cell per
grid point, a plain (identity_id, params, lhs, rhs) tuple, and _report
alone judges each cell by its identity's relation, counting the cells
and keeping an IdentityCase for each failing one in a
VerificationReport.  Failures are collected, never thrown: a failing
identity is data (the counterexample), not an error.

All equalities are exact integer comparisons; there are no tolerances.
"""

import json
from collections import namedtuple

from . import enumeration, stats
from .series import pentagonal_number, triangular_number

EQUALITY = "eq"
NONNEGATIVE = "ge"

# Relation per identity id: equality checks compare lhs == rhs,
# nonnegativity checks require lhs >= 0 (rhs is recorded as 0).
IDENTITY_RELATIONS = {
    "ThmGF-a": EQUALITY,
    "ThmGF-ap": EQUALITY,
    "ThmGF-b": EQUALITY,
    "ThmComb-1": EQUALITY,
    "ThmComb-2": EQUALITY,
    "Trunc-eq": EQUALITY,
    "Trunc-nonneg": NONNEGATIVE,
    "Trunc-infsum": EQUALITY,
    "Gen17-eq": EQUALITY,
    "Gen17-nonneg": NONNEGATIVE,
    "Gen17-infsum": EQUALITY,
    "P1": EQUALITY,
    "P2": EQUALITY,
    "P3": EQUALITY,
    "PfT2": EQUALITY,
    "BadExponent": EQUALITY,
}


IdentityCase = namedtuple("IdentityCase", "identity_id params lhs rhs passed")


class VerificationReport(
    namedtuple("VerificationReport", "suite_id range_desc total failures")
):
    __slots__ = ()

    @property
    def passed(self):
        return not self.failures

    @property
    def first_failure(self):
        """The minimal failing cell in sweep order, or None."""
        return self.failures[0] if self.failures else None


class RunConfig(
    namedtuple(
        "RunConfig",
        "n_max k_range ell_range all_residues enum_cap",
        defaults=(60, (1, 4), (1, 3), True, 30),
    )
):
    """Ranges and caps for a full verification run.

    Series-backed sweeps go up to n_max; enumeration-backed sweeps are
    capped separately by enum_cap so the brute-force side stays fast.
    """

    __slots__ = ()

    def validate(self):
        if self.n_max < 0:
            raise ValueError("n_max must be >= 0")
        if self.k_range[0] < 1:
            raise ValueError("k values must be >= 1")
        if self.ell_range[0] < 1:
            raise ValueError("ell values must be >= 1")
        if self.enum_cap < 0:
            raise ValueError("enum_cap must be >= 0")
        if self.k_range[0] <= self.k_range[1] and self.n_max < self.k_range[1]:
            raise ValueError("n_max must be >= the largest k")

    def ks(self):
        return range(self.k_range[0], self.k_range[1] + 1)

    def ells(self):
        return range(self.ell_range[0], self.ell_range[1] + 1)

    def enum_n_max(self):
        """The n bound of the enumeration-backed suites."""
        return min(self.enum_cap, self.n_max)

    def series_order(self):
        """The largest order at which a run reads a series: thmcomb reads
        b_k(n + k - p), so up to n_max + k + 1 for the largest k."""
        ks = self.ks()
        return self.n_max + ks[-1] + 1 if ks else self.n_max


def _report(suite_id, range_desc, cells):
    """Judge the cells (an iterable of (identity_id, params, lhs, rhs),
    usually a generator) into a report: only a failing cell becomes an
    IdentityCase."""
    total = 0
    failures = []
    for identity_id, params, lhs, rhs in cells:
        total += 1
        if IDENTITY_RELATIONS[identity_id] == NONNEGATIVE:
            ok = lhs >= 0
        else:
            ok = lhs == rhs
        if not ok:
            failures.append(IdentityCase(identity_id, params, lhs, rhs, False))
    return VerificationReport(suite_id, range_desc, total, failures)


def _run_suite(suite_id, config, tables=None):
    """One suite's report at config, reading tables (default: a store of
    its own at config.series_order(), so it builds each base series once)."""
    cells, describe = SUITES[suite_id]
    if tables is None:
        tables = stats.TableStore(config.series_order())
    return _report(suite_id, describe(config), cells(tables, config))


# ---------------------------------------------------------------------------
# generating functions vs. enumeration


def _thmgf_cells(tables, config):
    n_max = config.enum_n_max()
    ks = list(config.ks())
    if n_max < 1 or not ks:
        return
    # one part-value DP pass, independent of the series, serves every cell
    A, B = enumeration.stat_sum_tables(n_max, max(ks))
    for k in ks:
        b = tables.get("b_k_table", k, n_max).coeffs
        p_top = k if config.all_residues else 1
        a = [tables.get("a_kp_table", k, p, n_max).coeffs for p in range(p_top)]
        for n in range(1, n_max + 1):
            yield "ThmGF-b", {"k": k, "n": n}, b[n], B[k - 1][n]
            yield "ThmGF-a", {"k": k, "n": n}, a[0][n], A[k - 1][0][n]
            for p in range(1, p_top):
                yield "ThmGF-ap", {"k": k, "p": p, "n": n}, a[p][n], A[k - 1][p][n]


def verify_thmgf(n_max, k_max, all_residues=True):
    """Check the three closed-form tables against brute-force enumeration."""
    config = RunConfig(n_max, (1, k_max), all_residues=all_residues, enum_cap=n_max)
    return _run_suite("thmgf", config)


# ---------------------------------------------------------------------------
# linear relations between a and b statistics


def _thmcomb_cells(tables, config):
    n_max = config.n_max
    for k in config.ks():
        order = n_max + k + 1  # the shifted identity reads b_k(n + k - p)
        b_tab = tables.get("b_k_table", k, order)
        b = b_tab.coeffs
        a0 = tables.get("a_k_table", k, order).coeffs
        for n in range(1, n_max + 1):
            yield "ThmComb-1", {"k": k, "n": n}, a0[n], k * b[n]
        if not config.all_residues:
            continue
        for p in range(1, k):
            ap = tables.get("a_kp_table", k, p, order).coeffs
            b_before = b_tab.shifted(p).coeffs  # b_k(n - p), 0 for n < p
            for n in range(1, n_max + 1):
                rhs = (k - p) * b_before[n] + p * b[n + k - p]
                yield "ThmComb-2", {"k": k, "p": p, "n": n}, ap[n], rhs


def verify_thmcomb(n_max, k_max, all_residues=True):
    """Check a_k = k*b_k and a_{k,p}(n) = (k-p) b_k(n-p) + p b_k(n+k-p)."""
    config = RunConfig(n_max, (1, k_max), all_residues=all_residues)
    return _run_suite("thmcomb", config)


# ---------------------------------------------------------------------------
# truncated-theta families


class ThetaFamily(namedtuple("ThetaFamily", "js exponent sign main remainder")):
    """One family of truncated identities, the shape of every refinement
    the paper proves: for k >= 1, ell >= 1 and every n,

        (-1)^(ell-1) * (sum_{j in js(ell)} sign(j) b_k(n - exponent(j)) - main(n))
            = remainder(n),

    the signed sum over every j collapsing to main(n).  main(tables, k,
    n_max) and remainder(tables, k, ell, n_max) give their values for n =
    0..n_max, reading the run's tables.  The terms are built here from
    pentagonal_number and triangular_number, never taken from
    series.pentagonal_series or series.theta_truncated, because
    stats.m_ell_table_pdiff and stats.mp_ell_table are built from those.
    """

    __slots__ = ()

    def signed_sum(self, tables, k, ell, n_max):
        terms = ((self.exponent(j), self.sign(j)) for j in self.js(ell))
        return tables.get("b_k_table", k, n_max).shift_sum(terms).coeffs

    def lhs(self, tables, k, ell, n_max):
        sign = -1 if ell % 2 == 0 else 1
        sums = self.signed_sum(tables, k, ell, n_max)
        return [sign * (s - m) for s, m in zip(sums, self.main(tables, k, n_max))]

    def bilateral_sum(self, tables, k, n_max):
        # every exponent is at least |j|, so the truncation at ell =
        # n_max + 1 holds every term of degree <= n_max
        return self.signed_sum(tables, k, n_max + 1, n_max)


def _alternating(j):
    return -1 if j % 2 else 1


def _pentagonal_remainder(tables, k, ell, n_max):
    # sum_j j M_ell(n - kj): the coefficient of q^n in M_ell * q^k/(1 - q^k)^2
    return stats.k_weighted(tables.get("m_ell_table", ell, n_max), k).coeffs


def _theta_remainder(tables, k, ell, n_max):
    # sum_j c_k(j) MP_ell(n - j): c_k is Q(q^2) * q^k/(1 - q^k)^2, so this
    # is the coefficient of q^n in (Q(q^2) MP_ell) * q^k/(1 - q^k)^2, one
    # dense product per ell whatever the k
    return stats.k_weighted(tables.get("q2_mp_ell_table", ell, n_max), k).coeffs


PENTAGONAL = ThetaFamily(
    js=lambda ell: range(-(ell - 1), ell + 1),
    exponent=pentagonal_number,
    sign=_alternating,
    main=lambda tables, k, n_max: [stats.divisor_term(n, k) for n in range(n_max + 1)],
    remainder=_pentagonal_remainder,
)
TRIANGULAR = ThetaFamily(
    js=lambda ell: range(2 * ell),
    exponent=triangular_number,
    sign=stats.triangular_weight_sign,  # (-1)^(j(j+1)/2)
    main=lambda tables, k, n_max: tables.get("c_k_table", k, n_max).coeffs,
    remainder=_theta_remainder,
)
# the diagnostic main term [k | n] * c_k(n) of verify_gen17(indicator_form=True)
TRIANGULAR_INDICATOR = TRIANGULAR._replace(
    main=lambda tables, k, n_max: [
        c if n % k == 0 else 0
        for n, c in enumerate(tables.get("c_k_table", k, n_max).coeffs)
    ]
)
# the sign (-1)^j that the paper corrects to (-1)^(j(j+1)/2)
TRIANGULAR_UNCORRECTED = TRIANGULAR._replace(sign=_alternating)


def _infsum_cells(identity_id, family, tables, k, n_max):
    infsum = family.bilateral_sum(tables, k, n_max)
    main = family.main(tables, k, n_max)
    for n in range(n_max + 1):
        yield identity_id, {"k": k, "n": n}, infsum[n], main[n]


def _trunc_cells(tables, config):
    n_max = config.n_max
    for k in config.ks():
        for ell in config.ells():
            lhs = PENTAGONAL.lhs(tables, k, ell, n_max)
            rhs = PENTAGONAL.remainder(tables, k, ell, n_max)
            for n in range(n_max + 1):
                yield "Trunc-eq", {"k": k, "ell": ell, "n": n}, lhs[n], rhs[n]


def verify_trunc(k, ell, n_max):
    """Truncated pentagonal identity: the alternating b_k sum minus the
    divisor weight, signed, equals sum_j j * M_ell(n - kj)."""
    return _run_suite("trunc", RunConfig(n_max, (k, k), (ell, ell)))


def _trunc_corollary_cells(tables, config):
    n_max = config.n_max
    for k in config.ks():
        for ell in config.ells():
            lhs = PENTAGONAL.lhs(tables, k, ell, n_max)
            for n in range(n_max + 1):
                yield "Trunc-nonneg", {"k": k, "ell": ell, "n": n}, lhs[n], 0
        yield from _infsum_cells("Trunc-infsum", PENTAGONAL, tables, k, n_max)


def verify_trunc_corollaries(k, ell_max, n_max):
    """Nonnegativity of the truncated pentagonal expression for every
    ell <= ell_max, and the bilateral sum collapsing to n/k * [k | n]."""
    return _run_suite("trunc-corollaries", RunConfig(n_max, (k, k), (1, ell_max)))


def _gen17_cells(tables, config, family=TRIANGULAR):
    n_max = config.n_max
    for k in config.ks():
        # the bilateral cells are checked once per ell, after its own cells
        infsum = list(_infsum_cells("Gen17-infsum", family, tables, k, n_max))
        for ell in config.ells():
            rhs = family.remainder(tables, k, ell, n_max)
            lhs = family.lhs(tables, k, ell, n_max)
            for n in range(n_max + 1):
                yield "Gen17-eq", {"k": k, "ell": ell, "n": n}, lhs[n], rhs[n]
                yield "Gen17-nonneg", {"k": k, "ell": ell, "n": n}, lhs[n], 0
            yield from infsum


def verify_gen17(k, ell, n_max, indicator_form=False):
    """Truncated theta identity: the alternating triangular b_k sum minus
    c_k(n), signed, equals the convolution sum_j c_k(j) MP_ell(n-j); plus
    its nonnegativity and full-sum corollaries.

    indicator_form=True replaces the subtrahend c_k(n) by [k | n]*c_k(n);
    that variant provably fails for k >= 3 (e.g. k=3, n=5) and is kept as
    a diagnostic, not as the default identity.
    """
    config = RunConfig(n_max, (k, k), (ell, ell))
    family = TRIANGULAR_INDICATOR if indicator_form else TRIANGULAR
    return _report(
        "gen17",
        dict(_k_ell_range(config), indicator_form=indicator_form),
        _gen17_cells(stats.TableStore(), config, family),
    )


# ---------------------------------------------------------------------------
# the exponent correction


def _bad_exponent_cells(tables, n_max, ell_max):
    """The BadExponent cells of the k=2 theta identity evaluated with the
    wrong sign (-1)^j instead of (-1)^(j(j+1)/2), by increasing n, then
    increasing ell."""
    family, ells = TRIANGULAR_UNCORRECTED, range(1, ell_max + 1)
    rhs = {ell: family.remainder(tables, 2, ell, n_max) for ell in ells}
    lhs = {ell: family.lhs(tables, 2, ell, n_max) for ell in ells}
    for n in range(1, n_max + 1):
        for ell in ells:
            params = {"k": 2, "ell": ell, "n": n}
            yield "BadExponent", params, lhs[ell][n], rhs[ell][n]


def _bad_exponent_witness(tables, n_max, ell_max):
    cells = _bad_exponent_cells(tables, n_max, ell_max)
    return _report("bad-exponent", None, cells).first_failure


def find_bad_exponent_counterexample(n_max, ell_max=3):
    """Smallest (n, ell) where the uncorrected sign variant fails, or None.

    Cells are scanned by increasing n, then increasing ell.
    """
    witness = _bad_exponent_witness(stats.TableStore(), n_max, ell_max)
    return None if witness is None else (witness.params["n"], witness.params["ell"])


def uncorrected_exponent_report(n_max, ell_max=3):
    """Full sweep of the uncorrected variant; the failures list holds every
    cell where the wrong sign actually changes the identity."""
    return _report(
        "bad-exponent",
        {"n_max": n_max, "k": [2, 2], "ell": [1, ell_max], "mode": "raw"},
        _bad_exponent_cells(stats.TableStore(), n_max, ell_max),
    )


def _witness_ell_top(config):
    # the two sign rules coincide for ell=1, so the demonstration needs
    # ell >= 2 and some n; otherwise the check is vacuous (None)
    lo, hi = config.ell_range
    return hi if lo <= hi and hi >= 2 and config.n_max >= 1 else None


def _bad_exponent_witness_range(config):
    n_max, ell_top = config.n_max, _witness_ell_top(config)
    if ell_top is None:
        return {"n_max": n_max, "ell": list(config.ell_range), "mode": "witness"}
    return {"n_max": n_max, "k": [2, 2], "ell": [1, ell_top], "mode": "witness"}


def _bad_exponent_witness_cells(tables, config):
    ell_top = _witness_ell_top(config)
    if ell_top is None:
        return
    witness = _bad_exponent_witness(tables, config.n_max, ell_top)
    if witness is None:
        yield "BadExponent", {"witness_found": 0}, 0, 1
    else:
        n, ell = witness.params["n"], witness.params["ell"]
        yield "BadExponent", {"witness_found": 1, "n": n, "ell": ell}, 1, 1


def bad_exponent_witness_report(n_max, ell_max=3):
    """Meta-check for full runs: passes when a counterexample to the
    uncorrected variant exists (i.e. the sign correction is substantive);
    vacuous, with no case, when ell_max < 2 or n_max < 1."""
    return _run_suite("bad-exponent", RunConfig(n_max, ell_range=(1, ell_max)))


# ---------------------------------------------------------------------------
# overpartition identities


def _overpartition_cells(tables, config):
    # P1 compares one walk over every partition with the part-value DP
    # stat_sum_tables, which walks no partition: two independent counts.
    # The suite runs its own DP pass, as thmgf does.  P2 builds its
    # series here from the store's partition series, not from
    # stats.b_k_table, so the suite reads no statistic table of the store
    n_max = config.enum_n_max()
    ks = list(config.ks())
    if n_max < 1 or not ks:
        return
    A = enumeration.stat_sum_tables(n_max, max(ks))[0]
    counts = enumeration.overpartition_counts(n_max, ks)
    gf = tables.get("partition_gf", n_max)
    for k in ks:
        a_series = stats.k_weighted(gf, k).coeffs
        overlined, colored = counts[k]
        for n in range(1, n_max + 1):
            yield "P1", {"k": k, "n": n}, overlined[n], A[k - 1][0][n]
            yield "P2", {"k": k, "n": n}, colored[n], a_series[n]
            yield "P3", {"k": k, "n": n}, overlined[n], k * colored[n]


def verify_overpartition_identities(k, n_max):
    """The three marked-overpartition identities: the overlined-part total
    equals a_k(n); the colored-object count matches its product series;
    and merging colored into overlined parts is k-to-one."""
    return _run_suite("overpartitions", RunConfig(n_max, (k, k), enum_cap=n_max))


# ---------------------------------------------------------------------------
# M_ell evaluation-route agreement


def _m_route_cells(tables, config):
    n_max = config.n_max
    for ell in config.ells():
        # the Gaussian-binomial sum, which reads no P, against the
        # pentagonal truncation times P
        gaussian = tables.get("m_ell_table", ell, n_max).coeffs
        pdiff = tables.get("m_ell_table_pdiff", ell, n_max).coeffs
        for n in range(n_max + 1):
            yield "PfT2", {"ell": ell, "n": n}, gaussian[n], pdiff[n]


def verify_m_routes(ell_max, n_max):
    """The two M_ell routes agree: the Gaussian-binomial sum
    (stats.m_ell_table) and the partition-count differences, the
    pentagonal truncation times P (stats.m_ell_table_pdiff)."""
    return _run_suite("m-routes", RunConfig(n_max, ell_range=(1, ell_max)))


# ---------------------------------------------------------------------------
# full runs


def _k_range(config, n_max):
    return {"n_max": n_max, "k": list(config.k_range)}


def _k_ell_range(config):
    return dict(_k_range(config, config.n_max), ell=list(config.ell_range))


# suite id -> (cells, describe), in report order.  cells(tables, config)
# yields the suite's (identity_id, params, lhs, rhs) cells, reading its
# tables from the run's TableStore; describe(config) is the range its
# report records.
SUITES = {
    "thmgf": (
        _thmgf_cells,
        lambda c: dict(_k_range(c, c.enum_n_max()), all_residues=c.all_residues),
    ),
    "thmcomb": (_thmcomb_cells, lambda c: _k_range(c, c.n_max)),
    "trunc": (_trunc_cells, _k_ell_range),
    "trunc-corollaries": (_trunc_corollary_cells, _k_ell_range),
    "gen17": (_gen17_cells, _k_ell_range),
    "overpartitions": (_overpartition_cells, lambda c: _k_range(c, c.enum_n_max())),
    "m-routes": (
        _m_route_cells,
        lambda c: {"n_max": c.n_max, "ell": list(c.ell_range)},
    ),
    "bad-exponent": (_bad_exponent_witness_cells, _bad_exponent_witness_range),
}
SUITE_ORDER = tuple(SUITES)


def run_all(config=None, suites=None):
    """Run every verification suite (or those named in suites) at the
    configured ranges, one after another over one TableStore.

    Reports come back in SUITE_ORDER, so identical configs yield
    identical output.
    """
    config = config or RunConfig()
    config.validate()
    tables = stats.TableStore(config.series_order())
    return [
        _run_suite(sid, config, tables)
        for sid in SUITE_ORDER
        if suites is None or sid in suites
    ]


# ---------------------------------------------------------------------------
# serialization

JSON_INT_LIMIT = 1 << 53


def json_safe_int(v):
    # integers beyond 2^53 become decimal strings so that consumers with
    # double-precision JSON parsers cannot corrupt them silently
    return v if -JSON_INT_LIMIT < v < JSON_INT_LIMIT else str(v)


def case_jsonable(case):
    return {
        "identity": case.identity_id,
        "params": dict(case.params),
        "lhs": json_safe_int(case.lhs),
        "rhs": json_safe_int(case.rhs),
        "passed": case.passed,
    }


def report_jsonable(report):
    return {
        "suite": report.suite_id,
        "range": report.range_desc,
        "total": report.total,
        "failed": len(report.failures),
        "failures": [case_jsonable(c) for c in report.failures],
    }


def reports_to_json(reports):
    """Canonical JSON for a list of reports: stable key order, no
    wall-clock fields, trailing newline."""
    payload = [report_jsonable(r) for r in reports]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
