"""Identity verification sweeps.

Every theorem-level identity of the package is restated here as an
executable check over a parameter grid, producing a VerificationReport
with one IdentityCase per grid cell.  Failures are collected, never
thrown: a failing identity is data (the counterexample), not an error.

All equalities are exact integer comparisons; there are no tolerances.
"""

import json
import time
from collections import namedtuple
from math import isqrt

from . import enumeration, kernels, stats
from .series import TruncatedSeries, pentagonal_number, triangular_number

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
    namedtuple("VerificationReport", "suite_id range_desc total failures wall_time")
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
        "n_max k_range ell_range all_residues enum_cap subset_cap threads",
        # threads is accepted and validated; suites run serially
        defaults=(60, (1, 4), (1, 3), True, 30, 12, 1),
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
        if self.enum_cap < 0 or self.subset_cap < 0:
            raise ValueError("caps must be >= 0")
        if self.k_range[0] <= self.k_range[1] and self.n_max < self.k_range[1]:
            raise ValueError("n_max must be >= the largest k")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")

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


def _case(identity_id, params, lhs, rhs):
    if IDENTITY_RELATIONS[identity_id] == NONNEGATIVE:
        ok = lhs >= 0
    else:
        ok = lhs == rhs
    return IdentityCase(identity_id, params, lhs, rhs, ok)


def _report(suite_id, range_desc, cases):
    """Run the cases (an iterable, usually a generator) into a report."""
    started = time.perf_counter()
    cases = list(cases)
    failures = [c for c in cases if not c.passed]
    return VerificationReport(
        suite_id, range_desc, len(cases), failures, time.perf_counter() - started
    )


# ---------------------------------------------------------------------------
# the tables of one run


# the builders of the base series that table builders read
_BASE_SERIES_BUILDERS = frozenset(base for _, base in stats.BASE_SERIES.values())


class TableStore:
    """The statistic tables of one verification run, each built once.

    ``get("b_k_table", k, n_max)`` returns ``stats.b_k_table(k, n_max)``
    and calls it only on the first request for those arguments; every
    suite of the run that needs the table reads the same one.  The base
    series of the tables (``stats.BASE_SERIES``: the partition series,
    Q(q^2) and the MP base) are served the same way, as
    ``get("partition_gf", n_max)`` and so on, and every table builder
    that reads one gets the store's copy through its keyword.  A base
    series is built once, at series_order or at the order asked for if
    that is larger; a smaller order is served as its prefix, which is
    exact, so a store given the largest order its run reads builds each
    base series once.  The function is looked up on ``stats`` at call
    time, so a patched or traced replacement is the one that runs.  Each
    run makes its own store, so no table outlives the run.
    """

    def __init__(self, series_order=0):
        self._series_order = series_order
        self._tables = {}

    def get(self, name, *args):
        key = (name, args)
        table = self._tables.get(key)
        if table is None:
            table = self._build(name, args)
            self._tables[key] = table
        return table

    def _build(self, name, args):
        build = getattr(stats, name)
        if name in _BASE_SERIES_BUILDERS:
            (order,) = args
            if order < self._series_order:
                full = self.get(name, self._series_order)
                return TruncatedSeries(full.coeffs[: order + 1])
            return build(order)
        if name in stats.BASE_SERIES:
            keyword, base = stats.BASE_SERIES[name]
            # every table builder takes n_max as its last argument
            return build(*args, **{keyword: self.get(base, args[-1])})
        return build(*args)


def _run_suite(suite_id, config, tables=None):
    """One suite's report at config, reading tables (default: a fresh store)."""
    cases, describe = SUITES[suite_id]
    if tables is None:
        tables = TableStore()
    return _report(suite_id, describe(config), cases(tables, config))


# ---------------------------------------------------------------------------
# generating functions vs. enumeration


def _thmgf_cases(tables, config):
    n_max = config.enum_n_max()
    ks = list(config.ks())
    if n_max < 1 or not ks:
        return
    # one part-value DP pass, independent of the series, serves every cell
    A, B = enumeration.stat_sum_tables(n_max, max(ks))
    for k in ks:
        b_tab = tables.get("b_k_table", k, n_max)
        p_top = k if config.all_residues else 1
        a_tabs = [tables.get("a_kp_table", k, p, n_max) for p in range(p_top)]
        for n in range(1, n_max + 1):
            yield _case("ThmGF-b", {"k": k, "n": n}, b_tab[n], B[k - 1][n])
            yield _case("ThmGF-a", {"k": k, "n": n}, a_tabs[0][n], A[k - 1][0][n])
            for p in range(1, p_top):
                yield _case(
                    "ThmGF-ap",
                    {"k": k, "p": p, "n": n},
                    a_tabs[p][n],
                    A[k - 1][p][n],
                )


def verify_thmgf(n_max, k_max, all_residues=True):
    """Check the three closed-form tables against brute-force enumeration."""
    config = RunConfig(n_max, (1, k_max), all_residues=all_residues, enum_cap=n_max)
    return _run_suite("thmgf", config)


# ---------------------------------------------------------------------------
# linear relations between a and b statistics


def _thmcomb_cases(tables, config):
    n_max = config.n_max
    for k in config.ks():
        order = n_max + k + 1  # the shifted identity reads b_k(n + k - p)
        b_tab = tables.get("b_k_table", k, order)
        a0_tab = tables.get("a_k_table", k, order)
        for n in range(1, n_max + 1):
            yield _case(
                "ThmComb-1", {"k": k, "n": n}, a0_tab[n], k * b_tab[n]
            )
        if not config.all_residues:
            continue
        for p in range(1, k):
            ap_tab = tables.get("a_kp_table", k, p, order)
            for n in range(1, n_max + 1):
                rhs = (k - p) * b_tab[n - p] + p * b_tab[n + k - p]
                yield _case(
                    "ThmComb-2", {"k": k, "p": p, "n": n}, ap_tab[n], rhs
                )


def verify_thmcomb(n_max, k_max, all_residues=True):
    """Check a_k = k*b_k and a_{k,p}(n) = (k-p) b_k(n-p) + p b_k(n+k-p)."""
    config = RunConfig(n_max, (1, k_max), all_residues=all_residues)
    return _run_suite("thmcomb", config)


# ---------------------------------------------------------------------------
# truncated pentagonal identity


def _pentagonal_terms(ell):
    # (-1)^j q^(j(3j-1)/2) for j = -(ell-1)..ell.  Built here, not taken
    # from series.pentagonal_series, because stats.m_ell_table builds the
    # other side of the identity from that one
    for j in range(-(ell - 1), ell + 1):
        yield pentagonal_number(j), -1 if j % 2 else 1


def _ell_sign(ell):
    return -1 if ell % 2 == 0 else 1


def _truncated_pentagonal_lhs(b_tab, k, ell):
    # per n: (-1)^(ell-1) * (truncated pentagonal sum of b_k - n/k [k | n])
    sums = TruncatedSeries(b_tab.values).shift_sum(_pentagonal_terms(ell)).coeffs
    sign = _ell_sign(ell)
    return [sign * (s - stats.divisor_term(n, k)) for n, s in enumerate(sums)]


def _trunc_cases(tables, config):
    n_max = config.n_max
    for k in config.ks():
        b_tab = tables.get("b_k_table", k, n_max)
        for ell in config.ells():
            m_tab = tables.get("m_ell_table", ell, n_max)
            # sum_j j M_ell(n - kj) is the coefficient of q^n in
            # M_ell * q^k / (1 - q^k)^2
            rhs = (
                TruncatedSeries(m_tab.values)
                .shifted(k)
                .div_binomial(-1, k)
                .div_binomial(-1, k)
            ).coeffs
            lhs = _truncated_pentagonal_lhs(b_tab, k, ell)
            for n in range(n_max + 1):
                yield _case("Trunc-eq", {"k": k, "ell": ell, "n": n}, lhs[n], rhs[n])


def verify_trunc(k, ell, n_max):
    """Truncated pentagonal identity: the alternating b_k sum minus the
    divisor weight, signed, equals sum_j j * M_ell(n - kj)."""
    return _run_suite("trunc", RunConfig(n_max, (k, k), (ell, ell)))


def _trunc_corollary_cases(tables, config):
    n_max = config.n_max
    for k in config.ks():
        b_tab = tables.get("b_k_table", k, n_max)
        for ell in config.ells():
            lhs = _truncated_pentagonal_lhs(b_tab, k, ell)
            for n in range(n_max + 1):
                yield _case("Trunc-nonneg", {"k": k, "ell": ell, "n": n}, lhs[n], 0)
        # the bilateral sum: a pentagonal number <= n_max has
        # |j| <= isqrt(n_max), so ell = isqrt(n_max) + 1 reaches every one
        infsum = (
            TruncatedSeries(b_tab.values)
            .shift_sum(_pentagonal_terms(isqrt(n_max) + 1))
            .coeffs
        )
        for n in range(n_max + 1):
            yield _case(
                "Trunc-infsum", {"k": k, "n": n}, infsum[n], stats.divisor_term(n, k)
            )


def verify_trunc_corollaries(k, ell_max, n_max):
    """Nonnegativity of the truncated pentagonal expression for every
    ell <= ell_max, and the bilateral sum collapsing to n/k * [k | n]."""
    return _run_suite("trunc-corollaries", RunConfig(n_max, (k, k), (1, ell_max)))


# ---------------------------------------------------------------------------
# truncated theta identity


def _theta_terms(ell, corrected=True):
    # sign(j) q^(j(j+1)/2) for j = 0..2*ell-1; the sign is (-1)^(j(j+1)/2),
    # or (-1)^j uncorrected.  Not series.theta_truncated, for the same
    # reason as above: stats.mp_ell_table builds from that one
    for j in range(2 * ell):
        if corrected:
            sign = stats.triangular_weight_sign(j)
        else:
            sign = -1 if j % 2 else 1
        yield triangular_number(j), sign


def _gen17_sub(c_tab, k, n, indicator_form):
    return 0 if indicator_form and n % k != 0 else c_tab[n]


def _truncated_theta_lhs(b_tab, c_tab, k, ell, corrected=True, indicator_form=False):
    # per n: (-1)^(ell-1) * (truncated theta sum of b_k - c_k(n))
    sums = TruncatedSeries(b_tab.values).shift_sum(_theta_terms(ell, corrected)).coeffs
    sign = _ell_sign(ell)
    return [
        sign * (s - _gen17_sub(c_tab, k, n, indicator_form))
        for n, s in enumerate(sums)
    ]


def _gen17_rhs(tables, k, ell, n_max):
    # rhs[n] = sum_j c_k(j) MP_ell(n - j)
    c_values = tables.get("c_k_table", k, n_max).values
    mp_values = tables.get("mp_ell_table", ell, n_max).values
    return kernels.convolve(list(c_values), list(mp_values))


def _gen17_cases(tables, config, indicator_form=False):
    n_max = config.n_max
    for k in config.ks():
        b_tab = tables.get("b_k_table", k, n_max)
        c_tab = tables.get("c_k_table", k, n_max)
        # the full sum: j < 2(n_max + 1) reaches every triangular number <= n_max
        infsum = TruncatedSeries(b_tab.values).shift_sum(_theta_terms(n_max + 1)).coeffs
        for ell in config.ells():
            rhs = _gen17_rhs(tables, k, ell, n_max)
            lhs = _truncated_theta_lhs(
                b_tab, c_tab, k, ell, indicator_form=indicator_form
            )
            for n in range(n_max + 1):
                yield _case("Gen17-eq", {"k": k, "ell": ell, "n": n}, lhs[n], rhs[n])
                yield _case("Gen17-nonneg", {"k": k, "ell": ell, "n": n}, lhs[n], 0)
            for n in range(n_max + 1):
                yield _case(
                    "Gen17-infsum",
                    {"k": k, "n": n},
                    infsum[n],
                    _gen17_sub(c_tab, k, n, indicator_form),
                )


def verify_gen17(k, ell, n_max, indicator_form=False):
    """Truncated theta identity: the alternating triangular b_k sum minus
    c_k(n), signed, equals the convolution sum_j c_k(j) MP_ell(n-j); plus
    its nonnegativity and full-sum corollaries.

    indicator_form=True replaces the subtrahend c_k(n) by [k | n]*c_k(n);
    that variant provably fails for k >= 3 (e.g. k=3, n=5) and is kept as
    a diagnostic, not as the default identity.
    """
    config = RunConfig(n_max, (k, k), (ell, ell))
    return _report(
        "gen17",
        dict(_k_ell_range(config), indicator_form=indicator_form),
        _gen17_cases(TableStore(), config, indicator_form),
    )


# ---------------------------------------------------------------------------
# the exponent correction


def _bad_exponent_cells(tables, n_max, ell_max):
    """Cells of the k=2 theta identity evaluated with the wrong sign
    (-1)^j instead of (-1)^(j(j+1)/2), yielding (n, ell, lhs, rhs)."""
    b_tab = tables.get("b_k_table", 2, n_max)
    c_tab = tables.get("c_k_table", 2, n_max)
    ells = range(1, ell_max + 1)
    rhs = {ell: _gen17_rhs(tables, 2, ell, n_max) for ell in ells}
    lhs = {
        ell: _truncated_theta_lhs(b_tab, c_tab, 2, ell, corrected=False)
        for ell in ells
    }
    for n in range(1, n_max + 1):
        for ell in ells:
            yield n, ell, lhs[ell][n], rhs[ell][n]


def _bad_exponent_witness(tables, n_max, ell_max):
    for n, ell, lhs, rhs in _bad_exponent_cells(tables, n_max, ell_max):
        if lhs != rhs:
            return n, ell
    return None


def find_bad_exponent_counterexample(n_max, ell_max=3):
    """Smallest (n, ell) where the uncorrected sign variant fails, or None.

    Cells are scanned by increasing n, then increasing ell.
    """
    return _bad_exponent_witness(TableStore(), n_max, ell_max)


def uncorrected_exponent_report(n_max, ell_max=3):
    """Full sweep of the uncorrected variant; the failures list holds every
    cell where the wrong sign actually changes the identity."""
    cells = _bad_exponent_cells(TableStore(), n_max, ell_max)
    return _report(
        "bad-exponent",
        {"n_max": n_max, "k": [2, 2], "ell": [1, ell_max], "mode": "raw"},
        (
            _case("BadExponent", {"k": 2, "ell": ell, "n": n}, lhs, rhs)
            for n, ell, lhs, rhs in cells
        ),
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


def _bad_exponent_witness_cases(tables, config):
    ell_top = _witness_ell_top(config)
    if ell_top is None:
        return
    witness = _bad_exponent_witness(tables, config.n_max, ell_top)
    if witness is None:
        yield _case("BadExponent", {"witness_found": 0}, 0, 1)
    else:
        n, ell = witness
        yield _case(
            "BadExponent", {"witness_found": 1, "n": n, "ell": ell}, 1, 1
        )


def bad_exponent_witness_report(n_max, ell_max=3):
    """Meta-check for full runs: passes when a counterexample to the
    uncorrected variant exists (i.e. the sign correction is substantive);
    vacuous, with no case, when ell_max < 2 or n_max < 1."""
    return _run_suite("bad-exponent", RunConfig(n_max, ell_range=(1, ell_max)))


# ---------------------------------------------------------------------------
# overpartition identities


def _colored_object_series(p_series, k):
    # P2's product 1/(q;q)_inf * q^k/(1-q^k)^2, from the partition series:
    # a shift and two O(n) divisions
    return p_series.shifted(k).div_binomial(-1, k).div_binomial(-1, k).coeffs


def _overpartition_cases(tables, config):
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
    p_series = tables.get("partition_gf", n_max)
    for k in ks:
        a_series = _colored_object_series(p_series, k)
        overlined, colored = counts[k]
        for n in range(1, n_max + 1):
            yield _case("P1", {"k": k, "n": n}, overlined[n], A[k - 1][0][n])
            yield _case("P2", {"k": k, "n": n}, colored[n], a_series[n])
            yield _case("P3", {"k": k, "n": n}, overlined[n], k * colored[n])


def verify_overpartition_identities(k, n_max):
    """The three marked-overpartition identities: the overlined-part total
    equals a_k(n); the colored-object count matches its product series;
    and merging colored into overlined parts is k-to-one."""
    return _run_suite("overpartitions", RunConfig(n_max, (k, k), enum_cap=n_max))


# ---------------------------------------------------------------------------
# M_ell evaluation-route agreement


def _m_route_cases(tables, config):
    n_max = config.n_max
    for ell in config.ells():
        # internally: pentagonal == gaussian
        primary = tables.get("m_ell_table", ell, n_max)
        pdiff = tables.get("m_ell_table_pdiff", ell, n_max)
        for n in range(n_max + 1):
            yield _case("PfT2", {"ell": ell, "n": n}, primary[n], pdiff[n])


def verify_m_routes(ell_max, n_max):
    """All three M_ell evaluations agree: pentagonal rearrangement,
    Gaussian-binomial sum, and partition-count differences."""
    return _run_suite("m-routes", RunConfig(n_max, ell_range=(1, ell_max)))


# ---------------------------------------------------------------------------
# full runs


def _k_range(config, n_max):
    return {"n_max": n_max, "k": list(config.k_range)}


def _k_ell_range(config):
    return dict(_k_range(config, config.n_max), ell=list(config.ell_range))


# suite id -> (cases, describe), in report order.  cases(tables, config)
# yields the suite's IdentityCases, reading its tables from the run's
# TableStore; describe(config) is the range its report records.
SUITES = {
    "thmgf": (
        _thmgf_cases,
        lambda c: dict(_k_range(c, c.enum_n_max()), all_residues=c.all_residues),
    ),
    "thmcomb": (_thmcomb_cases, lambda c: _k_range(c, c.n_max)),
    "trunc": (_trunc_cases, _k_ell_range),
    "trunc-corollaries": (_trunc_corollary_cases, _k_ell_range),
    "gen17": (_gen17_cases, _k_ell_range),
    "overpartitions": (_overpartition_cases, lambda c: _k_range(c, c.enum_n_max())),
    "m-routes": (
        _m_route_cases,
        lambda c: {"n_max": c.n_max, "ell": list(c.ell_range)},
    ),
    "bad-exponent": (_bad_exponent_witness_cases, _bad_exponent_witness_range),
}
SUITE_ORDER = tuple(SUITES)


def run_all(config=None, suites=None):
    """Run every verification suite (or those named in suites) at the
    configured ranges, one after another over one TableStore.

    Reports come back in SUITE_ORDER, so identical configs yield
    identical output; config.threads is validated but does not change
    how the suites run.
    """
    config = config or RunConfig()
    config.validate()
    tables = TableStore(config.series_order())
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
