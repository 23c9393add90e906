"""Identity verification sweeps.

Every theorem-level identity of the package is restated here as an
executable check over a parameter grid.  A suite yields blocks of rows;
a row (identity_id, params, lhs, rhs) is one identity over a run of n,
its cell i has the sides lhs[i], rhs[i] and the params params(i), and a
row with no rhs (None) is a nonnegativity check, lhs[i] >= 0.  _report
alone judges a row in one pass, keeping an IdentityCase for each failing
cell in a VerificationReport.  Failures are collected, never
thrown: a failing identity is data (the counterexample), not an error.
The truncated-theta suites share one generator over a ThetaFamily.

All equalities are exact integer comparisons; there are no tolerances.
"""

from collections import namedtuple
from operator import add, ne, sub

from . import enumeration, stats
from .series import pentagonal_number, triangular_number

IdentityCase = namedtuple("IdentityCase", "identity_id params lhs rhs")


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
        "n_max k_range ell_range enum_cap",
        defaults=(60, (1, 4), (1, 3), 30),
    )
):
    """Ranges and caps for a full verification run.

    Series-backed sweeps go up to n_max; enumeration-backed sweeps are
    capped separately by enum_cap so the brute-force side stays fast.
    """

    __slots__ = ()

    def validate(self):
        """Raise ValueError on a config that no run can use.  An empty k
        or ell range holds no value to check, and a k above n_max is a
        cell like any other."""
        if self.n_max < 0:
            raise ValueError("n_max must be >= 0")
        if self.ks() and self.k_range[0] < 1:
            raise ValueError("k values must be >= 1")
        if self.ells() and self.ell_range[0] < 1:
            raise ValueError("ell values must be >= 1")
        if self.enum_cap < 0:
            raise ValueError("enum_cap must be >= 0")

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


def _report(suite_id, range_desc, blocks):
    """Judge blocks (lists of rows whose sides have one length; a block's
    cells run by i, then by row, as do its failures) into a report.  A row
    that holds costs one pass in C; only a failing cell is an IdentityCase."""
    total = 0
    failures = []
    for rows in blocks:
        failed = []
        for row in rows:
            _, _, lhs, rhs = row
            total += len(lhs)
            if rhs is None:  # a nonnegativity row: lhs >= 0
                if min(lhs, default=0) < 0:
                    failed += [(i, row, u, 0) for i, u in enumerate(lhs) if u < 0]
            elif len(lhs) != len(rhs) or any(map(ne, lhs, rhs)):
                cells = enumerate(zip(lhs, rhs, strict=True))
                failed += [(i, row, u, v) for i, (u, v) in cells if u != v]
        failed.sort(key=lambda cell: cell[0])  # stable: rows keep their order
        for i, (identity_id, params, _, _), lhs, rhs in failed:
            failures.append(IdentityCase(identity_id, params(i), lhs, rhs))
    return VerificationReport(suite_id, range_desc, total, failures)


def _at_n(fixed, first):  # the params of cell i at n = first + i
    return lambda i: dict(fixed, n=first + i)


def _stat_sums(tables, config):
    """enumeration.stat_sum_tables up to the enum bound and the largest k,
    kept in the run's store: the one DP pass that thmgf and overpartitions
    share.  It is looked up at call time, so a patched or traced
    replacement is the one that runs."""
    n_max, k_max = config.enum_n_max(), config.ks()[-1]
    return tables.keep(
        ("stat_sum_tables", n_max, k_max),
        lambda: enumeration.stat_sum_tables(n_max, k_max),
    )


# ---------------------------------------------------------------------------
# generating functions vs. enumeration


def _thmgf_cells(tables, config):
    """The three closed-form tables, at every residue 0 <= p < k, against
    brute-force enumeration."""
    n_max = config.enum_n_max()
    ks = list(config.ks())
    if n_max < 1 or not ks:
        return
    # the run's one part-value DP pass, independent of the series, serves
    # every cell
    A, B = _stat_sums(tables, config)
    for k in ks:
        b = tables.get("b_k_table", k, n_max).coeffs
        a = [tables.get("a_kp_table", k, p, n_max).coeffs for p in range(k)]
        rows = [("ThmGF-b", {"k": k}, b, B[k - 1])]
        rows.append(("ThmGF-a", {"k": k}, a[0], A[k - 1][0]))
        rows += [("ThmGF-ap", {"k": k, "p": p}, a[p], A[k - 1][p]) for p in range(1, k)]
        yield [(id_, _at_n(fixed, 1), x[1:], y[1:]) for id_, fixed, x, y in rows]


# ---------------------------------------------------------------------------
# linear relations between a and b statistics


def _thmcomb_cells(tables, config):
    """a_k = k*b_k and a_{k,p}(n) = (k-p) b_k(n-p) + p b_k(n+k-p)."""
    n_max = config.n_max
    for k in config.ks():
        order = n_max + k + 1  # the shifted identity reads b_k(n + k - p)
        b_tab = tables.get("b_k_table", k, order)
        b = b_tab.coeffs[1 : n_max + 1]
        a0 = tables.get("a_kp_table", k, 0, order).coeffs[1 : n_max + 1]
        yield [("ThmComb-1", _at_n({"k": k}, 1), a0, [k * v for v in b])]
        for p in range(1, k):
            ap = tables.get("a_kp_table", k, p, order).coeffs[1 : n_max + 1]
            b_before = b_tab.shifted(p).coeffs[1 : n_max + 1]  # b_k(n - p)
            b_after = b_tab.coeffs[1 + k - p :]  # b_k(n + k - p)
            rhs = [(k - p) * u + p * v for u, v in zip(b_before, b_after)]
            yield [("ThmComb-2", _at_n({"k": k, "p": p}, 1), ap, rhs)]


# ---------------------------------------------------------------------------
# truncated-theta families


class ThetaFamily(namedtuple("ThetaFamily", "js exponent sign main remainder_table")):
    """One family of truncated identities, the shape of every refinement
    the paper proves: for k >= 1, ell >= 1 and every n,

        (-1)^(ell-1) * (sum_{j in js(ell)} sign(j) b_k(n - exponent(j)) - main(n))
            = remainder(n),

    the signed sum over every j collapsing to main(n).  js(ell) is a range
    that grows with ell, by terms whose exponents grow with ell; sign(j)
    is +1 or -1.
    main(tables, k, n_max) gives n = 0..n_max from the run's tables, and
    remainder(tables, k, ell, n_max) is the store's remainder_table at ell
    weighted by q^k/(1 - q^k)^2.  lhs, bilateral_sum and the infsum rows
    read the running sums and main term that the store keeps once per
    family, k and n_max.  The terms are built here from pentagonal_number
    and triangular_number, never taken from series.pentagonal_series or
    series.theta_truncated, because stats.m_ell_table_pdiff and
    stats.mp_ell_table are built from those.
    """

    __slots__ = ()

    def running_sums(self, tables, k, n_max):
        """[S_1, S_2, ...] with S_ell(n) = sum_{j in js(ell)} sign(j)
        b_k(n - exponent(j)), as one running sum: each ell adds the terms of
        js(ell) not in js(ell - 1), until one adds none of degree <= n_max.
        So the last S_ell is the bilateral sum, and so is every later one."""
        b = tables.get("b_k_table", k, n_max).coeffs
        s, sums, ell = [0] * (n_max + 1), [], 0
        while True:
            ell += 1
            now, before = self.js(ell), self.js(ell - 1)
            new = (*range(now.start, before.start), *range(before.stop, now.stop))
            terms = [(e, self.sign(j)) for j in new if (e := self.exponent(j)) <= n_max]
            if not terms:
                return sums
            for e, c in terms:  # c is +1 or -1
                s[e:] = map(add if c > 0 else sub, s[e:], b)
            sums.append(s[:])

    def _sums(self, tables, k, n_max):
        # the running sums and main term, kept in the store for every reader
        return tables.keep(
            (self, k, n_max),
            lambda: (self.running_sums(tables, k, n_max), self.main(tables, k, n_max)),
        )

    def lhs(self, tables, k, ell, n_max):
        """(-1)^(ell-1) * (S_ell - main)."""
        sums, main = self._sums(tables, k, n_max)
        s = sums[min(ell, len(sums)) - 1]
        return list(map(sub, s, main) if ell % 2 else map(sub, main, s))

    def bilateral_sum(self, tables, k, n_max):
        return self._sums(tables, k, n_max)[0][-1]

    def remainder(self, tables, k, ell, n_max):
        return stats.k_weighted(tables.get(self.remainder_table, ell, n_max), k).coeffs


def _alternating(j):
    return -1 if j % 2 else 1


PENTAGONAL = ThetaFamily(
    js=lambda ell: range(-(ell - 1), ell + 1),
    exponent=pentagonal_number,
    sign=_alternating,
    main=lambda tables, k, n_max: [stats.divisor_term(n, k) for n in range(n_max + 1)],
    # sum_j j M_ell(n - kj), the coefficient of q^n in M_ell * q^k/(1 - q^k)^2
    remainder_table="m_ell_table",
)
TRIANGULAR = ThetaFamily(
    js=lambda ell: range(2 * ell),
    exponent=triangular_number,
    sign=stats.triangular_weight_sign,  # (-1)^(j(j+1)/2)
    main=lambda tables, k, n_max: tables.get("c_k_table", k, n_max).coeffs,
    # sum_j c_k(j) MP_ell(n - j), as c_k is Q(q^2) * q^k/(1 - q^k)^2
    remainder_table="q2_mp_ell_table",
)
# the indicator variant, main term [k | n] * c_k(n): no suite checks it,
# as it fails exactly where k does not divide n and c_k(n) != 0 (first at
# k=3, n=5)
TRIANGULAR_INDICATOR = TRIANGULAR._replace(
    main=lambda tables, k, n_max: [
        c if n % k == 0 else 0
        for n, c in enumerate(tables.get("c_k_table", k, n_max).coeffs)
    ]
)
# the sign (-1)^j that the paper corrects to (-1)^(j(j+1)/2)
TRIANGULAR_UNCORRECTED = TRIANGULAR._replace(sign=_alternating)


def _theta_cells(family, eq, nonneg, infsum, infsum_each_ell=False):
    """A theta suite's cells over family: per k, a block per ell of its eq
    row (lhs against the remainder), then its nonneg row (lhs >= 0); then
    a block of its infsum row (bilateral sum against main), or one after
    each ell's with infsum_each_ell.  An id that is None leaves out its row."""

    def cells(tables, config):
        n_max = config.n_max
        for k in config.ks():
            if infsum:  # the bilateral sum and main term the store keeps
                sums, main = family._sums(tables, k, n_max)
                bilateral = [(infsum, _at_n({"k": k}, 0), sums[-1], main)]
            for ell in config.ells():
                params = _at_n({"k": k, "ell": ell}, 0)
                lhs = family.lhs(tables, k, ell, n_max)
                rhs = family.remainder(tables, k, ell, n_max) if eq else None
                rows = (eq, params, lhs, rhs), (nonneg, params, lhs, None)
                yield [row for row in rows if row[0]]
                if infsum_each_ell:
                    yield bilateral
            if infsum and not infsum_each_ell:
                yield bilateral

    return cells


# ---------------------------------------------------------------------------
# the exponent correction


def _bad_exponent_block(tables, n_max, ell_max):
    """The BadExponent block of the k=2 theta identity evaluated with the
    wrong sign (-1)^j instead of (-1)^(j(j+1)/2): one row per ell, its
    cells by increasing n, then increasing ell."""
    family, rows = TRIANGULAR_UNCORRECTED, []
    for ell in range(1, ell_max + 1):
        lhs = family.lhs(tables, 2, ell, n_max)[1:]
        rhs = family.remainder(tables, 2, ell, n_max)[1:]
        rows.append(("BadExponent", _at_n({"k": 2, "ell": ell}, 1), lhs, rhs))
    return rows


def uncorrected_exponent_report(n_max, ell_max):
    """Full sweep of the uncorrected variant; the failures list holds every
    cell where the wrong sign actually changes the identity."""
    config = RunConfig(n_max, (2, 2), (1, ell_max))
    config.validate()
    tables = stats.TableStore(config.series_order())
    block = _bad_exponent_block(tables, n_max, ell_max)
    return _report("bad-exponent", dict(_k_ell_range(config), mode="raw"), [block])


def _bad_exponent_witness_range(config):
    # the two sign rules coincide for ell=1, so the demonstration needs
    # ell >= 2 and some n; otherwise the check is vacuous
    n_max, (lo, hi) = config.n_max, config.ell_range
    if lo <= hi and hi >= 2 and n_max >= 1:
        return {"n_max": n_max, "k": [2, 2], "ell": [1, hi], "mode": "witness"}
    return {"n_max": n_max, "ell": [lo, hi], "mode": "witness"}


def _bad_exponent_witness_cells(tables, config):
    # ell = 1..hi, or no ell for an empty ell range; where the two sign
    # rules give the same left sides (ell = 1, or n_max < 5) no cell follows
    n_max, (lo, hi) = config.n_max, config.ell_range
    ell_top = hi if lo <= hi else 0
    rows = _bad_exponent_block(tables, n_max, ell_top)
    # the raw block's first mismatch, by n, then ell: a scan, with no report
    first = (at(i) for i in range(n_max) for _, at, u, v in rows if u[i] != v[i])
    witness = next(first, None)
    if witness is not None:
        params = dict(witness_found=1, n=witness["n"], ell=witness["ell"])
        yield [("BadExponent", lambda i: params, [1], [1])]
    elif any(
        TRIANGULAR.lhs(tables, 2, ell, n_max)
        != TRIANGULAR_UNCORRECTED.lhs(tables, 2, ell, n_max)
        for ell in range(1, ell_top + 1)
    ):
        # no witness although the signs change some left side; where they
        # change none, as below the first witness, nothing is to be shown
        yield [("BadExponent", lambda i: {"witness_found": 0}, [0], [1])]


# ---------------------------------------------------------------------------
# overpartition identities


def _overpartition_cells(tables, config):
    """The three marked-overpartition identities: the overlined-part total
    equals a_k(n); the colored-object count matches its product series;
    and merging colored into overlined parts is k-to-one."""
    # P1 compares one walk over every partition with the part-value DP
    # stat_sum_tables, which walks no partition: two independent counts.
    # The suite reads the run's one DP pass, which thmgf shares.  P2
    # builds its series here from the store's partition series, not from
    # stats.b_k_table, so the suite reads no statistic table of the store
    n_max = config.enum_n_max()
    ks = list(config.ks())
    if n_max < 1 or not ks:
        return
    A = _stat_sums(tables, config)[0]
    counts = enumeration.overpartition_counts(n_max, ks)
    gf = tables.get("partition_gf", n_max)
    for k in ks:
        overlined, colored = (row[1:] for row in counts[k])
        params = _at_n({"k": k}, 1)
        yield [
            ("P1", params, overlined, A[k - 1][0][1:]),
            ("P2", params, colored, stats.k_weighted(gf, k).coeffs[1:]),
            ("P3", params, overlined, [k * c for c in colored]),
        ]


# ---------------------------------------------------------------------------
# M_ell evaluation-route agreement


def _m_route_cells(tables, config):
    """The two M_ell routes agree: the Gaussian-binomial sum
    (stats.m_ell_table), which reads no P, and the partition-count
    differences, the pentagonal truncation times P
    (stats.m_ell_table_pdiff)."""
    n_max = config.n_max
    for ell in config.ells():
        gaussian = tables.get("m_ell_table", ell, n_max).coeffs
        pdiff = tables.get("m_ell_table_pdiff", ell, n_max).coeffs
        yield [("PfT2", _at_n({"ell": ell}, 0), gaussian, pdiff)]


# ---------------------------------------------------------------------------
# full runs


def _k_range(config, n_max):
    return {"n_max": n_max, "k": list(config.k_range)}


def _k_ell_range(config):
    return dict(_k_range(config, config.n_max), ell=list(config.ell_range))


# suite id -> (cells, describe), in report order.  cells(tables, config)
# yields the suite's blocks of rows, reading its tables, its DP pass and
# its running sums from the run's one stats.TableStore; describe(config)
# is the range its report records.  A theta suite is one _theta_cells row.
SUITES = {
    "thmgf": (
        _thmgf_cells,
        # the constant key keeps the range that perfbench/reference.json gates
        lambda c: dict(_k_range(c, c.enum_n_max()), all_residues=True),
    ),
    "thmcomb": (_thmcomb_cells, lambda c: _k_range(c, c.n_max)),
    # truncated pentagonal identity: the signed lhs is sum_j j M_ell(n - kj)
    "trunc": (_theta_cells(PENTAGONAL, "Trunc-eq", None, None), _k_ell_range),
    # that lhs is >= 0 for every ell, and the bilateral sum is n/k [k | n]
    "trunc-corollaries": (
        _theta_cells(PENTAGONAL, None, "Trunc-nonneg", "Trunc-infsum"),
        _k_ell_range,
    ),
    # the truncated theta identity, its lhs >= 0 and its bilateral sum c_k(n)
    "gen17": (
        _theta_cells(TRIANGULAR, "Gen17-eq", "Gen17-nonneg", "Gen17-infsum", True),
        _k_ell_range,
    ),
    "overpartitions": (_overpartition_cells, lambda c: _k_range(c, c.enum_n_max())),
    "m-routes": (
        _m_route_cells,
        lambda c: {"n_max": c.n_max, "ell": list(c.ell_range)},
    ),
    "bad-exponent": (_bad_exponent_witness_cells, _bad_exponent_witness_range),
}
SUITE_ORDER = tuple(SUITES)


def run_all(config, suites=None):
    """Run every verification suite (or those named in suites) at the
    configured ranges, one after another over one stats.TableStore, which
    keeps each table, at most one DP pass and one running sum per family
    and k.

    Reports come back in SUITE_ORDER, so identical configs yield
    identical output.
    """
    config.validate()
    tables = stats.TableStore(config.series_order())
    return [
        _report(sid, describe(config), cells(tables, config))
        for sid, (cells, describe) in SUITES.items()
        if suites is None or sid in suites
    ]
