"""partitionlab: exact partition statistics and q-series identity checking.

Two independent evaluation routes for every statistic -- formal
truncated power series (`series`, `stats`) and brute-force enumeration
(`enumeration`) -- plus sweeps (`verify`) that mechanically confirm the
identities connecting them, over user-chosen parameter ranges.
"""

from .enumeration import (
    OverpartitionMarked,
    a_kp,
    b_k,
    c_subsets,
    m_ell,
    mp_ell,
    mp_ell_verbal,
    overpartitions_a,
    overpartitions_p,
    part_multiplicities,
    partition_count_table,
    partitions,
    q_distinct,
)
from .series import (
    TruncatedSeries,
    distinct_parts_gf,
    euler_product,
    partition_gf,
    pentagonal_number,
    pentagonal_series,
    product,
    theta_truncated,
    triangular_number,
)
from .stats import (
    a_kp_table,
    b_k_table,
    c_k_table,
    divisor_term,
    m_ell_table,
    m_ell_table_pdiff,
    mp_ell_table,
    p_table,
    q_table,
)
from .verify import (
    IdentityCase,
    RunConfig,
    VerificationReport,
    reports_to_json,
    run_all,
    uncorrected_exponent_report,
)

__version__ = "0.1.0"

# the kernels are pure Python; kept as a name for run records that log it
BACKEND = "pure-python"

__all__ = [
    "BACKEND",
    "IdentityCase",
    "OverpartitionMarked",
    "RunConfig",
    "TruncatedSeries",
    "VerificationReport",
    "__version__",
    "a_kp",
    "a_kp_table",
    "b_k",
    "b_k_table",
    "c_k_table",
    "c_subsets",
    "distinct_parts_gf",
    "divisor_term",
    "euler_product",
    "m_ell",
    "m_ell_table",
    "m_ell_table_pdiff",
    "mp_ell",
    "mp_ell_table",
    "mp_ell_verbal",
    "overpartitions_a",
    "overpartitions_p",
    "p_table",
    "part_multiplicities",
    "partition_count_table",
    "partition_gf",
    "partitions",
    "pentagonal_number",
    "pentagonal_series",
    "product",
    "q_distinct",
    "q_table",
    "reports_to_json",
    "run_all",
    "theta_truncated",
    "triangular_number",
    "uncorrected_exponent_report",
]
