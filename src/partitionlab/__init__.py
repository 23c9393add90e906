"""partitionlab: exact partition statistics and q-series identity checking.

Two independent evaluation routes for every statistic -- formal
truncated power series (`series`, `stats`) and brute-force enumeration
(`enumeration`) -- plus sweeps (`verify`) that mechanically confirm the
identities connecting them, over user-chosen parameter ranges.  Each
public name lives in its module, as `partitionlab.stats.b_k_table`;
importing the package loads none of them.
"""

__version__ = "0.1.0"

# the kernels are pure Python; kept as a name for run records that log it
BACKEND = "pure-python"

__all__ = ["BACKEND", "__version__"]
