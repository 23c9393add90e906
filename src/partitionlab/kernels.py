"""Kernel backend selection.

Imports the compiled extension when it is available, otherwise the
pure-Python fallback.  PARTITIONLAB_PURE=1 forces the fallback; neither
the parity tests (which load each backend directly) nor the benchmark
set it.  Both backends expose identical functions with identical
exact-arithmetic semantics.
"""

import os

from . import _kernels_py

if os.environ.get("PARTITIONLAB_PURE") == "1":
    _impl = _kernels_py
else:
    try:
        from . import _speedups as _impl  # type: ignore[no-redef]
    except ImportError:
        _impl = _kernels_py

BACKEND = "pure-python" if _impl is _kernels_py else "compiled"
MAX_SWEEP_N = _impl.MAX_SWEEP_N

convolve = _impl.convolve
invert_unit = _impl.invert_unit
ab_stat_sums = _impl.ab_stat_sums
