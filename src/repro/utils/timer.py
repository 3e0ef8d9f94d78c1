"""Wall-clock timing for the experiment harnesses.

The paper reports mean runtimes over five repetitions (Table 1, Figure 1,
Figure 2, Figure 5).  :func:`timed` gives the harnesses one consistent way
to measure those intervals without pulling in a benchmarking dependency
inside the library itself (pytest-benchmark is used only in
``benchmarks/``).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Tuple


def timed(function: Callable[..., Any], *args: Any, **kwargs: Any) -> Tuple[Any, float]:
    """Call ``function(*args, **kwargs)`` and return ``(result, seconds)``."""
    start = time.perf_counter()
    result = function(*args, **kwargs)
    return result, time.perf_counter() - start
