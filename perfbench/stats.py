"""Order statistics and the report digest gate (pure helpers)."""

from __future__ import annotations

import hashlib
import statistics
from pathlib import Path
from typing import Optional, Sequence, Tuple


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives
    them; a single sample is its own quartiles."""
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def percentile(values: Sequence[float], p: int) -> float:
    """The ``p``-th percentile (``p`` a multiple of 10 in 10..90),
    interpolated between the closest ranks; a single sample is its own
    percentile."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[p // 10 - 1]


def digest_mismatch(report: Path, golden: str) -> Optional[str]:
    """Why ``report`` fails the golden-digest gate; ``None`` if it passes."""
    if not Path(report).is_file():
        return f"no report at {report}"
    actual = hashlib.sha256(Path(report).read_bytes()).hexdigest()
    if actual != golden:
        return f"report digest {actual[:12]} differs from golden {golden[:12]}"
    return None
