"""Report containers shared by the verification and rearrangement layers."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class InequalityReport:
    """Two sides of one inequality instance, with the pass verdict.

    direction "lower" means the claim is lhs >= rhs and the check passes
    when lhs >= rhs * (1 - rtol) - atol; "upper" is the mirror image.
    ratio is lhs / rhs when rhs != 0.
    """

    inequality: str
    params: dict
    lhs: float
    rhs: float
    direction: str
    ratio: float
    passed: bool
    rtol: float
    atol: float
    sharp_constant: Optional[float] = None
    diagnostics: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return _plain(asdict(self))


def make_report(
    inequality: str,
    params: dict,
    lhs: float,
    rhs: float,
    direction: str,
    rtol: float,
    atol: float = 0.0,
    sharp_constant: Optional[float] = None,
    diagnostics: Optional[dict] = None,
) -> InequalityReport:
    if direction not in ("lower", "upper"):
        raise ValueError(f"direction must be 'lower' or 'upper', got {direction!r}")
    if math.isinf(lhs) and math.isinf(rhs):
        passed = True  # both sides diverge: vacuous
        ratio = math.nan
    else:
        ratio = lhs / rhs if rhs != 0.0 else math.inf * (1 if lhs > 0 else 0 if lhs == 0 else -1)
        if direction == "lower":
            passed = lhs >= rhs * (1.0 - rtol) - atol
        else:
            passed = lhs <= rhs * (1.0 + rtol) + atol
    return InequalityReport(
        inequality=inequality,
        params=dict(params),
        lhs=float(lhs),
        rhs=float(rhs),
        direction=direction,
        ratio=float(ratio),
        passed=bool(passed),
        rtol=rtol,
        atol=atol,
        sharp_constant=sharp_constant,
        diagnostics=dict(diagnostics or {}),
    )


@dataclass(frozen=True)
class SweepResult:
    """Per-point table of a sharpness sweep plus the extrapolated limit."""

    variable: str
    grid: list
    rows: list  # one dict per grid point
    limit: float
    target: float
    order_estimate: Optional[float]
    passed: bool
    rtol: float

    def as_dict(self) -> dict:
        return _plain(asdict(self))


def richardson_limit(grid, values):
    """Extrapolate the tail of a convergent sweep.

    Uses the last three points; estimates the convergence order from the
    successive differences and returns (limit, order).  Degenerate sweeps
    (constant values, fewer than three points) return the last value with
    order None.
    """
    values = [float(v) for v in values]
    if len(values) < 3:
        return values[-1], None
    v0, v1, v2 = values[-3:]
    d0, d1 = v1 - v0, v2 - v1
    if d1 == 0.0 or d0 == 0.0 or abs(d1) >= abs(d0):
        return v2, None
    q = d1 / d0
    limit = v2 + d1 * q / (1.0 - q)
    g0, g1, g2 = (float(g) for g in grid[-3:])
    order = None
    if g1 > g0 and g2 > g1:
        h = (g2 / g1 + g1 / g0) / 2.0
        if h > 1.0 and q > 0:
            order = -math.log(q) / math.log(h)
    return limit, order


def _plain(obj):
    """Recursively coerce numpy scalars/arrays for JSON emission."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, np.generic):
        return obj.item()
    return obj
