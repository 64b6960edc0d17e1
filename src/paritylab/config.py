"""Resource budgets for exact dynamic programming, unrolling and reduction,
overridable via env vars."""

from __future__ import annotations

import os

DEFAULT_DP_BUDGET = 200_000_000     # layer-width * 4^n * length cells
DEFAULT_STATE_BUDGET = 2_000_000    # vertices of an unrolled or reduced layer * 2^{n+1} edges


class BudgetExceeded(RuntimeError):
    pass


def _budget(name: str, default: int) -> int:
    """The integer in environment variable `name`, else `default`; a value
    that is not an integer >= 1 raises a ValueError naming the variable."""
    text = os.environ.get(name)
    if text is None:
        return default
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {text!r}")
    return value


def dp_budget() -> int:
    return _budget("PARITYLAB_DP_BUDGET", DEFAULT_DP_BUDGET)


def state_budget() -> int:
    return _budget("PARITYLAB_STATE_BUDGET", DEFAULT_STATE_BUDGET)

