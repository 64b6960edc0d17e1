"""Resource budgets for exact dynamic programming, overridable via env vars."""

from __future__ import annotations

import os

DEFAULT_DP_BUDGET = 200_000_000     # layer-width * 4^n * length cells
DEFAULT_STATE_BUDGET = 2_000_000    # reachable states per unrolled layer * 2^{n+1} edges


class BudgetExceeded(RuntimeError):
    pass


def dp_budget() -> int:
    return int(os.environ.get("PARITYLAB_DP_BUDGET", DEFAULT_DP_BUDGET))


def state_budget() -> int:
    return int(os.environ.get("PARITYLAB_STATE_BUDGET", DEFAULT_STATE_BUDGET))
