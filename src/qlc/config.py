"""Job-level knobs: time budget and search caps.

Engine code is deterministic and seed-free; the only nondeterminism a budget
introduces is *whether* a computation finishes, never its value.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass


class BudgetExhausted(RuntimeError):
    """Raised cooperatively when the active time budget runs out."""


@dataclass
class JobConfig:
    """Caps shared by the search routines.

    time_budget: wall-clock seconds, None = unlimited.
    dim_caps: exhaustive quasilength search caps, keyed by field size.
    """

    time_budget: float | None = None
    dim_cap_f2: int = 12
    dim_cap_f3: int = 8
    dim_cap_other: int = 8
    disproof_node_budget: int = 200000
    stabilization_window: int = 3

    def dim_cap(self, field_size: int | None) -> int:
        if field_size == 2:
            return self.dim_cap_f2
        if field_size == 3:
            return self.dim_cap_f3
        return self.dim_cap_other


DEFAULT = JobConfig()

# Active deadline, set by budget() around a whole job.  Monotonic clock
# value, or None.  Checked cooperatively from the inner loops.
_deadline: float | None = None
_check_counter = 0


@contextlib.contextmanager
def budget(seconds: float | None):
    """Run a block under a wall-clock budget; nested budgets take the minimum."""
    global _deadline
    old = _deadline
    if seconds is not None:
        candidate = time.monotonic() + seconds
        _deadline = candidate if old is None else min(old, candidate)
    try:
        yield
    finally:
        _deadline = old


def check_budget(every: int = 64) -> None:
    """Cheap cooperative check; raises BudgetExhausted past the deadline."""
    global _check_counter
    if _deadline is None:
        return
    _check_counter += 1
    if _check_counter % every:
        return
    if time.monotonic() > _deadline:
        raise BudgetExhausted("time budget exhausted")


def default_budget_seconds() -> float:
    raw = os.environ.get("QLC_BUDGET_SECS", "")
    try:
        return float(raw) if raw else 300.0
    except ValueError:
        return 300.0
