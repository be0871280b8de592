"""Job-level bounds: the wall-clock budget and the disproof node budget, and
the two errors every layer may raise (the budget running out, a broken
invariant).

Engine code is deterministic and seed-free; the only nondeterminism a budget
introduces is *whether* a computation finishes, never its value.
"""

from __future__ import annotations

import contextlib
import math
import os
import time
from dataclasses import dataclass


class BudgetExhausted(RuntimeError):
    """Raised cooperatively when the active time budget runs out."""


class InternalError(AssertionError):
    """An invariant the engine relies on failed; always a bug, never user input."""


@dataclass
class JobConfig:
    """The one setting a library caller passes to the disproof search.

    disproof_node_budget: nodes short_filtration_search (and so
    qseq_verdict_charp) may visit before it gives up incomplete.  Wall-clock
    time is bounded separately, by running the call inside
    ``with budget(seconds):``.
    """

    disproof_node_budget: int = 200000


DEFAULT = JobConfig()

# Active deadline, set by budget() around a whole job.  Monotonic clock
# value, or None.  Checked cooperatively from the inner loops.
_deadline: float | None = None


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


def check_budget() -> None:
    """Cooperative check: under a deadline, reads the clock on every call and
    raises BudgetExhausted once the deadline has passed."""
    if _deadline is None:
        return
    if time.monotonic() > _deadline:
        raise BudgetExhausted("time budget exhausted")


def default_budget_seconds() -> float:
    """Seconds from QLC_BUDGET_SECS: 300 when unset or empty, otherwise a
    finite number above 0; any other value raises ValueError."""
    raw = os.environ.get("QLC_BUDGET_SECS", "")
    if not raw:
        return 300.0
    try:
        seconds = float(raw)
        if 0 < seconds < math.inf:
            return seconds
    except ValueError:
        pass
    raise ValueError("QLC_BUDGET_SECS must be a finite number of seconds "
                     f"above 0, got {raw!r}")
