"""Budgeted mean-shifting adversary.

The adversary acts before each round's arm draw: it may shift the expected
rewards to a corrupted vector r', paying cost max_a |r_a - r'_a(t)| from a
fixed budget C. It is oblivious: it reads nothing of the learner's state,
neither its sampling distribution nor the arm about to be drawn. Where the
corruption lands in time is fixed by a *schedule* built ahead of the run; how
hard each scheduled round is hit is capped by ``per_step_cost`` and by
whatever budget remains. An episode's whole corruption is therefore fixed by
the instance, the plan, the per-step cost and the adversary stream, and the
engine resolves it with :func:`resolve_corruption_runs` before round 0, as
runs of rounds that share one corrupted vector; :func:`apply_corruption` is
the same arithmetic one round at a time.

Schedules and the rounds of a run are read-only sequences of ints: a
``range`` for the arithmetic schemes (``consecutive``, ``even_steps``,
``delayed_block``) and a sorted tuple otherwise, so resolving an episode's
corruption costs O(runs), not O(rounds), in Python objects.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import BanditInstance, BanditLabError

SCHEMES = ("none", "consecutive", "even_steps", "delayed_block", "random_early")
STRATEGIES = ("suppress_optimal", "swap_extremes")


class BudgetExceedsHorizonCapacity(BanditLabError, ValueError):
    """The schedule cannot place enough corrupted rounds inside the horizon."""


@dataclass(frozen=True)
class CorruptionPlan:
    """Immutable description of what the adversary intends to do.

    scheme : one of SCHEMES
        "consecutive"  — rounds 0..n-1
        "even_steps"   — rounds 0, 2, 4, ...
        "delayed_block"— consecutive rounds starting at horizon // 4
        "random_early" — n distinct rounds drawn from the first tenth
    budget : float
        Total corruption budget C >= 0. Scheme "none" and budget 0 each
        schedule nothing, so a plan may give either; ``engine.PlanSpec``,
        which labels output rows, requires both together. Explicit rounds
        go straight into a :class:`CorruptionLedger`'s ``schedule``.
    strategy : one of STRATEGIES
        "suppress_optimal" pushes the best arm's mean toward 0;
        "swap_extremes" additionally pushes the worst arm's mean toward 1.
    horizon : int
        Number of rounds T the schedule must fit into.
    """

    scheme: str
    budget: float
    strategy: str = "suppress_optimal"
    horizon: int = 0

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}, expected one of {STRATEGIES}")
        if self.budget < 0:
            raise ValueError(f"budget must be >= 0, got {self.budget}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")


def default_per_step_cost(instance: BanditInstance, strategy: str) -> float:
    """Largest single-round cost the strategy can realize on this instance."""
    r_best = instance.optimal_mean
    if strategy == "suppress_optimal":
        return r_best
    worst = min(instance.means)
    return max(r_best, 1.0 - worst)


def build_schedule(
    plan: CorruptionPlan, per_step_cost: float, rng: np.random.Generator | None = None
) -> Sequence[int]:
    """Rounds at which corruption will be applied, sorted ascending and distinct.

    The number of rounds is ceil(budget / per_step_cost): every scheduled
    round carries the full per-step cost except the last, which carries the
    residual. The result is read-only: a ``range`` for ``consecutive``,
    ``even_steps`` and ``delayed_block``, a tuple for the other schemes (and
    ``()`` when nothing is scheduled). Raises
    :class:`BudgetExceedsHorizonCapacity` when the scheme cannot place that
    many rounds inside the horizon.
    """
    if plan.scheme == "none" or plan.budget == 0.0:
        return ()
    if per_step_cost <= 0:
        raise ValueError(f"per_step_cost must be > 0, got {per_step_cost}")
    n = math.ceil(plan.budget / per_step_cost)
    t_max = plan.horizon

    if plan.scheme == "consecutive":
        if n > t_max:
            raise BudgetExceedsHorizonCapacity(
                f"{n} consecutive corrupted rounds do not fit in horizon {t_max}"
            )
        return range(n)
    if plan.scheme == "even_steps":
        if 2 * (n - 1) >= t_max:
            raise BudgetExceedsHorizonCapacity(
                f"{n} even-step corrupted rounds do not fit in horizon {t_max}"
            )
        return range(0, 2 * n, 2)
    if plan.scheme == "delayed_block":
        start = t_max // 4
        if start + n > t_max:
            raise BudgetExceedsHorizonCapacity(
                f"{n} corrupted rounds starting at {start} do not fit in horizon {t_max}"
            )
        return range(start, start + n)
    if plan.scheme == "random_early":
        window = t_max // 10
        if n > window:
            raise BudgetExceedsHorizonCapacity(
                f"{n} distinct corrupted rounds do not fit in the first {window} rounds"
            )
        if rng is None:
            raise ValueError("random_early schedule needs an rng")
        picks = rng.choice(window, size=n, replace=False)
        return tuple(sorted(int(t) for t in picks))
    raise AssertionError(f"unhandled scheme {plan.scheme}")


@dataclass
class CorruptionLedger:
    """Runtime budget accounting for one episode.

    ``spent`` increases by the *realized* cost of each corrupted round
    (max_a |r_a - r'_a|, recomputed from the shifted vector), so
    ``spent <= plan.budget`` holds at all times. ``schedule`` is what
    :func:`build_schedule` returns: a read-only sequence (a ``range`` or a
    tuple), ascending.
    """

    plan: CorruptionPlan
    per_step_cost: float
    schedule: Sequence[int]
    spent: float = 0.0

    @cached_property
    def _scheduled(self) -> frozenset:
        # Built on the first per-round lookup; the engine's resolve pass never needs it.
        return frozenset(self.schedule)


def make_ledger(
    instance: BanditInstance,
    plan: CorruptionPlan,
    per_step_cost: float | None = None,
    rng: np.random.Generator | None = None,
) -> CorruptionLedger:
    """Build the episode ledger, defaulting per-step cost to the strategy max."""
    if per_step_cost is None:
        per_step_cost = default_per_step_cost(instance, plan.strategy)
    schedule = build_schedule(plan, per_step_cost, rng)
    return CorruptionLedger(plan=plan, per_step_cost=per_step_cost, schedule=schedule)


def _shifted(means: tuple[float, ...], a_best: int, a_worst: int | None, shift: float):
    """The corrupted vector for one shift and its cost max_a |r_a - r'_a|."""
    shifted = list(means)
    shifted[a_best] = max(0.0, means[a_best] - shift)
    if a_worst is not None:
        shifted[a_worst] = min(1.0, means[a_worst] + shift)
    cost = max(abs(means[a] - shifted[a]) for a in range(len(means)))
    return tuple(shifted), cost


def _charge(
    instance: BanditInstance, ledger: CorruptionLedger, rounds: Sequence[int]
) -> list[tuple[Sequence[int], tuple[float, ...], float]]:
    """Corrupt scheduled ``rounds`` in order, charging each realized cost to the ledger.

    Each round shifts by ``min(per_step_cost, remaining budget)`` and costs
    max_a |r_a - r'_a|; rounds the budget no longer reaches are left out of
    the result, which is a list of runs ``(rounds, corrupted means, cost)``
    in round order. While the remaining budget covers ``per_step_cost``,
    every round takes the same full shift: that run is charged with one
    sequential ``np.add.accumulate`` of its cost seeded with the spend so far
    (the additions the per-round loop makes, in its order), and ends at the
    first round whose remaining budget falls below ``per_step_cost`` or
    reaches 0. It keeps its rounds as a slice of ``rounds``, so a ``range``
    stays a ``range``. The residual and clipped rounds after it are charged
    one at a time, their vector and cost recomputed only when the shift
    changes.
    """
    means = instance.means
    a_best = instance.optimal_arm
    a_worst = None
    if ledger.plan.strategy == "swap_extremes":
        a_worst = min(range(len(means)), key=lambda a: (means[a], a))
    budget = ledger.plan.budget
    per_step = ledger.per_step_cost
    spent = ledger.spent

    def partial(spent):
        # The loop below would not give a round at this spend (a float or an
        # array of them) the full shift.
        remaining = budget - spent
        return (remaining <= 0.0) | (remaining < per_step)

    runs = []
    # A lone round (an apply_corruption call) skips the numpy set-up; the
    # loop below charges it the same.
    if len(rounds) > 1 and not partial(spent):
        shifted, cost = _shifted(means, a_best, a_worst, per_step)
        # spends[i] is the spend before rounds[i], summed in round order;
        # it never falls, so partial() flips at most once along it.
        spends = np.full(len(rounds) + 1, cost)
        spends[0] = spent
        np.add.accumulate(spends, out=spends)
        flips = partial(spends[:-1])
        full = int(flips.argmax()) if flips[-1] else len(rounds)
        runs.append((rounds[:full], shifted, cost))
        spent = float(spends[full])
        rounds = rounds[full:]
    last_shift = hit = None
    for t in rounds:
        remaining = budget - spent
        if remaining <= 0.0:
            break
        shift = remaining if remaining < per_step else per_step  # min(), minus the call
        if shift != last_shift:
            hit = _shifted(means, a_best, a_worst, shift)
            last_shift = shift
        spent += hit[1]
        runs.append(((t,), *hit))
    ledger.spent = spent
    return runs


def apply_corruption(
    instance: BanditInstance, ledger: CorruptionLedger, t: int
) -> tuple[tuple[float, ...], float]:
    """Corrupted means and realized cost for round t.

    Unscheduled rounds (and rounds after the budget ran out) return the true
    means with zero cost. Returned vectors must be treated as read-only.
    """
    if t not in ledger._scheduled:
        return instance.means, 0.0
    runs = _charge(instance, ledger, (t,))
    return runs[0][1:] if runs else (instance.means, 0.0)


def resolve_corruption_runs(
    instance: BanditInstance, ledger: CorruptionLedger
) -> list[tuple[Sequence[int], tuple[float, ...], float]]:
    """Runs ``(rounds, corrupted means, cost)`` covering every round the budget reaches.

    Equivalent to calling :func:`apply_corruption` on every round in order
    (the schedule from :func:`make_ledger` is ascending and distinct), and
    leaves ``ledger.spent`` where those calls would: the same shifts,
    clipping, costs and sequential spend. Rounds in no run are clean (true
    means, zero cost). The rounds of a run share one corrupted vector and
    one per-round cost, and runs are in round order; returned vectors are
    shared and must be treated as read-only. A run's rounds are a read-only
    slice of the schedule: a ``range`` when the schedule is one (so the
    full-shift run of an arithmetic scheme is one object however long), a
    tuple otherwise. This compact form lets the engine fill its per-round
    tables a run at a time.
    """
    return _charge(instance, ledger, ledger.schedule)
