"""Core types for stochastic bandit instances, episode traces, and regret accounting.

Rewards are Bernoulli in {0, 1}. Regret is always measured against the
instance's *true* means, regardless of any corruption of the rewards: a
trace's spend describes what the adversary paid, never what the learner is
charged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

MAX_ARMS = 10_000


class BanditLabError(Exception):
    """Base class for all package errors."""


class KTooSmall(BanditLabError, ValueError):
    """Fewer than two arms."""


class InstanceTooLarge(BanditLabError, ValueError):
    """Instance exceeds a hard size cap (arm count or enumeration size)."""


class MeanOutOfRange(BanditLabError, ValueError):
    """A mean reward lies outside [0, 1]."""


class TiedOptimum(BanditLabError, ValueError):
    """Two arms share the maximal mean and degenerate instances were not allowed."""


@dataclass(frozen=True)
class BanditInstance:
    """A fixed K-armed Bernoulli instance.

    Attributes
    ----------
    means : tuple of float
        True expected rewards, one per arm.
    optimal_arm : int
        Index of the maximal mean (lowest index on a permitted tie).
    gaps : tuple of float
        Suboptimality gaps ``max(means) - means[a]``, all >= 0.
    min_gap : float
        Smallest positive gap; 0.0 for an all-equal degenerate instance.
    """

    means: tuple[float, ...]
    optimal_arm: int
    gaps: tuple[float, ...]
    min_gap: float

    @property
    def k(self) -> int:
        return len(self.means)

    @property
    def optimal_mean(self) -> float:
        return self.means[self.optimal_arm]


def make_instance(means: Sequence[float], *, allow_degenerate: bool = False) -> BanditInstance:
    """Validate means and build a :class:`BanditInstance`.

    Parameters
    ----------
    means : sequence of float
        One mean per arm, each in [0, 1]; at least two arms.
    allow_degenerate : bool
        Permit ties at the maximum (e.g. an all-equal instance for trivial
        tests). Experiments require a unique optimum.

    Raises
    ------
    KTooSmall, InstanceTooLarge, MeanOutOfRange, TiedOptimum
    """
    vals = tuple(float(m) for m in means)
    if len(vals) < 2:
        raise KTooSmall(f"need at least 2 arms, got {len(vals)}")
    if len(vals) > MAX_ARMS:
        raise InstanceTooLarge(f"{len(vals)} arms exceeds cap {MAX_ARMS}")
    for a, m in enumerate(vals):
        if not (0.0 <= m <= 1.0) or m != m:
            raise MeanOutOfRange(f"mean of arm {a} is {m!r}, must lie in [0, 1]")
    best = max(vals)
    optimal_arm = vals.index(best)
    if vals.count(best) > 1 and not allow_degenerate:
        raise TiedOptimum(
            "maximal mean %r is shared by several arms; pass allow_degenerate=True "
            "if this is intentional" % best
        )
    gaps = tuple(best - m for m in vals)
    positive = [g for g in gaps if g > 0.0]
    min_gap = min(positive) if positive else 0.0
    return BanditInstance(means=vals, optimal_arm=optimal_arm, gaps=gaps, min_gap=min_gap)


@dataclass
class Trace:
    """What an episode reports: regret checkpoints and the adversary's spend.

    ``checkpoints`` holds ``(t, cumulative pseudo-regret after t rounds)``
    pairs on a sparse grid (always including T) so long-horizon curves stay
    small. ``realized_spend`` is the corruption cost the episode's ledger
    charged, summed round by round in schedule order.
    """

    checkpoints: list[tuple[int, float]] = field(default_factory=list)
    realized_spend: float = 0.0

    def spent(self) -> float:
        return self.realized_spend


def ordered_column_sums(a: np.ndarray) -> np.ndarray:
    """Column sums of a C-contiguous (K, R) array, adding its K rows in order.

    This is the sequential sum a Python loop over the K entries of each
    column computes, so batched kernels can reproduce scalar ones bit for
    bit. Reducing axis 0 with more than one column, numpy adds whole rows one
    after another (checked on numpy 2.4.6; the lockstep equality tests would
    catch a change). A single column would be summed pairwise, so it takes a
    cumsum instead.
    """
    return np.add.reduce(a, axis=0) if a.shape[1] > 1 else a.cumsum(axis=0)[-1]


def checkpoint_grid(horizon: int) -> list[int]:
    """Geometric checkpoint rounds in [1, horizon], 20 per decade, horizon always included."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    pts = {horizon}
    k = 0
    while True:
        t = int(round(10 ** (k / 20)))
        if t >= horizon:
            break
        pts.add(max(t, 1))
        k += 1
    return sorted(pts)
