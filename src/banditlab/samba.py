"""Simplex policy-gradient bandit algorithm with a tracked leader arm.

The sampling distribution p lives on the K-simplex. One arm — the *leader*,
the argmax of p with ties broken toward the lowest index — is never updated
directly; it absorbs whatever mass the other coordinates gain or lose, so the
simplex constraint holds exactly by construction. Updates depend only on the
current state and the observed (arm, reward) pair, cost O(K) per round, and
never reference the horizon.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Sequence

import numpy as np

from .core import BanditLabError, KTooSmall, ordered_column_sums

CLAMP_FLOOR = 1e-12


class AlphaOutOfRange(BanditLabError, ValueError):
    """Step size outside the open interval (0, 1)."""


class InvalidArm(BanditLabError, IndexError):
    """Pulled arm index does not exist in the state."""


class InvalidRewardValue(BanditLabError, ValueError):
    """Reward outside {0, 1}."""


class SambaState:
    """Mutable algorithm state: simplex point, step size, cached leader.

    Single-owner: updates mutate in place and return ``self``. Use
    :meth:`copy` before branching histories.
    """

    __slots__ = ("p", "alpha", "leader", "clamp_events")

    def __init__(self, p: list[float], alpha: float, leader: int, clamp_events: int = 0):
        self.p = p
        self.alpha = alpha
        self.leader = leader
        self.clamp_events = clamp_events

    @property
    def k(self) -> int:
        return len(self.p)

    def copy(self) -> "SambaState":
        return SambaState(list(self.p), self.alpha, self.leader, self.clamp_events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        probs = ", ".join(f"{v:.6f}" for v in self.p)
        return f"SambaState(p=[{probs}], alpha={self.alpha}, leader={self.leader})"


def samba_leader(p: Sequence[float]) -> int:
    """Argmax of p, lowest index on ties (``max`` keeps the first maximum)."""
    return p.index(max(p))


def samba_init(k: int, alpha: float) -> SambaState:
    """Uniform initial state.

    Raises
    ------
    KTooSmall
        If fewer than 2 arms.
    AlphaOutOfRange
        If the step size is not strictly inside (0, 1).
    """
    if k < 2:
        raise KTooSmall(f"need at least 2 arms, got {k}")
    if not (0.0 < alpha < 1.0):
        raise AlphaOutOfRange(f"step size must lie in (0, 1), got {alpha!r}")
    return SambaState(p=[1.0 / k] * k, alpha=float(alpha), leader=0)


def samba_from_probabilities(p: Sequence[float], alpha: float) -> SambaState:
    """Build a state from an explicit simplex point (mainly for tests/analysis)."""
    if len(p) < 2:
        raise KTooSmall(f"need at least 2 arms, got {len(p)}")
    if not (0.0 < alpha < 1.0):
        raise AlphaOutOfRange(f"step size must lie in (0, 1), got {alpha!r}")
    vals = [float(v) for v in p]
    if not all(map(math.isfinite, vals)) or abs(sum(vals) - 1.0) > 1e-9 or min(vals) <= 0.0:
        raise ValueError("probabilities must be finite, positive and sum to 1")
    return SambaState(p=vals, alpha=float(alpha), leader=samba_leader(vals))


def samba_select(state: SambaState, rng: np.random.Generator) -> int:
    """Sample an arm from the current distribution."""
    return samba_pick(state, rng.random())


def samba_pick(state: SambaState, u: float) -> int:
    """The arm :func:`samba_select` returns when its uniform draw is ``u``."""
    acc = 0.0
    p = state.p
    for a in range(len(p) - 1):
        acc += p[a]
        if u < acc:
            return a
    return len(p) - 1


def samba_update(state: SambaState, pulled: int, reward: int) -> SambaState:
    """Apply one observation in place and return the state.

    Reward 0 leaves the state untouched. On reward 1: pulling the leader
    shrinks every other coordinate by alpha * p_a^2 / p_leader; pulling a
    non-leader grows only that coordinate by the factor (1 + alpha). The
    leader coordinate is then recomputed as one minus the rest and the
    leader cache refreshed.
    """
    p = state.p
    k = len(p)
    if not 0 <= pulled < k:
        raise InvalidArm(f"arm {pulled} not in state with {k} arms")
    if reward == 0:
        return state
    if reward != 1:
        raise InvalidRewardValue(f"reward must be 0 or 1, got {reward!r}")

    alpha = state.alpha
    lead = state.leader
    if pulled == lead:
        p_lead = p[lead]
        p[:] = [x - alpha * x * x / p_lead for x in p]
    else:
        p[pulled] *= 1.0 + alpha
    _absorb(p, lead)

    # Exact arithmetic keeps every coordinate positive for alpha < 1; the
    # floor below only guards floating-point underflow and is counted so
    # standard runs can assert it never fired.
    if min(p) < CLAMP_FLOOR:
        state.clamp_events += 1
        _clamp(p)

    state.leader = samba_leader(p)
    return state


def _absorb(p: list[float], lead: int) -> None:
    """Set the leader's coordinate to one minus the others, summed in index order.

    The leader's own term is zeroed first; adding 0.0 is exact. ``reduce``
    rather than ``sum``: from Python 3.12 ``sum`` of floats is compensated.
    """
    p[lead] = 0.0
    p[lead] = 1.0 - functools.reduce(operator.add, p)


def _clamp(p: list[float]) -> None:
    """Raise coordinates below ``CLAMP_FLOOR`` to it; the leader absorbs the difference."""
    p[:] = [max(x, CLAMP_FLOOR) for x in p]
    _absorb(p, samba_leader(p))


class SambaLockstep:
    """Several SAMBA states with one step size, advanced together.

    The only batched SAMBA update: the engine's lockstep cells and verify's
    Monte-Carlo checks run it. ``p`` is a C-contiguous (K, R) matrix, one
    column per state, updated in place. ``pick(u)`` and ``update(arms,
    rewards)`` take one entry per column, and each column does exactly the
    arithmetic of :func:`samba_pick` and :func:`samba_update` on its own
    state: the selection scan is a sequential cumsum, the leader's
    ``1 - rest`` sums the other coordinates in order (the leader's own term
    is zeroed, and adding 0.0 is exact), the leader is the first argmax, and
    a column whose floor fires is clamped by the scalar code. Only rewarded
    columns take the new values. So every column stays bit-identical to its
    state played alone.
    """

    def __init__(self, p: np.ndarray, alpha: float):
        self.alpha = alpha
        self.growth = 1.0 + alpha  # a rewarded non-leader's factor
        self.p = p
        self.cols = np.arange(p.shape[1])
        self.clamp_events = [0] * p.shape[1]

    @classmethod
    def from_policies(cls, policies) -> "SambaLockstep":
        """A kernel over the policies' states; :meth:`store` writes the columns back."""
        alphas = {pol.state.alpha for pol in policies}
        if len(alphas) != 1:
            raise ValueError("lockstep SAMBA policies must share one step size")
        batch = cls(np.array([pol.state.p for pol in policies], dtype=float).T.copy(), alphas.pop())
        batch.policies = policies
        return batch

    def pick(self, u: np.ndarray) -> np.ndarray:
        acc = self.p[:-1].cumsum(axis=0)
        return np.count_nonzero(acc <= u, axis=0)

    def update(self, arms: np.ndarray, rewards: np.ndarray) -> None:
        if not rewards.any():
            return
        alpha, p, cols = self.alpha, self.p, self.cols
        lead = p.argmax(axis=0)
        # A leader pull shrinks every coordinate; any other pull grows its own.
        new = np.where(arms == lead, p - alpha * p * p / p[lead, cols], p)
        new[arms, cols] = p[arms, cols] * self.growth
        new[lead, cols] = 0.0
        new[lead, cols] = 1.0 - ordered_column_sums(new)
        np.copyto(p, new, where=rewards)
        low = (new.min(axis=0) < CLAMP_FLOOR) & rewards
        if low.any():
            for c in np.flatnonzero(low).tolist():
                col = p[:, c].tolist()
                _clamp(col)
                p[:, c] = col
                self.clamp_events[c] += 1

    def store(self) -> None:
        """Write each column's state back into its policy."""
        leaders = self.p.argmax(axis=0).tolist()
        cols = zip(self.policies, self.p.T.tolist(), leaders, self.clamp_events)
        for pol, p, leader, clamps in cols:
            pol.state.p = p
            pol.state.leader = leader
            pol.state.clamp_events += clamps


class SambaPolicy:
    """Engine-facing handle around the simplex state."""

    name = "samba"
    lockstep = SambaLockstep.from_policies

    def __init__(self, k: int, alpha: float = 0.05):
        self.alpha = float(alpha)
        self.state = samba_init(k, alpha)

    def select(self, rng: np.random.Generator) -> int:
        return samba_select(self.state, rng)

    def pick(self, u: float) -> int:
        """The arm ``select`` returns when its uniform draw is ``u``."""
        return samba_pick(self.state, u)

    def update(self, arm: int, reward: int) -> None:
        samba_update(self.state, arm, reward)
