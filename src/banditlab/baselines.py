"""Baseline bandit policies sharing one engine-facing handle contract.

Every policy exposes ``name``, ``select(rng) -> arm`` and
``update(arm, reward)``. The engine plays a policy round by round:
``select`` then ``update`` with the arm fed back verbatim. Optional methods
let the engine do the same work faster, with identical results:

- A policy that fixes its arms ahead of their rewards (barbar, cbarbar)
  exposes ``commit(rng) -> arms`` and ``observe(arms, rewards)``; the engine
  plays it a committed block at a time.
- A policy whose ``select`` draws exactly one uniform (fs_aae, tsallis_inf,
  and samba) exposes ``pick(u) -> arm``, with ``select(rng)`` being
  ``pick(rng.random())``; the engine hands it uniforms pre-drawn in windows
  from the same policy stream.
- A policy class with a ``lockstep`` kernel (tsallis_inf, samba) can have
  many replications advanced together: ``lockstep(policies)`` returns an
  object whose ``pick(u)`` and ``update(arms, rewards)`` take one entry per
  policy, bit-identical to each policy's own calls, and whose ``store()``
  writes the states back. ``engine.run_lockstep`` drives it.
"""

from __future__ import annotations

import math

import numpy as np

from .core import BanditLabError, KTooSmall, ordered_column_sums
from .samba import SambaPolicy


class NoConvergence(BanditLabError, RuntimeError):
    """Root finder failed to normalize the weight vector."""


# ---------------------------------------------------------------------------
# Active-arm elimination race with a corruption-tolerant slow layer
# ---------------------------------------------------------------------------


class FastSlowEliminationPolicy:
    """Two elimination layers racing over shared observations.

    Both layers see every sample. The fast layer eliminates with plain
    Hoeffding radii and wins cleanly when nobody tampers with rewards. The
    slow layer widens each arm's radius by ``c_known / n_a`` — the most the
    empirical mean of an arm can be displaced by tampering with total budget
    ``c_known`` — so it never discards the true best arm. Slow eliminations
    propagate to the fast layer; if the fast layer somehow empties, it is
    reset to the slow layer's survivors. A fixed share of rounds round-robins
    over the slow survivor set so its intervals keep shrinking even after the
    fast layer has locked onto a favourite.

    Per-round cost: ``select`` scans one active set. ``update`` recomputes
    the pulled arm's four bounds and folds them into each layer's largest
    lower and smallest upper bound; it filters both sets (O(K)) only when
    those cross, about as often as a set shrinks (16 and 25 times per 10,000
    rounds at K = 6 and 20 on ``grid_gradient``-like episodes). An update
    takes about 1.2 µs at K = 6 and 1.1 µs at K = 20 on a 2-vCPU Xeon.
    """

    name = "fs_aae"

    def __init__(self, k: int, c_known: float = 0.0, delta: float = 1e-5, slow_share: float = 0.25):
        if k < 2:
            raise KTooSmall(f"need at least 2 arms, got {k}")
        if not 0.0 < delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {delta}")
        if c_known < 0.0:
            raise ValueError(f"c_known must be >= 0, got {c_known}")
        if not 0.0 <= slow_share <= 1.0:
            raise ValueError(f"slow_share must lie in [0, 1], got {slow_share}")
        self.k = k
        self.c_known = float(c_known)
        self.delta = float(delta)
        self.slow_share = float(slow_share)
        self._log_const = math.log(4.0 * k / delta)
        self.counts = [0] * k
        self.sums = [0.0] * k
        # Per-arm confidence bounds of each layer, infinite until pulled. For
        # each layer, *_max is at least its arms' largest lower bound and
        # *_min_hi at most their smallest upper bound: while *_max <= *_min_hi
        # the filter would eliminate nothing.
        self._slow_lo = [-math.inf] * k
        self._slow_hi = [math.inf] * k
        self._fast_lo = [-math.inf] * k
        self._fast_hi = [math.inf] * k
        self._slow_max = self._fast_max = -math.inf
        self._slow_min_hi = self._fast_min_hi = math.inf
        self.fast_active = list(range(k))
        self.slow_active = list(range(k))

    def select(self, rng: np.random.Generator) -> int:
        return self.pick(rng.random())

    def pick(self, u: float) -> int:
        """The arm ``select`` returns when its uniform draw is ``u``."""
        pool = self.slow_active if u < self.slow_share else self.fast_active
        counts = self.counts
        best = pool[0]
        for a in pool[1:]:
            if counts[a] < counts[best]:
                best = a
        return best

    def update(self, arm: int, reward: int) -> None:
        self.counts[arm] += 1
        self.sums[arm] += reward
        n = self.counts[arm]
        mean = self.sums[arm] / n
        rad = math.sqrt((self._log_const + 2.0 * math.log(n)) / (2.0 * n))
        widen = self.c_known / n
        fast_lo = mean - rad
        fast_hi = mean + rad
        slow_lo = fast_lo - widen
        slow_hi = fast_hi + widen
        self._slow_lo[arm] = slow_lo
        self._slow_hi[arm] = slow_hi
        self._fast_lo[arm] = fast_lo
        self._fast_hi[arm] = fast_hi
        # Only this arm's bounds moved, so folding them in keeps both layers'
        # bounds valid. An arm outside the fast layer does not touch it.
        if slow_lo > self._slow_max:
            self._slow_max = slow_lo
        if slow_hi < self._slow_min_hi:
            self._slow_min_hi = slow_hi
        if arm in self.fast_active:
            if fast_lo > self._fast_max:
                self._fast_max = fast_lo
            if fast_hi < self._fast_min_hi:
                self._fast_min_hi = fast_hi
        if self._slow_max > self._slow_min_hi or self._fast_max > self._fast_min_hi:
            self._eliminate()

    def _eliminate(self) -> None:
        slow_lo, slow_hi = self._slow_lo, self._slow_hi
        slow_max = max(slow_lo[a] for a in self.slow_active)
        survivors = [a for a in self.slow_active if slow_hi[a] >= slow_max]
        if len(survivors) != len(self.slow_active):
            self.slow_active = survivors
            alive = set(survivors)
            self.fast_active = [a for a in self.fast_active if a in alive]

        fast_lo, fast_hi = self._fast_lo, self._fast_hi
        fast_max = max((fast_lo[a] for a in self.fast_active), default=-math.inf)
        self.fast_active = [a for a in self.fast_active if fast_hi[a] >= fast_max]
        if not self.fast_active:
            self.fast_active = list(self.slow_active)

        # A reset fast layer was never filtered against its own bounds, so
        # they may already cross and make the next update filter.
        self._slow_max = slow_max
        self._slow_min_hi = min(slow_hi[a] for a in self.slow_active)
        self._fast_max = max(fast_lo[a] for a in self.fast_active)
        self._fast_min_hi = min(fast_hi[a] for a in self.fast_active)


# ---------------------------------------------------------------------------
# Phased gap-estimate algorithms
# ---------------------------------------------------------------------------


class BarbarPolicy:
    """Phase-based algorithm pulling each arm inversely to its squared gap estimate.

    Phase m draws arm a ``ceil(lambda_scale / gap_a^2)`` times in shuffled
    order, with gap estimates floored at 2^-m, so the presumed-best arm's
    allocation doubles geometrically while suspected-bad arms keep a trickle
    of probes. After a phase the gaps are re-estimated from that phase's
    empirical means alone, which limits how long any single stretch of
    tampered rewards can distort the schedule.

    The theoretical constant lambda, logarithmic in K over the confidence
    level, is folded into ``lambda_scale``, whose small default keeps
    eight-plus phases inside a 1e5-round horizon; there is no separate
    confidence parameter.

    No pull inside a phase depends on that phase's rewards, so besides
    ``select``/``update`` the policy offers ``commit(rng)``, the arms its
    phase still owes (starting the next phase first, as ``select`` would),
    and ``observe(arms, rewards)``, which records a played prefix of them in
    one pass. The engine plays it that way, one phase per numpy pass; the
    phase state, gap estimates and policy stream end up exactly as with
    ``select``/``update`` per round.
    """

    name = "barbar"

    def __init__(self, k: int, lambda_scale: float = 4.0):
        if k < 2:
            raise KTooSmall(f"need at least 2 arms, got {k}")
        if lambda_scale <= 0:
            raise ValueError(f"lambda_scale must be > 0, got {lambda_scale}")
        self.k = k
        self.lambda_scale = float(lambda_scale)
        self.phase_index = 0
        self.gap_estimates = [1.0] * k
        self._targets = [0] * k
        self._order = np.zeros(0, dtype=np.intp)
        self._schedule: list[int] | None = None
        self._pos = 0
        self._phase_sums = [0.0] * k
        self._phase_counts = [0] * k
        self.phase_lengths: list[int] = []

    def _start_phase(self, rng: np.random.Generator) -> None:
        self.phase_index += 1
        lam = self.lambda_scale
        self._targets = [max(1, math.ceil(lam / (g * g))) for g in self.gap_estimates]
        # Shuffling the array takes the same draws, and gives the same
        # permutation, as shuffling the list [0]*n_0 + [1]*n_1 + ... The
        # array backs commit(); select() reads a list of ints made from it
        # on its first call in the phase.
        order = np.repeat(np.arange(self.k, dtype=np.intp), self._targets)
        rng.shuffle(order)
        order.setflags(write=False)
        self._order = order
        self._schedule = None
        self._pos = 0
        self._phase_sums = [0.0] * self.k
        self._phase_counts = [0] * self.k
        self.phase_lengths.append(len(order))

    def _finish_phase(self) -> None:
        m = self.phase_index
        floor = 2.0 ** -m
        means = [
            self._phase_sums[a] / self._phase_counts[a] if self._phase_counts[a] else 0.0
            for a in range(self.k)
        ]
        anchor = max(means[a] - self.gap_estimates[a] / 16.0 for a in range(self.k))
        self.gap_estimates = [
            self._refine(a, floor, anchor - means[a]) for a in range(self.k)
        ]

    def _refine(self, arm: int, floor: float, raw_gap: float) -> float:
        return max(floor, raw_gap)

    def _next_phase(self, rng: np.random.Generator) -> None:
        if self.phase_index:
            self._finish_phase()
        self._start_phase(rng)

    def select(self, rng: np.random.Generator) -> int:
        if self._pos >= len(self._order):
            self._next_phase(rng)
        if self._schedule is None:
            self._schedule = self._order.tolist()
        return self._schedule[self._pos]

    def update(self, arm: int, reward: int) -> None:
        self._phase_sums[arm] += reward
        self._phase_counts[arm] += 1
        self._pos += 1

    def commit(self, rng: np.random.Generator) -> np.ndarray:
        """The arms the current phase still owes, in order (starting the next phase if done).

        The result is a read-only view of the phase's schedule.
        """
        if self._pos >= len(self._order):
            self._next_phase(rng)
        return self._order[self._pos :]

    def observe(self, arms: np.ndarray, rewards: np.ndarray) -> None:
        """Record a played prefix of the last ``commit``: the same state as ``update`` per pull."""
        k = self.k
        counts = np.bincount(arms, minlength=k).tolist()
        sums = np.bincount(arms, weights=rewards, minlength=k).tolist()
        self._phase_counts = [c + n for c, n in zip(self._phase_counts, counts)]
        self._phase_sums = [s + r for s, r in zip(self._phase_sums, sums)]
        self._pos += len(arms)


class CBarbarPolicy(BarbarPolicy):
    """Phased variant whose gap estimates also decay at most geometrically.

    Anchoring each new estimate at half the previous one stops a single
    corrupted phase from collapsing a large estimated gap outright — the
    adversary has to pay again in every later phase it wants to stay hidden.
    """

    name = "cbarbar"

    def _refine(self, arm: int, floor: float, raw_gap: float) -> float:
        return max(floor, self.gap_estimates[arm] / 2.0, raw_gap)


# ---------------------------------------------------------------------------
# Online mirror descent with Tsallis regularization
# ---------------------------------------------------------------------------


def _solve_weight_scale(z: list[float], eta: float, y0: float | None = None) -> float:
    """Root y > 0 of sum_a 4/(eta^2 (z_a + y)^2) = 1 for shifted losses z >= 0.

    The sum is strictly decreasing in y and the root lies in (0, 2*sqrt(K)/eta]
    (equality when all z are equal), so a bisection-safeguarded Newton
    iteration cannot escape. Raises NoConvergence if the residual never
    reaches 1e-11.
    """
    k = len(z)
    hi = 2.000001 * math.sqrt(k) / eta
    lo = 0.0
    y = y0 if (y0 is not None and lo < y0 < hi) else 0.5 * hi
    coeff = 4.0 / (eta * eta)
    for _ in range(200):
        s = 0.0
        d = 0.0
        for za in z:
            inv = 1.0 / (za + y)
            w = coeff * inv * inv
            s += w
            d -= 2.0 * w * inv
        f = s - 1.0
        if abs(f) <= 1e-11:
            return y
        if f > 0.0:
            lo = y
        else:
            hi = y
        y_new = y - f / d
        if not lo < y_new < hi:
            y_new = 0.5 * (lo + hi)
        y = y_new
    raise NoConvergence(f"weight normalization stalled (eta={eta}, K={k})")


def _solve_weight_scales(z: np.ndarray, eta: float, y0: np.ndarray | None) -> np.ndarray:
    """:func:`_solve_weight_scale` for each column of a C-contiguous (K, R) matrix, bit for bit.

    Every column runs the scalar iteration and keeps the ``y`` at which the
    scalar solve would return (columns that already returned keep iterating
    harmlessly until all have). The sums are sequential
    (:func:`~banditlab.core.ordered_column_sums`), and the scalar ``d -= t``
    chain is the negated sum ``-(t_0 + t_1 + ...)`` exactly, so the Newton
    step ``y - f / d`` is taken as ``y + f / sum(t)``.
    """
    k, n = z.shape
    hi0 = 2.000001 * math.sqrt(k) / eta
    coeff = 4.0 / (eta * eta)
    y = np.full(n, 0.5 * hi0)
    if y0 is not None:
        y = np.where((0.0 < y0) & (y0 < hi0), y0, y)
    lo = np.zeros(n)
    hi = np.full(n, hi0)
    out = np.empty(n)
    live = np.ones(n, dtype=bool)
    inv = np.empty_like(z)
    w = np.empty_like(z)
    for _ in range(200):
        np.copyto(out, y, where=live)
        np.add(z, y, out=inv)
        np.divide(1.0, inv, out=inv)
        np.multiply(inv, coeff, out=w)
        w *= inv
        f = ordered_column_sums(w) - 1.0
        w *= 2.0
        w *= inv
        d = ordered_column_sums(w)
        live[np.abs(f) <= 1e-11] = False
        if not live.any():
            return out
        up = f > 0.0
        lo = np.where(up, y, lo)
        hi = np.where(up, hi, y)
        y_new = y + f / d
        inside = (lo < y_new) & (y_new < hi)
        y = y_new if inside.all() else np.where(inside, y_new, 0.5 * (lo + hi))
    raise NoConvergence(f"weight normalization stalled (eta={eta}, K={k})")


def tsallis_solve_normalization(losses, eta: float) -> np.ndarray:
    """Simplex weights w_a = 4 / (eta * (L_a - x))^2 with scalar x < min(L).

    x is the Lagrange normalizer; smaller cumulative loss means a smaller
    (L_a - x) and therefore a larger weight. |sum(w) - 1| <= 1e-10 on return.
    """
    if eta <= 0:
        raise ValueError(f"eta must be > 0, got {eta}")
    vals = [float(v) for v in losses]
    base = min(vals)
    z = [v - base for v in vals]
    y = _solve_weight_scale(z, eta)
    coeff = 4.0 / (eta * eta)
    return np.array([coeff / ((za + y) * (za + y)) for za in z])


class TsallisInfLockstep:
    """Several Tsallis-INF policies at the same round, advanced together.

    ``pick(u)`` and ``update(arms, rewards)`` take one entry per policy. The
    losses are a (K, R) matrix, one column per policy, and each column does
    exactly the arithmetic of :meth:`TsallisInfPolicy.pick` and
    :meth:`~TsallisInfPolicy.update`: the shifted losses are ``L - min(L)``
    entry by entry (what the scalar policy's incremental refresh keeps), the
    normalization is :func:`_solve_weight_scales`, and the sampling scan is a
    sequential cumsum. After at least one round, :meth:`store` writes the
    columns back into the policies.
    """

    def __init__(self, policies):
        if len({(pol.eta_scale, pol.t, pol._eta) for pol in policies}) != 1:
            raise ValueError("lockstep Tsallis-INF policies must share eta_scale and round")
        first = policies[0]
        self.policies = policies
        self.eta_scale, self.t, self.eta = first.eta_scale, first.t, first._eta
        self.losses = np.array([pol.losses for pol in policies], dtype=float).T.copy()
        self.y = np.array([pol._y for pol in policies])
        self.cols = np.arange(len(policies))

    def pick(self, u: np.ndarray) -> np.ndarray:
        self.base = self.losses.min(axis=0)
        self.z = z = self.losses - self.base
        self.t += 1
        eta = self.eta_scale / math.sqrt(self.t)
        y0 = self.y * (self.eta / eta) if self.t > 1 else None
        self.y = y = _solve_weight_scales(z, eta, y0)
        self.eta, self.coeff = eta, 4.0 / (eta * eta)
        s = z[:-1] + y
        acc = (self.coeff / (s * s)).cumsum(axis=0)
        return np.count_nonzero(acc <= u, axis=0)

    def update(self, arms: np.ndarray, rewards: np.ndarray) -> None:
        # A rewarded column adds 0.0, which leaves its loss exactly as it was.
        self.last = arms, rewards
        cols = self.cols
        s = self.z[arms, cols] + self.y
        self.losses[arms, cols] += np.where(rewards, 0.0, 1.0 / (self.coeff / (s * s)))

    def store(self) -> None:
        """Write each column's state back into its policy, as its last ``update`` left it."""
        arms, rewards = self.last
        cols = zip(
            self.policies, self.losses.T.tolist(), self.z.T.tolist(), self.base.tolist(),
            self.y.tolist(), arms.tolist(), rewards.tolist(),
        )
        for pol, losses, z, base, y, arm, reward in cols:
            pol.losses, pol._z, pol._base, pol._y = losses, z, base, y
            pol.t, pol._eta, pol._coeff = self.t, self.eta, self.coeff
            pol._moved = None if reward else arm


class TsallisInfPolicy:
    """Importance-weighted loss minimizer with learning rate eta_t = scale/sqrt(t).

    Online mirror descent with the 1/2-Tsallis regularizer, after Zimmert &
    Seldin (JMLR 2021): round t plays w_a = 4 / (eta_t (L_a - x))^2, with
    eta_t = ``eta_scale`` / sqrt(t) and x the normalizer. The loss estimator
    is plain importance weighting of the loss 1 - reward: a pull of arm a
    with reward 0 adds 1 / w_a to L_a, and reward 1 adds nothing. There is no
    reduced-variance baseline (the paper's alternative estimator), and
    ``eta_scale`` defaults to 1.

    Per-round work is dominated by the weight normalization solve, warm
    started from the previous round: about three O(K) passes. The shifted
    losses it reads are kept between rounds and rebuilt only when the
    minimum loss moves; ``select`` computes weights only up to the drawn arm
    and ``update`` only the pulled arm's. A select takes about 6.7 µs at
    K = 6 and 12.8 µs at K = 20 on a 2-vCPU Xeon.
    """

    name = "tsallis_inf"
    lockstep = TsallisInfLockstep

    def __init__(self, k: int, eta_scale: float = 1.0):
        if k < 2:
            raise KTooSmall(f"need at least 2 arms, got {k}")
        if eta_scale <= 0:
            raise ValueError(f"eta_scale must be > 0, got {eta_scale}")
        self.k = k
        self.eta_scale = float(eta_scale)
        self.losses = [0.0] * k
        self.t = 0
        # The last select's distribution is coeff / (z_a + y)^2 over the
        # shifted losses z = losses - min(losses). Before the first select,
        # which solves for y without a warm start, these give the uniform 1/k.
        self._z = [0.0] * k
        self._base = 0.0
        self._y = 1.0
        self._eta = math.inf
        self._coeff = 1.0 / k
        # Arm whose loss moved since the last select (-1: several arms),
        # applied to z at the next select so z stays the drawn distribution's.
        self._moved: int | None = None

    @property
    def weights(self) -> np.ndarray:
        """The distribution the last ``select`` drew from (uniform before the first)."""
        y, coeff = self._y, self._coeff
        return np.array([coeff / ((za + y) * (za + y)) for za in self._z])

    def select(self, rng: np.random.Generator) -> int:
        return self.pick(rng.random())

    def pick(self, u: float) -> int:
        """The arm ``select`` returns when its uniform draw is ``u``."""
        z = self._refresh_shifted()
        self.t += 1
        eta = self.eta_scale / math.sqrt(self.t)
        y0 = self._y * (self._eta / eta) if self.t > 1 else None
        y = _solve_weight_scale(z, eta, y0)
        coeff = 4.0 / (eta * eta)
        self._y, self._eta, self._coeff = y, eta, coeff
        acc = 0.0
        last = self.k - 1
        for a in range(last):
            s = z[a] + y
            acc += coeff / (s * s)
            if u < acc:
                return a
        return last

    def _refresh_shifted(self) -> list[float]:
        arm = self._moved
        if arm is None:
            return self._z
        self._moved = None
        losses, z, base = self.losses, self._z, self._base
        # Losses only grow, so the minimum can move only if a moved arm held it.
        if arm < 0 or z[arm] == 0.0:
            base = min(losses)
        if arm < 0 or base != self._base:
            self._base = base
            self._z = z = [v - base for v in losses]
        else:
            z[arm] = losses[arm] - base
        return z

    def update(self, arm: int, reward: int) -> None:
        if reward:
            return  # a zero loss estimate leaves every loss unchanged
        s = self._z[arm] + self._y
        self.losses[arm] += 1.0 / (self._coeff / (s * s))
        self._moved = arm if self._moved is None or self._moved == arm else -1


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

ALGORITHMS = ("samba", "fs_aae", "barbar", "cbarbar", "tsallis_inf")


def make_policy(
    algorithm: str,
    k: int,
    params: dict | None = None,
    *,
    c_known: float = 0.0,
    horizon: int | None = None,
):
    """Construct a fresh policy handle for one episode.

    ``c_known`` (the plan's budget) is forwarded to corruption-aware
    policies; the elimination race also defaults its confidence level to
    1/horizon when a horizon is given.
    """
    params = dict(params or {})
    if algorithm == "samba":
        return SambaPolicy(k, **params)
    if algorithm == "fs_aae":
        if "delta" not in params and horizon:
            params["delta"] = 1.0 / horizon
        return FastSlowEliminationPolicy(k, c_known=c_known, **params)
    if algorithm == "barbar":
        return BarbarPolicy(k, **params)
    if algorithm == "cbarbar":
        return CBarbarPolicy(k, **params)
    if algorithm == "tsallis_inf":
        return TsallisInfPolicy(k, **params)
    raise ValueError(f"unknown algorithm {algorithm!r}, expected one of {ALGORITHMS}")
