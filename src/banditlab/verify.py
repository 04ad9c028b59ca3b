"""Empirical verification of the simplex algorithm's analysis quantities.

Every check here measures the real update rule by Monte Carlo and compares
against an independently computed quantity: a closed-form branch enumeration
for one-step drifts, an exhaustive outcome-tree expectation for small
instances, optional-stopping recovery bounds, and the embedded-chain decay
envelope. The drift checks play a state's 2K one-step outcomes, and the
recovery, decay and oracle checks their replications, as the columns of the
batched :class:`~banditlab.samba.SambaLockstep`, bit-identical per column to
``samba_update``. Each of those checks takes the kernel class:
:class:`TamperedLockstep` (the hidden ``--tamper-update`` flag) is a
deliberately broken one. It reaches every check but the log fit, which
judges a curve the engine makes. A check that cannot be set up raises a
:class:`CheckSetupFailure`, which the suite reports as a failed check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import BanditInstance, BanditLabError, InstanceTooLarge, make_instance
from .engine import make_stream
from .samba import SambaLockstep, SambaState, samba_init, samba_select, samba_update


class CheckSetupFailure(BanditLabError):
    """A check could not be set up; the suite reports it as FAIL with the reason."""


class PrepFailure(CheckSetupFailure, RuntimeError):
    """A state-preparation routine could not produce a qualifying state."""


class BurnInFailure(CheckSetupFailure, RuntimeError):
    """Too few replications reached the required state before injection."""


class DegenerateFit(CheckSetupFailure, ValueError):
    """Curve unsuitable for a log fit (too few points or too narrow a span)."""


class UndefinedBound(CheckSetupFailure, ValueError):
    """The step size violates the drift condition, so the drift bound is undefined."""


# ---------------------------------------------------------------------------
# Analysis constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnalysisConstants:
    """Derived quantities controlling the drift analysis.

    ``theory_valid`` flags whether the step size is small enough for the
    negative-drift regime (alpha < gap / (r_best - gap)); it is a flag, never
    an error. ``epsilon`` splits the remaining slack in half; ``xi`` is the
    per-round expected decrease of 1/p_opt while the best arm is not the
    leader; ``zeta`` converts corruption cost into drift excursion;
    ``large_corruption_threshold`` (gap/4) separates small from large
    per-round corruption in the recovery bookkeeping.
    """

    alpha: float
    r_best: float
    gap: float
    alpha_bound: float
    theory_valid: bool
    epsilon: float
    xi: float
    zeta: float
    large_corruption_threshold: float


def analysis_constants(instance: BanditInstance, alpha: float) -> AnalysisConstants:
    if instance.min_gap <= 0.0:
        raise ValueError("analysis constants need an instance with a unique optimum")
    r_best = instance.optimal_mean
    gap = instance.min_gap
    r_second = r_best - gap
    alpha_bound = gap / r_second if r_second > 0 else math.inf
    theory_valid = alpha < alpha_bound
    if r_second > 0:
        epsilon = 0.5 * (r_best / (r_second * (1.0 + alpha)) - 1.0)
    else:
        epsilon = math.inf
    # Algebraically alpha*r_best/(1+alpha) - alpha*r_second*(1+epsilon) with the
    # half-slack epsilon above; this form stays finite when r_second == 0.
    xi = 0.5 * alpha * (r_best / (1.0 + alpha) - r_second)
    if math.isfinite(epsilon):
        zeta = xi / (alpha * (1.0 + epsilon + 1.0 / (1.0 + alpha)))
    else:
        zeta = 0.0
    return AnalysisConstants(
        alpha=alpha,
        r_best=r_best,
        gap=gap,
        alpha_bound=alpha_bound,
        theory_valid=theory_valid,
        epsilon=epsilon,
        xi=xi,
        zeta=zeta,
        large_corruption_threshold=gap / 4.0,
    )


# ---------------------------------------------------------------------------
# State preparation
# ---------------------------------------------------------------------------


MIN_LEAD_RATIO = 10.0  # prep_nonleader's least leader mass over the best arm's


def _prepare(
    instance: BanditInstance,
    alpha: float,
    rng: np.random.Generator,
    means: Sequence[float],
    ready: Callable[[SambaState], bool],
    max_rounds: int,
) -> SambaState | None:
    """Play from the uniform state on ``means`` until ``ready``; None if it never is."""
    state = samba_init(instance.k, alpha)
    for _ in range(max_rounds):
        if ready(state):
            return state
        arm = samba_select(state, rng)
        samba_update(state, arm, 1 if rng.random() < means[arm] else 0)
    return None


def prep_nonleader(
    instance: BanditInstance,
    alpha: float,
    rng: np.random.Generator,
    *,
    target_p_opt: float = 0.08,
    max_rounds: int = 500_000,
) -> SambaState:
    """A state where the best arm is suppressed below the leader.

    Runs the algorithm while the best arm's rewards are zeroed out (the
    regime the non-leader drift bound is about), until its probability has
    decayed to ``target_p_opt`` and the leader holds at least
    ``MIN_LEAD_RATIO`` times that mass. The negative-drift inequality needs
    the leader's mass to clearly dominate the suppressed arm's — as the
    ratio approaches alpha*(1+epsilon)/epsilon from above, the true margin
    over the bound shrinks below what a Monte-Carlo run of any reasonable
    size can resolve — so the prep insists on enough headroom to measure.
    """
    a_star = instance.optimal_arm
    means = list(instance.means)
    means[a_star] = 0.0

    def ready(s: SambaState) -> bool:
        lead, p_star = s.leader, s.p[a_star]
        return p_star <= target_p_opt and lead != a_star and s.p[lead] >= MIN_LEAD_RATIO * p_star

    state = _prepare(instance, alpha, rng, means, ready, max_rounds)
    if state is None:
        raise PrepFailure(
            f"no state with p_opt<={target_p_opt} and lead ratio>={MIN_LEAD_RATIO} "
            f"within {max_rounds} suppressed rounds"
        )
    return state


def prep_leader(
    instance: BanditInstance,
    alpha: float,
    rng: np.random.Generator,
    *,
    target_p_opt: float = 0.6,
    max_rounds: int = 500_000,
) -> SambaState:
    """A state where the best arm leads with probability >= target."""
    a_star = instance.optimal_arm
    state = _prepare(
        instance, alpha, rng, instance.means, lambda s: s.p[a_star] >= target_p_opt, max_rounds
    )
    if state is None:
        raise PrepFailure(f"best arm did not reach p={target_p_opt} within {max_rounds} clean rounds")
    return state


# ---------------------------------------------------------------------------
# Exact one-step drift enumeration (independent of the update code)
# ---------------------------------------------------------------------------


def exact_nonleader_drift(state: SambaState, means: Sequence[float], a_star: int) -> float:
    """E[1/p*(t+1) - 1/p*(t)] by enumerating the three branches that move it.

    With x = 1/p*, only two outcomes change x: the best arm itself is pulled
    and rewarded (x shrinks by alpha/(1+alpha) * x) or the leader is pulled
    and rewarded (x grows by alpha*x / (p_lead*x - alpha)); everything else
    leaves x alone.
    """
    lead = state.leader
    if lead == a_star:
        raise ValueError("state's leader is the best arm; non-leader drift undefined")
    alpha = state.alpha
    p_star = state.p[a_star]
    p_lead = state.p[lead]
    x = 1.0 / p_star
    down = means[a_star] * p_star * (x / (1.0 + alpha) - x)
    up = means[lead] * p_lead * (alpha * x / (p_lead * x - alpha))
    return down + up


def exact_leader_qdrift(state: SambaState, means: Sequence[float], a_star: int) -> float:
    """E[q(t+1) - q(t)] for q = 1 - p* while the best arm leads.

    Each non-leader coordinate moves by alpha*p_a^2*(r_a - r_lead) in
    expectation: +alpha*p_a when itself pulled and rewarded, -alpha*p_a^2 /
    p_lead when the leader is.
    """
    if state.leader != a_star:
        raise ValueError("state's leader is not the best arm; leader drift undefined")
    alpha = state.alpha
    r_star = means[a_star]
    return sum(
        alpha * p * p * (means[a] - r_star)
        for a, p in enumerate(state.p)
        if a != a_star
    )


# ---------------------------------------------------------------------------
# Drift checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DriftReport:
    check: str
    mean_drift: float
    ci_half_width: float
    samples: int
    bound: float
    exact_drift: float
    passed: bool
    p_opt: float
    p_lead: float
    cost: float


def _worst_case_means_nonleader(
    instance: BanditInstance, leader: int, cost: float
) -> list[float]:
    """Cost-c shift most hostile to the non-leader drift: best arm down, leader up."""
    means = list(instance.means)
    a_star = instance.optimal_arm
    means[a_star] = max(0.0, means[a_star] - cost)
    means[leader] = min(1.0, means[leader] + cost)
    return means


def _worst_case_means_leader(instance: BanditInstance, cost: float) -> list[float]:
    """Cost-c shift most hostile to the leader drift: every suboptimal arm up, best down."""
    means = [min(1.0, m + cost) for m in instance.means]
    a_star = instance.optimal_arm
    means[a_star] = max(0.0, instance.means[a_star] - cost)
    return means


_MC_CHUNK = 1 << 16  # samples drawn per numpy pass in _mc_one_step


def _mc_one_step(
    state: SambaState,
    means: Sequence[float],
    metric: Callable[[Sequence[float]], float],
    samples: int,
    rng: np.random.Generator,
    kernel: type[SambaLockstep],
) -> tuple[float, float]:
    """Mean and 3-sigma CI half-width of metric(next p) - metric(p).

    Each sample draws an arm as ``samba_select`` does and then its reward,
    from one interleaved stream. From the fixed state there are only 2K
    (arm, reward) outcomes, so one ``kernel`` update plays them all, outcome
    (a, r) as column 2a + r, and ``metric`` runs once per column; the
    samples are drawn in chunks, mapped to their outcomes through the
    state's sequential cumsum, and d and d^2 are summed in sample order with
    cumsums, as the one-sample-at-a-time loop summed them.
    """
    base = metric(state.p)
    k = len(state.p)
    kern = kernel(np.repeat(np.asarray(state.p)[:, None], 2 * k, axis=1), state.alpha)
    kern.update(np.arange(2 * k) // 2, np.arange(2 * k) % 2 == 1)
    d_of = np.array([metric(p) - base for p in kern.p.T])
    acc = np.cumsum(state.p[:-1])  # samba_select picks the first arm with u < acc
    means = np.asarray(means, dtype=float)
    total = 0.0
    total_sq = 0.0
    for start in range(0, samples, _MC_CHUNK):
        u = rng.random(2 * min(_MC_CHUNK, samples - start))
        arms = np.searchsorted(acc, u[0::2], side="right")
        d = d_of[2 * arms + (u[1::2] < means[arms])]
        total = float(np.cumsum(np.concatenate(([total], d)))[-1])
        total_sq = float(np.cumsum(np.concatenate(([total_sq], d * d)))[-1])
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    ci = 3.0 * math.sqrt(var / samples)
    return mean, ci


def _drift_report(
    check: str, state: SambaState, a_star: int, means: Sequence[float],
    metric: Callable[[Sequence[float]], float], exact: float, bound: float,
    cost: float, samples: int, rng: np.random.Generator, kernel: type[SambaLockstep],
) -> DriftReport:
    """The Monte-Carlo one-step drift of ``metric`` from ``state``, judged against ``bound``."""
    mean, ci = _mc_one_step(state, means, metric, samples, rng, kernel)
    return DriftReport(
        check=check,
        mean_drift=mean,
        ci_half_width=ci,
        samples=samples,
        bound=bound,
        exact_drift=exact,
        passed=mean + ci <= bound,
        p_opt=state.p[a_star],
        p_lead=state.p[state.leader],
        cost=cost,
    )


def check_drift_nonleader(
    instance: BanditInstance,
    alpha: float,
    *,
    cost: float = 0.0,
    samples: int = 1_000_000,
    rng: np.random.Generator,
    state_prep: Callable[[np.random.Generator], SambaState] | None = None,
    kernel: type[SambaLockstep] = SambaLockstep,
) -> DriftReport:
    """Measured drift of 1/p* in a suppressed state vs the analysis bound.

    Pass iff mean + CI <= -xi + alpha*cost*(1 + epsilon + 1/(1+alpha)). The
    single-step corruption applied is the worst case of total shift ``cost``.
    :class:`UndefinedBound` if alpha violates the drift condition.
    """
    consts = analysis_constants(instance, alpha)
    if not consts.theory_valid:
        raise UndefinedBound("step size violates the drift condition; bound undefined")
    state = state_prep(rng) if state_prep is not None else prep_nonleader(instance, alpha, rng)
    a_star = instance.optimal_arm
    if state.leader == a_star:
        raise PrepFailure("prepared state has the best arm as leader")
    means = _worst_case_means_nonleader(instance, state.leader, cost)
    bound = -consts.xi + alpha * cost * (1.0 + consts.epsilon + 1.0 / (1.0 + alpha))
    return _drift_report(
        "drift_nonleader", state, a_star, means, lambda p: 1.0 / p[a_star],
        exact_nonleader_drift(state, means, a_star), bound, cost, samples, rng, kernel,
    )


def check_drift_leader(
    instance: BanditInstance,
    alpha: float,
    *,
    cost: float = 0.0,
    samples: int = 1_000_000,
    rng: np.random.Generator,
    state_prep: Callable[[np.random.Generator], SambaState] | None = None,
    kernel: type[SambaLockstep] = SambaLockstep,
) -> DriftReport:
    """Measured drift of q = 1 - p* once the best arm leads, vs the K-diluted bound.

    Pass iff mean + CI <= alpha*(2*cost - gap)*q^2/K (which is -alpha*gap*q^2/K
    when clean). Meaningful as an upper bound for cost <= gap/2.
    """
    consts = analysis_constants(instance, alpha)
    state = state_prep(rng) if state_prep is not None else prep_leader(instance, alpha, rng)
    a_star = instance.optimal_arm
    if state.leader != a_star or state.p[a_star] < 0.5:
        raise PrepFailure("prepared state does not have the best arm leading with p >= 1/2")
    means = _worst_case_means_leader(instance, cost)
    q0 = 1.0 - state.p[a_star]
    bound = alpha * (2.0 * cost - consts.gap) * q0 * q0 / instance.k
    return _drift_report(
        "drift_leader", state, a_star, means, lambda p: 1.0 - p[a_star],
        exact_leader_qdrift(state, means, a_star), bound, cost, samples, rng, kernel,
    )


class TamperedLockstep(SambaLockstep):
    """Deliberately broken kernel so the checks can be shown to fail.

    SambaLockstep except that a rewarded non-leader pull *shrinks* by the
    factor (1 - alpha) instead of growing by (1 + alpha): mass drains toward
    whoever currently leads, so in a suppressed-best-arm state 1/p* drifts
    upward and the non-leader checks go red. On the default ladder the best
    arm does not lead from the uniform start and seldom takes over, so
    recovery and decay cannot be set up; oracle_mc's mean leaves the exact
    regret. Wired to the CLI's hidden ``--tamper-update`` flag.
    """

    def __init__(self, p: np.ndarray, alpha: float):
        super().__init__(p, alpha)
        self.growth = 1.0 - alpha


# ---------------------------------------------------------------------------
# Vectorized episode batches: SambaLockstep, one column per replication,
# bit-identical to samba_pick + samba_update fed the same draws
# ---------------------------------------------------------------------------


def samba_batch_step(
    P: np.ndarray,
    alpha: float,
    means: np.ndarray,
    u_arm: np.ndarray,
    u_rew: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Advance a (rows, K) matrix of independent states by one round in place.

    An adapter over :class:`~banditlab.samba.SambaLockstep`: each row moves
    as ``samba_pick`` + ``samba_update`` move it (its leader is its first
    argmax), driven by the two uniform vectors. Returns (arms, rewards).
    """
    kern = SambaLockstep(P.T.copy(), alpha)
    arms = kern.pick(u_arm)
    rewards = u_rew < means[arms]
    kern.update(arms, rewards)
    P[...] = kern.p.T
    return arms, rewards


def _play_round(kern: SambaLockstep, means: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One round of every column: all arm draws, then all reward draws. Returns the arms."""
    n = kern.p.shape[1]
    arms = kern.pick(rng.random(n))
    kern.update(arms, rng.random(n) < means[arms])
    return arms


# ---------------------------------------------------------------------------
# Recovery time after injected corruption
# ---------------------------------------------------------------------------


MAX_RECOVERY_WAIT = 200_000  # rounds after the injections before unrecovered reps fail


@dataclass(frozen=True)
class RecoveryReport:
    mean_steps: float
    ci_half_width: float
    bound: float
    reps_used: int
    burnin_failures: int
    passed: bool


def check_recovery_time(
    instance: BanditInstance,
    alpha: float,
    cost: float | Sequence[float],
    *,
    reps: int = 10_000,
    t0: int = 20_000,
    rng: np.random.Generator,
    kernel: type[SambaLockstep] = SambaLockstep,
) -> RecoveryReport:
    """Mean rounds until q returns below its pre-injection level.

    Burn the batch in cleanly for t0 rounds, drop replications that have not
    reached q <= 1/2 (counted; more than half failing raises
    :class:`BurnInFailure`), then corrupt one round per listed cost
    (suppressing the best arm) and count rounds until q(t) <= q(t0). The
    whole injection window counts toward every replication's clock — a dip
    below q(t0) between injections is not a recovery, since more corruption
    is still coming. Pass iff the mean is below 4*total_cost/gap plus the
    3-sigma CI; with zero total cost there is no claim to check and the
    report passes vacuously.
    """
    costs = [cost] if isinstance(cost, (int, float)) else list(cost)
    total_cost = float(sum(costs))
    a_star = instance.optimal_arm
    true_means = np.asarray(instance.means)
    kern = kernel(np.full((instance.k, reps), 1.0 / instance.k), alpha)

    for _ in range(t0):
        _play_round(kern, true_means, rng)

    q0 = 1.0 - kern.p[a_star]
    ok = q0 <= 0.5
    burnin_failures = int(reps - ok.sum())
    if burnin_failures > reps // 2:
        raise BurnInFailure(
            f"{burnin_failures}/{reps} replications above q=1/2 after {t0} clean rounds"
        )
    kern = kernel(np.ascontiguousarray(kern.p[:, ok]), alpha)
    q0 = q0[ok]
    n = q0.size

    steps = np.zeros(n, dtype=np.int64)
    for c in costs:
        shifted = true_means.copy()
        shifted[a_star] = max(0.0, shifted[a_star] - c)
        _play_round(kern, shifted, rng)
        steps += 1
    active = (1.0 - kern.p[a_star]) > q0

    waited = 0
    while active.any():
        if waited >= MAX_RECOVERY_WAIT:
            raise PrepFailure(f"{int(active.sum())} replications unrecovered after {waited} rounds")
        _play_round(kern, true_means, rng)
        waited += 1
        steps[active] += 1
        q = 1.0 - kern.p[a_star]
        active &= q > q0

    mean = float(steps.mean())
    ci = 3.0 * float(steps.std(ddof=1)) / math.sqrt(n) if n > 1 else 0.0
    bound = 4.0 * total_cost / instance.min_gap
    passed = True if total_cost == 0.0 else mean <= bound + ci
    return RecoveryReport(
        mean_steps=mean,
        ci_half_width=ci,
        bound=bound,
        reps_used=n,
        burnin_failures=burnin_failures,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# Embedded-chain decay of q
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecayReport:
    s_grid: tuple[int, ...]
    means: tuple[float, ...]
    bounds: tuple[float, ...]
    ci_half_widths: tuple[float, ...]
    rows_used: int
    passed: bool


def check_qhat_decay(
    instance: BanditInstance,
    alpha: float,
    *,
    horizon: int = 50_000,
    reps: int = 200,
    s_grid: Sequence[int] = (100, 1_000, 10_000),
    rng: np.random.Generator,
    kernel: type[SambaLockstep] = SambaLockstep,
) -> DecayReport:
    """Empirical mean of q along the embedded chain vs 2K/(4K + alpha*gap*s).

    The chain of a clean replication consists of the rounds with q <= 1/2,
    re-indexed s = 0, 1, 2, ...; replications whose chain never reaches
    max(s_grid) are dropped (more than 5% dropping fails the prep).
    """
    grid = tuple(int(s) for s in s_grid)
    s_max = max(grid)
    a_star = instance.optimal_arm
    k = instance.k
    gap = instance.min_gap
    true_means = np.asarray(instance.means)
    kern = kernel(np.full((k, reps), 1.0 / k), alpha)
    counters = np.zeros(reps, dtype=np.int64)
    recorded = np.full((reps, len(grid)), np.nan)
    grid_arr = np.asarray(grid)

    for _ in range(horizon):
        q = 1.0 - kern.p[a_star]
        in_chain = q <= 0.5
        hits = in_chain[:, None] & (counters[:, None] == grid_arr[None, :])
        if hits.any():
            rows, cols = np.nonzero(hits)
            recorded[rows, cols] = q[rows]
        counters[in_chain] += 1
        if counters.min() > s_max:
            break
        _play_round(kern, true_means, rng)

    complete = counters > s_max
    used = int(complete.sum())
    if used < 0.95 * reps:
        raise PrepFailure(
            f"only {used}/{reps} replications produced an embedded chain of length {s_max}"
        )
    vals = recorded[complete]
    means = vals.mean(axis=0)
    sds = vals.std(axis=0, ddof=1)
    cis = 3.0 * sds / math.sqrt(used)
    bounds = 2.0 * k / (4.0 * k + alpha * gap * grid_arr)
    passed = bool(np.all(means <= bounds + cis))
    return DecayReport(
        s_grid=grid,
        means=tuple(float(v) for v in means),
        bounds=tuple(float(b) for b in bounds),
        ci_half_widths=tuple(float(c) for c in cis),
        rows_used=used,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# Exact expected pseudo-regret by outcome-tree enumeration
# ---------------------------------------------------------------------------


def exact_regret_oracle(instance: BanditInstance, alpha: float, horizon: int) -> float:
    """Exact E[pseudo-regret] of a clean run, by exhaustive enumeration.

    Collapses the K+1 outcomes per round (each arm pulled-and-rewarded, or
    any zero-reward pull, which never moves the state) and walks the tree.
    The transition arithmetic is written out here independently of
    samba_update. Guarded to K <= 3, horizon <= 10.
    """
    k = instance.k
    if k > 3 or horizon > 10:
        raise InstanceTooLarge(
            f"enumeration over (K+1)^T outcomes infeasible for K={k}, T={horizon}"
        )
    means = instance.means
    gaps = instance.gaps
    total = 0.0
    leaf_mass = 0.0

    def argmax_low(p: tuple[float, ...]) -> int:
        best, lead = p[0], 0
        for a in range(1, len(p)):
            if p[a] > best:
                best, lead = p[a], a
        return lead

    def advance(p: tuple[float, ...], lead: int, arm: int) -> tuple[float, ...]:
        q = list(p)
        if arm == lead:
            for a in range(k):
                if a != lead:
                    q[a] = q[a] - alpha * q[a] * q[a] / p[lead]
        else:
            q[arm] = q[arm] * (1.0 + alpha)
        q[lead] = 1.0 - (sum(q) - q[lead])
        return tuple(q)

    def walk(p: tuple[float, ...], t: int, prob: float) -> None:
        nonlocal total, leaf_mass
        if t == horizon:
            leaf_mass += prob
            return
        total += prob * sum(pa * g for pa, g in zip(p, gaps))
        lead = argmax_low(p)
        stay = 1.0 - sum(pa * m for pa, m in zip(p, means))
        if stay > 0.0:
            walk(p, t + 1, prob * stay)
        for arm in range(k):
            w = p[arm] * means[arm]
            if w > 0.0:
                walk(advance(p, lead, arm), t + 1, prob * w)

    walk(tuple([1.0 / k] * k), 0, 1.0)
    if abs(leaf_mass - 1.0) > 1e-12:
        raise RuntimeError(f"outcome probabilities sum to {leaf_mass!r}, not 1")
    return total


def mc_regret(
    instance: BanditInstance,
    alpha: float,
    horizon: int,
    episodes: int,
    rng: np.random.Generator,
    *,
    kernel: type[SambaLockstep] = SambaLockstep,
) -> tuple[float, float]:
    """Monte-Carlo mean pseudo-regret of clean runs and its 3-sigma CI."""
    true_means = np.asarray(instance.means)
    gaps = np.asarray(instance.gaps)
    kern = kernel(np.full((instance.k, episodes), 1.0 / instance.k), alpha)
    regret = np.zeros(episodes)
    for _ in range(horizon):
        regret += gaps[_play_round(kern, true_means, rng)]
    mean = float(regret.mean())
    ci = 3.0 * float(regret.std(ddof=1)) / math.sqrt(episodes)
    return mean, ci


# ---------------------------------------------------------------------------
# Logarithmic growth fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LogFit:
    intercept: float
    slope: float
    rss: float


def _line_fit(x: np.ndarray, ys: np.ndarray) -> tuple[float, float, float]:
    """Least-squares ys ~ a + b * x: (a, b, residual sum of squares)."""
    design = np.column_stack([np.ones_like(x), x])
    coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
    resid = ys - design @ coef
    return float(coef[0]), float(coef[1]), float(resid @ resid)


def fit_log_regret(curve: Sequence[tuple[int, float]]) -> LogFit:
    """Least-squares fit regret(t) ~ intercept + slope * ln(t).

    Needs at least 5 checkpoints spanning at least one decade, otherwise
    :class:`DegenerateFit`.
    """
    if len(curve) < 5:
        raise DegenerateFit(f"need >= 5 checkpoints, got {len(curve)}")
    ts, ys = np.asarray(curve, dtype=float).T
    if ts.min() < 1 or ts.max() / ts.min() < 10.0:
        raise DegenerateFit("checkpoints must span at least one decade of rounds")
    return LogFit(*_line_fit(np.log(ts), ys))


def compare_log_vs_logsq(curve: Sequence[tuple[int, float]]) -> tuple[float, float]:
    """Residual sums of a ln(t) fit and a (ln t)^2 fit of the same curve."""
    fit = fit_log_regret(curve)
    ts, ys = np.asarray(curve, dtype=float).T
    return fit.rss, _line_fit(np.log(ts) ** 2, ys)[2]


# ---------------------------------------------------------------------------
# Whole-suite driver (used by the CLI)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class SuiteSizes:
    drift_samples: int = 4_000_000
    recovery_reps: int = 10_000
    recovery_t0: int = 20_000
    decay_reps: int = 200
    decay_horizon: int = 50_000
    decay_grid: tuple[int, ...] = (100, 1_000, 10_000)
    mc_episodes: int = 1_000_000
    fit_reps: int = 40
    fit_horizon: int = 100_000

    @staticmethod
    def fast() -> "SuiteSizes":
        return SuiteSizes(
            drift_samples=1_600_000,
            recovery_reps=1_000,
            recovery_t0=8_000,
            decay_reps=60,
            decay_horizon=30_000,
            decay_grid=(100, 1_000, 5_000),
            mc_episodes=100_000,
            fit_reps=10,
            fit_horizon=30_000,
        )


def run_verification_suite(
    instance: BanditInstance,
    alpha: float,
    *,
    sizes: SuiteSizes | None = None,
    seed: int = 2024,
    kernel: type[SambaLockstep] = SambaLockstep,
    log_curve: Sequence[tuple[int, float]] | None = None,
) -> list[CheckOutcome]:
    """Run every analysis check, each a (name, thunk) row giving (passed, detail).

    A check that cannot be set up (:class:`CheckSetupFailure`) fails with
    the reason and the others still run; any other exception propagates.
    ``kernel`` plays SAMBA in the drift, recovery, decay and oracle_mc
    checks. log_fit judges the caller's clean regret curve (the CLI makes
    it with the engine), the suite's only check of the engine's own curve;
    the kernel does not reach it, since that would need an option on the
    engine or its policy registry.
    """
    sizes = sizes or SuiteSizes()
    consts = analysis_constants(instance, alpha)
    eighth_gap = instance.min_gap / 8.0

    def constants() -> tuple[bool, str]:
        return consts.theory_valid, (
            f"alpha={alpha} vs bound={consts.alpha_bound:.6g}, "
            f"epsilon={consts.epsilon:.6g}, xi={consts.xi:.6g}, zeta={consts.zeta:.6g}"
        )

    def drift(check: Callable[..., DriftReport], cost: float, offset: int) -> tuple[bool, str]:
        report = check(
            instance, alpha, cost=cost, samples=sizes.drift_samples,
            rng=make_stream(seed + offset), kernel=kernel,
        )
        return report.passed, (
            f"drift={report.mean_drift:.3e} +/- {report.ci_half_width:.1e} "
            f"vs bound={report.bound:.3e} (exact {report.exact_drift:.3e})"
        )

    def recovery() -> tuple[bool, str]:
        rec = check_recovery_time(
            instance, alpha, instance.optimal_mean, reps=sizes.recovery_reps,
            t0=sizes.recovery_t0, rng=make_stream(seed + 11), kernel=kernel,
        )
        return rec.passed, (
            f"mean={rec.mean_steps:.2f} +/- {rec.ci_half_width:.2f} rounds "
            f"vs bound={rec.bound:.1f} ({rec.reps_used} reps)"
        )

    def decay() -> tuple[bool, str]:
        rep = check_qhat_decay(
            instance, alpha, horizon=sizes.decay_horizon, reps=sizes.decay_reps,
            s_grid=sizes.decay_grid, rng=make_stream(seed + 12), kernel=kernel,
        )
        return rep.passed, ", ".join(
            f"s={s}: {m:.4f}<= {b:.4f}+{c:.4f}"
            for s, m, b, c in zip(rep.s_grid, rep.means, rep.bounds, rep.ci_half_widths)
        )

    def oracle_mc() -> tuple[bool, str]:
        small = make_instance((0.9, 0.5))
        exact = exact_regret_oracle(small, 0.1, 8)
        mc_mean, mc_ci = mc_regret(
            small, 0.1, 8, sizes.mc_episodes, make_stream(seed + 13), kernel=kernel
        )
        return abs(mc_mean - exact) <= mc_ci, f"mc={mc_mean:.5f} +/- {mc_ci:.5f} vs exact={exact:.5f}"

    def log_fit() -> tuple[bool, str]:
        tail = [(t, r) for t, r in log_curve if t >= 1000]
        fit = fit_log_regret(tail)
        rss_log, rss_sq = compare_log_vs_logsq(tail)
        cap = instance.k / (alpha * instance.min_gap)
        return 0.0 < fit.slope <= cap and rss_log < rss_sq, (
            f"slope={fit.slope:.1f} (cap {cap:.0f}), rss ln={rss_log:.3g} vs ln^2={rss_sq:.3g}"
        )

    checks = [
        ("constants", constants),
        ("drift_nonleader_clean", lambda: drift(check_drift_nonleader, 0.0, 0)),
        ("drift_nonleader_corrupted", lambda: drift(check_drift_nonleader, eighth_gap, 1)),
        ("drift_leader_clean", lambda: drift(check_drift_leader, 0.0, 2)),
        ("drift_leader_corrupted", lambda: drift(check_drift_leader, eighth_gap, 3)),
        ("recovery", recovery),
        ("decay", decay),
        ("oracle_mc", oracle_mc),
    ]
    if log_curve is not None:
        checks.append(("log_fit", log_fit))
    outcomes = []
    for name, thunk in checks:
        try:
            passed, detail = thunk()
        except CheckSetupFailure as exc:
            passed, detail = False, f"not set up: {exc}"
        outcomes.append(CheckOutcome(name=name, passed=passed, detail=detail))
    return outcomes
