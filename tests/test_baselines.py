import math

import numpy as np
import pytest

from banditlab.adversary import CorruptionPlan
from banditlab.baselines import (
    ALGORITHMS,
    BarbarPolicy,
    CBarbarPolicy,
    FastSlowEliminationPolicy,
    TsallisInfPolicy,
    _solve_weight_scale,
    make_policy,
    tsallis_solve_normalization,
)
from banditlab.core import KTooSmall, make_instance
from banditlab.engine import run_episode
from banditlab.samba import SambaPolicy


def rng(seed=0):
    return np.random.Generator(np.random.Philox(key=seed))


def bisect_weights(losses, eta, iters=200):
    """Independent route to the same weights: plain interval halving on the
    normalizer x < min(L) of sum_a 4/(eta*(L_a - x))^2 = 1."""
    k = len(losses)
    lo = min(losses) - 2.0 * math.sqrt(k) / eta - 1.0  # sum < 1 here
    hi = min(losses) - 1e-15                           # sum -> inf here

    def total(x):
        return sum(4.0 / (eta * (l - x)) ** 2 for l in losses)

    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if total(mid) > 1.0:
            hi = mid
        else:
            lo = mid
    x = 0.5 * (lo + hi)
    return [4.0 / (eta * (l - x)) ** 2 for l in losses]


class TestTsallisNormalization:
    def test_matches_bisection_two_arms(self):
        w = tsallis_solve_normalization([0.0, 10.0], 0.1)
        ref = bisect_weights([0.0, 10.0], 0.1)
        assert w == pytest.approx(ref, abs=1e-8)
        assert w[0] > w[1]  # smaller loss, larger weight
        assert w.sum() == pytest.approx(1.0, abs=1e-10)

    def test_matches_bisection_random_vectors(self):
        r = rng(21)
        for _ in range(30):
            k = int(r.integers(2, 12))
            losses = (r.random(k) * r.choice([1.0, 50.0, 2000.0])).tolist()
            eta = float(r.uniform(0.02, 2.0))
            w = tsallis_solve_normalization(losses, eta)
            ref = bisect_weights(losses, eta)
            assert w == pytest.approx(ref, abs=1e-7)

    def test_residual_tight_on_long_vectors(self):
        r = rng(22)
        losses = (r.random(200) * 1e5).tolist()
        w = tsallis_solve_normalization(losses, 0.3)
        assert abs(w.sum() - 1.0) <= 1e-10
        assert (w > 0).all()

    def test_equal_losses_give_uniform(self):
        w = tsallis_solve_normalization([7.0] * 5, 0.5)
        assert w == pytest.approx([0.2] * 5, abs=1e-10)

    def test_weight_order_follows_loss_order(self):
        losses = [3.0, 1.0, 4.0, 1.5]
        w = tsallis_solve_normalization(losses, 0.2)
        assert list(np.argsort(w)) == list(np.argsort(losses))[::-1]

    def test_rejects_bad_eta(self):
        with pytest.raises(ValueError):
            tsallis_solve_normalization([0.0, 1.0], 0.0)


class TestTsallisPolicy:
    def test_first_round_uniform(self):
        pol = TsallisInfPolicy(9)
        pol.select(rng(23))
        assert pol.weights == pytest.approx([1 / 9] * 9, abs=1e-9)

    def test_loss_update_importance_weighted(self):
        pol = TsallisInfPolicy(2)
        pol.select(rng(24))
        w0 = pol.weights[0]
        pol.update(0, 0)  # reward 0 -> loss 1 scaled by 1/w
        assert pol.losses[0] == pytest.approx(1.0 / w0)
        assert pol.losses[1] == 0.0
        pol.select(rng(24))
        pol.update(1, 1)  # reward 1 -> no loss added
        assert pol.losses[1] == 0.0

    def test_long_run_stays_normalized_and_learns(self):
        pol = TsallisInfPolicy(3)
        r = rng(25)
        means = [0.2, 0.9, 0.4]
        for _ in range(3000):
            arm = pol.select(r)
            assert abs(pol.weights.sum() - 1.0) <= 1e-9
            pol.update(arm, 1 if r.random() < means[arm] else 0)
        assert pol.weights[1] > 0.5  # bulk of mass on the best arm
        assert np.argmin(pol.weights) == np.argmax(pol.losses)

    def test_rejects_bad_args(self):
        with pytest.raises(KTooSmall):
            TsallisInfPolicy(1)
        with pytest.raises(ValueError):
            TsallisInfPolicy(3, eta_scale=-1.0)


class TestBarbar:
    def test_first_phase_allocation(self):
        # all gap estimates start at 1: lambda/1^2 = 4 pulls per arm
        pol = BarbarPolicy(9)
        pol.select(rng(26))
        assert pol.phase_lengths == [36]
        assert sorted(pol._schedule) == sorted(list(range(9)) * 4)

    def test_pull_count_formula(self):
        # gap estimate 0.5 with lambda 8 -> ceil(8 / 0.25) = 32 pulls
        pol = BarbarPolicy(2, lambda_scale=8.0)
        pol.gap_estimates = [0.5, 1.0]
        pol._start_phase(rng(27))
        assert pol._targets == [32, 8]

    def test_schedule_is_shuffled_multiset(self):
        pol = BarbarPolicy(3, lambda_scale=16.0)
        pol.select(rng(28))
        sched = list(pol._schedule)
        assert sorted(sched) == sorted([0] * 16 + [1] * 16 + [2] * 16)
        assert sched != sorted(sched)  # astronomically unlikely to stay sorted

    def _drive_phase(self, pol, r, reward_of):
        # run exactly one phase to completion
        start = len(pol.phase_lengths)
        while True:
            arm = pol.select(r)
            if len(pol.phase_lengths) != start:
                # select lazily opened the next phase; feed this round there
                start = len(pol.phase_lengths)
            pol.update(arm, reward_of(arm))
            if pol._pos >= len(pol._schedule):
                return

    def test_gap_reestimation_anchor(self):
        # deterministic rewards: arm 0 always 1, arm 1 always 0. Phase-1 means
        # are (1, 0); the anchor is max(mean - prior_gap/16) = 1 - 1/16 and the
        # new gaps are max(2^-1, anchor - mean) per arm.
        pol = BarbarPolicy(2)
        self._drive_phase(pol, rng(29), lambda a: 1 if a == 0 else 0)
        pol.select(rng(29))  # triggers _finish_phase of phase 1
        assert pol.gap_estimates[0] == pytest.approx(0.5)       # floored at 2^-1
        assert pol.gap_estimates[1] == pytest.approx(15 / 16)   # 0.9375
        # phase 2 allocation follows ceil(4 / gap^2)
        assert pol._targets == [16, math.ceil(4 / (15 / 16) ** 2)]

    def test_floor_halves_each_phase(self):
        # all rewards identical: raw gaps go negative, floor 2^-m binds
        pol = BarbarPolicy(2)
        r = rng(30)
        for expected_floor in (0.5, 0.25, 0.125):
            self._drive_phase(pol, r, lambda a: 1)
            pol.select(r)
            assert pol.gap_estimates == pytest.approx([expected_floor] * 2)

    def test_nine_arm_run_reaches_eight_phases(self):
        means = [i / 10 for i in range(1, 10)]
        pol = BarbarPolicy(9)
        r, env = rng(1), rng(101)
        for _ in range(100_000):
            arm = pol.select(r)
            pol.update(arm, 1 if env.random() < means[arm] else 0)
        assert len(pol.phase_lengths) >= 8
        assert pol.phase_lengths[0] == 36

    def test_phase_budget_sums(self):
        pol = BarbarPolicy(4, lambda_scale=4.0)
        pol.select(rng(31))
        assert pol.phase_lengths[0] == sum(pol._targets)

    @pytest.mark.parametrize("cls", [BarbarPolicy, CBarbarPolicy])
    def test_rejects_delta_keyword(self, cls):
        # Phase lengths come from lambda_scale alone; a delta would go unread.
        with pytest.raises(TypeError):
            cls(3, delta=0.05)


class TestCBarbar:
    def test_estimates_decay_at_most_geometrically(self):
        # phase 1 separates the arms (gap_1 = 15/16); in phase 2 every reward
        # is 1, which would collapse the raw gap to ~0. The halving anchor
        # keeps it at 15/32 while plain refinement drops to the 2^-2 floor.
        def run(cls):
            pol = cls(2)
            r = rng(32)
            # phase 1: arm 0 rewards 1, arm 1 rewards 0
            while True:
                arm = pol.select(r)
                pol.update(arm, 1 if arm == 0 else 0)
                if pol._pos >= len(pol._schedule):
                    break
            # phase 2: all rewards 1
            pol.select(r)
            while True:
                arm = pol.select(r)
                pol.update(arm, 1)
                if pol._pos >= len(pol._schedule):
                    break
            pol.select(r)  # finishes phase 2
            return pol.gap_estimates[1]

        assert run(BarbarPolicy) == pytest.approx(0.25)
        assert run(CBarbarPolicy) == pytest.approx(15 / 32)

    def test_name_distinct(self):
        assert CBarbarPolicy(2).name == "cbarbar"
        assert BarbarPolicy(2).name == "barbar"


class TestFastSlowElimination:
    def test_initial_sweep_is_round_robin(self):
        pol = FastSlowEliminationPolicy(5)
        r = rng(33)
        first = []
        for _ in range(5):
            arm = pol.select(r)
            first.append(arm)
            pol.update(arm, 0)
        assert first == [0, 1, 2, 3, 4]  # least-pulled wins, ties to pool order

    def test_clean_data_eliminates_bad_arm_everywhere(self):
        pol = FastSlowEliminationPolicy(2, c_known=0.0, delta=0.1)
        r = rng(34)
        for _ in range(200):
            arm = pol.select(r)
            pol.update(arm, 1 if arm == 0 else 0)
        assert pol.fast_active == [0]
        assert pol.slow_active == [0]
        assert all(pol.select(r) == 0 for _ in range(20))

    def test_budget_widening_keeps_slow_layer_open(self):
        # same separation, but with a claimed corruption budget of 50 the
        # slow layer's +c/n widening must keep both arms alive while the
        # fast layer still commits
        pol = FastSlowEliminationPolicy(2, c_known=50.0, delta=0.1)
        r = rng(35)
        for _ in range(200):
            arm = pol.select(r)
            pol.update(arm, 1 if arm == 0 else 0)
        assert pol.fast_active == [0]
        assert pol.slow_active == [0, 1]

    def test_slow_elimination_propagates_to_fast(self):
        pol = FastSlowEliminationPolicy(3, c_known=0.0, delta=0.1)
        r = rng(36)
        for _ in range(600):
            arm = pol.select(r)
            pol.update(arm, 1 if arm == 2 else 0)
        assert 0 not in pol.slow_active and 0 not in pol.fast_active
        assert pol.slow_active == [2]

    def test_counts_shared_across_layers(self):
        pol = FastSlowEliminationPolicy(2)
        r = rng(37)
        for _ in range(40):
            arm = pol.select(r)
            pol.update(arm, 1)
        assert sum(pol.counts) == 40

    def test_rejects_bad_args(self):
        with pytest.raises(KTooSmall):
            FastSlowEliminationPolicy(1)
        with pytest.raises(ValueError):
            FastSlowEliminationPolicy(2, delta=0.0)
        with pytest.raises(ValueError):
            FastSlowEliminationPolicy(2, c_known=-1.0)
        with pytest.raises(ValueError):
            FastSlowEliminationPolicy(2, slow_share=1.5)


class TestMakePolicy:
    def test_all_names_construct(self):
        for name in ALGORITHMS:
            pol = make_policy(name, 4, horizon=1000)
            assert pol.name == name
            arm = pol.select(rng(38))
            assert 0 <= arm < 4
            pol.update(arm, 1)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_policy("ucb_tuned", 4)

    def test_samba_params_forwarded(self):
        pol = make_policy("samba", 3, {"alpha": 0.2})
        assert isinstance(pol, SambaPolicy)
        assert pol.alpha == 0.2

    def test_fs_aae_delta_defaults_to_inverse_horizon(self):
        pol = make_policy("fs_aae", 3, horizon=100_000)
        assert pol.delta == pytest.approx(1e-5)
        explicit = make_policy("fs_aae", 3, {"delta": 0.01}, horizon=100_000)
        assert explicit.delta == 0.01

    def test_c_known_reaches_elimination_race(self):
        pol = make_policy("fs_aae", 3, c_known=123.0, horizon=1000)
        assert pol.c_known == 123.0


# ---------------------------------------------------------------------------
# The incremental fs_aae and tsallis_inf kernels against full per-round copies
# ---------------------------------------------------------------------------


class ReferenceFastSlow:
    """fs_aae recomputing every mean and radius and refiltering both layers on
    every update: the kernel FastSlowEliminationPolicy must match exactly."""

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
        self._mean = [0.0] * k
        self._rad = [math.inf] * k
        self.fast_active = list(range(k))
        self.slow_active = list(range(k))

    def select(self, rng: np.random.Generator) -> int:
        pool = self.slow_active if rng.random() < self.slow_share else self.fast_active
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
        self._mean[arm] = self.sums[arm] / n
        self._rad[arm] = math.sqrt((self._log_const + 2.0 * math.log(n)) / (2.0 * n))
        self._eliminate()

    def _eliminate(self) -> None:
        mean, rad, c = self._mean, self._rad, self.c_known

        slow_lcb = max(
            mean[a] - rad[a] - c / self.counts[a]
            for a in self.slow_active
            if self.counts[a] > 0
        ) if any(self.counts[a] > 0 for a in self.slow_active) else -math.inf
        survivors = [
            a
            for a in self.slow_active
            if self.counts[a] == 0 or mean[a] + rad[a] + c / self.counts[a] >= slow_lcb
        ]
        if len(survivors) != len(self.slow_active):
            self.slow_active = survivors
            self.fast_active = [a for a in self.fast_active if a in set(survivors)]

        fast_lcb = max(
            (mean[a] - rad[a] for a in self.fast_active if self.counts[a] > 0),
            default=-math.inf,
        )
        self.fast_active = [
            a for a in self.fast_active if self.counts[a] == 0 or mean[a] + rad[a] >= fast_lcb
        ]
        if not self.fast_active:
            self.fast_active = list(self.slow_active)


class ReferenceTsallis:
    """tsallis_inf rebuilding the shifted losses and the whole weight vector every
    round: the kernel TsallisInfPolicy must match exactly."""

    name = "tsallis_inf"

    def __init__(self, k: int, eta_scale: float = 1.0):
        if k < 2:
            raise KTooSmall(f"need at least 2 arms, got {k}")
        if eta_scale <= 0:
            raise ValueError(f"eta_scale must be > 0, got {eta_scale}")
        self.k = k
        self.eta_scale = float(eta_scale)
        self.losses = [0.0] * k
        self.t = 0
        self._w: list[float] = [1.0 / k] * k
        self._warm_y: float | None = None
        self._warm_eta: float | None = None

    @property
    def weights(self) -> np.ndarray:
        return np.asarray(self._w)

    def select(self, rng: np.random.Generator) -> int:
        self.t += 1
        eta = self.eta_scale / math.sqrt(self.t)
        base = min(self.losses)
        z = [v - base for v in self.losses]
        y0 = None
        if self._warm_y is not None:
            y0 = self._warm_y * (self._warm_eta / eta)
        y = _solve_weight_scale(z, eta, y0)
        self._warm_y, self._warm_eta = y, eta
        coeff = 4.0 / (eta * eta)
        w = [coeff / ((za + y) * (za + y)) for za in z]
        self._w = w
        u = rng.random()
        acc = 0.0
        for a in range(self.k - 1):
            acc += w[a]
            if u < acc:
                return a
        return self.k - 1

    def update(self, arm: int, reward: int) -> None:
        self.losses[arm] += (1.0 - reward) / self._w[arm]


class SnapshotPolicy:
    """Passes calls through and keeps the arm and the policy's state after every update."""

    def __init__(self, inner, snapshot):
        self.inner = inner
        self.name = inner.name
        self.snapshot = snapshot
        self.arms = []
        self.states = []

    def select(self, rng):
        return self.inner.select(rng)

    def update(self, arm, reward):
        self.inner.update(arm, reward)
        self.arms.append(arm)
        self.states.append(self.snapshot(self.inner))


def fs_state(pol):
    return list(pol.counts), list(pol.sums), list(pol.fast_active), list(pol.slow_active)


def tsallis_state(pol):
    return list(pol.losses), pol.weights.tolist()


class TestIncrementalKernelsMatchFullRecompute:
    HORIZON = 3000
    BUDGET = 60.0

    @staticmethod
    def spread_means(k):
        # every gap a multiple of 1/k, in an order that is not sorted
        return tuple(((7 * i) % k + 0.5) / k for i in range(k))

    def episodes(self, policy, reference, k, scheme, snapshot):
        instance = make_instance(self.spread_means(k))
        plan = CorruptionPlan(scheme=scheme, budget=self.BUDGET, horizon=self.HORIZON)
        out = []
        for pol in (policy, reference):
            rec = SnapshotPolicy(pol, snapshot)
            trace = run_episode(rec, instance, plan, self.HORIZON, seed=11 * k)
            out.append((rec, trace.checkpoints))
        return out

    @pytest.mark.parametrize("c_known", [0.0, BUDGET])
    @pytest.mark.parametrize("scheme", ["none", "delayed_block", "consecutive"])
    @pytest.mark.parametrize("k", [2, 6, 20])
    def test_fs_aae(self, k, scheme, c_known):
        delta = 1.0 / self.HORIZON
        (new, new_curve), (ref, ref_curve) = self.episodes(
            make_policy("fs_aae", k, c_known=c_known, horizon=self.HORIZON),
            ReferenceFastSlow(k, c_known=c_known, delta=delta),
            k,
            scheme,
            fs_state,
        )
        assert new.arms == ref.arms
        assert new.states == ref.states
        assert new_curve == ref_curve
        assert len(ref.states[-1][2]) < k  # the fast layer eliminated something

    @pytest.mark.parametrize("scheme", ["none", "delayed_block", "consecutive"])
    @pytest.mark.parametrize("k", [2, 6, 20])
    def test_tsallis_inf(self, k, scheme):
        (new, new_curve), (ref, ref_curve) = self.episodes(
            make_policy("tsallis_inf", k), ReferenceTsallis(k), k, scheme, tsallis_state
        )
        assert new.arms == ref.arms
        assert new.states == ref.states
        assert new_curve == ref_curve

    def test_tsallis_update_before_select_and_repeated_updates(self):
        new, ref = TsallisInfPolicy(4), ReferenceTsallis(4)
        r_new, r_ref = rng(40), rng(40)
        script = [(2, 0), None, (1, 0), (3, 1), (1, 0), None, (0, 0), (2, 0), None, None]
        for step in script:
            if step is None:
                assert new.select(r_new) == ref.select(r_ref)
            else:
                new.update(*step)
                ref.update(*step)
            assert tsallis_state(new) == tsallis_state(ref)


class TestFastSlowScriptedUpdates:
    def test_slow_layer_eliminating_every_fast_survivor(self):
        # Arm 1 pays first, so the fast layer locks onto it while the slow
        # layer's +c/n widening keeps all three arms. Then arm 0 pays and arm
        # 1 does not, until the slow layer drops arm 1: the fast layer is left
        # empty and is reset to the slow survivors, unfiltered. The next call
        # updates arm 1, which is in neither layer, and must still filter the
        # reset layer: arm 2 leaves it.
        pol = FastSlowEliminationPolicy(3, c_known=20.0, delta=0.1)
        ref = ReferenceFastSlow(3, c_known=20.0, delta=0.1)

        def feed(steps):
            for arm, reward in steps:
                pol.update(arm, reward)
                ref.update(arm, reward)
                assert (pol.fast_active, pol.slow_active) == (ref.fast_active, ref.slow_active)

        feed([(0, 0), (1, 1), (2, 0)] * 60)
        assert (pol.fast_active, pol.slow_active) == ([1], [0, 1, 2])
        feed([(0, 1), (1, 0)] * 188 + [(0, 1)])
        assert (pol.fast_active, pol.slow_active) == ([1], [0, 1, 2])
        feed([(1, 0)])
        assert (pol.fast_active, pol.slow_active) == ([0, 2], [0, 2])
        feed([(1, 1)])
        assert (pol.fast_active, pol.slow_active) == ([0], [0, 2])
        feed([(0, 1), (2, 0), (0, 0)])

    def test_random_update_sequences(self):
        # Updates for any arm, also arms both layers dropped, with reward
        # rates redrawn every 500 updates, so that layers shrink at many
        # points: the sets after every call equal the reference's.
        for seed in range(40):
            r = rng(seed)
            k = int(r.integers(2, 6))
            c_known = float(r.choice([0.0, 2.0, 20.0]))
            pol = FastSlowEliminationPolicy(k, c_known=c_known, delta=0.1)
            ref = ReferenceFastSlow(k, c_known=c_known, delta=0.1)
            for i in range(3000):
                if i % 500 == 0:
                    means = r.random(k)
                arm = int(r.integers(k)) if r.random() < 0.3 else int(r.choice(ref.slow_active))
                reward = int(r.random() < means[arm])
                pol.update(arm, reward)
                ref.update(arm, reward)
                assert (pol.fast_active, pol.slow_active) == (ref.fast_active, ref.slow_active)
