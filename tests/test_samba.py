import numpy as np
import pytest

from banditlab.core import KTooSmall
from banditlab.samba import (
    CLAMP_FLOOR,
    AlphaOutOfRange,
    InvalidArm,
    InvalidRewardValue,
    SambaPolicy,
    samba_from_probabilities,
    samba_init,
    samba_leader,
    samba_pick,
    samba_select,
    samba_update,
)
from banditlab.verify import TamperedLockstep


def rng(seed=0):
    return np.random.Generator(np.random.Philox(key=seed))


class TestInit:
    def test_uniform_start(self):
        st = samba_init(9, 0.05)
        assert st.p == [pytest.approx(1 / 9)] * 9
        assert st.leader == 0
        assert st.clamp_events == 0

    def test_bad_k(self):
        with pytest.raises(KTooSmall):
            samba_init(1, 0.1)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.5])
    def test_bad_alpha(self, alpha):
        with pytest.raises(AlphaOutOfRange):
            samba_init(3, alpha)


class TestLeader:
    def test_plain_argmax(self):
        assert samba_leader([0.2, 0.5, 0.3]) == 1

    def test_tie_goes_to_lowest_index(self):
        assert samba_leader([0.4, 0.4, 0.2]) == 0
        assert samba_leader([0.25, 0.25, 0.25, 0.25]) == 0


class TestUpdateArithmetic:
    """One-step values checked against hand-worked arithmetic."""

    def test_nonleader_reward_grows_by_factor(self):
        # uniform 3 arms, alpha=0.1: pulling arm 1 (non-leader) on reward 1
        # multiplies p_1 by 1.1 and the leader absorbs the difference
        st = samba_init(3, 0.1)
        samba_update(st, 1, 1)
        assert st.p[1] == pytest.approx((1 / 3) * 1.1)
        assert st.p[2] == pytest.approx(1 / 3)
        assert st.p[0] == pytest.approx(1 - (1 / 3) * 1.1 - 1 / 3)
        assert st.leader == 1  # arm 1 now holds the largest mass

    def test_leader_reward_shrinks_others(self):
        # uniform 3 arms, alpha=0.1: pulling leader 0 on reward 1 takes
        # alpha * p_a^2 / p_lead = 0.1/3 off each other arm
        st = samba_init(3, 0.1)
        samba_update(st, 0, 1)
        assert st.p[1] == pytest.approx(1 / 3 - 0.1 * (1 / 9) / (1 / 3))
        assert st.p[2] == pytest.approx(1 / 3 - 0.1 / 3 * (1 / 3) * 3)
        assert st.p[0] == pytest.approx(0.4)
        assert st.leader == 0

    def test_zero_reward_is_identity(self):
        st = samba_from_probabilities((0.5, 0.3, 0.2), 0.2)
        before = list(st.p)
        out = samba_update(st, 2, 0)
        assert out is st
        assert st.p == before
        assert st.leader == 0

    def test_update_returns_same_object(self):
        st = samba_init(2, 0.1)
        assert samba_update(st, 1, 1) is st

    def test_invalid_arm(self):
        st = samba_init(3, 0.1)
        with pytest.raises(InvalidArm):
            samba_update(st, 3, 1)
        with pytest.raises(InvalidArm):
            samba_update(st, -1, 1)

    def test_invalid_reward(self):
        st = samba_init(3, 0.1)
        with pytest.raises(InvalidRewardValue):
            samba_update(st, 0, 2)
        with pytest.raises(InvalidRewardValue):
            samba_update(st, 0, 0.5)


class TestUpdateProperties:
    def test_markov_same_state_same_result(self):
        # the update is a pure function of (p, arm, reward), independent of
        # how the state was reached
        a = samba_from_probabilities((0.6, 0.25, 0.15), 0.05)
        b = samba_from_probabilities((0.6, 0.25, 0.15), 0.05)
        # drive b through a detour that returns to the same point: reward 0s
        samba_update(b, 0, 0)
        samba_update(b, 2, 0)
        samba_update(a, 1, 1)
        samba_update(b, 1, 1)
        assert a.p == pytest.approx(b.p)
        assert a.leader == b.leader

    def test_simplex_preserved_exactly(self):
        st = samba_init(5, 0.3)
        r = rng(11)
        for _ in range(2000):
            arm = int(r.integers(5))
            samba_update(st, arm, int(r.integers(2)))
            assert abs(sum(st.p) - 1.0) <= 1e-9
            assert min(st.p) > 0.0
        assert st.clamp_events == 0

    def test_leader_cache_matches_argmax(self):
        st = samba_init(4, 0.2)
        r = rng(12)
        for _ in range(500):
            samba_update(st, int(r.integers(4)), int(r.integers(2)))
            assert st.leader == samba_leader(st.p)

    def test_nonleader_reward_monotone(self):
        st = samba_from_probabilities((0.5, 0.3, 0.2), 0.1)
        p1 = st.p[1]
        samba_update(st, 1, 1)
        assert st.p[1] > p1

    def test_leader_reward_monotone(self):
        st = samba_from_probabilities((0.5, 0.3, 0.2), 0.1)
        p0 = st.p[0]
        samba_update(st, 0, 1)
        assert st.p[0] > p0
        assert st.p[1] < 0.3 and st.p[2] < 0.2

    def test_copy_is_independent(self):
        st = samba_init(3, 0.1)
        cp = st.copy()
        samba_update(st, 1, 1)
        assert cp.p == [pytest.approx(1 / 3)] * 3
        assert cp.leader == 0


class TestFromProbabilities:
    def test_roundtrip(self):
        st = samba_from_probabilities((0.2, 0.5, 0.3), 0.1)
        assert st.leader == 1
        assert st.p == [0.2, 0.5, 0.3]

    def test_rejects_non_simplex(self):
        with pytest.raises(ValueError):
            samba_from_probabilities((0.5, 0.6), 0.1)
        with pytest.raises(ValueError):
            samba_from_probabilities((1.0, 0.0), 0.1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("at", [0, 1])
    def test_rejects_non_finite(self, bad, at):
        p = [0.5, 0.5, 0.5]
        p[at] = bad
        with pytest.raises(ValueError, match="finite"):
            samba_from_probabilities(p, 0.1)


class TestSelect:
    def test_frequencies_match_distribution(self):
        st = samba_from_probabilities((0.7, 0.2, 0.1), 0.1)
        r = rng(13)
        n = 100_000
        counts = np.bincount([samba_select(st, r) for _ in range(n)], minlength=3)
        for a, p in enumerate((0.7, 0.2, 0.1)):
            assert abs(counts[a] / n - p) < 3 * (p * (1 - p) / n) ** 0.5

    def test_all_arms_reachable(self):
        st = samba_init(4, 0.1)
        r = rng(14)
        seen = {samba_select(st, r) for _ in range(1000)}
        assert seen == {0, 1, 2, 3}


class TestPolicyWrapper:
    def test_name_and_params(self):
        pol = SambaPolicy(9, alpha=0.05)
        assert pol.name == "samba"
        assert pol.alpha == 0.05

    def test_select_update_cycle(self):
        pol = SambaPolicy(3, alpha=0.1)
        r = rng(15)
        for _ in range(200):
            arm = pol.select(r)
            pol.update(arm, int(r.integers(2)))
        assert abs(sum(pol.state.p) - 1.0) <= 1e-9


class TestSimplexFuzz:
    """Random-state fuzz across dimensions and step sizes (unit-scale;
    the million-step timed version lives in the acceptance gate)."""

    def test_random_instances_hold_invariants(self):
        r = rng(16)
        for _ in range(50):
            k = int(r.integers(2, 65))
            alpha = float(r.uniform(0.01, 0.99))
            st = samba_init(k, alpha)
            for _ in range(400):
                arm = int(r.integers(k))
                reward = int(r.random() < 0.5)
                samba_update(st, arm, reward)
            assert abs(sum(st.p) - 1.0) <= 1e-9
            assert min(st.p) > 0.0
            assert st.clamp_events == 0


# ---------------------------------------------------------------------------
# The scalar step against a reference: verbatim copies of the loop-based
# samba_leader, _clamp and samba_update that the list-level rewrite replaced.
# Every step must agree bit for bit (compared by float.hex).
# ---------------------------------------------------------------------------


def ref_leader(p):
    best = p[0]
    lead = 0
    for a in range(1, len(p)):
        if p[a] > best:
            best = p[a]
            lead = a
    return lead


def ref_clamp(p):
    k = len(p)
    for a in range(k):
        if p[a] < CLAMP_FLOOR:
            p[a] = CLAMP_FLOOR
    lead_now = ref_leader(p)
    rest = 0.0
    for a in range(k):
        if a != lead_now:
            rest += p[a]
    p[lead_now] = 1.0 - rest


def ref_update(state, pulled, reward):
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
        for a in range(k):
            if a != lead:
                p[a] -= alpha * p[a] * p[a] / p_lead
    else:
        p[pulled] *= 1.0 + alpha

    rest = 0.0
    for a in range(k):
        if a != lead:
            rest += p[a]
    p[lead] = 1.0 - rest

    low = min(p)
    if low < CLAMP_FLOOR:
        state.clamp_events += 1
        ref_clamp(p)

    state.leader = ref_leader(p)
    return state


def ref_tampered(state, pulled, reward):
    """The reference step with a rewarded non-leader pull scaled by 1 - alpha.

    Negating the step size turns the non-leader factor 1.0 + alpha into
    1.0 - alpha exactly; the leader branch is left as it is.
    """
    if reward == 0 or pulled == state.leader:
        return ref_update(state, pulled, reward)
    alpha = state.alpha
    state.alpha = -alpha
    try:
        return ref_update(state, pulled, reward)
    finally:
        state.alpha = alpha


def bits(state):
    return [x.hex() for x in state.p], state.leader, state.clamp_events


def play_both(state, steps, r, means=None):
    """Play ``state`` and a copy under ``samba_update`` and ``ref_update`` on one draw stream.

    Arms come from ``samba_select`` on the state, rewards from ``means`` (a
    fair coin when None); both states must agree after every step.
    """
    ref = state.copy()
    for _ in range(steps):
        arm = samba_select(state, r)
        reward = int(r.random() < (0.5 if means is None else means[arm]))
        samba_update(state, arm, reward)
        ref_update(ref, arm, reward)
        assert bits(state) == bits(ref)
    return state


def play_columns(kernel, starts, alpha, steps, r, reference):
    """Play each start as one column of ``kernel`` and alone under ``reference``.

    One draw stream gives every round's arm uniforms and fair-coin rewards;
    after every step each column must pick its state's arm and equal its
    state (floats by hex, leader, clamp count). Returns the states.
    """
    kern = kernel(np.array(starts, dtype=float).T.copy(), alpha)
    states = [samba_from_probabilities(p, alpha) for p in starts]
    for _ in range(steps):
        u = r.random(len(states))
        arms = kern.pick(u)
        rewards = r.random(len(states)) < 0.5
        kern.update(arms, rewards)
        for c, state in enumerate(states):
            assert arms[c] == samba_pick(state, u[c])
            reference(state, int(arms[c]), int(rewards[c]))
            col = kern.p[:, c].tolist()
            assert ([x.hex() for x in col], samba_leader(col), kern.clamp_events[c]) == bits(state)
    return states


TIE_STARTS = [
    [0.25, 0.25, 0.25, 0.25],
    [0.4, 0.4, 0.2],
    [0.1, 0.3, 0.3, 0.3],
    [0.2, 0.15, 0.3, 0.05, 0.3],
]


class TestMatchesLoopReference:
    def test_criterion_01_fuzz_histories(self):
        # criterion 01's generator: K 2-64, alpha 0.005-0.995, uniform means
        r = np.random.default_rng(11)
        for _ in range(20):
            k = int(r.integers(2, 65))
            alpha = float(r.uniform(0.005, 0.995))
            means = r.uniform(0.0, 1.0, size=k)
            play_both(samba_init(k, alpha), 2_000, r, means=means)

    @pytest.mark.parametrize("k", [2, 3, 6, 20, 64])
    @pytest.mark.parametrize("alpha", [0.3, 0.9])
    def test_clamp_path(self, k, alpha):
        # One coordinate starts below the floor (as in the lockstep clamp
        # test), so rewarded updates clamp until it is pulled back up.
        r = rng(k)
        clamps = 0
        for tiny in range(min(k, 4)):
            p = [1.0 / k] * k
            p[tiny] = 0.5 * CLAMP_FLOOR
            p[(tiny + 1) % k] += 1.0 / k - 0.5 * CLAMP_FLOOR
            state = play_both(samba_from_probabilities(p, alpha), 300, r)
            clamps += state.clamp_events
        assert clamps > 0

    def test_several_coordinates_below_floor(self):
        p = [0.25 * CLAMP_FLOOR] * 4 + [0.5, 0.3, 0.2 - CLAMP_FLOOR]
        state = play_both(samba_from_probabilities(p, 0.5), 400, rng(21))
        assert state.clamp_events > 0

    @pytest.mark.parametrize("p", TIE_STARTS)
    def test_leader_ties(self, p):
        assert samba_leader(p) == ref_leader(p)
        start = samba_from_probabilities(p, 0.25)
        for arm in range(len(p)):
            for reward in (0, 1):
                state, ref = start.copy(), start.copy()
                samba_update(state, arm, reward)
                ref_update(ref, arm, reward)
                assert bits(state) == bits(ref)
        play_both(start.copy(), 300, rng(len(p)))

    def test_update_creates_exact_tie(self):
        # 0.25 * 1.5 = 0.375 = 1 - (0.375 + 0.25): arms 0 and 1 tie, arm 0 leads
        state = samba_from_probabilities([0.25, 0.5, 0.25], 0.5)
        ref = state.copy()
        samba_update(state, 0, 1)
        ref_update(ref, 0, 1)
        assert bits(state) == bits(ref)
        assert state.p[0] == state.p[1] == 0.375
        assert state.leader == 0

    def test_tampered_update_histories(self):
        # TamperedLockstep's columns follow the scalar ref_tampered bit for bit.
        r = rng(22)
        for _ in range(20):
            k = int(r.integers(2, 33))
            alpha = float(r.uniform(0.005, 0.995))
            play_columns(TamperedLockstep, [[1.0 / k] * k] * 4, alpha, 500, r, ref_tampered)
        # every one-step outcome of a tied state, then histories from it
        for p in TIE_STARTS:
            k = len(p)
            kern = TamperedLockstep(np.repeat(np.array(p)[:, None], 2 * k, axis=1), 0.25)
            kern.update(np.arange(2 * k) // 2, np.arange(2 * k) % 2 == 1)
            for c in range(2 * k):
                want = ref_tampered(samba_from_probabilities(p, 0.25), c // 2, c % 2)
                assert [x.hex() for x in kern.p[:, c].tolist()] == bits(want)[0]
            play_columns(TamperedLockstep, [p] * 3, 0.25, 300, r, ref_tampered)
        # from below the floor, the shrinking non-leader step runs the clamp path too
        tiny = [0.5 * CLAMP_FLOOR, 0.3, 0.7 - 0.5 * CLAMP_FLOOR]
        states = play_columns(TamperedLockstep, [tiny] * 4, 0.6, 400, r, ref_tampered)
        assert sum(state.clamp_events for state in states) > 0
