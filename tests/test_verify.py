import dataclasses
import math

import numpy as np
import pytest

from banditlab.core import InstanceTooLarge, make_instance
from banditlab.samba import (
    SambaLockstep,
    samba_from_probabilities,
    samba_init,
    samba_pick,
    samba_select,
    samba_update,
)
from banditlab.verify import (
    _MC_CHUNK,
    _mc_one_step,
    BurnInFailure,
    DecayReport,
    DegenerateFit,
    PrepFailure,
    RecoveryReport,
    SuiteSizes,
    TamperedLockstep,
    analysis_constants,
    check_drift_leader,
    check_drift_nonleader,
    check_qhat_decay,
    check_recovery_time,
    compare_log_vs_logsq,
    exact_leader_qdrift,
    exact_nonleader_drift,
    exact_regret_oracle,
    fit_log_regret,
    mc_regret,
    prep_leader,
    prep_nonleader,
    run_verification_suite,
    samba_batch_step,
)
from test_samba import ref_tampered

# Each SAMBA kernel with the scalar rule its columns must follow.
KERNEL_RULES = [
    pytest.param(SambaLockstep, samba_update, id="samba"),
    pytest.param(TamperedLockstep, ref_tampered, id="tampered"),
]


def ladder():
    return make_instance(tuple(i / 10 for i in range(1, 10)))


def two_arm():
    return make_instance((0.9, 0.5))


def rng(seed=0):
    return np.random.Generator(np.random.Philox(key=seed))


class TestAnalysisConstants:
    def test_nine_arm_ladder_values(self):
        c = analysis_constants(ladder(), 0.05)
        # r*=0.9, second best 0.8, gap 0.1
        assert c.alpha_bound == pytest.approx(0.1 / 0.8)
        assert c.theory_valid
        assert c.epsilon == pytest.approx(0.5 * (0.9 / (0.8 * 1.05) - 1))  # 1/28
        assert c.epsilon == pytest.approx(1 / 28)
        assert c.xi == pytest.approx(0.5 * 0.05 * (0.9 / 1.05 - 0.8))
        assert c.xi == pytest.approx(1 / 700)
        assert c.zeta == pytest.approx(c.xi / (0.05 * (1 + c.epsilon + 1 / 1.05)))
        assert c.large_corruption_threshold == pytest.approx(0.025)

    def test_alpha_too_large_flags_invalid(self):
        c = analysis_constants(ladder(), 0.2)  # bound is 0.125
        assert not c.theory_valid

    def test_xi_consistent_with_unreduced_form(self):
        # xi must equal alpha*r*/(1+alpha) - alpha*r_2*(1+eps) with eps as built
        c = analysis_constants(two_arm(), 0.05)
        r2 = 0.9 - c.gap
        unreduced = c.alpha * c.r_best / (1 + c.alpha) - c.alpha * r2 * (1 + c.epsilon)
        assert c.xi == pytest.approx(unreduced)

    def test_degenerate_second_best_zero(self):
        c = analysis_constants(make_instance((0.9, 0.0)), 0.05)
        assert math.isinf(c.alpha_bound)
        assert c.theory_valid
        assert math.isinf(c.epsilon)
        assert c.xi == pytest.approx(0.5 * 0.05 * 0.9 / 1.05)
        assert c.zeta == 0.0

    def test_rejects_tied_instance(self):
        inst = make_instance((0.5, 0.5), allow_degenerate=True)
        with pytest.raises(ValueError):
            analysis_constants(inst, 0.05)


class TestExactDrift:
    """The closed-form drifts must agree with direct outcome enumeration
    run through the real update code (two independent routes)."""

    def _enumerate(self, state, means, metric):
        base = metric(state)
        expectation = 0.0
        for arm, p_arm in enumerate(state.p):
            for reward, prob in ((1, means[arm]), (0, 1 - means[arm])):
                nxt = samba_update(state.copy(), arm, reward)
                expectation += p_arm * prob * (metric(nxt) - base)
        return expectation

    def test_nonleader_matches_enumeration(self):
        state = samba_from_probabilities((0.9, 0.1), 0.05)
        means = [0.5, 0.9]  # best arm is index 1, currently suppressed
        formula = exact_nonleader_drift(state, means, a_star=1)
        brute = self._enumerate(state, means, lambda s: 1.0 / s.p[1])
        assert formula == pytest.approx(brute, rel=1e-12)

    def test_nonleader_matches_enumeration_many_arms(self):
        state = samba_from_probabilities((0.5, 0.2, 0.05, 0.25), 0.1)
        means = [0.6, 0.3, 0.9, 0.2]
        formula = exact_nonleader_drift(state, means, a_star=2)
        brute = self._enumerate(state, means, lambda s: 1.0 / s.p[2])
        assert formula == pytest.approx(brute, rel=1e-12)

    def test_leader_matches_enumeration(self):
        state = samba_from_probabilities((0.6, 0.3, 0.1), 0.05)
        means = [0.9, 0.5, 0.1]
        formula = exact_leader_qdrift(state, means, a_star=0)
        brute = self._enumerate(state, means, lambda s: 1.0 - s.p[0])
        assert formula == pytest.approx(brute, rel=1e-12)

    def test_nonleader_requires_nonleading_best(self):
        state = samba_from_probabilities((0.9, 0.1), 0.05)
        with pytest.raises(ValueError):
            exact_nonleader_drift(state, [0.9, 0.5], a_star=0)

    def test_leader_requires_leading_best(self):
        state = samba_from_probabilities((0.9, 0.1), 0.05)
        with pytest.raises(ValueError):
            exact_leader_qdrift(state, [0.5, 0.9], a_star=1)


class TestStatePrep:
    def test_nonleader_prep_suppresses_best(self):
        inst = ladder()
        state = prep_nonleader(inst, 0.05, rng(1), target_p_opt=0.08)
        assert state.p[8] <= 0.08
        assert state.leader != 8

    def test_leader_prep_promotes_best(self):
        inst = ladder()
        state = prep_leader(inst, 0.05, rng(2), target_p_opt=0.6)
        assert state.p[8] >= 0.6
        assert state.leader == 8

    def test_prep_failure_when_unreachable(self):
        with pytest.raises(PrepFailure):
            prep_leader(ladder(), 0.05, rng(3), target_p_opt=0.999999, max_rounds=50)
        with pytest.raises(PrepFailure):
            prep_nonleader(ladder(), 0.05, rng(3), target_p_opt=1e-9, max_rounds=50)

    def test_preps_make_the_draws_of_the_written_out_loop(self):
        # select, reward draw and update from the uniform state until the
        # state qualifies: same state, same stream position
        inst = ladder()
        a_star = inst.optimal_arm
        suppressed = list(inst.means)
        suppressed[a_star] = 0.0

        def play(means, ready, r):
            state = samba_init(inst.k, 0.05)
            while not ready(state):
                arm = samba_select(state, r)
                samba_update(state, arm, 1 if r.random() < means[arm] else 0)
            return state

        def nonleader_ready(s):
            p_star = s.p[a_star]
            return p_star <= 0.08 and s.leader != a_star and s.p[s.leader] >= 10.0 * p_star

        for seed in range(3):
            cases = [
                (prep_nonleader, suppressed, nonleader_ready),
                (prep_leader, inst.means, lambda s: s.p[a_star] >= 0.6),
            ]
            for prep, means, ready in cases:
                r_got, r_want = rng(seed), rng(seed)
                got = prep(inst, 0.05, r_got)
                want = play(means, ready, r_want)
                assert [x.hex() for x in got.p] == [x.hex() for x in want.p]
                assert (got.leader, got.clamp_events) == (want.leader, want.clamp_events)
                assert r_got.random() == r_want.random()


class TestDriftChecks:
    # the two-arm instance keeps the margin between true drift and bound far
    # above Monte-Carlo noise at unit-test sample counts; the 9-arm instance
    # is exercised at full scale by the acceptance gate

    def test_nonleader_clean_passes(self):
        report = check_drift_nonleader(two_arm(), 0.05, samples=150_000, rng=rng(4))
        assert report.passed
        assert report.mean_drift < 0
        # xi = alpha/2 * (r*/(1+alpha) - r_2) = 0.025 * (0.9/1.05 - 0.5)
        assert report.bound == pytest.approx(-0.025 * (0.9 / 1.05 - 0.5))
        # measured agrees with the branch enumeration at this exact state
        assert abs(report.mean_drift - report.exact_drift) <= report.ci_half_width

    def test_nonleader_corrupted_passes_and_has_looser_bound(self):
        clean = check_drift_nonleader(two_arm(), 0.05, samples=150_000, rng=rng(5))
        dirty = check_drift_nonleader(
            two_arm(), 0.05, cost=0.4 / 8, samples=150_000, rng=rng(5)
        )
        assert dirty.passed
        assert dirty.bound > clean.bound
        assert dirty.cost == pytest.approx(0.05)

    def test_leader_clean_passes(self):
        report = check_drift_leader(two_arm(), 0.05, samples=150_000, rng=rng(6))
        assert report.passed
        assert report.bound < 0
        assert abs(report.mean_drift - report.exact_drift) <= report.ci_half_width

    def test_leader_corrupted_passes(self):
        report = check_drift_leader(
            two_arm(), 0.05, cost=0.4 / 8, samples=150_000, rng=rng(7)
        )
        assert report.passed

    def test_prepared_state_has_lead_ratio_headroom(self):
        state = prep_nonleader(ladder(), 0.05, rng(40))
        assert state.p[8] <= 0.08
        assert state.p[state.leader] >= 10.0 * state.p[8]

    def test_tampered_update_fails_nonleader(self):
        report = check_drift_nonleader(
            two_arm(), 0.05, samples=30_000, rng=rng(8), kernel=TamperedLockstep
        )
        assert not report.passed
        assert report.mean_drift > 0  # mass drains away from the best arm

    @pytest.mark.parametrize("kernel, rule", KERNEL_RULES)
    def test_tampered_update_differs_only_on_rewarded_nonleader_pull(self, kernel, rule):
        # Column 2a + r of one update is the outcome (arm a, reward r).
        p = [0.2, 0.3, 0.5]
        kern = kernel(np.repeat(np.array(p)[:, None], 6, axis=1), 0.05)
        kern.update(np.arange(6) // 2, np.arange(6) % 2 == 1)
        for c in range(6):
            pulled, reward = divmod(c, 2)
            col = kern.p[:, c].tolist()
            want = rule(samba_from_probabilities(p, 0.05), pulled, reward)
            assert [x.hex() for x in col] == [x.hex() for x in want.p]
            if kernel is TamperedLockstep and reward and pulled != 2:
                assert col[pulled] == p[pulled] * (1.0 - 0.05)
                assert col[2] == 1.0 - sum(x for a, x in enumerate(col) if a != 2)
            else:
                assert col == samba_update(samba_from_probabilities(p, 0.05), pulled, reward).p

    def test_invalid_alpha_rejected(self):
        with pytest.raises(ValueError):
            check_drift_nonleader(ladder(), 0.2, samples=100, rng=rng(9))

    def test_custom_state_prep_is_used(self):
        # hand the check a state where the best arm leads; it must refuse it
        p = [0.11] * 8 + [0.12]
        state = samba_from_probabilities(p, 0.05)
        with pytest.raises(PrepFailure):
            check_drift_nonleader(
                ladder(), 0.05, samples=10, rng=rng(10), state_prep=lambda r: state
            )


def reference_mc_one_step(state, means, metric, samples, rng, update_fn):
    """The one-sample-at-a-time drift estimator, kept verbatim as the reference."""
    base = metric(state)
    total = 0.0
    total_sq = 0.0
    for _ in range(samples):
        arm = samba_select(state, rng)
        reward = 1 if rng.random() < means[arm] else 0
        nxt = update_fn(state.copy(), arm, reward)
        d = metric(nxt) - base
        total += d
        total_sq += d * d
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    ci = 3.0 * math.sqrt(var / samples)
    return mean, ci


class TestMcOneStepByOutcome:
    """Summing per outcome gives the per-sample loop's (mean, ci) bit for bit."""

    @pytest.mark.parametrize("kernel, rule", KERNEL_RULES)
    @pytest.mark.parametrize("samples", [1, 999, _MC_CHUNK + 4321])
    @pytest.mark.parametrize("prep", ["nonleader", "leader"])
    def test_matches_per_sample_loop(self, prep, samples, kernel, rule):
        inst = ladder()
        state = (prep_nonleader if prep == "nonleader" else prep_leader)(inst, 0.05, rng(3))
        a_star = inst.optimal_arm
        means = [m - 0.05 if a == a_star else m for a, m in enumerate(inst.means)]
        for metric in (lambda p: 1.0 / p[a_star], lambda p: 1.0 - p[a_star]):
            ours, theirs = rng(11), rng(11)
            got = _mc_one_step(state.copy(), means, metric, samples, ours, kernel)
            want = reference_mc_one_step(
                state.copy(), means, lambda s: metric(s.p), samples, theirs, rule
            )
            assert [x.hex() for x in got] == [x.hex() for x in want]
            assert type(got[0]) is float and type(got[1]) is float
            assert ours.random() == theirs.random()  # the same 2 * samples draws


def scalar_history(p0, alpha, means, u_arm, u_rew):
    """One state's arms, rewards and final simplex point under samba_pick + samba_update."""
    state = samba_from_probabilities(p0, alpha)
    arms, rewards = [], []
    for ua, ur in zip(u_arm, u_rew):
        arm = samba_pick(state, ua)
        reward = ur < means[arm]
        samba_update(state, arm, int(reward))
        arms.append(arm)
        rewards.append(reward)
    return arms, rewards, state.p


class TestBatchStep:
    @pytest.mark.parametrize(
        "means, rows, rounds, start",
        [
            ((0.2, 0.8, 0.5, 0.9, 0.1), 64, 1, "dirichlet"),
            (ladder().means, 200, 4_000, "uniform"),
            ((0.9, 0.5), 100, 2_000, "uniform"),
            (tuple(i / 21 for i in range(1, 21)), 100, 1_500, "uniform"),
        ],
        ids=["k5_one_step", "k9_ladder", "k2", "k20"],
    )
    def test_matches_scalar_update_exactly(self, means, rows, rounds, start):
        r = rng(11)
        k = len(means)
        P = r.dirichlet(np.ones(k), size=rows) if start == "dirichlet" else np.full((rows, k), 1.0 / k)
        P0 = P.copy()
        u = r.random((rounds, 2, rows))
        arms, rewards = np.empty((rounds, rows), dtype=int), np.empty((rounds, rows), dtype=bool)
        for t in range(rounds):
            arms[t], rewards[t] = samba_batch_step(P, 0.07, np.asarray(means), u[t, 0], u[t, 1])
        for i in range(rows):
            want = scalar_history(P0[i], 0.07, means, u[:, 0, i].tolist(), u[:, 1, i].tolist())
            assert arms[:, i].tolist() == want[0]
            assert rewards[:, i].tolist() == want[1]
            assert [x.hex() for x in P[i].tolist()] == [x.hex() for x in want[2]]

    def test_rows_stay_on_simplex(self):
        r = rng(12)
        P = np.full((1000, 9), 1.0 / 9)
        means = np.asarray(ladder().means)
        for _ in range(500):
            samba_batch_step(P, 0.05, means, r.random(1000), r.random(1000))
        np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-9)
        assert (P > 0).all()


class TestRecovery:
    def test_single_corruption_bound(self):
        report = check_recovery_time(
            two_arm(), 0.05, 0.9, reps=400, t0=3000, rng=rng(13)
        )
        assert report.passed
        assert report.bound == pytest.approx(4 * 0.9 / 0.4)
        assert report.mean_steps >= 1.0  # the corrupted round itself counts

    def test_zero_cost_vacuous(self):
        report = check_recovery_time(
            two_arm(), 0.05, 0.0, reps=100, t0=1000, rng=rng(14)
        )
        assert report.passed
        assert report.bound == 0.0

    def test_stacked_corruptions_additive_budget(self):
        report = check_recovery_time(
            two_arm(), 0.05, [0.45, 0.45], reps=400, t0=3000, rng=rng(15)
        )
        assert report.passed
        assert report.bound == pytest.approx(9.0)
        assert report.mean_steps >= 2.0  # two injected rounds always elapse

    def test_burnin_failure_without_burnin(self):
        # at the uniform start q = 8/9 > 1/2 for every replication
        with pytest.raises(BurnInFailure):
            check_recovery_time(ladder(), 0.05, 0.9, reps=50, t0=0, rng=rng(16))


class TestDecay:
    def test_two_arm_chain_below_envelope(self):
        report = check_qhat_decay(
            two_arm(), 0.05, horizon=4000, reps=50, s_grid=(50, 500), rng=rng(17)
        )
        assert report.passed
        assert report.bounds[0] == pytest.approx(4 / (8 + 0.02 * 50))
        assert report.bounds[1] == pytest.approx(4 / (8 + 0.02 * 500))
        assert report.means[1] < report.means[0]  # q keeps shrinking

    def test_chain_too_short_raises(self):
        with pytest.raises(PrepFailure):
            check_qhat_decay(
                two_arm(), 0.05, horizon=50, reps=20, s_grid=(10_000,), rng=rng(18)
            )


class TestExactOracle:
    def test_one_round_urniform_gap(self):
        # uniform start: expected gap is (0 + 0.4)/2
        assert exact_regret_oracle(two_arm(), 0.1, 1) == pytest.approx(0.2)

    def test_two_rounds_hand_computed(self):
        # round 0 adds 0.2. Branches: arm0 rewarded (p 0.45) -> p=(0.55,0.45);
        # arm1 rewarded (p 0.25) -> p=(0.45,0.55); else unchanged. Round-1
        # expected gaps: 0.45*0.4=0.18, 0.55*0.4=0.22, 0.2.
        expected = 0.2 + (0.45 * 0.18 + 0.25 * 0.22 + 0.30 * 0.2)
        assert exact_regret_oracle(two_arm(), 0.1, 2) == pytest.approx(expected)

    def test_matches_full_path_enumeration(self):
        # third route: enumerate every (arm, reward) path of length 4 running
        # the real update code, weighting by its probability
        inst = two_arm()
        alpha, horizon = 0.1, 4

        def walk(state, t, prob):
            if t == horizon:
                return 0.0
            total = sum(
                p * g for p, g in zip(state.p, inst.gaps)
            ) * prob
            for arm in range(2):
                for reward, r_prob in ((1, inst.means[arm]), (0, 1 - inst.means[arm])):
                    w = prob * state.p[arm] * r_prob
                    if w > 0:
                        total += walk(samba_update(state.copy(), arm, reward), t + 1, w)
            return total

        start = samba_from_probabilities((0.5, 0.5), alpha)
        brute = walk(start, 0, 1.0)
        assert exact_regret_oracle(inst, alpha, horizon) == pytest.approx(brute, rel=1e-12)

    def test_size_guard(self):
        with pytest.raises(InstanceTooLarge):
            exact_regret_oracle(two_arm(), 0.1, 11)
        with pytest.raises(InstanceTooLarge):
            exact_regret_oracle(make_instance((0.1, 0.2, 0.3, 0.9)), 0.1, 5)

    def test_mc_agrees_at_small_scale(self):
        exact = exact_regret_oracle(two_arm(), 0.1, 8)
        mean, ci = mc_regret(two_arm(), 0.1, 8, episodes=50_000, rng=rng(19))
        assert abs(mean - exact) <= ci


class ScalarReplications:
    """Per-replication samba_pick + samba_update, one SambaState each.

    A round draws every replication's arm uniform, then every reward
    uniform, from one stream: the draws the batched checks make.
    """

    def __init__(self, k, n, alpha):
        self.states = [samba_init(k, alpha) for _ in range(n)]

    def play(self, means, rng):
        n = len(self.states)
        u_arm, u_rew = rng.random(n).tolist(), rng.random(n).tolist()
        arms = [samba_pick(state, u) for state, u in zip(self.states, u_arm)]
        for state, arm, u in zip(self.states, arms, u_rew):
            samba_update(state, arm, 1 if u < means[arm] else 0)
        return arms

    def q(self, a_star):
        return [1.0 - state.p[a_star] for state in self.states]


def reference_recovery(instance, alpha, costs, reps, t0, rng):
    a_star, means = instance.optimal_arm, list(instance.means)
    batch = ScalarReplications(instance.k, reps, alpha)
    for _ in range(t0):
        batch.play(means, rng)
    kept = [(state, q) for state, q in zip(batch.states, batch.q(a_star)) if q <= 0.5]
    batch.states, q0 = [state for state, _ in kept], [q for _, q in kept]
    steps = [0] * len(q0)
    for c in costs:
        shifted = list(means)
        shifted[a_star] = max(0.0, shifted[a_star] - c)
        batch.play(shifted, rng)
        steps = [s + 1 for s in steps]
    active = [q > q_start for q, q_start in zip(batch.q(a_star), q0)]
    while any(active):
        batch.play(means, rng)
        steps = [s + 1 if on else s for s, on in zip(steps, active)]
        active = [on and q > q_start for on, q, q_start in zip(active, batch.q(a_star), q0)]
    steps = np.array(steps, dtype=np.int64)
    mean = float(steps.mean())
    ci = 3.0 * float(steps.std(ddof=1)) / math.sqrt(steps.size)
    bound = 4.0 * float(sum(costs)) / instance.min_gap
    return RecoveryReport(mean, ci, bound, int(steps.size), reps - len(q0), mean <= bound + ci)


def reference_decay(instance, alpha, horizon, reps, s_grid, rng):
    a_star, means, k = instance.optimal_arm, list(instance.means), instance.k
    batch = ScalarReplications(k, reps, alpha)
    counters = [0] * reps
    recorded = np.full((reps, len(s_grid)), np.nan)
    for _ in range(horizon):
        for i, q in enumerate(batch.q(a_star)):
            if q <= 0.5:
                if counters[i] in s_grid:
                    recorded[i, s_grid.index(counters[i])] = q
                counters[i] += 1
        if min(counters) > max(s_grid):
            break
        batch.play(means, rng)
    vals = recorded[[c > max(s_grid) for c in counters]]
    used = len(vals)
    cis = 3.0 * vals.std(axis=0, ddof=1) / math.sqrt(used)
    bounds = 2.0 * k / (4.0 * k + alpha * instance.min_gap * np.asarray(s_grid))
    return DecayReport(
        s_grid=s_grid,
        means=tuple(float(v) for v in vals.mean(axis=0)),
        bounds=tuple(float(b) for b in bounds),
        ci_half_widths=tuple(float(c) for c in cis),
        rows_used=used,
        passed=bool(np.all(vals.mean(axis=0) <= bounds + cis)),
    )


def reference_mc_regret(instance, alpha, horizon, episodes, rng):
    batch = ScalarReplications(instance.k, episodes, alpha)
    regret = [0.0] * episodes
    for _ in range(horizon):
        arms = batch.play(instance.means, rng)
        regret = [r + instance.gaps[a] for r, a in zip(regret, arms)]
    regret = np.array(regret)
    return float(regret.mean()), 3.0 * float(regret.std(ddof=1)) / math.sqrt(episodes)


def hexed(value):
    """A report's fields with every float spelled by float.hex, for bitwise comparison."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return [hexed(v) for v in value]
    if dataclasses.is_dataclass(value):
        return {f.name: hexed(getattr(value, f.name)) for f in dataclasses.fields(value)}
    return value


class TestBatchedChecksMatchScalarLoop:
    """The recovery, decay and oracle MC checks equal per-replication samba_update."""

    @pytest.mark.parametrize(
        "instance, reps, t0, seed, drops",
        [
            (make_instance(tuple(0.05 * i for i in range(1, 12)) + (0.9,)), 60, 1_500, 23, False),
            (ladder(), 80, 1_300, 22, True),
        ],
        ids=["k12", "k9_burnin_drops"],
    )
    def test_recovery(self, instance, reps, t0, seed, drops):
        costs = [0.45, 0.45]
        got = check_recovery_time(instance, 0.05, costs, reps=reps, t0=t0, rng=rng(seed))
        want = reference_recovery(instance, 0.05, costs, reps, t0, rng(seed))
        assert hexed(got) == hexed(want)
        assert (got.burnin_failures > 0) == drops

    @pytest.mark.parametrize(
        "instance, horizon, reps, s_grid",
        [(make_instance((0.1, 0.3, 0.5, 0.7, 0.9)), 4_000, 30, (10, 100, 300)), (two_arm(), 3_000, 30, (50, 500))],
        ids=["k5", "k2"],
    )
    def test_decay(self, instance, horizon, reps, s_grid):
        got = check_qhat_decay(instance, 0.05, horizon=horizon, reps=reps, s_grid=s_grid, rng=rng(21))
        want = reference_decay(instance, 0.05, horizon, reps, s_grid, rng(21))
        assert hexed(got) == hexed(want)

    def test_mc_regret(self):
        got = mc_regret(ladder(), 0.05, 300, 200, rng(24))
        want = reference_mc_regret(ladder(), 0.05, 300, 200, rng(24))
        assert hexed(got) == hexed(want)


class TestLogFit:
    def test_recovers_exact_log_curve(self):
        curve = [(t, 3.0 + 5.0 * math.log(t)) for t in (10, 100, 1000, 10_000, 100_000)]
        fit = fit_log_regret(curve)
        assert fit.slope == pytest.approx(5.0)
        assert fit.intercept == pytest.approx(3.0)
        assert fit.rss == pytest.approx(0.0, abs=1e-18)

    def test_too_few_points(self):
        with pytest.raises(DegenerateFit):
            fit_log_regret([(10, 1.0), (100, 2.0), (1000, 3.0), (10_000, 4.0)])

    def test_narrow_span(self):
        with pytest.raises(DegenerateFit):
            fit_log_regret([(100, 1.0), (110, 1.1), (120, 1.2), (130, 1.3), (140, 1.4)])

    def test_log_beats_logsq_on_log_data(self):
        curve = [(t, 2.0 + 7.0 * math.log(t)) for t in (10, 50, 100, 1000, 5000, 100_000)]
        rss_log, rss_sq = compare_log_vs_logsq(curve)
        assert rss_log < rss_sq

    def test_logsq_beats_log_on_logsq_data(self):
        curve = [(t, 5.0 * math.log(t) ** 2) for t in (10, 50, 100, 1000, 5000, 100_000)]
        rss_log, rss_sq = compare_log_vs_logsq(curve)
        assert rss_sq < rss_log


class TestSuiteDriver:
    SIZES = SuiteSizes(
        drift_samples=150_000,
        recovery_reps=400,
        recovery_t0=3_000,
        decay_reps=50,
        decay_horizon=4_000,
        decay_grid=(50, 500),
        mc_episodes=30_000,
        fit_reps=1,
        fit_horizon=1,
    )

    def _curve(self, slope=60.0):
        return [(t, 10 + slope * math.log(t)) for t in (1000, 2000, 5000, 10_000, 30_000, 100_000)]

    def test_all_checks_pass_on_clean_update(self):
        outcomes = run_verification_suite(
            two_arm(), 0.05, sizes=self.SIZES, seed=77, log_curve=self._curve()
        )
        names = [o.name for o in outcomes]
        assert names == [
            "constants",
            "drift_nonleader_clean",
            "drift_nonleader_corrupted",
            "drift_leader_clean",
            "drift_leader_corrupted",
            "recovery",
            "decay",
            "oracle_mc",
            "log_fit",
        ]
        assert all(o.passed for o in outcomes), [o for o in outcomes if not o.passed]

    def test_tampered_kernel_fails_nonleader_drift(self):
        outcomes = run_verification_suite(
            two_arm(),
            0.05,
            sizes=self.SIZES,
            seed=77,
            kernel=TamperedLockstep,
            log_curve=self._curve(),
        )
        by_name = {o.name: o.passed for o in outcomes}
        assert not by_name["drift_nonleader_clean"]
        assert not by_name["drift_nonleader_corrupted"]

    def test_tampered_kernel_reaches_recovery_decay_and_oracle(self):
        # On two arms the best arm leads from the uniform start, so the tamper
        # helps it; on the ladder it never takes over, and the recovery and
        # decay checks cannot be set up. Each is a failed check, not an error.
        outcomes = run_verification_suite(
            ladder(),
            0.05,
            sizes=self.SIZES,
            seed=77,
            kernel=TamperedLockstep,
            log_curve=self._curve(),
        )
        by_name = {o.name: o for o in outcomes}
        assert len(outcomes) == 9
        for name in ("recovery", "decay", "oracle_mc"):
            assert not by_name[name].passed, by_name[name]
        assert by_name["recovery"].detail.startswith("not set up: 400/400 replications above q=1/2")
        assert by_name["decay"].detail.startswith("not set up: only 0/50 replications")
        assert by_name["log_fit"].passed  # the tamper does not reach the engine's curve

    def test_fast_sizes_are_reduced(self):
        fast = SuiteSizes.fast()
        full = SuiteSizes()
        assert fast.drift_samples < full.drift_samples
        assert fast.recovery_reps < full.recovery_reps
        assert fast.mc_episodes < full.mc_episodes

    def test_overlarge_slope_fails_log_fit(self):
        outcomes = run_verification_suite(
            two_arm(),
            0.05,
            sizes=self.SIZES,
            seed=77,
            log_curve=self._curve(slope=5000.0),  # cap for this instance is 100
        )
        by_name = {o.name: o.passed for o in outcomes}
        assert not by_name["log_fit"]
