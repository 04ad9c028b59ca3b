import math
from itertools import accumulate, repeat

import numpy as np
import pytest

from banditlab.adversary import (
    STRATEGIES,
    BudgetExceedsHorizonCapacity,
    CorruptionLedger,
    CorruptionPlan,
    apply_corruption,
    build_schedule,
    default_per_step_cost,
    make_ledger,
    resolve_corruption_runs,
)
from banditlab.core import make_instance
from banditlab.engine import InstanceSpec


def ladder_instance():
    return make_instance(tuple(i / 10 for i in range(1, 10)))


def rng(seed=0):
    return np.random.Generator(np.random.Philox(key=seed))


class TestPlanValidation:
    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            CorruptionPlan(scheme="sometimes", budget=1.0, horizon=100)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            CorruptionPlan(scheme="consecutive", budget=1.0, strategy="invert", horizon=100)

    def test_negative_budget(self):
        with pytest.raises(ValueError):
            CorruptionPlan(scheme="consecutive", budget=-1.0, horizon=100)

    def test_zero_horizon(self):
        with pytest.raises(ValueError):
            CorruptionPlan(scheme="none", budget=0.0, horizon=0)


class TestDefaultPerStepCost:
    def test_suppress_is_best_mean(self):
        assert default_per_step_cost(ladder_instance(), "suppress_optimal") == 0.9

    def test_swap_takes_larger_side(self):
        inst = make_instance((0.05, 0.6))
        # lifting the worst arm to 1 costs 0.95 > suppressing 0.6
        assert default_per_step_cost(inst, "swap_extremes") == pytest.approx(0.95)


class TestBuildSchedule:
    def test_consecutive_count_and_rounds(self):
        # C=1000 at 0.9 per round needs ceil(1111.11) = 1112 rounds: 0..1111
        plan = CorruptionPlan(scheme="consecutive", budget=1000.0, horizon=100_000)
        sched = build_schedule(plan, 0.9)
        assert len(sched) == 1112
        assert sched[0] == 0
        assert sched[-1] == 1111

    def test_even_steps_spacing(self):
        plan = CorruptionPlan(scheme="even_steps", budget=4.5, horizon=100)
        sched = build_schedule(plan, 0.9)
        assert tuple(sched) == (0, 2, 4, 6, 8)

    def test_delayed_block_starts_at_quarter(self):
        plan = CorruptionPlan(scheme="delayed_block", budget=9.0, horizon=100_000)
        sched = build_schedule(plan, 0.9)
        assert sched[0] == 25_000
        assert tuple(sched) == tuple(range(25_000, 25_010))

    def test_random_early_in_first_tenth(self):
        plan = CorruptionPlan(scheme="random_early", budget=90.0, horizon=10_000)
        sched = build_schedule(plan, 0.9, rng(1))
        assert len(sched) == 100
        assert len(set(sched)) == 100
        assert all(0 <= t < 1000 for t in sched)
        assert list(sched) == sorted(sched)

    def test_random_early_deterministic_per_seed(self):
        plan = CorruptionPlan(scheme="random_early", budget=90.0, horizon=10_000)
        assert build_schedule(plan, 0.9, rng(7)) == build_schedule(plan, 0.9, rng(7))

    def test_zero_budget_empty(self):
        plan = CorruptionPlan(scheme="consecutive", budget=0.0, horizon=100)
        assert build_schedule(plan, 0.9) == ()

    def test_none_scheme_empty(self):
        plan = CorruptionPlan(scheme="none", budget=500.0, horizon=100)
        assert build_schedule(plan, 0.9) == ()

    @pytest.mark.parametrize(
        "scheme,horizon",
        [
            ("consecutive", 100),      # needs 112 rounds
            ("even_steps", 222),       # needs spread 2*(112-1) = 222
            ("delayed_block", 140),    # needs 35 + 112 <= 140
            ("random_early", 1000),    # needs 112 distinct rounds in first 100
        ],
    )
    def test_capacity_errors(self, scheme, horizon):
        plan = CorruptionPlan(scheme=scheme, budget=100.0, horizon=horizon)
        with pytest.raises(BudgetExceedsHorizonCapacity):
            build_schedule(plan, 0.9, rng(2))

    def test_rounds_cover_budget(self):
        # n * per_step >= budget always, with the final round's residual < per_step
        for budget in (1.0, 10.0, 999.9, 1000.0):
            plan = CorruptionPlan(scheme="consecutive", budget=budget, horizon=10_000)
            sched = build_schedule(plan, 0.9)
            assert len(sched) == math.ceil(budget / 0.9)
            assert len(sched) * 0.9 >= budget
            assert (len(sched) - 1) * 0.9 < budget


class TestApplyCorruption:
    def test_unscheduled_round_is_free(self):
        inst = ladder_instance()
        plan = CorruptionPlan(scheme="delayed_block", budget=9.0, horizon=100_000)
        ledger = make_ledger(inst, plan)
        means, cost = apply_corruption(inst, ledger, 0)
        assert means == inst.means
        assert cost == 0.0
        assert ledger.spent == 0.0

    def test_suppress_optimal_zeroes_best(self):
        inst = ladder_instance()
        plan = CorruptionPlan(scheme="consecutive", budget=9.0, horizon=1000)
        ledger = make_ledger(inst, plan)
        means, cost = apply_corruption(inst, ledger, 0)
        assert means[8] == 0.0  # 0.9 - 0.9
        assert means[:8] == inst.means[:8]
        assert cost == pytest.approx(0.9)

    def test_swap_extremes_moves_both_ends(self):
        inst = ladder_instance()
        plan = CorruptionPlan(
            scheme="consecutive", budget=9.0, strategy="swap_extremes", horizon=1000
        )
        ledger = make_ledger(inst, plan)
        means, cost = apply_corruption(inst, ledger, 0)
        assert means[8] == 0.0
        assert means[0] == pytest.approx(1.0)  # 0.1 + 0.9 capped at 1
        assert cost == pytest.approx(0.9)

    def test_residual_final_round(self):
        # budget 1000 at 0.9/round: rounds 0..1110 cost 0.9, round 1111 costs 0.1
        inst = ladder_instance()
        plan = CorruptionPlan(scheme="consecutive", budget=1000.0, horizon=100_000)
        ledger = make_ledger(inst, plan)
        costs = [apply_corruption(inst, ledger, t)[1] for t in range(1113)]
        assert costs[0] == pytest.approx(0.9)
        assert costs[1110] == pytest.approx(0.9)
        assert costs[1111] == pytest.approx(0.1)
        assert costs[1112] == 0.0
        assert ledger.spent == pytest.approx(1000.0)

    def test_spent_never_exceeds_budget(self):
        inst = ladder_instance()
        for budget in (0.0, 1.0, 57.3, 1000.0):
            plan = CorruptionPlan(scheme="consecutive", budget=budget, horizon=100_000)
            ledger = make_ledger(inst, plan)
            for t in range(len(ledger.schedule) + 5):
                apply_corruption(inst, ledger, t)
            assert ledger.spent <= budget + 1e-9
            if budget >= 1.0:
                assert ledger.spent >= budget - ledger.per_step_cost

    def test_cost_equals_max_abs_shift(self):
        inst = make_instance((0.2, 0.8))
        plan = CorruptionPlan(
            scheme="consecutive", budget=0.5, strategy="swap_extremes", horizon=100
        )
        ledger = make_ledger(inst, plan, per_step_cost=0.5)
        means, cost = apply_corruption(inst, ledger, 0)
        assert cost == pytest.approx(max(abs(0.8 - means[1]), abs(0.2 - means[0])))

    def test_shift_clips_at_mean_floor(self):
        # per-step cost larger than the best mean: realized cost is the
        # actual movement, not the nominal shift
        inst = make_instance((0.1, 0.3))
        plan = CorruptionPlan(scheme="consecutive", budget=2.0, horizon=100)
        ledger = make_ledger(inst, plan, per_step_cost=0.9)
        means, cost = apply_corruption(inst, ledger, 0)
        assert means[1] == 0.0
        assert cost == pytest.approx(0.3)

    def test_swap_clips_worst_at_mean_ceiling(self):
        inst = make_instance((0.2, 0.5, 0.9))
        plan = CorruptionPlan(
            scheme="consecutive", budget=3.0, strategy="swap_extremes", horizon=100
        )
        ledger = make_ledger(inst, plan, per_step_cost=1.5)
        means, cost = apply_corruption(inst, ledger, 0)
        assert means == (1.0, 0.5, 0.0)
        assert cost == pytest.approx(0.9)

    def test_custom_per_step_cost_changes_density(self):
        inst = ladder_instance()
        plan = CorruptionPlan(scheme="consecutive", budget=10.0, horizon=1000)
        ledger = make_ledger(inst, plan, per_step_cost=0.5)
        assert len(ledger.schedule) == 20
        means, cost = apply_corruption(inst, ledger, 0)
        assert means[8] == pytest.approx(0.4)
        assert cost == pytest.approx(0.5)

    def test_remaining_tracks_spend(self):
        inst = ladder_instance()
        plan = CorruptionPlan(scheme="consecutive", budget=2.7, horizon=100)
        ledger = make_ledger(inst, plan)
        assert ledger.remaining() == pytest.approx(2.7)
        apply_corruption(inst, ledger, 0)
        assert ledger.remaining() == pytest.approx(1.8)


def reference_charge(instance, ledger, rounds):
    """The scalar _charge loop that walked every round, kept verbatim as the reference."""
    means = instance.means
    a_best = instance.optimal_arm
    swap = ledger.plan.strategy == "swap_extremes"
    if swap:
        a_worst = min(range(len(means)), key=lambda a: (means[a], a))
    budget = ledger.plan.budget
    per_step = ledger.per_step_cost
    spent = ledger.spent
    out = {}
    last_shift = hit = None
    for t in rounds:
        remaining = budget - spent
        if remaining <= 0.0:
            break
        shift = remaining if remaining < per_step else per_step  # min(), minus the call
        if shift != last_shift:
            shifted = list(means)
            shifted[a_best] = max(0.0, means[a_best] - shift)
            if swap:
                shifted[a_worst] = min(1.0, means[a_worst] + shift)
            cost = max(abs(means[a] - shifted[a]) for a in range(len(means)))
            hit = (tuple(shifted), cost)
            last_shift = shift
        spent += hit[1]
        out[t] = hit
    ledger.spent = spent
    return out


def bits(table):
    """A corruption table with every float as its exact hex form."""
    return {t: (tuple(m.hex() for m in means), cost.hex()) for t, (means, cost) in table.items()}


def uniform_instances():
    return [InstanceSpec(k=k).resolve(seed) for k in (2, 5, 20) for seed in (1, 2, 3)]


class TestChargeMatchesScalarLoop:
    """The run-at-a-time charge equals the per-round loop bit for bit."""

    def _ledgers(self, instance, plan, per_step_cost, schedule=None, seed=5):
        # An explicit schedule plays those rounds in place of the plan's scheme.
        if schedule is not None:
            return [CorruptionLedger(plan, per_step_cost, schedule) for _ in range(2)]
        return [
            make_ledger(instance, plan, per_step_cost, rng(seed)) for _ in range(2)
        ]

    def _check_resolve(self, instance, plan, per_step_cost, schedule=None):
        led, ref = self._ledgers(instance, plan, per_step_cost, schedule)
        want = reference_charge(instance, ref, ref.schedule)
        runs = resolve_corruption_runs(instance, led)
        per_round = {t: (means, cost) for rounds, means, cost in runs for t in rounds}
        assert bits(per_round) == bits(want)
        assert led.spent.hex() == ref.spent.hex()
        # The runs cover the same rounds in order, one shared vector each.
        flat = [t for rounds, _, _ in runs for t in rounds]
        assert flat == list(want)
        # The apply_corruption loop over the schedule charges the same rounds.
        led, _ = self._ledgers(instance, plan, per_step_cost, schedule)
        loop = {t: hit for t in led.schedule if (hit := apply_corruption(instance, led, t))[1]}
        assert bits(loop) == bits(want)
        assert led.spent.hex() == ref.spent.hex()
        return want

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize(
        "scheme", ["consecutive", "even_steps", "delayed_block", "random_early"]
    )
    @pytest.mark.parametrize(
        "budget,per_step_cost",
        [
            (7.3, 0.25),  # a residual last round
            (6.0, 0.25),  # divides exactly, in binary too
            (9.0, 0.9),  # divides exactly in decimal; the binary sum falls short
            (100.0, None),  # the strategy's default cost
            (0.0, 0.25),  # zero budget
        ],
    )
    def test_ladder(self, scheme, strategy, budget, per_step_cost):
        plan = CorruptionPlan(scheme=scheme, budget=budget, strategy=strategy, horizon=2000)
        want = self._check_resolve(ladder_instance(), plan, per_step_cost)
        assert bool(want) == (budget > 0)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("per_step_cost", [0.95, 1.5])
    def test_clipped_uniform_means(self, strategy, per_step_cost):
        # per_step_cost above the strategy's reach: every shift clips, so the
        # budget outlasts the ceil(budget / cost) rounds a scheme schedules.
        # An explicit schedule runs past that point, into the partial shifts.
        distinct = set()
        for instance in uniform_instances():
            for budget in (3.0, 7.3):
                plan = CorruptionPlan(
                    scheme="consecutive", budget=budget, strategy=strategy, horizon=400
                )
                for schedule in (None, tuple(range(3, 400, 7))):
                    want = self._check_resolve(instance, plan, per_step_cost, schedule)
                    distinct.update(means for means, _ in want.values())
        assert len(distinct) > 2 * len(uniform_instances())

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("per_step_cost", [0.25, 0.9, 1.5])
    @pytest.mark.parametrize("start", [0.0, 0.35, 2.6, 7.3])
    def test_one_round_calls_from_nonzero_spend(self, strategy, per_step_cost, start):
        plan = CorruptionPlan(scheme="consecutive", budget=7.3, strategy=strategy, horizon=100)
        for instance in [ladder_instance(), *uniform_instances()]:
            led, ref = self._ledgers(instance, plan, per_step_cost, tuple(range(0, 100, 3)))
            led.spent = ref.spent = start
            for t in range(100):
                got = apply_corruption(instance, led, t)
                if t in ref.schedule:
                    want = reference_charge(instance, ref, (t,)).get(t, (instance.means, 0.0))
                else:
                    want = (instance.means, 0.0)
                assert bits({t: got}) == bits({t: want})
                assert led.spent.hex() == ref.spent.hex()


def reference_schedule(plan, per_step_cost, rng=None):
    """build_schedule when it returned a tuple for every scheme, kept verbatim as the reference."""
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
        return tuple(range(n))
    if plan.scheme == "even_steps":
        if 2 * (n - 1) >= t_max:
            raise BudgetExceedsHorizonCapacity(
                f"{n} even-step corrupted rounds do not fit in horizon {t_max}"
            )
        return tuple(range(0, 2 * n, 2))
    if plan.scheme == "delayed_block":
        start = t_max // 4
        if start + n > t_max:
            raise BudgetExceedsHorizonCapacity(
                f"{n} corrupted rounds starting at {start} do not fit in horizon {t_max}"
            )
        return tuple(range(start, start + n))
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


ARITHMETIC_SCHEMES = ("consecutive", "even_steps", "delayed_block")


def capacity(scheme, horizon):
    """The most rounds the scheme places inside the horizon."""
    if scheme == "consecutive":
        return horizon
    if scheme == "even_steps":
        return (horizon - 1) // 2 + 1
    return horizon - horizon // 4


class TestRangeScheduleMatchesTuples:
    """The arithmetic schemes return a range with the rounds, and errors, of the tuple version."""

    def _same(self, plan, per_step_cost):
        try:
            want = reference_schedule(plan, per_step_cost)
        except BudgetExceedsHorizonCapacity:
            with pytest.raises(BudgetExceedsHorizonCapacity):
                build_schedule(plan, per_step_cost)
            return False
        got = build_schedule(plan, per_step_cost)
        assert tuple(got) == want
        assert type(got) is (tuple if plan.scheme == "none" or plan.budget == 0.0 else range)
        return True

    @pytest.mark.parametrize("scheme", ARITHMETIC_SCHEMES)
    @pytest.mark.parametrize("horizon", [1, 2, 3, 7, 100, 101, 10_000])
    @pytest.mark.parametrize("per_step_cost", [0.1, 0.25, 0.9, 1.0, 3.0])
    def test_capacity_edges(self, scheme, horizon, per_step_cost):
        # Budgets of n rounds' cost for n just under, at and just over the
        # scheme's capacity, each nudged one ulp either way: ceil(budget / cost)
        # lands on both sides of the edge.
        fits = []
        cap = capacity(scheme, horizon)
        for n in (1, cap - 1, cap, cap + 1):
            budget = n * per_step_cost
            for b in (math.nextafter(budget, 0.0), budget, math.nextafter(budget, math.inf)):
                if b > 0.0:
                    plan = CorruptionPlan(scheme=scheme, budget=b, horizon=horizon)
                    fits.append((n, self._same(plan, per_step_cost)))
        # Something fits at the capacity, nothing past it.
        assert (cap, True) in fits and (cap + 1, False) in fits

    @pytest.mark.parametrize("scheme", ARITHMETIC_SCHEMES)
    def test_phased_grid_and_capacity_errors(self, scheme):
        # grid_phased_corrupt's schedule, the capacity errors of
        # TestBuildSchedule, and a zero budget.
        for budget, horizon, cost in [(480.0, 10_000, 0.1), (100.0, 100, 0.9),
                                      (100.0, 222, 0.9), (100.0, 140, 0.9), (0.0, 50, 0.1)]:
            self._same(CorruptionPlan(scheme=scheme, budget=budget, horizon=horizon), cost)

    def test_other_schemes_stay_tuples(self):
        for plan in (
            CorruptionPlan(scheme="random_early", budget=9.0, horizon=1000),
            CorruptionPlan(scheme="none", budget=5.0, horizon=50),
        ):
            got = build_schedule(plan, 0.9, rng(4))
            assert type(got) is tuple and got == reference_schedule(plan, 0.9, rng(4))


class TestLongFullShiftRuns:
    """The numpy spend scan charges long full-shift runs as the per-round loop does."""

    def _check(self, plan, per_step_cost, start=0.0, instance=None):
        # The ladder is grid_phased_corrupt's instance.
        instance = instance or ladder_instance()
        led, ref = (make_ledger(instance, plan, per_step_cost) for _ in range(2))
        led.spent = ref.spent = start
        want = reference_charge(instance, ref, ref.schedule)
        runs = resolve_corruption_runs(instance, led)
        # Each run's rounds, vector and cost, expanded round by round.
        got = {t: (means, cost) for rounds, means, cost in runs for t in rounds}
        assert list(got) == list(want)
        assert bits(got) == bits(want)
        assert led.spent.hex() == ref.spent.hex()
        # The full-shift run is one slice of the range schedule.
        assert isinstance(runs[0][0], range)
        assert all(len(rounds) == 1 for rounds, _, _ in runs[1:])
        return runs

    @pytest.mark.parametrize("scheme", ["consecutive", "even_steps"])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_phased_grid(self, scheme, strategy):
        plan = CorruptionPlan(scheme=scheme, budget=480.0, strategy=strategy, horizon=10_000)
        runs = self._check(plan, 0.1)
        assert len(runs[0][0]) + len(runs) - 1 == len(build_schedule(plan, 0.1)) == 4800

    @pytest.mark.parametrize("scheme", ARITHMETIC_SCHEMES)
    def test_exact_budget_is_one_run(self, scheme):
        # Costs and budget exact in binary: the last round's remaining budget
        # equals per_step_cost, so it still takes the full shift, and the
        # whole schedule is one run.
        plan = CorruptionPlan(scheme=scheme, budget=1000.0, horizon=10_000)
        runs = self._check(plan, 0.25, instance=make_instance((0.25, 0.5, 0.75)))
        assert len(runs) == 1 and runs[0][0] == build_schedule(plan, 0.25)

    @pytest.mark.parametrize("scheme", ARITHMETIC_SCHEMES)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("start", [0.0, 0.35])
    def test_spend_one_ulp_from_last_full_round(self, scheme, strategy, start):
        # Budgets where the sequential spend before round n lands within one
        # ulp of budget - per_step_cost, on either side, so the scan must
        # stop at exactly the round the loop would.
        per_step = 0.1
        one = CorruptionPlan(scheme="consecutive", budget=1.0, strategy=strategy, horizon=10)
        inst = ladder_instance()
        _, cost = apply_corruption(inst, make_ledger(inst, one, per_step), 0)
        n = 3000
        spend = list(accumulate(repeat(cost, n), initial=start))[n]
        edge = spend + per_step
        ends = set()
        for budget in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)):
            assert abs(spend - (budget - per_step)) <= math.ulp(budget)
            plan = CorruptionPlan(scheme=scheme, budget=budget, strategy=strategy, horizon=10_000)
            runs = self._check(plan, per_step, start)
            ends.add(len(runs[0][0]))
        # The last ulp decides whether round n still takes the full shift.
        assert ends == {n, n + 1}
