"""Pre-drawn uniforms and lockstep play must not change a single bit.

``pick(u)`` is ``select`` with its uniform handed in; ``run_episode`` plays a
policy with ``pick`` from windows of the policy stream, and ``run_lockstep``
plays many replications of samba or tsallis_inf as numpy columns. Each is
checked against the per-call path it replaces: arms, states, checkpoints,
spend and stream positions.
"""

import copy

import numpy as np
import pytest

from banditlab import engine
from banditlab.adversary import make_ledger, resolve_corruption_runs
from banditlab.baselines import _solve_weight_scale, _solve_weight_scales, make_policy
from banditlab.core import make_instance, ordered_column_sums
from banditlab.engine import (
    _ADVERSARY,
    _ENV,
    _POLICY,
    AlgorithmSpec,
    ExperimentConfig,
    InstanceSpec,
    PlanSpec,
    run_batch,
    run_episode,
    run_lockstep,
    split_seed,
)
from banditlab.samba import CLAMP_FLOOR, SambaPolicy, samba_from_probabilities

PICK_ALGORITHMS = ("samba", "tsallis_inf", "fs_aae")
LOCKSTEP_ALGORITHMS = ("samba", "tsallis_inf")
SCHEMES = ("none", "delayed_block", "consecutive")


def philox(seed):
    return np.random.Generator(np.random.Philox(key=seed))


def policy_state(policy):
    """Everything a policy holds, compared by value (floats bit for bit)."""
    if isinstance(policy, SambaPolicy):
        st = policy.state
        return (st.p, st.leader, st.clamp_events, st.alpha)
    return {
        name: (value.tolist() if isinstance(value, np.ndarray) else value)
        for name, value in vars(policy).items()
    }


class SelectOnly:
    """Forwards only select/update, so the engine draws one uniform per call."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name

    def select(self, rng):
        return self.inner.select(rng)

    def update(self, arm, reward):
        self.inner.update(arm, reward)


def _policy(algorithm, k, budget=0.0, horizon=None):
    params = {"alpha": 0.05} if algorithm == "samba" else {}
    return make_policy(algorithm, k, params, c_known=budget, horizon=horizon)


def _plan(scheme, horizon):
    budget = 0.0 if scheme == "none" else 0.02 * horizon
    return PlanSpec(scheme=scheme, budget=budget).bind(horizon)


@pytest.fixture
def streams(monkeypatch):
    """Every stream engine code makes, by key, in creation order."""
    made = {}
    make = engine.make_stream

    def capture(seed):
        made.setdefault(seed, []).append(make(seed))
        return made[seed][-1]

    monkeypatch.setattr(engine, "make_stream", capture)
    return made


class TestPickMatchesSelect:
    """select(rng) is pick(rng.random()): same arm, same state, same stream position."""

    @pytest.mark.parametrize("k", [2, 6, 20])
    @pytest.mark.parametrize("algorithm", PICK_ALGORITHMS)
    def test_random_states(self, algorithm, k):
        play = philox(1000 + k)
        for trial in range(30):
            policy = _policy(algorithm, k, budget=float(trial % 3), horizon=5000)
            # A random history of random length: drawn arms with random
            # rewards, and now and then an extra update of any arm (rewarded,
            # since tsallis_inf's importance weights assume a drawn arm).
            for _ in range(int(play.integers(0, 300))):
                policy.update(policy.select(play), int(play.random() < 0.6))
                if play.random() < 0.2:
                    policy.update(int(play.integers(k)), 1)
            twin = copy.deepcopy(policy)
            by_select, by_pick = philox(trial), philox(trial)
            for _ in range(5):
                arm = policy.select(by_select)
                assert twin.pick(by_pick.random()) == arm
                assert policy_state(twin) == policy_state(policy)
                policy.update(arm, trial % 2)
                twin.update(arm, trial % 2)
            assert by_select.random() == by_pick.random()


class TestWindowedDrawsMatchPerCall:
    """A policy with pick, played from pre-drawn windows, equals a select-only wrapper."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("k", [2, 6, 20])
    @pytest.mark.parametrize("algorithm", PICK_ALGORITHMS)
    def test_identical_episodes(self, algorithm, k, scheme, streams):
        horizon = 3001
        seed = 31 * k + len(scheme)
        instance = InstanceSpec(k=k).resolve(seed)
        plan = _plan(scheme, horizon)
        windowed = _policy(algorithm, k, plan.budget, horizon)
        calls = []
        pick = windowed.pick
        windowed.pick = lambda u: calls.append(u) or pick(u)
        per_call = _policy(algorithm, k, plan.budget, horizon)
        checkpoints = [horizon + 5, 1, 17, 17, 2000, 0, horizon]
        a = run_episode(windowed, instance, plan, horizon, seed, checkpoints=checkpoints)
        b = run_episode(SelectOnly(per_call), instance, plan, horizon, seed, checkpoints=checkpoints)
        assert len(calls) == horizon
        assert a.checkpoints == b.checkpoints
        assert [t for t, _ in a.checkpoints] == [1, 17, 2000, horizon]
        assert a.spent() == b.spent()
        del windowed.pick
        assert policy_state(windowed) == policy_state(per_call)
        first, second = streams[split_seed(seed, _POLICY)]
        assert first.random() == second.random()

    @pytest.mark.parametrize("algorithm", PICK_ALGORITHMS)
    def test_stamps_do_not_change_checkpoints(self, algorithm):
        horizon = 2500
        instance = make_instance((0.1, 0.5, 0.9))
        plan = _plan("delayed_block", horizon)
        stamps = dict.fromkeys((0, 3, 250, 1999, horizon), 0.0)
        a = run_episode(_policy(algorithm, 3), instance, plan, horizon, 9, stamps=stamps)
        b = run_episode(_policy(algorithm, 3), instance, plan, horizon, 9)
        assert a.checkpoints == b.checkpoints
        times = [stamps[t] for t in sorted(stamps)]
        assert times[0] > 0 and times == sorted(times)


@pytest.mark.parametrize("cols", [1, 2, 7, 100])
@pytest.mark.parametrize("k", [2, 9, 20, 30])
def test_ordered_column_sums_add_rows_in_order(k, cols):
    rng = philox(k * 1000 + cols)
    a = rng.random((k, cols)) * 10.0 ** rng.uniform(-8, 8, size=(k, cols))
    got = ordered_column_sums(a)
    for c in range(cols):
        total = 0.0
        for v in a[:, c].tolist():
            total += v
        assert got[c].hex() == total.hex()


class TestSolveWeightScales:
    """The column-wise normalization solve returns the scalar solve's y, bit for bit."""

    @pytest.mark.parametrize("k", [2, 6, 20])
    def test_random_columns(self, k):
        rng = philox(500 + k)
        for trial in range(40):
            n = 1 + trial % 7
            eta = float(10.0 ** rng.uniform(-3, 0))
            z = rng.exponential(10.0 ** rng.uniform(-2, 3), size=(k, n))
            z -= z.min(axis=0)
            hi = 2.000001 * np.sqrt(k) / eta
            # Warm starts anywhere: near 0 (Newton overshoots, so the solve
            # bisects), inside, and outside the bracket.
            y0 = hi * rng.choice([1e-6, 0.01, 0.3, 0.9, 1.5, -1.0], size=n) * rng.random(n)
            for start in (None, y0):
                got = _solve_weight_scales(z, eta, start)
                for c in range(n):
                    warm = None if start is None else float(start[c])
                    want = _solve_weight_scale(z[:, c].tolist(), eta, warm)
                    assert got[c].hex() == want.hex()


def _lockstep_vs_episodes(policies, singles, instances, plan, horizon, seeds, streams, **kw):
    traces = run_lockstep(policies, instances, plan, horizon, seeds, **kw)
    for r, (single, instance, seed) in enumerate(zip(singles, instances, seeds)):
        trace = run_episode(single, instance, plan, horizon, seed, **kw)
        assert traces[r].checkpoints == trace.checkpoints, r
        assert traces[r].spent() == trace.spent(), r
        assert policy_state(policies[r]) == policy_state(single), r
        # Both paths leave every stream at the same position.
        for sub in (_ENV, _POLICY, _ADVERSARY):
            first, second = streams[split_seed(seed, sub)][-2:]
            assert first.random() == second.random(), (r, sub)
    return traces


class TestLockstepMatchesEpisodes:
    """Replication r of run_lockstep is run_episode on its own policy, bit for bit."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("k", [2, 6, 20])
    @pytest.mark.parametrize("algorithm", LOCKSTEP_ALGORITHMS)
    def test_uniform_means(self, algorithm, k, scheme, streams, monkeypatch):
        # A small window makes the episode span several, cut mid-phase.
        monkeypatch.setattr(engine, "_LOCKSTEP_WINDOW", 700)
        horizon, reps = 2500, 6
        seeds = [split_seed(40 + k, i) for i in range(reps)]
        instances = [InstanceSpec(k=k).resolve(seed) for seed in seeds]
        plan = _plan(scheme, horizon)
        if scheme != "none":
            # The default per-step cost is each replication's best mean, so their
            # corruption tables differ in length.
            lengths = {len(make_ledger(inst, plan).schedule) for inst in instances}
            assert len(lengths) > 1
        policies = [_policy(algorithm, k) for _ in seeds]
        singles = [_policy(algorithm, k) for _ in seeds]
        traces = _lockstep_vs_episodes(policies, singles, instances, plan, horizon, seeds, streams)
        assert traces[0].checkpoints[-1][0] == horizon
        if scheme != "none":
            assert len({tr.spent() for tr in traces}) == 1 and traces[0].spent() > 0

    @pytest.mark.parametrize("algorithm", LOCKSTEP_ALGORITHMS)
    def test_checkpoints_and_per_step_cost(self, algorithm, streams):
        horizon, reps = 1500, 3
        seeds = [split_seed(5, i) for i in range(reps)]
        instances = [make_instance((0.2, 0.5, 0.9))] * reps
        plan = PlanSpec(scheme="even_steps", budget=7.3).bind(horizon)
        policies = [_policy(algorithm, 3) for _ in seeds]
        singles = [_policy(algorithm, 3) for _ in seeds]
        traces = _lockstep_vs_episodes(
            policies, singles, instances, plan, horizon, seeds, streams,
            checkpoints=[0, 1500, 3, 3, 1499, 9000, 1], per_step_cost=0.25,
        )
        assert [t for t, _ in traces[0].checkpoints] == [1, 3, 1499, 1500]

    @pytest.mark.parametrize("scheme", ["consecutive", "even_steps"])
    @pytest.mark.parametrize("algorithm", LOCKSTEP_ALGORITHMS)
    def test_range_schedules(self, algorithm, scheme, streams, monkeypatch):
        # Range schedules: each replication's full-shift run is one range,
        # cut by windows, followed by a residual round.
        monkeypatch.setattr(engine, "_LOCKSTEP_WINDOW", 700)
        horizon, reps = 3000, 4
        seeds = [split_seed(61, i) for i in range(reps)]
        instances = [InstanceSpec(k=6).resolve(seed) for seed in seeds]
        plan = PlanSpec(scheme=scheme, budget=212.3, strategy="swap_extremes").bind(horizon)
        for inst in instances:
            runs = resolve_corruption_runs(inst, make_ledger(inst, plan, 0.15))
            assert isinstance(runs[0][0], range) and len(runs[0][0]) > 700
            assert len(runs) == 2
        policies = [_policy(algorithm, 6) for _ in seeds]
        singles = [_policy(algorithm, 6) for _ in seeds]
        _lockstep_vs_episodes(
            policies, singles, instances, plan, horizon, seeds, streams, per_step_cost=0.15
        )

    @pytest.mark.parametrize(
        "scheme, budget, horizon",
        [("even_steps", 1000.0, 5000), ("random_early", 100.0, 300)],
        ids=["even_steps", "random_early"],
    )
    def test_schedule_past_horizon_raises(self, scheme, budget, horizon):
        # A schedule (a range, or a tuple) whose last round lies past the
        # lockstep horizon raises, naming that round, rather than being clipped.
        seeds = [split_seed(62, i) for i in range(2)]
        instances = [InstanceSpec(k=6).resolve(seed) for seed in seeds]
        plan = PlanSpec(scheme=scheme, budget=budget).bind(10_000)
        policies = [_policy("samba", 6) for _ in seeds]
        ledger = make_ledger(instances[0], plan, 0.25, philox(split_seed(seeds[0], _ADVERSARY)))
        with pytest.raises(IndexError, match=f"round {ledger.schedule[-1]} "):
            engine.run_lockstep(policies, instances, plan, horizon, seeds, per_step_cost=0.25)

    def test_single_replication(self, streams):
        seeds = [split_seed(8, 0)]
        instances = [InstanceSpec(k=20).resolve(seeds[0])]
        plan = _plan("consecutive", 800)
        _lockstep_vs_episodes(
            [_policy("tsallis_inf", 20)], [_policy("tsallis_inf", 20)],
            instances, plan, 800, seeds, streams,
        )

    @pytest.mark.parametrize("k", [2, 6, 20])
    def test_samba_clamp_path(self, k, streams):
        # One coordinate starts below the floor, so every rewarded update
        # clamps until it is pulled back up: the scalar clamp runs per row.
        horizon, reps = 400, 5
        seeds = [split_seed(77, i) for i in range(reps)]
        instances = [InstanceSpec(k=k).resolve(seed) for seed in seeds]
        plan = _plan("consecutive", horizon)

        def tiny(r):
            p = [1.0 / k] * k
            p[r % k] = 0.5 * CLAMP_FLOOR
            p[(r + 1) % k] += 1.0 / k - 0.5 * CLAMP_FLOOR
            policy = SambaPolicy(k, alpha=0.3)
            policy.state = samba_from_probabilities(p, 0.3)
            return policy

        policies = [tiny(r) for r in range(reps)]
        singles = [tiny(r) for r in range(reps)]
        _lockstep_vs_episodes(policies, singles, instances, plan, horizon, seeds, streams)
        assert all(pol.state.clamp_events > 0 for pol in singles)

    def test_rejects_mixed_step_sizes(self):
        with pytest.raises(ValueError):
            SambaPolicy.lockstep([SambaPolicy(3, alpha=0.05), SambaPolicy(3, alpha=0.1)])


def _grid(reps, algorithms=LOCKSTEP_ALGORITHMS + ("fs_aae",)):
    return ExperimentConfig(
        instances=(InstanceSpec(k=2), InstanceSpec(k=6)),
        plans=(PlanSpec(), PlanSpec(scheme="delayed_block", budget=20.0)),
        algorithms=tuple(
            AlgorithmSpec.of(name, {"alpha": 0.05} if name == "samba" else {})
            for name in algorithms
        ),
        horizon=1200,
        replications=reps,
        master_seed=4,
    )


@pytest.fixture
def lockstep_cells(monkeypatch):
    """How many replications each run_lockstep call played."""
    widths = []
    play = engine.run_lockstep

    def spy(policies, *args, **kw):
        widths.append(len(policies))
        return play(policies, *args, **kw)

    monkeypatch.setattr(engine, "run_lockstep", spy)
    return widths


class TestRunBatchLockstep:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_wide_cells_match_per_episode(self, threads, monkeypatch, lockstep_cells):
        per_episode = run_batch(_grid(5), threads=threads)
        assert lockstep_cells == []
        monkeypatch.setattr(engine, "LOCKSTEP_MIN_REPLICATIONS", 5)
        lockstep = run_batch(_grid(5), threads=threads)
        if threads == 1:  # pool workers run their own copy of the spy
            assert lockstep_cells == [5] * 8  # samba and tsallis_inf cells only
        assert lockstep.cells == per_episode.cells

    def test_gated_widths_stay_per_episode(self, lockstep_cells):
        assert engine.LOCKSTEP_MIN_REPLICATIONS > 8
        run_batch(_grid(8, ("samba",)), threads=1)
        assert lockstep_cells == []
