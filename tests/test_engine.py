import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from banditlab import engine
from banditlab.adversary import (
    SCHEMES,
    STRATEGIES,
    CorruptionPlan,
    apply_corruption,
    make_ledger,
    resolve_corruption,
    resolve_corruption_runs,
)
from banditlab.baselines import make_policy
from banditlab.core import checkpoint_grid, make_instance
from banditlab.engine import (
    _ADVERSARY,
    _ENV,
    _POLICY,
    GENERATOR_NAME,
    AlgorithmSpec,
    ExperimentConfig,
    InstanceSpec,
    PlanSpec,
    bench_runtime,
    make_stream,
    resolve_threads,
    run_batch,
    run_episode,
    split_seed,
)
from banditlab.samba import SambaPolicy


def small_config(**over):
    base = dict(
        instances=(InstanceSpec(means=(0.2, 0.5, 0.9)),),
        plans=(PlanSpec(), PlanSpec(scheme="consecutive", budget=10.0)),
        algorithms=(AlgorithmSpec.of("samba", {"alpha": 0.05}),),
        horizon=500,
        replications=3,
        master_seed=99,
    )
    base.update(over)
    return ExperimentConfig(**base)


class TestSplitSeed:
    def test_distinct_over_many_indexes(self):
        master = 123456789
        seeds = {split_seed(master, i) for i in range(1_000_000)}
        assert len(seeds) == 1_000_000

    def test_different_masters_diverge(self):
        assert split_seed(1, 0) != split_seed(2, 0)

    def test_stays_in_64_bit_range(self):
        for idx in (0, 1, 2**32, 2**63):
            s = split_seed(2**64 - 1, idx)
            assert 0 <= s < 2**64

    def test_is_pure(self):
        assert split_seed(42, 17) == split_seed(42, 17)

    def test_stream_generator_contract(self):
        assert GENERATOR_NAME == "philox4x64-splitmix64"
        g = make_stream(split_seed(0, 0))
        assert isinstance(g.bit_generator, np.random.Philox)


class TestInstanceSpec:
    def test_requires_exactly_one_of_means_or_k(self):
        with pytest.raises(ValueError):
            InstanceSpec()
        with pytest.raises(ValueError):
            InstanceSpec(means=(0.1, 0.9), k=2)

    def test_fixed_means_resolve(self):
        spec = InstanceSpec(means=(0.2, 0.7))
        inst = spec.resolve(seed=5)
        assert inst.means == (0.2, 0.7)
        assert spec.arms == 2

    def test_random_means_deterministic_per_seed(self):
        spec = InstanceSpec(k=6)
        a = spec.resolve(seed=11)
        b = spec.resolve(seed=11)
        c = spec.resolve(seed=12)
        assert a.means == b.means
        assert a.means != c.means
        assert a.k == 6
        assert all(0.0 <= m <= 1.0 for m in a.means)


class RecordingPolicy:
    """Wraps a policy and keeps every (arm, reward) pair run_episode feeds back."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.arms = []
        self.rewards = []

    def select(self, rng):
        return self.inner.select(rng)

    def update(self, arm, reward):
        self.inner.update(arm, reward)
        self.arms.append(arm)
        self.rewards.append(reward)


@pytest.fixture
def resolved_tables(monkeypatch):
    """Every corruption table run_episode resolves, in call order, as ``{round: (means, cost)}``."""
    tables = []

    def capture(instance, ledger):
        runs = resolve_corruption_runs(instance, ledger)
        tables.append({t: (means, cost) for rounds, means, cost in runs for t in rounds})
        return runs

    monkeypatch.setattr(engine, "resolve_corruption_runs", capture)
    return tables


class TestRunEpisode:
    def _run(self, seed=7, budget=10.0):
        inst = make_instance((0.2, 0.5, 0.9))
        plan = CorruptionPlan(scheme="consecutive", budget=budget, horizon=400)
        policy = RecordingPolicy(SambaPolicy(3, alpha=0.05))
        return run_episode(policy, inst, plan, 400, seed), policy

    def test_shapes_and_ranges(self, resolved_tables):
        _, rec = self._run()
        assert len(rec.arms) == len(rec.rewards) == 400
        assert set(rec.arms) <= {0, 1, 2}
        assert set(rec.rewards) <= {0, 1}
        (table,) = resolved_tables
        assert table and all(cost >= 0 for _, cost in table.values())

    def test_deterministic_for_seed(self):
        (a, rec_a), (b, rec_b) = self._run(seed=3), self._run(seed=3)
        assert rec_a.arms == rec_b.arms
        assert rec_a.rewards == rec_b.rewards
        assert a.checkpoints == b.checkpoints

    def test_different_seeds_differ(self):
        (_, rec_a), (_, rec_b) = self._run(seed=3), self._run(seed=4)
        assert rec_a.arms != rec_b.arms

    def test_spent_respects_budget(self):
        tr, _ = self._run(budget=7.3)
        assert tr.spent() <= 7.3 + 1e-9
        assert tr.spent() >= 7.3 - 0.9

    def test_curve_ends_at_horizon_total(self):
        tr, rec = self._run()
        t_last, regret_last = tr.checkpoints[-1]
        assert t_last == 400
        gaps = np.asarray(tr.instance.gaps)
        assert regret_last == pytest.approx(float(gaps[rec.arms].sum()))

    def test_corruption_stream_isolated_from_policy(self, resolved_tables):
        # same seed, different policies: the adversary must spend on the
        # exact same rounds because its stream is independent of the
        # policy's draws
        inst = make_instance((0.2, 0.5, 0.9))
        plan = CorruptionPlan(scheme="random_early", budget=5.0, horizon=400)
        tr_a = run_episode(SambaPolicy(3, alpha=0.05), inst, plan, 400, 21)
        from banditlab.baselines import TsallisInfPolicy

        tr_b = run_episode(TsallisInfPolicy(3), inst, plan, 400, 21)
        table_a, table_b = resolved_tables
        assert table_a == table_b
        assert tr_a.spent() == tr_b.spent()
        assert tr_a.spent() > 0

    def test_records_algorithm_name(self):
        assert self._run()[0].algorithm == "samba"

    @pytest.mark.parametrize(
        "scheme, budget, horizon",
        [
            ("consecutive", 1000.0, 3999),
            ("even_steps", 1000.0, 7998),
            ("delayed_block", 1000.0, 6499),
            ("random_early", 100.0, 300),
        ],
        ids=["consecutive-3999", "even_steps-7998", "delayed_block-6499", "random_early-300"],
    )
    def test_schedule_past_horizon_raises(self, scheme, budget, horizon):
        # A plan bound to a longer horizon whose schedule does not fit the
        # episode: no round is dropped, and the error names the schedule's
        # last round whether the schedule is a range or a tuple.
        inst = make_instance((0.2, 0.5, 0.9))
        plan = CorruptionPlan(scheme=scheme, budget=budget, horizon=10_000)
        ledger = make_ledger(inst, plan, 0.25, make_stream(split_seed(5, _ADVERSARY)))
        last = ledger.schedule[-1]
        with pytest.raises(IndexError, match=f"round {last} "):
            run_episode(SambaPolicy(3, alpha=0.05), inst, plan, horizon, 5, per_step_cost=0.25)
        trace = run_episode(
            SambaPolicy(3, alpha=0.05), inst, plan, last + 1, 5, per_step_cost=0.25
        )
        assert trace.spent() == budget


def reference_episode(policy, instance, plan, horizon, seed, per_step_cost, checkpoints):
    """The per-round loop run_episode replaced: apply_corruption on every round."""
    env_rng = make_stream(split_seed(seed, _ENV))
    policy_rng = make_stream(split_seed(seed, _POLICY))
    adv_rng = make_stream(split_seed(seed, _ADVERSARY))
    ledger = make_ledger(instance, plan, per_step_cost, adv_rng)
    uniforms = env_rng.random(horizon)
    arms = np.zeros(horizon, dtype=np.int32)
    rewards = np.zeros(horizon, dtype=np.int8)
    per_round = {}
    cum_regret = 0.0
    curve = []
    for t in range(horizon):
        means, cost = apply_corruption(instance, ledger, t)
        if cost:
            per_round[t] = (means, cost)
        arm = policy.select(policy_rng)
        reward = 1 if uniforms[t] < means[arm] else 0
        policy.update(arm, reward)
        arms[t] = arm
        rewards[t] = reward
        cum_regret += instance.gaps[arm]
        if t + 1 in checkpoints:
            curve.append((t + 1, cum_regret))
    return arms, rewards, curve, per_round, ledger.spent


class TestResolvedCorruptionMatchesPerRoundLoop:
    HORIZON = 400
    MEANS = (0.2, 0.5, 0.9)

    # (budget, per_step_cost): the strategy's default cost; a budget that is
    # not a multiple of the cost (a residual last round); a cost above the
    # best mean (the shift is clipped at 0, and at 1 for the worst arm).
    @pytest.mark.parametrize("budget,per_step_cost", [(8.0, None), (7.3, 0.25), (6.0, 1.5)])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_identical_episodes(self, scheme, strategy, budget, per_step_cost, resolved_tables):
        instance = make_instance(self.MEANS)
        plan = CorruptionPlan(
            scheme=scheme,
            budget=budget,
            strategy=strategy,
            horizon=self.HORIZON,
            custom_rounds=tuple(range(7, self.HORIZON, 11)),
        )
        checkpoints = checkpoint_grid(self.HORIZON)
        for algorithm, params in (("samba", {"alpha": 0.05}), ("barbar", {})):
            for seed in (3, 4):
                ref_policy = make_policy(algorithm, 3, params, c_known=budget, horizon=self.HORIZON)
                arms, rewards, curve, per_round, spent = reference_episode(
                    ref_policy, instance, plan, self.HORIZON, seed, per_step_cost, set(checkpoints)
                )
                policy = RecordingPolicy(
                    make_policy(algorithm, 3, params, c_known=budget, horizon=self.HORIZON)
                )
                trace = run_episode(
                    policy,
                    instance,
                    plan,
                    self.HORIZON,
                    seed,
                    checkpoints=checkpoints,
                    per_step_cost=per_step_cost,
                )
                assert policy.arms == arms.tolist()
                assert policy.rewards == rewards.tolist()
                # Per-round costs: the resolved table's, zero on every other round.
                assert resolved_tables[-1] == per_round
                assert trace.checkpoints == curve
                assert trace.spent() == spent

                adv_rng = make_stream(split_seed(seed, _ADVERSARY))
                ledger = make_ledger(instance, plan, per_step_cost, adv_rng)
                assert resolve_corruption(instance, ledger) == per_round
                assert ledger.spent == spent
                if scheme != "none":
                    assert spent > 0


@pytest.fixture
def policy_streams(monkeypatch):
    """The policy stream of every run_episode call, in call order."""
    made = []

    def capture(seed):
        made.append(make_stream(seed))
        return made[-1]

    monkeypatch.setattr(engine, "make_stream", capture)
    # run_episode makes the env, policy and adversary streams in that order.
    return lambda: made[1::3]


@pytest.fixture
def block_calls(monkeypatch):
    """How many episodes took the committed-block path."""
    calls = []
    play = engine._play_blocks

    def spy(*args):
        calls.append(1)
        return play(*args)

    monkeypatch.setattr(engine, "_play_blocks", spy)
    return calls


NINE_ARMS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


class TestCommittedBlocksMatchRoundLoop:
    """barbar/cbarbar played a phase at a time equal the same policy played per round."""

    PHASE_STATE = ("gap_estimates", "phase_lengths", "phase_index", "_pos", "_phase_counts", "_phase_sums")

    def _plan(self, scheme, horizon):
        # Budgets that fit every scheme at this horizon, with a residual round.
        fit = horizon // 10 if scheme == "random_early" else max(1, horizon // 10)
        return CorruptionPlan(
            scheme=scheme, budget=0.093 * fit, strategy="swap_extremes", horizon=horizon
        )

    def _pair(self, algorithm, instance, plan, horizon, seed, checkpoints, stamps=None):
        """(block trace, block policy, round trace, round policy) for one episode."""
        block = make_policy(algorithm, instance.k)
        rounds = RecordingPolicy(make_policy(algorithm, instance.k))
        kw = dict(checkpoints=checkpoints, per_step_cost=0.1)
        t_block = run_episode(block, instance, plan, horizon, seed, stamps=stamps, **kw)
        t_rounds = run_episode(rounds, instance, plan, horizon, seed, **kw)
        return t_block, block, t_rounds, rounds.inner

    @pytest.mark.parametrize("custom_checkpoints", [False, True])
    @pytest.mark.parametrize("horizon", [1, 37, 7777])
    @pytest.mark.parametrize("means", ["nine", "uniform2", "uniform20"])
    @pytest.mark.parametrize(
        "scheme", ["none", "consecutive", "even_steps", "delayed_block", "random_early"]
    )
    @pytest.mark.parametrize("algorithm", ["barbar", "cbarbar"])
    def test_identical_episodes(
        self, algorithm, scheme, means, horizon, custom_checkpoints, policy_streams, block_calls
    ):
        seed = 17 + horizon
        if means == "nine":
            instance = make_instance(NINE_ARMS)
        else:
            instance = InstanceSpec(k=int(means[len("uniform"):])).resolve(seed)
        plan = self._plan(scheme, horizon)
        checkpoints = None
        if custom_checkpoints:
            # Unsorted, repeated and out-of-range entries, some mid-phase.
            checkpoints = [horizon + 3, 5, 0, 36, 1, 5, horizon, 100, 4000, horizon - 1, -2]
        t_block, block, t_rounds, rounds = self._pair(
            algorithm, instance, plan, horizon, seed, checkpoints
        )
        assert len(block_calls) == 1
        assert t_block.checkpoints == t_rounds.checkpoints
        assert t_block.checkpoints[-1][0] == horizon
        assert t_block.spent() == t_rounds.spent()
        if scheme != "none" and (scheme != "random_early" or horizon >= 10):
            assert t_block.spent() > 0
        for attr in self.PHASE_STATE:
            assert getattr(block, attr) == getattr(rounds, attr), attr
        stream_block, stream_rounds = policy_streams()
        assert stream_block.random() == stream_rounds.random()

    @pytest.mark.parametrize("algorithm", ["barbar", "cbarbar"])
    def test_stamps_do_not_change_checkpoints(self, algorithm):
        instance = make_instance(NINE_ARMS)
        horizon = 7777
        plan = self._plan("even_steps", horizon)
        stamps = dict.fromkeys((0, 1, 36, 500, 2048, 7000, horizon), 0.0)
        t_stamped, stamped, t_rounds, rounds = self._pair(
            algorithm, instance, plan, horizon, 5, None, stamps=stamps
        )
        plain = make_policy(algorithm, instance.k)
        t_plain = run_episode(plain, instance, plan, horizon, 5, per_step_cost=0.1)
        assert t_stamped.checkpoints == t_plain.checkpoints == t_rounds.checkpoints
        for attr in self.PHASE_STATE:
            assert getattr(stamped, attr) == getattr(plain, attr) == getattr(rounds, attr)
        times = [stamps[t] for t in sorted(stamps)]
        assert times[0] > 0 and times == sorted(times)


class TestRunBatch:
    def test_cell_layout(self):
        cfg = small_config()
        stats = run_batch(cfg, threads=1)
        assert len(stats.cells) == 2  # 1 instance x 2 plans x 1 algorithm
        assert [c.scheme for c in stats.cells] == ["none", "consecutive"]
        assert all(c.replications == 3 for c in stats.cells)
        assert all(c.k == 3 for c in stats.cells)

    def test_rerun_identical(self):
        a = run_batch(small_config(), threads=1)
        b = run_batch(small_config(), threads=1)
        assert [c.mean_regret for c in a.cells] == [c.mean_regret for c in b.cells]
        assert [c.curve for c in a.cells] == [c.curve for c in b.cells]

    def test_thread_count_does_not_change_numbers(self):
        a = run_batch(small_config(), threads=1)
        b = run_batch(small_config(), threads=2)
        assert [c.mean_regret for c in a.cells] == [c.mean_regret for c in b.cells]
        assert [c.sd_regret for c in a.cells] == [c.sd_regret for c in b.cells]
        assert [c.curve for c in a.cells] == [c.curve for c in b.cells]

    def test_single_replication_zero_sd(self):
        stats = run_batch(small_config(replications=1), threads=1)
        assert all(c.sd_regret == 0.0 for c in stats.cells)
        assert all(s == 0.0 for c in stats.cells for _, _, s in c.curve)

    def test_master_seed_changes_results(self):
        a = run_batch(small_config(master_seed=1), threads=1)
        b = run_batch(small_config(master_seed=2), threads=1)
        assert [c.mean_regret for c in a.cells] != [c.mean_regret for c in b.cells]

    def test_curve_monotone_and_ends_at_mean(self):
        stats = run_batch(small_config(), threads=1)
        for cell in stats.cells:
            regrets = [m for _, m, _ in cell.curve]
            assert regrets == sorted(regrets)  # pseudo-regret never decreases
            assert cell.curve[-1][0] == 500
            assert cell.curve[-1][1] == pytest.approx(cell.mean_regret)

    def test_spent_statistics(self):
        stats = run_batch(small_config(), threads=1)
        clean, corrupted = stats.cells
        assert clean.mean_spent == 0.0
        assert corrupted.max_spent <= 10.0 + 1e-9
        assert corrupted.mean_spent >= 10.0 - 0.9

    def test_base_seed_is_first_replication(self):
        cfg = small_config()
        stats = run_batch(cfg, threads=1)
        reps = cfg.replications
        for idx, cell in enumerate(stats.cells):
            assert cell.base_seed == split_seed(cfg.master_seed, idx * reps)

    def test_grid_over_k(self):
        cfg = small_config(
            instances=(InstanceSpec(k=4), InstanceSpec(k=6)),
            plans=(PlanSpec(),),
        )
        stats = run_batch(cfg, threads=1)
        assert [c.k for c in stats.cells] == [4, 6]


class TestResolveThreads:
    def test_explicit_wins(self):
        assert resolve_threads(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("BANDITLAB_THREADS", "5")
        assert resolve_threads(None) == 5

    def test_floor_of_one(self):
        assert resolve_threads(0) == 1

    @pytest.mark.parametrize("value", ["0", "-2", "abc", "1.5"])
    def test_bad_env_raises(self, monkeypatch, value):
        monkeypatch.setenv("BANDITLAB_THREADS", value)
        with pytest.raises(ValueError, match="BANDITLAB_THREADS"):
            resolve_threads(None)

    def test_bad_env_reaches_run_batch(self, monkeypatch):
        monkeypatch.setenv("BANDITLAB_THREADS", "abc")
        with pytest.raises(ValueError, match="BANDITLAB_THREADS must be a positive integer"):
            run_batch(small_config())

    def test_default_positive(self, monkeypatch):
        monkeypatch.delenv("BANDITLAB_THREADS", raising=False)
        assert resolve_threads(None) >= 1


class TaskFailed(Exception):
    pass


CELL_TASK = engine._cell_task


def fail_on_second_chunk(task):
    if task[4][0] == split_seed(99, 4):  # the first cell's second chunk of 4 episodes
        raise TaskFailed("chunk 2 failed")
    return CELL_TASK(task)

# Run in a fresh interpreter: a worker that dies mid-task must not hang run_batch.
DYING_WORKER = """
import os, sys
from banditlab import engine
from banditlab.engine import AlgorithmSpec, ExperimentConfig, InstanceSpec, PlanSpec

cell_task = engine._cell_task
def die_on_third(task):
    if task[4][0] == engine.split_seed(99, 8):
        os._exit(7)
    return cell_task(task)
engine._cell_task = die_on_third
cfg = ExperimentConfig(
    instances=(InstanceSpec(means=(0.2, 0.5, 0.9)),), plans=(PlanSpec(),),
    algorithms=(AlgorithmSpec.of("samba", {"alpha": 0.05}),),
    horizon=500, replications=12, master_seed=99,
)
try:
    engine.run_batch(cfg, threads=2)
except RuntimeError as exc:
    print(exc)
try:
    os.waitpid(-1, os.WNOHANG)
    print("a child is left")
except ChildProcessError:
    print("no child left")
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="workers are forked only where os.fork exists")
class TestForkedWorkers:
    def test_task_exception_keeps_its_type_and_leaves_no_child(self, monkeypatch):
        monkeypatch.setattr(engine, "_cell_task", fail_on_second_chunk)
        with pytest.raises(TaskFailed, match="chunk 2 failed") as info:
            run_batch(small_config(replications=12), threads=2)
        assert "fail_on_second_chunk" in str(info.value.__cause__)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_worker_that_dies_mid_task_raises_instead_of_hanging(self):
        src = str(pathlib.Path(engine.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run(
            [sys.executable, "-c", DYING_WORKER],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        died, left = proc.stdout.splitlines()
        assert re.fullmatch(r"worker process \d+ exited during task 2 without returning it", died)
        assert left == "no child left"

    def test_more_workers_than_tasks(self):
        cfg = small_config(replications=4)  # two tasks
        a = run_batch(cfg, threads=1)
        b = run_batch(cfg, threads=8)
        assert [c.curve for c in a.cells] == [c.curve for c in b.cells]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestBenchRuntime:
    def test_rows_and_fields(self):
        rows = bench_runtime(
            (AlgorithmSpec.of("samba", {"alpha": 0.05}), AlgorithmSpec.of("barbar")),
            InstanceSpec(means=(0.2, 0.5, 0.9)),
            horizon=2000,
            reps=2,
            master_seed=1,
        )
        assert [r.algorithm for r in rows] == ["samba", "barbar"]
        for row in rows:
            assert row.mean_s > 0
            assert row.sd_s >= 0
            assert row.step_ratio > 0
