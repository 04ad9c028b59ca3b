"""Deterministic simulation engine.

Reproducibility contract: every random draw flows from a 64-bit master seed
through ``split_seed`` (a SplitMix64-style avalanche finalizer over
``master XOR golden_ratio * index``) into keyed Philox counter streams —
generator id ``philox4x64-splitmix64``, stamped into run manifests. Episode
``i`` of cell ``c`` always uses seed ``split_seed(master, c * R + i)``, so
results are bit-identical for a fixed config regardless of scheduling, and
parallel workers reduce in replication order.

:func:`run_episode` is the episode loop. It plays barbar/cbarbar a committed
phase at a time, and hands policies with ``pick(u)`` (samba, tsallis_inf,
fs_aae) their uniforms from one pre-drawn policy-stream window per
checkpoint interval; any other policy, or a wrapper that forwards only
``select``/``update``, is played one call per round. :func:`run_lockstep`
plays many replications of a policy with a ``lockstep`` kernel (samba,
tsallis_inf) together as numpy columns, each bit-identical to its own
``run_episode``. :func:`run_batch` sends a cell with at least
``LOCKSTEP_MIN_REPLICATIONS`` replications of such a policy to
``run_lockstep`` as one pool task, and every other cell to ``run_episode``
a few episodes per task; either way results are reduced by replication
index, so neither the path nor the worker count changes a byte. On every
path, an episode's streams, spend and means table come from :func:`_episode_setup`.

With more than one worker and task, and where ``os.fork`` exists,
:func:`_run_forked` runs the tasks on forked worker processes: the parent
loads ``numpy.random`` once, forks, and hands task indexes over one pipe per
worker, lockstep tasks first, to whichever worker replies next; the tasks
themselves are inherited, and only replies are pickled. A worker whose
parent dies exits after its current task. Elsewhere the tasks run
in-process.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import selectors
import signal
import time
import traceback
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .adversary import CorruptionPlan, make_ledger, resolve_corruption_runs
from .baselines import make_policy
from .core import BanditInstance, Trace, checkpoint_grid, make_instance
from .samba import SambaPolicy

GENERATOR_NAME = "philox4x64-splitmix64"

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def split_seed(master: int, index: int) -> int:
    """Derive a child seed; distinct indexes give distinct seeds.

    SplitMix64 finalizer applied to ``master XOR golden * index``; both the
    odd-constant multiply and the xor-shift finalizer are bijections mod
    2^64, so no two indexes collide under the same master.
    """
    x = (master ^ ((_GOLDEN * index) & _MASK)) & _MASK
    z = (x + _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def make_stream(seed: int) -> np.random.Generator:
    """Keyed counter-mode stream for one consumer."""
    return np.random.Generator(np.random.Philox(key=seed))


# Stream sub-indexes within an episode.
_ENV, _POLICY, _ADVERSARY, _INSTANCE = 0, 1, 2, 3

# A cell with at least this many replications, of a policy with a lockstep
# kernel, runs them together through run_lockstep as one pool task. The
# width was measured on a 2-vCPU Xeon (see CHANGES.md): below it the numpy
# calls per round cost more than the scalar episodes they replace.
LOCKSTEP_MIN_REPLICATIONS = 32
# Rounds per pre-drawn window of run_lockstep.
_LOCKSTEP_WINDOW = 1024
# Episodes per pool task for every other cell.
_EPISODES_PER_TASK = 4


@dataclass(frozen=True)
class InstanceSpec:
    """Fixed means, or K arms with uniform-random means drawn per replication."""

    means: tuple[float, ...] | None = None
    k: int | None = None

    def __post_init__(self):
        if (self.means is None) == (self.k is None):
            raise ValueError("specify exactly one of means= or k=")

    @property
    def arms(self) -> int:
        return len(self.means) if self.means is not None else int(self.k)

    def resolve(self, seed: int) -> BanditInstance:
        if self.means is not None:
            return make_instance(self.means)
        rng = make_stream(split_seed(seed, _INSTANCE))
        while True:
            draw = rng.random(self.k)
            if len(np.unique(draw)) == self.k:
                return make_instance(draw.tolist())


@dataclass(frozen=True)
class PlanSpec:
    """Corruption plan minus the horizon (bound at run time).

    The scheme and budget label a cell's rows, so the clean plan is
    ``none``/0 and every other scheme has a budget above 0.
    """

    scheme: str = "none"
    budget: float = 0.0
    strategy: str = "suppress_optimal"
    per_step_cost: float | None = None

    def __post_init__(self):
        if (self.scheme == "none") != (self.budget == 0.0):
            raise ValueError(f"scheme {self.scheme!r} at budget {self.budget!r} plays no corruption")

    def bind(self, horizon: int) -> CorruptionPlan:
        return CorruptionPlan(
            scheme=self.scheme, budget=self.budget, strategy=self.strategy, horizon=horizon
        )


@dataclass(frozen=True)
class AlgorithmSpec:
    algorithm: str
    params: tuple = ()
    label: str | None = None

    @staticmethod
    def of(algorithm: str, params: dict | None = None, label: str | None = None):
        items = tuple(sorted((params or {}).items()))
        return AlgorithmSpec(algorithm=algorithm, params=items, label=label)

    @property
    def name(self) -> str:
        return self.label or self.algorithm

    def param_dict(self) -> dict:
        return dict(self.params)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment grid: cells = instances x plans x algorithms."""

    instances: tuple[InstanceSpec, ...]
    plans: tuple[PlanSpec, ...]
    algorithms: tuple[AlgorithmSpec, ...]
    horizon: int
    replications: int
    master_seed: int

    def cells(self) -> list[tuple[int, InstanceSpec, PlanSpec, AlgorithmSpec]]:
        out = []
        idx = 0
        for inst in self.instances:
            for plan in self.plans:
                for algo in self.algorithms:
                    out.append((idx, inst, plan, algo))
                    idx += 1
        return out


def run_episode(
    policy,
    instance: BanditInstance,
    plan: CorruptionPlan,
    horizon: int,
    seed: int,
    *,
    checkpoints: list[int] | None = None,
    per_step_cost: float | None = None,
    stamps: dict[int, float] | None = None,
) -> Trace:
    """Simulate one episode and return its regret checkpoints and spend.

    Round protocol: the policy picks an arm, the reward is drawn from that
    round's *corrupted* mean and fed back to the policy, and the arm's
    true-mean gap is added to the pseudo-regret. Each round's means are read
    from the one table :func:`_episode_setup` resolves before round 0, as
    ``flat[offset[t] + arm]``. Checkpoints outside [1, horizon] are ignored.
    Per-round arms and rewards are not kept; a policy wrapper sees each pair
    through ``update``.

    A policy with ``commit``/``observe`` (barbar, cbarbar) fixes its arms
    ahead, so it is played a committed block at a time with numpy (see
    :func:`_play_blocks`); every other policy is played round by round. A
    policy with ``pick(u)`` gets its uniforms from one ``policy_rng.random(n)``
    window per stop (the same stream positions ``select`` would consume);
    any other one, such as a wrapper forwarding only ``select``/``update``,
    is called with the stream once per round. All give the same checkpoints,
    spend and final policy state.

    ``stamps``, if given, maps round indexes in [0, horizon] to be timed: each
    key gets the ``time.perf_counter()`` reading taken when the loop reaches
    that round (``horizon``: after the last round).
    """
    env_rng, policy_rng, spent, flat, offset = _episode_setup(
        instance, plan, horizon, seed, per_step_cost
    )
    if checkpoints is None:
        checkpoints = checkpoint_grid(horizon)
    uniforms = env_rng.random(horizon)

    # The loop pauses only at checkpoints and stamps, never per round.
    cps = set(checkpoints)
    stamped = {t for t in stamps or () if 0 < t < horizon} | {horizon}
    stops = sorted({t for t in cps if 0 < t < horizon} | stamped)
    if stamps is not None and 0 in stamps:
        stamps[0] = time.perf_counter()
    if hasattr(policy, "commit"):
        # Blocks pause only at stamps; checkpoints are read from inside them.
        curve = _play_blocks(
            policy,
            policy_rng,
            uniforms,
            flat,
            offset,
            instance.gaps,
            [t for t in stops if t in cps],
            sorted(stamped),
            stamps,
        )
    else:
        flat, offset, uniforms = flat.tolist(), offset.tolist(), uniforms.tolist()
        gaps = instance.gaps
        cum_regret = 0.0
        curve = []
        # A policy with pick(u) takes its uniforms from one policy-stream
        # window per stop, the draws select(rng) would make one at a time.
        pick = getattr(policy, "pick", None)
        choose = pick or policy.select
        update = policy.update
        t0 = 0
        for stop in stops:
            n = stop - t0
            draws = policy_rng.random(n).tolist() if pick else repeat(policy_rng, n)
            for t, u in zip(range(t0, stop), draws):
                arm = choose(u)
                reward = 1 if uniforms[t] < flat[offset[t] + arm] else 0
                update(arm, reward)
                cum_regret += gaps[arm]
            t0 = stop
            if stamps is not None and stop in stamps:
                stamps[stop] = time.perf_counter()
            if stop in cps:
                curve.append((stop, cum_regret))

    return Trace(checkpoints=curve, realized_spend=spent)


def _episode_setup(instance, plan, horizon, seed, per_step_cost):
    """An episode's env and policy streams, realized spend and means table.

    Makes the env, policy and adversary streams, in that order, and resolves
    the adversary's whole corruption and spend before round 0: it is
    oblivious, so the loops only look the means up. Round t's mean of arm a
    is ``flat[offset[t] + a]``, where ``flat`` holds the clean means and then
    each corrupted run's means, and ``offset`` is 0 on a clean round. The
    set-up costs O(runs of rounds that share a corrupted vector), not
    O(corrupted rounds): a run of an arithmetic schedule is one ``range``,
    written into ``offset`` as one slice. A scheduled round at or past the
    horizon raises ``IndexError`` naming it, whether the schedule is a
    ``range`` or a tuple.
    """
    env_rng, policy_rng, adv_rng = (
        make_stream(split_seed(seed, sub)) for sub in (_ENV, _POLICY, _ADVERSARY)
    )
    ledger = make_ledger(instance, plan, per_step_cost, adv_rng)
    runs = resolve_corruption_runs(instance, ledger)
    # Runs are in round order, so the last round is the latest one.
    if runs and runs[-1][0][-1] >= horizon:
        raise IndexError(f"round {runs[-1][0][-1]} is out of bounds for a horizon of {horizon}")
    offset = np.zeros(horizon, dtype=np.intp)
    for i, (rounds, _, _) in enumerate(runs, 1):
        if isinstance(rounds, range):
            offset[rounds.start : rounds.stop : rounds.step] = i * instance.k
        else:
            offset[np.asarray(rounds, dtype=np.intp)] = i * instance.k
    flat = np.array([instance.means, *(means for _, means, _ in runs)]).ravel()
    return env_rng, policy_rng, ledger.spent, flat, offset


def _play_blocks(policy, policy_rng, uniforms, flat, offset, gaps, pending, stops, stamps):
    """The round loop of :func:`run_episode` for a policy that commits its arms ahead.

    ``policy.commit(rng)`` returns the (non-empty) arms the policy will play
    next whatever their rewards; ``policy.observe(arms, rewards)`` records a
    played prefix of them. A block is what one commit returns, cut short
    only at a stamp (``stops``) or the horizon. Its rewards are one
    comparison of the env uniforms against each round's means, and its
    regret one sequential ``np.add.accumulate`` seeded with the running
    total, so the checkpoints ``pending`` read from inside it are the doubles
    the per-round loop sums.
    """
    commit, observe = policy.commit, policy.observe
    gaps = np.asarray(gaps)
    cp = 0
    curve = []
    cum_regret = 0.0
    t = 0
    for stop in stops:
        while t < stop:
            arms = commit(policy_rng)
            end = min(t + len(arms), stop)
            arms = arms[: end - t]
            rewards = uniforms[t:end] < flat[offset[t:end] + arms]
            observe(arms, rewards)
            regret = np.empty(end - t + 1)
            regret[0] = cum_regret
            np.take(gaps, arms, out=regret[1:])
            np.add.accumulate(regret, out=regret)
            while cp < len(pending) and pending[cp] <= end:
                curve.append((pending[cp], float(regret[pending[cp] - t])))
                cp += 1
            cum_regret = float(regret[-1])
            t = end
        if stamps is not None and stop in stamps:
            stamps[stop] = time.perf_counter()
    return curve


def run_lockstep(
    policies: list,
    instances: list[BanditInstance],
    plan: CorruptionPlan,
    horizon: int,
    seeds: list[int],
    *,
    checkpoints: list[int] | None = None,
    per_step_cost: float | None = None,
) -> list[Trace]:
    """Play several episodes together, round by round; trace r is what
    ``run_episode(policies[r], instances[r], plan, horizon, seeds[r])`` returns.

    The policies are of one type whose ``lockstep`` kernel (samba,
    tsallis_inf) advances all of them a round at a time as (K, R) numpy
    arrays, one column per replication, bit-identical to each one's own
    ``pick``/``update`` (see :class:`~banditlab.samba.SambaLockstep`); at the
    end the kernel writes each column's state back into its policy. The
    instances must share an arm count. Each replication draws its env and
    policy uniforms from its own streams in windows of at most
    ``_LOCKSTEP_WINDOW`` rounds (chunked draws equal one-shot draws), and
    reads each round's means from its own :func:`_episode_setup` table,
    through a window of offsets into all the tables concatenated, so no
    (R, T) array is allocated.
    Regret is summed per replication in round order, as the per-round loop
    sums it.
    """
    batch = type(policies[0]).lockstep(policies)
    n, k = len(policies), instances[0].k
    # Every replication's means table, concatenated; per replication, the
    # start of its table, its corrupted rounds in order and their offsets.
    env_rngs, policy_rngs, spends, flats, tables = [], [], [], [], []
    start = 0
    for inst, seed in zip(instances, seeds):
        env_rng, policy_rng, spent, flat, offset = _episode_setup(
            inst, plan, horizon, seed, per_step_cost
        )
        rounds = np.flatnonzero(offset)
        tables.append((start, rounds, offset[rounds] + start))
        env_rngs.append(env_rng)
        policy_rngs.append(policy_rng)
        spends.append(spent)
        flats.append(flat)
        start += flat.size
    flat_means = np.concatenate(flats)
    flat_gaps = np.array([inst.gaps for inst in instances]).ravel()
    offsets = np.arange(n) * k

    if checkpoints is None:
        checkpoints = checkpoint_grid(horizon)
    cps = set(checkpoints)
    pick, update = batch.pick, batch.update
    env = np.empty((n, _LOCKSTEP_WINDOW))
    draws = np.empty((n, _LOCKSTEP_WINDOW))
    window = np.empty((n, _LOCKSTEP_WINDOW), dtype=np.intp)
    cum_regret = np.zeros(n)
    curve = []
    for t0 in range(0, horizon, _LOCKSTEP_WINDOW):
        w = min(_LOCKSTEP_WINDOW, horizon - t0)
        for r in range(n):
            env_rngs[r].random(out=env[r, :w])
            policy_rngs[r].random(out=draws[r, :w])
            clean, rounds, at = tables[r]
            lo, hi = rounds.searchsorted((t0, t0 + w))
            window[r, :w] = clean
            window[r, rounds[lo:hi] - t0] = at[lo:hi]
        env_t, draws_t, offset_t = (a[:, :w].T.copy() for a in (env, draws, window))
        for j in range(w):
            arms = pick(draws_t[j])
            update(arms, env_t[j] < flat_means[offset_t[j] + arms])
            cum_regret += flat_gaps[offsets + arms]
            if t0 + j + 1 in cps:
                curve.append((t0 + j + 1, cum_regret.tolist()))
    batch.store()
    return [
        Trace(checkpoints=[(t, regrets[r]) for t, regrets in curve], realized_spend=spent)
        for r, spent in enumerate(spends)
    ]


@dataclass
class CellResult:
    algorithm: str
    scheme: str
    budget: float
    k: int
    mean_regret: float
    sd_regret: float
    replications: int
    base_seed: int
    curve: list[tuple[int, float, float]] = field(default_factory=list)
    mean_spent: float = 0.0
    max_spent: float = 0.0
    clamp_events: int = 0


@dataclass
class AggregateStats:
    cells: list[CellResult] = field(default_factory=list)


def _cell_task(args):
    """Per-replication results of some of a cell's episodes, in replication order."""
    (inst_spec, plan_spec, algo_spec, horizon, seeds, checkpoints, lockstep) = args
    plan = plan_spec.bind(horizon)
    instances = [inst_spec.resolve(seed) for seed in seeds]
    policies = [
        make_policy(
            algo_spec.algorithm,
            instance.k,
            algo_spec.param_dict(),
            c_known=plan.budget,
            horizon=horizon,
        )
        for instance in instances
    ]
    kw = dict(checkpoints=checkpoints, per_step_cost=plan_spec.per_step_cost)
    if lockstep:
        traces = run_lockstep(policies, instances, plan, horizon, seeds, **kw)
    else:
        traces = [
            run_episode(policy, instance, plan, horizon, seed, **kw)
            for policy, instance, seed in zip(policies, instances, seeds)
        ]
    return [
        (
            trace.checkpoints[-1][1],
            tuple(r for _, r in trace.checkpoints),
            trace.spent(),
            policy.state.clamp_events if isinstance(policy, SambaPolicy) else 0,
        )
        for policy, trace in zip(policies, traces)
    ]


def _run_forked(tasks: list, order: list[int], workers: int) -> list:
    """``[_cell_task(t) for t in tasks]`` on ``min(workers, len(tasks))`` forked workers.

    Workers inherit ``tasks`` through the fork, so no argument is pickled.
    Each reads task indexes from its own pipe and writes one pickled
    ``(index, rows, error)`` per task to its own result pipe; the parent
    hands the next index of ``order`` to whichever worker just replied. A
    worker keeps only its own two pipe ends, so it sees end of file on its
    task pipe, and exits, once the parent has closed that pipe or died. On
    any error or interrupt the parent kills and reaps every worker, then
    raises: a task's exception with its own type, or a RuntimeError naming a
    worker that died without replying. No worker outlives the call.
    """
    # numpy loads numpy.random lazily, on the first stream. Loading it here,
    # once, spares each worker that import: 17-21 ms per worker on a 2-vCPU
    # x86_64 host, against about 0.12 s for a whole grid_phased_corrupt run.
    # It adds 2.1 MB to the parent's resident set; not importing
    # concurrent.futures saves 1.7 MB of that.
    import numpy.random  # noqa: F401

    done = [None] * len(tasks)
    pipes = {}  # pid -> [task pipe write end, result pipe read end]; -1 once closed
    running = {}  # pid -> index of the task it is running
    pending = iter(order)

    def send(pid, index):
        running[pid] = index
        os.write(pipes[pid][0], b"%d\n" % index)

    failed = True
    try:
        for _ in range(min(workers, len(tasks))):
            task_r, task_w = os.pipe()
            result_r, result_w = os.pipe()
            pid = os.fork()
            if pid:
                pipes[pid] = [task_w, result_r]
            else:
                code = 1
                try:
                    for fd in (task_w, result_r, *(fd for ends in pipes.values() for fd in ends)):
                        os.close(fd)
                    _serve(tasks, task_r, result_w)
                    code = 0
                finally:
                    os._exit(code)
            os.close(task_r)
            os.close(result_w)
            send(pid, next(pending))
        with selectors.DefaultSelector() as sel:
            for pid, (_, result_r) in pipes.items():
                replies = os.fdopen(result_r, "rb", closefd=False)
                sel.register(result_r, selectors.EVENT_READ, (pid, replies))
            while sel.get_map():
                for key, _ in sel.select():
                    pid, replies = key.data
                    try:
                        index, rows, error = pickle.load(replies)
                    except (EOFError, pickle.UnpicklingError):  # a reply cut short
                        raise RuntimeError(
                            f"worker process {pid} exited during task {running[pid]} "
                            "without returning it"
                        ) from None
                    if error is not None:
                        exc, trace = error
                        raise exc from RuntimeError(f"in worker process {pid}:\n{trace}")
                    done[index] = rows
                    index = next(pending, None)
                    if index is not None:
                        send(pid, index)
                    else:  # end of file on its task pipe: the worker exits
                        sel.unregister(key.fileobj)
                        os.close(pipes[pid][0])
                        pipes[pid][0] = -1
        failed = False
    finally:
        for pid, ends in pipes.items():
            for fd in ends:
                if fd >= 0:
                    os.close(fd)
            if failed:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return done


def _serve(tasks: list, task_fd: int, result_fd: int) -> None:
    """A forked worker's loop: run each task index read from ``task_fd``,
    until end of file, and write its pickled reply to ``result_fd``."""
    with os.fdopen(task_fd, "rb") as inbox, os.fdopen(result_fd, "wb") as outbox:
        for line in inbox:
            index = int(line)
            try:
                reply = pickle.dumps((index, _cell_task(tasks[index]), None))
            except Exception as exc:  # noqa: BLE001 - raised again in the parent
                trace = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
                try:
                    reply = pickle.dumps((index, None, (exc, trace)))
                    pickle.loads(reply)
                except Exception:  # noqa: BLE001 - an exception pickle cannot carry
                    stand_in = RuntimeError(f"{type(exc).__name__}: {exc}")
                    reply = pickle.dumps((index, None, (stand_in, trace)))
            outbox.write(reply)
            outbox.flush()


def episode_seeds(config: ExperimentConfig, cell_idx: int) -> list[int]:
    """The seeds of one cell's episodes, in replication order."""
    reps = config.replications
    return [split_seed(config.master_seed, cell_idx * reps + i) for i in range(reps)]


def resolve_threads(threads: int | None = None) -> int:
    """Worker count: ``threads``, else ``BANDITLAB_THREADS``, else all cores.

    Raises ValueError unless ``threads``, if given, is a positive integer, or
    unless a set ``BANDITLAB_THREADS`` is one (the message names the variable).
    """
    if threads is not None:
        if threads < 1:
            raise ValueError(f"threads must be a positive integer, got {threads!r}")
        return int(threads)
    env = os.environ.get("BANDITLAB_THREADS")
    if not env:
        return os.cpu_count() or 1
    try:
        count = int(env)
    except ValueError:
        count = 0
    if count < 1:
        raise ValueError(f"BANDITLAB_THREADS must be a positive integer, got {env!r}")
    return count


def run_batch(config: ExperimentConfig, *, threads: int | None = None) -> AggregateStats:
    """Run every cell of the grid; deterministic for a fixed config and seed.

    Replications may execute in parallel worker processes; reduction is by
    replication index, so thread count never changes the numbers.
    """
    n_threads = resolve_threads(threads)
    reps = config.replications
    checkpoints = checkpoint_grid(config.horizon)
    tasks = []
    for cell_idx, inst, plan, algo in config.cells():
        seeds = episode_seeds(config, cell_idx)
        if reps >= LOCKSTEP_MIN_REPLICATIONS and hasattr(
            make_policy(algo.algorithm, inst.arms, algo.param_dict()), "lockstep"
        ):
            tasks.append((inst, plan, algo, config.horizon, seeds, checkpoints, True))
        else:
            for i in range(0, reps, _EPISODES_PER_TASK):
                chunk = seeds[i : i + _EPISODES_PER_TASK]
                tasks.append((inst, plan, algo, config.horizon, chunk, checkpoints, False))

    if n_threads > 1 and len(tasks) > 1 and hasattr(os, "fork"):
        # Lockstep cells are the longest tasks, so the workers start them first.
        order = sorted(range(len(tasks)), key=lambda i: not tasks[i][-1])
        done = _run_forked(tasks, order, n_threads)
    else:
        done = [_cell_task(t) for t in tasks]
    results = [row for rows in done for row in rows]

    stats = AggregateStats()
    pos = 0
    for cell_idx, inst, plan, algo in config.cells():
        rows = results[pos : pos + reps]
        pos += reps
        finals = np.array([r[0] for r in rows])
        curves = np.array([r[1] for r in rows])
        spents = np.array([r[2] for r in rows])
        clamps = sum(r[3] for r in rows)
        sd = float(finals.std(ddof=1)) if reps > 1 else 0.0
        curve_sd = curves.std(axis=0, ddof=1) if reps > 1 else np.zeros(curves.shape[1])
        curve = [
            (t, float(m), float(s))
            for t, m, s in zip(checkpoints, curves.mean(axis=0), curve_sd)
        ]
        stats.cells.append(
            CellResult(
                algorithm=algo.name,
                scheme=plan.scheme,
                budget=plan.budget,
                k=inst.arms,
                mean_regret=float(finals.mean()),
                sd_regret=sd,
                replications=reps,
                base_seed=episode_seeds(config, cell_idx)[0],
                curve=curve,
                mean_spent=float(spents.mean()),
                max_spent=float(spents.max()),
                clamp_events=clamps,
            )
        )
    return stats


@dataclass
class BenchRow:
    algorithm: str
    mean_s: float
    sd_s: float
    step_ratio: float


def bench_runtime(
    algorithms: tuple[AlgorithmSpec, ...],
    instance_spec: InstanceSpec,
    horizon: int,
    *,
    reps: int = 5,
    master_seed: int = 0,
) -> list[BenchRow]:
    """Wall-clock seconds per clean episode (warm-up excluded) plus early/late step ratio.

    The step ratio is the per-round time of the late window (the last 10000
    rounds, or a tenth of a shorter horizon) over that of the early window
    (the first 1000 rounds, or a tenth), summed over the timed episodes.
    """
    early_n = min(1000, max(1, horizon // 10))
    late_n = min(10_000, max(1, horizon // 10))
    late_start = horizon - late_n
    rows = []
    for a_idx, algo in enumerate(algorithms):
        times = []
        early = late = 0.0
        for i in range(reps + 1):
            seed = split_seed(master_seed, a_idx * (reps + 2) + i)
            instance = instance_spec.resolve(seed)
            plan = PlanSpec().bind(horizon)
            policy = make_policy(
                algo.algorithm,
                instance.k,
                algo.param_dict(),
                c_known=plan.budget,
                horizon=horizon,
            )
            stamps = dict.fromkeys((0, early_n, late_start, horizon), 0.0)
            t0 = time.perf_counter()
            run_episode(policy, instance, plan, horizon, seed, stamps=stamps)
            dt = time.perf_counter() - t0
            if i > 0:  # first episode is warm-up
                times.append(dt)
                early += stamps[early_n] - stamps[0]
                late += stamps[horizon] - stamps[late_start]
        arr = np.array(times)
        rows.append(
            BenchRow(
                algorithm=algo.name,
                mean_s=float(arr.mean()),
                sd_s=float(arr.std(ddof=1)) if len(times) > 1 else 0.0,
                step_ratio=(late / late_n) / (early / early_n),
            )
        )
    return rows
