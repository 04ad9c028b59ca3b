"""The traced run: per-layer numbers for the modules core, samba, adversary,
baselines, engine, verify and cli, measured from outside through their
public entry points.

Which end-to-end metric each layer metric should move:

- ``samba.*``: ``episode_rounds_per_s`` on grid_gradient and ``wall_s`` on
  verify_fast; grid_phased_corrupt should not move.
- ``tsallis_inf.*``, ``fs_aae.*``: grid_gradient. ``barbar.*``,
  ``cbarbar.*``: grid_phased_corrupt.
- ``engine.*``: ``episode_rounds_per_s`` on both grids, most on
  grid_phased_corrupt, and ``peak_rss_mb``. ``core`` has no per-round
  public entry point (the engine inlines reward draws), so its cost sits
  inside ``engine.null_round_us``.
- ``adversary.*``: grid_phased_corrupt; grid_gradient almost not at all.
- ``verify.*``: ``wall_s`` on verify_fast only (a workload run by hand,
  not listed in BENCHMARK.json; see ``workloads.py``).
- ``cli.*``: ``wall_s`` on the grids, by a small amount.

The policy, verify and tracing-overhead profiles are the same in every
workload. The engine, adversary and cli numbers come from the workload's own
engine grid (for verify_fast, the clean samba grid of its log-fit stage).
verify_fast drives no adversary, so its adversary numbers replay the plans
of grid_phased_corrupt at the same seed.
"""

from __future__ import annotations

import os
import statistics
from itertools import zip_longest

import numpy as np
from banditlab import (
    CorruptionPlan,
    InstanceSpec,
    SuiteSizes,
    apply_corruption,
    check_drift_leader,
    check_drift_nonleader,
    check_qhat_decay,
    check_recovery_time,
    compare_log_vs_logsq,
    exact_regret_oracle,
    fit_log_regret,
    make_instance,
    make_ledger,
    make_policy,
    make_stream,
    mc_regret,
    run_batch,
    run_episode,
    samba_batch_step,
    split_seed,
)
from banditlab.cli import write_curves_csv, write_results_csv
from banditlab.verify import prep_nonleader

import workloads as wl
from tracing import NullPolicy, TimedPolicy, Tracer

PROFILE_HORIZON = 50_000
LATE_EARLY_WINDOW = PROFILE_HORIZON // 10
BATCH_STEP_ROUNDS = {100: 2_000, 1000: 400}
MC_ONE_STEP_SAMPLES = 100_000
OVERHEAD_REPEATS = 3

# (algorithm, params, K); K = 9 runs on the full-grid means, others on
# uniform-random means drawn from the seed.
POLICY_CASES = [
    ("samba", {"alpha": 0.05}, 6),
    ("samba", {"alpha": 0.05}, 20),
    ("tsallis_inf", {}, 6),
    ("tsallis_inf", {}, 20),
    ("fs_aae", {}, 6),
    ("fs_aae", {}, 20),
    ("barbar", {}, 9),
    ("cbarbar", {}, 9),
]


def _us(seconds: float, n: int) -> float:
    return 1e6 * seconds / n


def _instance(k: int, seed: int):
    if k == 9:
        return make_instance(wl.FULL_GRID_MEANS)
    return InstanceSpec(k=k).resolve(split_seed(seed, k))


def policy_profile(seed: int, tracer: Tracer) -> tuple[dict, dict]:
    """select/update cost per call of every policy, from one clean wrapped episode each."""
    metrics: dict[str, tuple[float, str]] = {}
    clamp_events = 0
    plan = CorruptionPlan(scheme="none", budget=0.0, horizon=PROFILE_HORIZON)
    for algo, params, k in POLICY_CASES:
        instance = _instance(k, seed)
        policy = make_policy(algo, k, params, horizon=PROFILE_HORIZON)
        timed = TimedPolicy(policy, PROFILE_HORIZON)
        with tracer.span("engine.run_episode", policy=algo, k=k, wrapped=True):
            run_episode(timed, instance, plan, PROFILE_HORIZON, split_seed(seed, 100 + k))
        n = PROFILE_HORIZON
        suffix = f"k{k}"
        metrics[f"{algo}.select_us.{suffix}"] = (_us(timed.select_s, n), "us")
        if algo == "samba":
            metrics[f"samba.update_rewarded_us.{suffix}"] = (
                _us(timed.rewarded_s, timed.rewarded), "us")
            metrics[f"samba.update_unrewarded_us.{suffix}"] = (
                _us(timed.unrewarded_s, n - timed.rewarded), "us")
            clamp_events += policy.state.clamp_events
        else:
            metrics[f"{algo}.update_us.{suffix}"] = (
                _us(timed.rewarded_s + timed.unrewarded_s, n), "us")
        if algo in ("samba", "tsallis_inf") and k == 6:
            metrics[f"{algo}.late_early_ratio"] = (timed.late_early_ratio(LATE_EARLY_WINDOW), "ratio")
        if algo == "barbar":
            metrics["barbar.phases"] = (policy.phase_index, "count")
    metrics["samba.clamp_events"] = (clamp_events, "count")

    # Tracing overhead: the same samba episode, plain and wrapped, alternated.
    k = 6
    instance = _instance(k, seed)
    ep_seed = split_seed(seed, 100 + k)
    per_round: dict[bool, list[float]] = {False: [], True: []}
    for _ in range(OVERHEAD_REPEATS):
        for wrapped in (False, True):
            policy = make_policy("samba", k, {"alpha": 0.05})
            if wrapped:
                policy = TimedPolicy(policy, PROFILE_HORIZON)
            with tracer.span("engine.run_episode", policy="samba", k=k, wrapped=wrapped) as sp:
                run_episode(policy, instance, plan, PROFILE_HORIZON, ep_seed)
            per_round[wrapped].append(_us(tracer.duration(sp), PROFILE_HORIZON))
    plain, wrapped = (statistics.median(per_round[w]) for w in (False, True))
    metrics["trace.overhead_us_per_round"] = (wrapped - plain, "us")
    return metrics, {"overhead_plain_us": plain, "overhead_wrapped_us": wrapped}


def _cells(cfg: dict, seed: int):
    """Distinct (instance, plan spec) pairs of a grid config, one instance per arm count."""
    exp = wl.experiment_from(cfg)
    for i, inst in enumerate(exp.instances):
        instance = inst.resolve(split_seed(seed, 200 + i))
        for plan_spec in exp.plans:
            yield instance, plan_spec


def engine_null_profile(cfg: dict, seed: int, tracer: Tracer) -> tuple[dict, dict]:
    """run_episode with a no-op policy over the grid's instances and plans."""
    horizon = cfg["horizon"]
    total = 0.0
    rounds = 0
    trace_bytes = 0
    for i, (instance, plan_spec) in enumerate(_cells(cfg, seed)):
        with tracer.span("engine.run_episode", policy="null", k=instance.k, scheme=plan_spec.scheme) as sp:
            trace = run_episode(
                NullPolicy(), instance, plan_spec.bind(horizon), horizon,
                split_seed(seed, 300 + i), per_step_cost=plan_spec.per_step_cost,
            )
        total += tracer.duration(sp)
        rounds += horizon
        # Per-round arrays the episode allocates; computed from their sizes.
        trace_bytes = sum(
            getattr(trace, name).nbytes for name in ("arms", "rewards", "costs") if hasattr(trace, name)
        )
    return {
        "engine.null_round_us": (_us(total, rounds), "us"),
        "engine.trace_bytes_per_episode": (trace_bytes, "B-computed"),
    }, {}


def adversary_profile(cfg: dict, seed: int, tracer: Tracer) -> tuple[dict, dict]:
    """Replay make_ledger and apply_corruption over every round of the grid's plans.

    Clean and corrupted rounds are timed as separate loops, each in round
    order on its own ledger, so no per-call timer cost is included.
    """
    horizon = cfg["horizon"]
    schedule_s = clean_s = corrupt_s = 0.0
    plans = clean = corrupted = 0
    spent_ok = True
    for i, (instance, plan_spec) in enumerate(_cells(cfg, seed)):
        plan = plan_spec.bind(horizon)

        def ledger():
            rng = make_stream(split_seed(seed, 400 + i))
            return make_ledger(instance, plan, plan_spec.per_step_cost, rng)

        with tracer.span("adversary.make_ledger", scheme=plan.scheme) as sp:
            led = ledger()
        schedule_s += tracer.duration(sp)
        scheduled = set(led.schedule)
        clean_rounds = [t for t in range(horizon) if t not in scheduled]
        with tracer.span("adversary.apply_corruption", path="clean", calls=len(clean_rounds)) as sp:
            for t in clean_rounds:
                apply_corruption(instance, led, t)
        clean_s += tracer.duration(sp)
        led = ledger()
        with tracer.span("adversary.apply_corruption", path="corrupt", calls=len(led.schedule)) as sp:
            for t in led.schedule:
                apply_corruption(instance, led, t)
        corrupt_s += tracer.duration(sp)
        spent_ok &= abs(led.spent - plan.budget) <= 1e-9 * max(1.0, plan.budget)
        plans += 1
        clean += len(clean_rounds)
        corrupted += len(led.schedule)
    metrics = {
        "adversary.clean_call_us": (_us(clean_s, clean), "us"),
        "adversary.corrupt_call_us": (_us(corrupt_s, corrupted) if corrupted else 0.0, "us"),
        "adversary.corrupted_round_share": (corrupted / (clean + corrupted), "share"),
        "adversary.schedule_ms": (1e3 * schedule_s / plans, "ms"),
    }
    return metrics, {"adversary_spent_equals_budget": spent_ok}


def verify_profile(seed: int, tracer: Tracer) -> tuple[dict, dict]:
    """Each stage of ``verify --fast`` called directly, with the suite's own seeds."""

    def rng(offset: int) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=seed + offset))

    sizes = SuiteSizes.fast()
    instance = make_instance(wl.FULL_GRID_MEANS)
    alpha = wl.VERIFY_ALPHA
    cost = instance.min_gap / 8.0
    passed = {}
    drift_s = 0.0
    cases = [
        ("drift_nonleader_clean", check_drift_nonleader, 0.0),
        ("drift_nonleader_corrupted", check_drift_nonleader, cost),
        ("drift_leader_clean", check_drift_leader, 0.0),
        ("drift_leader_corrupted", check_drift_leader, cost),
    ]
    for i, (name, fn, c) in enumerate(cases):
        with tracer.span(f"verify.{fn.__name__}", check=name) as sp:
            passed[name] = fn(instance, alpha, cost=c, samples=sizes.drift_samples, rng=rng(i)).passed
        drift_s += tracer.duration(sp)

    with tracer.span("verify.check_recovery_time") as sp:
        passed["recovery"] = check_recovery_time(
            instance, alpha, instance.optimal_mean,
            reps=sizes.recovery_reps, t0=sizes.recovery_t0, rng=rng(11),
        ).passed
    recovery_s = tracer.duration(sp)

    with tracer.span("verify.check_qhat_decay") as sp:
        passed["decay"] = check_qhat_decay(
            instance, alpha, horizon=sizes.decay_horizon, reps=sizes.decay_reps,
            s_grid=sizes.decay_grid, rng=rng(12),
        ).passed
    decay_s = tracer.duration(sp)

    with tracer.span("verify.oracle_mc") as sp:
        small = make_instance((0.9, 0.5))
        exact = exact_regret_oracle(small, 0.1, 8)
        mc_mean, mc_ci = mc_regret(small, 0.1, 8, sizes.mc_episodes, rng(13))
        passed["oracle_mc"] = abs(mc_mean - exact) <= mc_ci
    oracle_s = tracer.duration(sp)

    with tracer.span("verify.log_fit") as sp:
        with tracer.span("engine.run_batch", threads=wl.THREADS):
            stats = run_batch(wl.experiment_from(wl.verify_fit_config(seed)), threads=wl.THREADS)
        tail = [(t, m) for t, m, _ in stats.cells[0].curve if t >= 1000]
        fit = fit_log_regret(tail)
        rss_log, rss_sq = compare_log_vs_logsq(tail)
        cap = instance.k / (alpha * instance.min_gap)
        passed["log_fit"] = 0.0 < fit.slope <= cap and rss_log < rss_sq
    log_fit_s = tracer.duration(sp)

    metrics = {
        "verify.drift_s": (drift_s, "s"),
        "verify.recovery_s": (recovery_s, "s"),
        "verify.decay_s": (decay_s, "s"),
        "verify.oracle_mc_s": (oracle_s, "s"),
        "verify.log_fit_batch_s": (log_fit_s, "s"),
    }

    means = np.asarray(instance.means)
    for rows, rounds in BATCH_STEP_ROUNDS.items():
        g = rng(20)
        P = np.full((rows, instance.k), 1.0 / instance.k)
        with tracer.span("verify.samba_batch_step", rows=rows, rounds=rounds) as sp:
            for _ in range(rounds):
                samba_batch_step(P, alpha, means, g.random(rows), g.random(rows))
        metrics[f"verify.batch_step_row_us.r{rows}"] = (_us(tracer.duration(sp), rows * rounds), "us")

    # One-step Monte Carlo on a prepared state: the drift checks' inner loop.
    state = prep_nonleader(instance, alpha, rng(0))
    with tracer.span("verify.check_drift_nonleader", samples=MC_ONE_STEP_SAMPLES, prepared=True) as sp:
        check_drift_nonleader(
            instance, alpha, samples=MC_ONE_STEP_SAMPLES, rng=rng(30),
            state_prep=lambda _rng: state.copy(),
        )
    metrics["verify.mc_one_step_sample_us"] = (_us(tracer.duration(sp), MC_ONE_STEP_SAMPLES), "us")
    return metrics, {"verify_checks_passed": passed}


def engine_pair(cfg: dict, work_dir: str, tracer: Tracer) -> tuple[dict, dict, int, int, bool]:
    """The workload's engine grid at 2 and at 1 workers, written with the CLI writers.

    An operation is one cell run at both worker counts. It fails when
    either run's output for the cell fails its checks, or when the cell's
    results row or curve differs by a byte between the two: output must not
    depend on the worker count. Returns metrics, info, attempted, failed,
    correct.
    """
    exp = wl.experiment_from(cfg)
    wall = {}
    write_s = []
    outs = {}
    failed_cells: set[int] = set()
    info = {}
    for threads in (wl.THREADS, 1):
        out = outs[threads] = os.path.join(work_dir, f"pair-{threads}")
        os.makedirs(out)
        with tracer.span("engine.run_batch", threads=threads) as sp:
            stats = run_batch(exp, threads=threads)
        wall[threads] = tracer.duration(sp)
        with tracer.span("cli.write_csv", threads=threads) as sp:
            write_results_csv(os.path.join(out, "results.csv"), stats)
            write_curves_csv(os.path.join(out, "curves.csv"), stats)
        write_s.append(tracer.duration(sp))
        ok, problems = wl.check_grid(cfg, out)
        failed_cells.update(i for i, good in enumerate(ok) if not good)
        info[f"threads_{threads}"] = {"sha256": wl.digests(out), "problems": problems[:10]}
    pairs = zip_longest(wl.cell_rows(outs[1]), wl.cell_rows(outs[wl.THREADS]))
    differing = [i for i, (a, b) in enumerate(pairs) if a != b]
    info["cells_differing_by_threads"] = differing
    info["run_batch_wall_s"] = {str(k): v for k, v in wall.items()}
    correct = not differing and not any(info[f"threads_{t}"]["problems"] for t in wall)
    metrics = {
        "engine.pool_speedup": (wall[1] / wall[wl.THREADS], "ratio"),
        "cli.write_ms": (1e3 * statistics.median(write_s), "ms"),
        "cli.results_bytes": (os.path.getsize(os.path.join(outs[wl.THREADS], "results.csv")), "B"),
        "cli.curves_bytes": (os.path.getsize(os.path.join(outs[wl.THREADS], "curves.csv")), "B"),
    }
    attempted = len(wl.expected_cells(cfg))
    return metrics, info, attempted, len(failed_cells | set(differing)), correct


def traced_run(workload: wl.Workload, seed: int, work_dir: str, tracer: Tracer):
    """Every per-layer metric for one workload; returns metrics, info, attempted, failed, correct."""
    cfg = workload.batch_config(seed)
    adversary_cfg = cfg if "corruption" in cfg else wl.grid_phased_corrupt_config(seed)
    with tracer.span("bench.engine_pair", workload=workload.name):
        metrics, info, attempted, failed, correct = engine_pair(cfg, work_dir, tracer)
    for name, fn in (
        ("bench.engine_null", lambda: engine_null_profile(cfg, seed, tracer)),
        ("bench.adversary", lambda: adversary_profile(adversary_cfg, seed, tracer)),
        ("bench.policies", lambda: policy_profile(seed, tracer)),
        ("bench.verify", lambda: verify_profile(seed, tracer)),
    ):
        with tracer.span(name):
            m, i = fn()
        metrics.update(m)
        info.update(i)
    return metrics, info, attempted, failed, correct
