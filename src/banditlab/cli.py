"""Command-line front end.

Subcommands: ``run`` (an experiment grid over arm counts, corruption plans
and algorithms; ``sweep`` is another name for it), ``verify`` (analysis
property suite), ``bench`` (wall-clock table). Each command takes only the
flags and top-level config keys it reads. A corruption grid has at most one
clean plan, ``none``/0, ahead of its corrupted ones. All outputs are
deterministic functions of the config and master seed: floats are serialized
with 17 significant digits independent of locale, rows in fixed
cell/replication order, and the manifest records a hash of the canonicalized
config so re-runs can be matched to their inputs.

Exit codes: 0 success, 1 a verification check failed or could not be set
up, 2 config error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import sys
import time

import numpy

from . import __version__
from .adversary import SCHEMES, STRATEGIES, BudgetExceedsHorizonCapacity, default_per_step_cost
from .baselines import ALGORITHMS, make_policy
from .core import MAX_ARMS, BanditLabError, make_instance
from .engine import (
    GENERATOR_NAME,
    AggregateStats,
    AlgorithmSpec,
    BenchRow,
    ExperimentConfig,
    InstanceSpec,
    PlanSpec,
    bench_runtime,
    episode_seeds,
    resolve_threads,
    run_batch,
)
from .samba import SambaLockstep
from .verify import SuiteSizes, TamperedLockstep, run_verification_suite

RESULTS_COLUMNS = "algorithm,scheme,corruption_level,K,mean_regret,sd_regret,replications,seed"
CURVES_COLUMNS = "algorithm,scheme,corruption_level,t,mean_regret,sd_regret"
BENCH_COLUMNS = "algorithm,mean_s,sd_s,step_ratio"
# The top-level keys each command reads; any other key is an error.
RUN_KEYS = {
    "schema_version", "horizon", "replications", "master_seed", "instance", "algorithms", "corruption",
}
BENCH_KEYS = {"schema_version", "horizon", "replications", "master_seed", "instance", "algorithms"}
VERIFY_KEYS = {"schema_version", "master_seed", "instance", "alpha"}
COMMAND_KEYS = {"run": RUN_KEYS, "sweep": RUN_KEYS, "bench": BENCH_KEYS, "verify": VERIFY_KEYS}
INSTANCE_KEYS = {"means", "k"}
CORRUPTION_KEYS = {"schemes", "budgets", "strategy", "per_step_cost"}
ALGORITHM_KEYS = {"algorithm", "params", "label"}
# The instance bench and verify use when the config gives none.
DEFAULT_MEANS = tuple(i / 10 for i in range(1, 10))


class ConfigError(Exception):
    """Anything wrong with the config file or flags (exit code 2)."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _load_json(path: str, command: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:  # missing, a directory, unreadable
        raise ConfigError(f"cannot read config file: {exc}")
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ConfigError(f"config is not valid UTF-8 JSON: {exc}")
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    version = data.get("schema_version")
    if not (_is_int(version) and version == 1):
        raise ConfigError(f"unsupported schema_version {version!r}, expected 1")
    _check_keys(data, COMMAND_KEYS[command], f"a {command!r} config")
    return data


def _check_keys(raw: dict, allowed: set[str], where: str) -> None:
    unknown = [key for key in raw if key not in allowed]
    if unknown:
        raise ConfigError(f"unknown key(s) {', '.join(map(repr, unknown))} in {where}")


def _is_int(value) -> bool:
    """A JSON integer; ``true``/``false`` load as Python ints but are not counts."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """A finite JSON number (json.load accepts NaN and Infinity) within float range."""
    try:
        return (_is_int(value) or isinstance(value, float)) and math.isfinite(value)
    except OverflowError:  # an integer literal beyond float range
        return False


def _count(cfg: dict, key: str, default: int | None = None) -> int:
    value = cfg.get(key, default)
    if not _is_int(value) or value < 1:
        raise ConfigError(f"{key!r} must be a positive integer")
    return value


def _master_seed(cfg: dict, args, default: int) -> int:
    seed = args.seed if args.seed is not None else cfg.get("master_seed", default)
    if not _is_int(seed) or not 0 <= seed < 2**64:
        raise ConfigError("'master_seed' must be an unsigned 64-bit integer")
    return seed


def _threads(requested: int | None) -> int:
    """Worker count: ``--threads``, else ``BANDITLAB_THREADS``, else all cores."""
    try:
        return resolve_threads(requested)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _as_list(value) -> list:
    return value if isinstance(value, list) else [value]


def _parse_instances(cfg: dict) -> tuple[InstanceSpec, ...]:
    raw = cfg.get("instance")
    if not isinstance(raw, dict):
        raise ConfigError("config needs an 'instance' object")
    _check_keys(raw, INSTANCE_KEYS, "'instance'")
    if "means" in raw and raw["means"] != "uniform":
        means = raw["means"]
        if not isinstance(means, list) or len(means) < 2 or not all(map(_is_finite, means)):
            raise ConfigError("'instance.means' must be a list of at least two finite numbers")
        if "k" in raw:
            raise ConfigError("'instance.k' goes only with means='uniform'")
        try:
            make_instance(means)
        except BanditLabError as exc:
            raise ConfigError(f"bad instance means: {exc}")
        return (InstanceSpec(means=tuple(float(m) for m in means)),)
    if raw.get("means") == "uniform":
        ks = _as_list(raw.get("k"))
        if not ks:
            raise ConfigError("'instance.k' must list at least one arm count")
        specs = []
        for k in ks:
            if not _is_int(k) or not 2 <= k <= MAX_ARMS:
                raise ConfigError(f"arm count must be an integer in [2, {MAX_ARMS}], got {k!r}")
            specs.append(InstanceSpec(k=k))
        return tuple(specs)
    raise ConfigError("'instance' must give explicit 'means' or k with means='uniform'")


def _parse_plans(cfg: dict) -> tuple[PlanSpec, ...]:
    """The clean plan ``none``/0 first, then the other schemes x the other budgets.

    Scheme ``none`` or budget 0 asks for the clean plan. An entry that makes no cell is an error.
    """
    raw = cfg.get("corruption")
    if raw is None:
        return (PlanSpec(),)
    if not isinstance(raw, dict):
        raise ConfigError("'corruption' must be an object")
    _check_keys(raw, CORRUPTION_KEYS, "'corruption'")
    schemes, budgets = raw.get("schemes"), raw.get("budgets")
    if not (isinstance(schemes, list) and schemes and isinstance(budgets, list) and budgets):
        raise ConfigError("'corruption' needs non-empty 'schemes' and 'budgets' lists")
    for scheme in schemes:
        if scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")
    for budget in budgets:
        if not _is_finite(budget) or budget < 0:
            raise ConfigError(f"budget must be a finite number >= 0, got {budget!r}")
    attacks = [s for s in schemes if s != "none"]
    levels = [float(b) for b in budgets if b > 0]
    if levels and not attacks:
        raise ConfigError(f"budget {levels[0]!r} has no scheme but 'none' to play it")
    if attacks and not levels:
        raise ConfigError(f"scheme {attacks[0]!r} has no budget above 0 to play")
    if not attacks and ("strategy" in raw or "per_step_cost" in raw):
        raise ConfigError("'strategy' and 'per_step_cost' need a corrupted cell")
    strategy = raw.get("strategy", "suppress_optimal")
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown strategy {strategy!r}, expected one of {STRATEGIES}")
    per_step = raw.get("per_step_cost")
    if per_step is not None and (not _is_finite(per_step) or per_step <= 0):
        raise ConfigError("'per_step_cost' must be a finite positive number or omitted")
    per_step = None if per_step is None else float(per_step)
    clean = (PlanSpec(),) if "none" in schemes or 0 in budgets else ()
    return clean + tuple(PlanSpec(s, b, strategy, per_step) for s in attacks for b in levels)


def _parse_algorithms(cfg: dict) -> tuple[AlgorithmSpec, ...]:
    raw = cfg.get("algorithms")
    if not isinstance(raw, list) or not raw:
        raise ConfigError("config needs a non-empty 'algorithms' list")
    specs = []
    for entry in raw:
        if not isinstance(entry, dict) or "algorithm" not in entry:
            raise ConfigError("each algorithms entry needs an 'algorithm' key")
        _check_keys(entry, ALGORITHM_KEYS, "an algorithms entry")
        name = entry["algorithm"]
        if name not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {name!r}, expected one of {ALGORITHMS}")
        params = entry.get("params", {})
        if not isinstance(params, dict) or not all(map(_is_finite, params.values())):
            raise ConfigError(f"'params' must be an object of finite numbers, got {params!r}")
        try:  # no policy's params depend on the arm count
            make_policy(name, 2, params)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad params for {name!r}: {exc}")
        label = entry.get("label")
        # The label is a CSV field, written unquoted.
        if label is not None and (not isinstance(label, str) or any(c in label for c in ",\r\n")):
            raise ConfigError(f"'label' must be a string without ',' or line breaks, got {label!r}")
        specs.append(AlgorithmSpec.of(name, params, label))
    return tuple(specs)


def _parse_experiment(cfg: dict, args) -> ExperimentConfig:
    horizon = _count(cfg, "horizon")
    reps = _count(cfg, "replications", 1)
    seed = _master_seed(cfg, args, 0)
    experiment = ExperimentConfig(
        instances=_parse_instances(cfg),
        plans=_parse_plans(cfg),
        algorithms=_parse_algorithms(cfg),
        horizon=horizon,
        replications=reps,
        master_seed=seed,
    )
    _check_reach(experiment)
    return experiment


def _check_reach(experiment: ExperimentConfig) -> None:
    """Reject a ``per_step_cost`` above the strategy's largest shift on any instance played.

    Above it, every scheduled round would under-spend the budget. Explicit
    means are one instance per cell; uniform means are drawn per replication
    from its episode seed, derived as ``run_batch`` derives it.
    """
    for cell_idx, inst, plan, _ in experiment.cells():
        if plan.per_step_cost is None:
            continue
        seeds = episode_seeds(experiment, cell_idx)
        for rep, seed in enumerate(seeds if inst.means is None else seeds[:1]):
            reach = default_per_step_cost(inst.resolve(seed), plan.strategy)
            if plan.per_step_cost > reach:
                raise ConfigError(
                    f"'per_step_cost' {plan.per_step_cost!r} exceeds {reach!r}, the largest "
                    f"shift {plan.strategy!r} makes on the means of K={inst.arms}, "
                    f"replication {rep} (cell {cell_idx})"
                )


def _config_hash(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _write_manifest(out_dir: str, cfg: dict, seed: int, threads: int, outputs: list[str]) -> None:
    manifest = {
        "build": f"banditlab {__version__}",
        "config_hash": _config_hash(cfg),
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "generator": GENERATOR_NAME,
        "master_seed": seed,
        "numpy": numpy.__version__,
        "outputs": sorted(outputs),
        "platform": f"{sys.platform}-{platform.machine()}",
        "python": "{}.{}.{}".format(*sys.version_info[:3]),
        "threads": threads,
    }
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_results_csv(path: str, stats: AggregateStats) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(RESULTS_COLUMNS + "\n")
        for cell in stats.cells:
            fh.write(
                f"{cell.algorithm},{cell.scheme},{_fmt(cell.budget)},{cell.k},"
                f"{_fmt(cell.mean_regret)},{_fmt(cell.sd_regret)},"
                f"{cell.replications},{cell.base_seed}\n"
            )


def write_curves_csv(path: str, stats: AggregateStats) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CURVES_COLUMNS + "\n")
        for cell in stats.cells:
            for t, mean, sd in cell.curve:
                fh.write(
                    f"{cell.algorithm},{cell.scheme},{_fmt(cell.budget)},{t},"
                    f"{_fmt(mean)},{_fmt(sd)}\n"
                )


def write_bench_csv(path: str, rows: list[BenchRow]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(BENCH_COLUMNS + "\n")
        for row in rows:
            fh.write(
                f"{row.algorithm},{_fmt(row.mean_s)},{_fmt(row.sd_s)},{_fmt(row.step_ratio)}\n"
            )


def _cmd_run(args) -> int:
    cfg = _load_json(args.config, args.command)
    experiment = _parse_experiment(cfg, args)
    stats = run_batch(experiment, threads=args.threads)
    out = args.out
    os.makedirs(out, exist_ok=True)
    write_results_csv(os.path.join(out, "results.csv"), stats)
    write_curves_csv(os.path.join(out, "curves.csv"), stats)
    _write_manifest(
        out, cfg, experiment.master_seed, args.threads, ["results.csv", "curves.csv"]
    )
    print(f"wrote {len(stats.cells)} cells x {experiment.replications} replications to {out}")
    return 0


def _cmd_bench(args) -> int:
    cfg = _load_json(args.config, "bench") if args.config else {"schema_version": 1}
    horizon = _count(cfg, "horizon", 100_000)
    reps = _count(cfg, "replications", 5)
    seed = _master_seed(cfg, args, 0)
    if "algorithms" in cfg:
        algorithms = _parse_algorithms(cfg)
    else:
        algorithms = tuple(
            AlgorithmSpec.of(name, {"alpha": 0.05} if name == "samba" else {})
            for name in ALGORITHMS
        )
    if "instance" in cfg:
        instance, *grid = _parse_instances(cfg)
        if grid:
            raise ConfigError("bench times one instance; 'instance.k' must be one arm count")
    else:
        instance = InstanceSpec(means=DEFAULT_MEANS)
    rows = bench_runtime(algorithms, instance, horizon, reps=reps, master_seed=seed)
    out = args.out
    os.makedirs(out, exist_ok=True)
    write_bench_csv(os.path.join(out, "bench.csv"), rows)
    _write_manifest(out, cfg, seed, args.threads, ["bench.csv"])
    for row in rows:
        print(f"{row.algorithm:12s} {row.mean_s:8.4f}s +/- {row.sd_s:.4f} ratio {row.step_ratio:.2f}")
    return 0


def _cmd_verify(args) -> int:
    cfg = _load_json(args.config, "verify") if args.config else {"schema_version": 1}
    means = DEFAULT_MEANS
    if "instance" in cfg:
        means = _parse_instances(cfg)[0].means
        if means is None:
            raise ConfigError("verify instance must give explicit means")
    instance = make_instance(means)
    alpha = cfg.get("alpha", 0.05)
    if not isinstance(alpha, (int, float)) or not 0 < alpha < 1:
        raise ConfigError("'alpha' must lie in (0, 1)")
    seed = _master_seed(cfg, args, 2024)
    sizes = SuiteSizes.fast() if args.fast else SuiteSizes()
    kernel = TamperedLockstep if args.tamper_update else SambaLockstep

    fit_config = ExperimentConfig(
        instances=(InstanceSpec(means=instance.means),),
        plans=(PlanSpec(),),
        algorithms=(AlgorithmSpec.of("samba", {"alpha": float(alpha)}),),
        horizon=sizes.fit_horizon,
        replications=sizes.fit_reps,
        master_seed=seed,
    )
    stats = run_batch(fit_config, threads=args.threads)
    log_curve = [(t, m) for t, m, _ in stats.cells[0].curve]

    outcomes = run_verification_suite(
        instance,
        float(alpha),
        sizes=sizes,
        seed=seed,
        kernel=kernel,
        log_curve=log_curve,
    )
    failures = [o for o in outcomes if not o.passed]
    for o in outcomes:
        mark = "PASS" if o.passed else "FAIL"
        print(f"{o.name:28s} {mark}  {o.detail}")
    if failures:
        print(f"{len(failures)} of {len(outcomes)} checks failed")
        return 1
    print(f"all {len(outcomes)} checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="banditlab",
        description="Bandit simulations under budgeted reward corruption",
    )
    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--config", metavar="PATH", help="JSON config file")
    inputs.add_argument("--seed", type=int, metavar="U64", help="override master seed")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", metavar="DIR", default="out", help="output directory")
    workers = argparse.ArgumentParser(add_help=False)
    workers.add_argument(
        "--threads",
        type=int,
        metavar="N",
        help="worker processes (default: BANDITLAB_THREADS or all cores)",
    )

    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser(
        "run",
        aliases=["sweep"],
        parents=[inputs, output, workers],
        help="run an experiment grid over K, corruption plans and algorithms",
    )
    run_p.set_defaults(func=_cmd_run)
    verify_p = sub.add_parser("verify", parents=[inputs, workers], help="run the analysis checks")
    verify_p.add_argument("--fast", action="store_true", help="reduced sample counts")
    verify_p.add_argument("--tamper-update", action="store_true", help=argparse.SUPPRESS)
    verify_p.set_defaults(func=_cmd_verify)
    bench_p = sub.add_parser("bench", parents=[inputs, output], help="wall-clock benchmarks")
    # bench times its episodes in this one process.
    bench_p.set_defaults(func=_cmd_bench, threads=1)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("run", "sweep") and not args.config:
        print("error: --config is required for run/sweep", file=sys.stderr)
        return 2
    try:
        args.threads = _threads(args.threads)
        return args.func(args)
    except (ConfigError, BudgetExceedsHorizonCapacity) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
