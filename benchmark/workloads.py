"""The benchmark's workloads: config generation, the timed operation, and output checks.

Every workload is one ``banditlab.cli.main`` call with ``--threads 2`` on a
config generated from the benchmark seed; the program sees only that config.

grid_gradient
    ``sweep`` over samba, tsallis_inf and fs_aae, uniform-random means at
    K in {6, 20}, light ``delayed_block`` corruption (about 1% of rounds).
    Chosen because the policy does most of the work: on a 2-core Xeon the
    policy's share of a round was 85-94% (samba 5.9/7.5, tsallis_inf
    9.6/17.9, fs_aae 11.0/15.4 us/round at K = 6/20 against 0.9/1.2 us for
    the engine alone). Lockstep batching and policy kernel work show here;
    the two K values expose O(K) costs. The adversary is mostly called on
    clean rounds.
grid_phased_corrupt
    ``run`` over barbar and cbarbar on the 9-arm means of
    ``configs/full_grid.json``, schemes ``consecutive`` and ``even_steps``,
    ``swap_extremes`` with a per-step cost of 0.1 (the strategy can shift
    0.9), so about half of all rounds are corrupted. These policies stay
    scalar, so policy batching should not move this workload: the engine
    loop and the adversary's corrupted-round path do most of the work
    (null-policy engine 4.5 us/round here against 0.9 with light corruption).
verify_fast
    ``verify --fast`` on the instance and step size of ``configs/verify.json``
    with ``--seed`` set to the benchmark seed. The verify module does almost
    all the work: the scalar one-step Monte-Carlo loops of the four drift
    checks and the batched ``samba_batch_step`` of the recovery, decay and
    oracle checks. Its outcome depends on the seed: at ``--fast`` sizes
    ``drift_nonleader_clean`` failed for seeds 2029 and 2032 of 2024-2035
    (mean + 3 sigma about -1.2e-3 against a bound of -1.43e-3), and a
    non-leader drift check (once also ``log_fit``) failed for 6 of the 10
    seeds 11-15 and 21-25. That is a program or statistical-power defect.
    Such failures are counted in ``failed``; the seed mapping is the
    identity and is not chosen to hide them.

    verify_fast runs by hand but is not one of BENCHMARK.json's workloads.
    One call takes about 15 s, so a run of the length it sets holds only
    two to four calls, and on a shared 2-core host the median call time
    spread 25-29% (IQR over median, ten seeds) from run to run, past the
    largest bound (0.25) a metric may have. Its stages stay measured: every
    traced run profiles the verify module (``layers.verify_profile``).

An operation is a grid cell (grids) or a verify check (verify_fast).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
import time
from dataclasses import dataclass, field
from typing import Callable

from banditlab import AlgorithmSpec, ExperimentConfig, InstanceSpec, PlanSpec, SuiteSizes, cli

FULL_GRID_MEANS = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
VERIFY_ALPHA = 0.05
THREADS = 2

GRADIENT_HORIZON = 10_000
GRADIENT_REPS = 8
PHASED_HORIZON = 10_000
PHASED_REPS = 24
PHASED_PER_STEP_COST = 0.1

RESULTS_HEADER = "algorithm,scheme,corruption_level,K,mean_regret,sd_regret,replications,seed"
CURVES_HEADER = "algorithm,scheme,corruption_level,t,mean_regret,sd_regret"


def grid_gradient_config(seed: int) -> dict:
    return {
        "schema_version": 1,
        "horizon": GRADIENT_HORIZON,
        "replications": GRADIENT_REPS,
        "master_seed": seed,
        "instance": {"k": [6, 20], "means": "uniform"},
        "algorithms": [
            {"algorithm": "samba", "params": {"alpha": 0.05}},
            {"algorithm": "tsallis_inf"},
            {"algorithm": "fs_aae"},
        ],
        "corruption": {
            "schemes": ["delayed_block"],
            "budgets": [GRADIENT_HORIZON // 100],
            "strategy": "suppress_optimal",
        },
    }


def grid_phased_corrupt_config(seed: int) -> dict:
    # 0.048 * T / 0.1 corrupted rounds: 48% of the horizon, which still fits
    # the even_steps schedule (every other round).
    return {
        "schema_version": 1,
        "horizon": PHASED_HORIZON,
        "replications": PHASED_REPS,
        "master_seed": seed,
        "instance": {"means": FULL_GRID_MEANS},
        "algorithms": [{"algorithm": "barbar"}, {"algorithm": "cbarbar"}],
        "corruption": {
            "schemes": ["consecutive", "even_steps"],
            "budgets": [round(0.048 * PHASED_HORIZON)],
            "strategy": "swap_extremes",
            "per_step_cost": PHASED_PER_STEP_COST,
        },
    }


def verify_config(seed: int) -> dict:
    return {
        "schema_version": 1,
        "alpha": VERIFY_ALPHA,
        "master_seed": seed,
        "instance": {"means": FULL_GRID_MEANS},
    }


def verify_fit_config(seed: int) -> dict:
    """The clean samba grid that ``verify`` runs through the engine for its log fit."""
    sizes = SuiteSizes.fast()
    return {
        "schema_version": 1,
        "horizon": sizes.fit_horizon,
        "replications": sizes.fit_reps,
        "master_seed": seed,
        "instance": {"means": FULL_GRID_MEANS},
        "algorithms": [{"algorithm": "samba", "params": {"alpha": VERIFY_ALPHA}}],
    }


def experiment_from(cfg: dict):
    """The ExperimentConfig that ``run``/``sweep`` build from one of this module's configs."""
    inst = cfg["instance"]
    if inst["means"] == "uniform":
        instances = tuple(InstanceSpec(k=k) for k in inst["k"])
    else:
        instances = (InstanceSpec(means=tuple(float(m) for m in inst["means"])),)
    corr = cfg.get("corruption")
    if corr is None:
        plans = (PlanSpec(),)
    else:
        plans = tuple(
            PlanSpec(
                scheme=s,
                budget=float(b),
                strategy=corr["strategy"],
                per_step_cost=corr.get("per_step_cost"),
            )
            for s in corr["schemes"]
            for b in corr["budgets"]
        )
    algorithms = tuple(
        AlgorithmSpec.of(a["algorithm"], a.get("params"), a.get("label"))
        for a in cfg["algorithms"]
    )
    return ExperimentConfig(
        instances=instances,
        plans=plans,
        algorithms=algorithms,
        horizon=cfg["horizon"],
        replications=cfg["replications"],
        master_seed=cfg["master_seed"],
    )


# ---------------------------------------------------------------------------
# Grid output checks
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@dataclass
class GridCell:
    key: tuple[str, str, str, int]
    max_gap: float


def expected_cells(cfg: dict) -> list[GridCell]:
    """Cells in the order ``run_batch`` emits them: instances x plans x algorithms.

    The regret bound uses the exact largest gap for explicit means, and 1 for
    uniform-random means (whose per-replication draws are the engine's own).
    """
    inst = cfg["instance"]
    if inst["means"] == "uniform":
        arms = [(k, 1.0) for k in inst["k"]]
    else:
        means = inst["means"]
        arms = [(len(means), max(means) - min(means))]
    corr = cfg.get("corruption") or {"schemes": ["none"], "budgets": [0.0]}
    cells = []
    for k, max_gap in arms:
        for scheme in corr["schemes"]:
            for budget in corr["budgets"]:
                for algo in cfg["algorithms"]:
                    label = algo.get("label") or algo["algorithm"]
                    cells.append(GridCell((label, scheme, _fmt(budget), k), max_gap))
    return cells


def _curve_blocks(rows: list[list[str]]) -> list[list[list[str]]]:
    """Split curves.csv rows into one block per cell (t restarts for every cell)."""
    blocks: list[list[list[str]]] = []
    prev_t = math.inf
    for row in rows:
        t = int(row[3])
        if t <= prev_t:
            blocks.append([])
        blocks[-1].append(row)
        prev_t = t
    return blocks


def check_grid(cfg: dict, out_dir: str) -> tuple[list[bool], list[str]]:
    """Per-cell pass flags for one ``run``/``sweep`` output, and the problems found.

    A cell passes when results.csv has exactly one well-formed row for it
    with 0 <= mean_regret <= horizon * max gap and the configured
    replication count, and its curves.csv block ends at the horizon with a
    mean that never decreases in t.
    """
    cells = expected_cells(cfg)
    horizon = cfg["horizon"]
    problems: list[str] = []
    ok = [True] * len(cells)
    try:
        with open(os.path.join(out_dir, "results.csv"), encoding="utf-8") as fh:
            res_lines = fh.read().splitlines()
        with open(os.path.join(out_dir, "curves.csv"), encoding="utf-8") as fh:
            cur_lines = fh.read().splitlines()
    except OSError as exc:
        return [False] * len(cells), [f"missing output: {exc}"]
    if not res_lines or res_lines[0] != RESULTS_HEADER:
        return [False] * len(cells), ["results.csv header mismatch"]
    if not cur_lines or cur_lines[0] != CURVES_HEADER:
        return [False] * len(cells), ["curves.csv header mismatch"]

    rows: dict[tuple, list[list[str]]] = {}
    for line in res_lines[1:]:
        parts = line.split(",")
        if len(parts) != 8:
            problems.append(f"malformed results row: {line!r}")
            continue
        try:
            key = (parts[0], parts[1], parts[2], int(parts[3]))
        except ValueError:
            problems.append(f"malformed results row: {line!r}")
            continue
        rows.setdefault(key, []).append(parts)
    try:
        blocks = _curve_blocks([line.split(",") for line in cur_lines[1:]])
    except (ValueError, IndexError):
        return [False] * len(cells), ["malformed curves.csv"]
    if len(blocks) != len(cells):
        problems.append(f"curves.csv has {len(blocks)} cell blocks, expected {len(cells)}")

    for i, cell in enumerate(cells):
        found = rows.get(cell.key, [])
        if len(found) != 1:
            ok[i] = False
            problems.append(f"{cell.key}: {len(found)} results rows")
            continue
        parts = found[0]
        try:
            mean = float(parts[4])
            reps = int(parts[6])
        except ValueError:
            ok[i] = False
            problems.append(f"{cell.key}: unparsable row")
            continue
        if not 0.0 <= mean <= horizon * cell.max_gap:
            ok[i] = False
            problems.append(f"{cell.key}: mean_regret {mean} outside [0, {horizon * cell.max_gap}]")
        if reps != cfg["replications"]:
            ok[i] = False
            problems.append(f"{cell.key}: replications {reps}")
        if i >= len(blocks):
            ok[i] = False
            continue
        block = blocks[i]
        means = [float(r[4]) for r in block]
        label_ok = all((r[0], r[1], r[2]) == cell.key[:3] for r in block)
        monotone = all(b >= a for a, b in zip(means, means[1:]))
        if not label_ok or int(block[-1][3]) != horizon or not monotone:
            ok[i] = False
            problems.append(f"{cell.key}: bad curve (labels {label_ok}, monotone {monotone})")
    return ok, problems


def cell_rows(out_dir: str) -> list[tuple[str, str]]:
    """Per-cell (results row, curves block) text, for byte comparison between runs."""
    with open(os.path.join(out_dir, "results.csv"), encoding="utf-8") as fh:
        res = fh.read().splitlines()[1:]
    with open(os.path.join(out_dir, "curves.csv"), encoding="utf-8") as fh:
        cur = [line.split(",") for line in fh.read().splitlines()[1:]]
    blocks = ["\n".join(",".join(r) for r in b) for b in _curve_blocks(cur)]
    return list(zip(res, blocks))


def digests(out_dir: str) -> dict[str, str]:
    out = {}
    for name in ("results.csv", "curves.csv"):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


# ---------------------------------------------------------------------------
# Verify output checks
# ---------------------------------------------------------------------------

_CHECK_LINE = re.compile(r"^(\S+)\s+(PASS|FAIL)\s")
_ALL_PASSED = re.compile(r"^all (\d+) checks passed$")
_SOME_FAILED = re.compile(r"^(\d+) of (\d+) checks failed$")


def check_verify(code: int, stdout: str) -> tuple[int, int, bool, list[str]]:
    """(attempted, failed, well_formed, failing names) for one ``verify`` run.

    Each PASS/FAIL line is one check. The output is well formed when the
    summary line agrees with those lines and with the exit code; if it is
    not, every check counts as failed.
    """
    results = [m.groups() for m in map(_CHECK_LINE.match, stdout.splitlines()) if m]
    failing = [name for name, mark in results if mark == "FAIL"]
    lines = stdout.strip().splitlines()
    summary = lines[-1] if lines else ""
    if (m := _ALL_PASSED.match(summary)) and code == 0:
        well_formed = int(m.group(1)) == len(results) and not failing
    elif (m := _SOME_FAILED.match(summary)) and code == 1:
        well_formed = int(m.group(1)) == len(failing) and int(m.group(2)) == len(results)
    else:
        well_formed = False
    attempted = max(len(results), 1)
    failed = len(failing) if well_formed else attempted
    return attempted, failed, well_formed, failing


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass
class OpResult:
    wall_s: float
    attempted: int
    failed: int
    well_formed: bool
    info: dict = field(default_factory=dict)


def call_cli(argv: list[str]) -> tuple[int, str, float]:
    """Run ``banditlab.cli.main`` in this process; (exit code, stdout, wall seconds)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - t0
    return code, buf.getvalue(), wall


@dataclass
class Workload:
    name: str
    command: str
    make_config: Callable[[int], dict]
    batch_config: Callable[[int], dict]  # the grid this workload runs through the engine

    def argv(self, config_path: str, out_dir: str, seed: int) -> list[str]:
        argv = [self.command, "--config", config_path, "--threads", str(THREADS)]
        if self.command == "verify":
            return argv + ["--fast", "--seed", str(seed)]
        return argv + ["--out", out_dir]

    def episode_rounds(self, seed: int) -> int:
        """Episodes x horizon that one operation runs through the engine."""
        cfg = self.batch_config(seed)
        return len(expected_cells(cfg)) * cfg["replications"] * cfg["horizon"]

    def run_op(self, config_path: str, out_dir: str, seed: int) -> OpResult:
        code, stdout, wall = call_cli(self.argv(config_path, out_dir, seed))
        if self.command == "verify":
            attempted, failed, well_formed, failing = check_verify(code, stdout)
            sha = hashlib.sha256(stdout.encode()).hexdigest()
            return OpResult(
                wall, attempted, failed, well_formed, {"exit": code, "failing": failing, "sha256": sha}
            )
        cfg = self.make_config(seed)
        if code != 0:
            n = len(expected_cells(cfg))
            return OpResult(wall, n, n, False, {"exit": code})
        ok, problems = check_grid(cfg, out_dir)
        return OpResult(
            wall,
            len(ok),
            ok.count(False),
            not problems,
            {"exit": code, "problems": problems[:10], "sha256": digests(out_dir)},
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("grid_gradient", "sweep", grid_gradient_config, grid_gradient_config),
        Workload("grid_phased_corrupt", "run", grid_phased_corrupt_config, grid_phased_corrupt_config),
        Workload("verify_fast", "verify", verify_config, verify_fit_config),
    )
}


def write_config(cfg: dict, path: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=1)
    return path
