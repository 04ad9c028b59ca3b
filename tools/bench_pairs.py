"""Compare two source trees of banditlab on the benchmark and write one JSON record.

Usage (from anywhere):

    python3 tools/bench_pairs.py --parent PARENT_TREE --change CHANGE_TREE \\
        --pairs grid_gradient:3201-3210 --pairs grid_phased_corrupt:3301-3310 \\
        --seconds 55 --digest configs/quickstart.json --tier1 \\
        --probe grid_phased_corrupt:3401 --verify-seeds 11-15,21-25 \\
        --title "what changed" --out BENCH_8_name.json

For every seed of every ``--pairs WORKLOAD:FIRST-LAST`` range it runs
``benchmark/run.py --workload WORKLOAD --seed SEED --seconds S --trace 0`` in
both trees, one after the other, alternating which tree goes first. Each
end-to-end metric is summarised by the parent's and the change's quartiles,
the ratio of medians, how many pairs the change won (in the direction
``BENCHMARK.json`` gives) and the gap between medians next to the parent's
interquartile range, with the verdicts that ``BENCHMARK.json``'s bounds give
(see ``summarise``). Each run's CPU seconds, its own and its reaped
workers', are kept as ``cpu_s`` and summarised by quartiles only. The runs'
CSV digests show whether both trees wrote the same bytes for the same seed.

``--digest CONFIG`` (repeatable) runs ``banditlab sweep --config CONFIG``
in both trees with each of ``--digest-threads`` and records the SHA-256 of
``results.csv`` and ``curves.csv`` and the wall time. ``--tier1`` runs the
tier-1 suite once per tree (parent first) with per-test durations, and
records passed/failed counts, failing tests, the slowest calls and the line
each acceptance criterion prints.
``--probe WORKLOAD:SEED`` (one seed) runs ``PROBE_REPEATS`` alternated
rounds of fresh interpreters per tree: the workload's ``banditlab.cli.main`` call on
its config at ``--threads`` 1 and 2, timed inside the interpreter, and the
benchmark's adversary profile (``adversary.*`` per-layer metrics, among them
the one-round ``apply_corruption`` cost); it records every reading and the
medians.
``--verify-seeds FIRST-LAST,...`` runs ``banditlab verify --fast --seed S``
for each seed in both trees, alternating which tree goes first, and records
each call's exit code, wall time and failing checks, and per tree the count
of seeds with any failure and of failures per check.

Runs are sequential and use at most the workers the benchmark itself starts.
Each run starts in a session of its own, and its record's ``left_running``
says whether any process of that session outlived it (such processes are
killed); each workload summary counts those runs per tree.
Relative paths are taken from the current directory. The record names each
tree by its git commit (marked when it has uncommitted changes) and each
digest config and the output by its file name, never by a path.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import re
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

SIDES = ("parent", "change")
PROBE_REPEATS = 7

# Run in a fresh interpreter at the root of a tree:
#   -c PROBE WORKLOAD SEED {1,2,...|adversary}
PROBE = """
import json, os, sys, tempfile
sys.path.insert(0, "benchmark")
import workloads as wl
workload, seed, what = wl.WORKLOADS[sys.argv[1]], int(sys.argv[2]), sys.argv[3]
cfg = workload.make_config(seed)
if what == "adversary":
    import layers, tracing
    metrics, _ = layers.adversary_profile(cfg, seed, tracing.Tracer())
    print(json.dumps({name: value for name, (value, _) in metrics.items()}))
else:
    with tempfile.TemporaryDirectory() as work:
        config = wl.write_config(cfg, os.path.join(work, "config.json"))
        argv = workload.argv(config, os.path.join(work, "out"), seed)
        argv[argv.index("--threads") + 1] = what
        code, _, wall = wl.call_cli(argv)
        print(json.dumps({"exit": code, "cli_wall_s": wall}))
"""


def _env(tree: str) -> dict:
    src = os.path.join(tree, "src")
    return dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))


def _seed_list(spans: str) -> list[int]:
    """``11-15,21,101-102`` as [11, ..., 15, 21, 101, 102]."""
    seeds = []
    for span in spans.split(","):
        first, _, last = span.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def _seeds(spec: str) -> tuple[str, list[int]]:
    workload, _, spans = spec.partition(":")
    return workload, _seed_list(spans)


def _probe_seed(spec: str) -> tuple[str, int]:
    workload, _, seed = spec.partition(":")
    if not seed.isdigit():
        raise SystemExit(f"--probe takes WORKLOAD:SEED with one seed, got {spec!r}")
    return workload, int(seed)


def _describe(tree: str) -> str:
    """The tree's git commit, marked if the working tree differs from it."""
    def git(*args):
        return subprocess.run(["git", "-C", tree, *args], capture_output=True, text=True).stdout
    commit = git("rev-parse", "--short", "HEAD").strip() or "not a git checkout"
    return commit + (" with uncommitted changes" if git("status", "--porcelain").strip() else "")


def _quartiles(values: list[float]) -> dict:
    if len(values) == 1:  # statistics.quantiles needs two points
        values = values * 2
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def left_running(pgid: int) -> bool:
    """Whether any process of group ``pgid`` is still alive; if so, kill the group."""
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pgid, signal.SIGKILL)
    return True


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_in_session(
    cmd: list[str], tree: str
) -> tuple[subprocess.CompletedProcess, bool, float]:
    """Run ``cmd`` at the root of ``tree`` in a session of its own; return its
    result, whether any process of that session outlived it (see
    ``left_running``), and its CPU seconds.

    The CPU seconds are user plus system time of the run and of every
    descendant it reaped, read as the change in this process's
    ``RUSAGE_CHILDREN`` across the wait. Output goes to files, not pipes, so
    a process left holding them cannot stall the wait.
    """
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        cpu_before = _children_cpu_s()
        proc = subprocess.Popen(cmd, cwd=tree, env=_env(tree), stdout=out, stderr=err,
                                start_new_session=True)
        proc.wait()
        cpu_s = _children_cpu_s() - cpu_before
        stray = left_running(proc.pid)
        out.seek(0)
        err.seek(0)
        done = subprocess.CompletedProcess(cmd, proc.returncode, out.read().decode(),
                                           err.read().decode())
    return done, stray, cpu_s


def bench_run(tree: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done, stray, cpu_s = run_in_session(cmd, tree)
    done.check_returncode()
    header, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
    return {
        "seed": seed,
        "left_running": stray,
        "cpu_s": cpu_s,
        "samples": header["info"]["samples"],
        "sha256": header["info"]["sha256"],
        **{key: result[key] for key in ("correct", "attempted", "failed")},
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def summarise(runs: dict, metrics: dict) -> dict:
    """Per end-to-end metric: quartiles, pair wins and the three verdicts.

    ``metrics`` maps each name to its ``BENCHMARK.json`` entry, whose
    ``better`` gives the direction and ``bound`` the allowed relative change.
    ``worse_beyond_bound``: the change's median is worse than the parent's by
    more than the bound. ``unresolved``: the parent's IQR is wider than the
    bound (relative to its median). ``gain_rule_met``: the change won at least
    nine in ten pairs and its median is better by more than the parent's IQR.
    ``cpu_s``, each run's CPU seconds (see ``run_in_session``), gets its
    quartiles per side only: no bound or verdict applies to it.
    """
    summary = {}
    for name, spec in metrics.items():
        values = {side: [r["metrics"][name] for r in runs[side]] for side in SIDES}
        parent, change = (_quartiles(values[side]) for side in SIDES)
        sign = 1.0 if spec["better"] == "higher" else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        pairs = len(values["parent"])
        parent_iqr = parent["q3"] - parent["q1"]
        improvement = sign * (change["median"] - parent["median"])
        summary[name] = {
            "parent": parent,
            "change": change,
            "change_over_parent_median": change["median"] / parent["median"],
            "pairs_change_better": f"{wins}/{pairs}",
            "parent_iqr": parent_iqr,
            "median_gap": abs(change["median"] - parent["median"]),
            "bound": spec["bound"],
            "worse_beyond_bound": -improvement > spec["bound"] * abs(parent["median"]),
            "unresolved": parent_iqr > spec["bound"] * abs(parent["median"]),
            "gain_rule_met": 10 * wins >= 9 * pairs and improvement > parent_iqr,
        }
    summary["cpu_s"] = {side: _quartiles([r["cpu_s"] for r in runs[side]]) for side in SIDES}
    summary["same_csv_bytes_per_seed"] = sum(
        p["sha256"] == c["sha256"] for p, c in zip(runs["parent"], runs["change"])
    )
    summary["failed_operations"] = {side: sum(r["failed"] for r in runs[side]) for side in SIDES}
    summary["all_correct"] = all(r["correct"] for side in SIDES for r in runs[side])
    summary["runs_left_running"] = {
        side: sum(r["left_running"] for r in runs[side]) for side in SIDES
    }
    return summary


def digest_run(tree: str, config: str, threads: int) -> dict:
    with tempfile.TemporaryDirectory() as out:
        cmd = [sys.executable, "-m", "banditlab.cli", "sweep", "--config", config,
               "--out", out, "--threads", str(threads)]
        start = time.perf_counter()
        done, stray, _ = run_in_session(cmd, tree)
        wall = time.perf_counter() - start
        record = {"exit": done.returncode, "wall_s": wall, "left_running": stray}
        for name in ("results.csv", "curves.csv"):
            path = os.path.join(out, name)
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    record[name] = hashlib.sha256(fh.read()).hexdigest()
    return record


def failing_checks(stdout: str) -> list[str]:
    """Names of the checks a ``banditlab verify`` run printed as FAIL, in order."""
    return re.findall(r"^(\S+) +FAIL  ", stdout, re.MULTILINE)


def verify_run(tree: str, seed: int) -> dict:
    cmd = [sys.executable, "-m", "banditlab.cli", "verify", "--fast", "--seed", str(seed)]
    start = time.perf_counter()
    done, stray, _ = run_in_session(cmd, tree)
    wall = time.perf_counter() - start
    return {"seed": seed, "exit": done.returncode, "wall_s": wall,
            "failing": failing_checks(done.stdout), "left_running": stray}


def summarise_verify(runs: dict) -> dict:
    """Per tree: seeds whose run failed (any exit but 0) and failures per check."""
    return {
        side: {
            "seeds": len(runs[side]),
            "seeds_with_failure": sum(run["exit"] != 0 for run in runs[side]),
            "failures_by_check": dict(sorted(
                Counter(name for run in runs[side] for name in run["failing"]).items()
            )),
        }
        for side in SIDES
    }


def tier1_run(tree: str) -> dict:
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           "--durations=0", "-rA", "-p", "no:cacheprovider"]
    start = time.perf_counter()
    done, stray, _ = run_in_session(cmd, tree)
    wall = time.perf_counter() - start
    text = done.stdout
    # -rA adds every test's captured output, so the counts come from the last line only.
    last = text.strip().splitlines()[-1] if text.strip() else ""
    counts = {name: int(n) for n, name in re.findall(r"(\d+) (passed|failed|error)", last)}
    criteria = re.findall(r"^criterion \d+ \S+: (?:PASS|FAIL) — .*$", text, re.MULTILINE)
    calls = {}
    for secs, test in re.findall(r"^([\d.]+)s call\s+(\S+)$", text, re.MULTILINE):
        if float(secs) >= 1.0:
            calls[test.split("::")[-1]] = float(secs)
    return {
        "wall_s": wall,
        "exit": done.returncode,
        "left_running": stray,
        **counts,
        "failing": re.findall(r"^FAILED (\S+)", text, re.MULTILINE),
        "test_call_s_at_least_1s": calls,
        "criterion_lines": sorted(set(criteria)),
    }


def probe(trees: dict, workload: str, seed: int) -> dict:
    readings = {side: {} for side in SIDES}
    strays = {side: 0 for side in SIDES}
    for i in range(PROBE_REPEATS):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            for what in ("1", "2", "adversary"):
                cmd = [sys.executable, "-c", PROBE, workload, str(seed), what]
                done, stray, _ = run_in_session(cmd, trees[side])
                done.check_returncode()
                strays[side] += stray
                for name, value in json.loads(done.stdout).items():
                    key = name if what == "adversary" else f"{name} threads={what}"
                    readings[side].setdefault(key, []).append(value)
    medians = {side: {key: statistics.median(values) for key, values in readings[side].items()}
               for side in SIDES}
    return {"workload": workload, "seed": seed, "medians": medians, "readings": readings,
            "runs_left_running": strays}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="source tree of the parent commit")
    parser.add_argument("--change", required=True, help="source tree of the change")
    parser.add_argument("--pairs", action="append", default=[], metavar="WORKLOAD:FIRST-LAST")
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--digest", action="append", default=[], metavar="CONFIG")
    parser.add_argument("--digest-threads", default="1,2")
    parser.add_argument("--tier1", action="store_true")
    parser.add_argument("--probe", action="append", default=[], metavar="WORKLOAD:SEED")
    parser.add_argument("--verify-seeds", metavar="FIRST-LAST,...")
    parser.add_argument("--title", default="")
    parser.add_argument("--note", action="append", default=[], help="free text kept in the record")
    parser.add_argument("--out", required=True)
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(argv)
    probes = [_probe_seed(spec) for spec in args.probe]
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(trees["change"], "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = {m["name"]: m for m in json.load(fh)["end_to_end"]}

    import numpy

    names = {args.parent: "<parent tree>", args.change: "<change tree>"}
    names.update((path, os.path.basename(path)) for path in [*args.digest, args.out])
    record = {
        "title": args.title,
        "notes": args.note,
        "command": ["python3", "tools/bench_pairs.py", *(names.get(a, a) for a in argv)],
        "host": {"nproc": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version(), "numpy": numpy.__version__},
        "trees": {side: _describe(tree) for side, tree in trees.items()},
        "workloads": {},
    }
    for spec in args.pairs:
        workload, seeds = _seeds(spec)
        runs = {side: [] for side in SIDES}
        for i, seed in enumerate(seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                runs[side].append(bench_run(trees[side], workload, seed, args.seconds))
                print(f"{workload} seed {seed} {side}: "
                      f"{runs[side][-1]['metrics']}", file=sys.stderr, flush=True)
        record["workloads"][workload] = {"summary": summarise(runs, metrics), "runs": runs}

    threads = [int(t) for t in args.digest_threads.split(",")]
    for config in args.digest:
        path = os.path.abspath(config)
        with open(path, "rb") as fh:
            entry = {"config_sha256": hashlib.sha256(fh.read()).hexdigest()}
        for n in threads:
            for side in SIDES:
                entry[f"{side} threads={n}"] = digest_run(trees[side], path, n)
            pair = [entry[f"{side} threads={n}"] for side in SIDES]
            entry[f"same_bytes threads={n}"] = all(
                pair[0].get(name) == pair[1].get(name) is not None
                for name in ("results.csv", "curves.csv")
            )
        record.setdefault("csv_digests", {})[os.path.basename(config)] = entry

    for workload, seed in probes:
        record.setdefault("probes", []).append(probe(trees, workload, seed))

    if args.verify_seeds:
        runs = {side: [] for side in SIDES}
        for i, seed in enumerate(_seed_list(args.verify_seeds)):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                runs[side].append(verify_run(trees[side], seed))
                print(f"verify seed {seed} {side}: exit {runs[side][-1]['exit']} "
                      f"{runs[side][-1]['failing']}", file=sys.stderr, flush=True)
        record["verify_seeds"] = {"summary": summarise_verify(runs), "runs": runs}

    if args.tier1:
        record["tier1"] = {side: tier1_run(trees[side]) for side in SIDES}

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
