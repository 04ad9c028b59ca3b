"""banditlab benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root):

    python3 benchmark/run.py --workload grid_gradient --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload's ``banditlab.cli.main`` call, repeated
until ``--seconds`` have passed, with tracing off, and prints the end-to-end
metrics: ``setup_s`` (median over fresh interpreters that import banditlab
and load the workload config), ``wall_s`` (median wall time of one call),
``episode_rounds_per_s`` (episodes x horizon the call runs through the
engine, over ``wall_s``; for verify_fast that is its log-fit grid) and
``peak_rss_mb`` (largest resident set of this process and its workers).
``--trace 1`` runs the per-layer profile of ``layers.py`` once and prints
the per-layer metrics; its spans go to ``.bench_traces/``.

Every output is checked (see ``workloads.py``); ``attempted``/``failed``
count grid cells or verify checks. ``correct`` is false when an output is
malformed or the outputs of identical runs differ; a check that the
program itself reports as FAIL is counted in ``failed`` only. Workloads use
at most two worker processes. ``selftest.py`` shows the checks can fail.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
TRACE_ROOT = os.path.join(ROOT, ".bench_traces")
SETUP_SAMPLES = 11

SETUP_CODE = """
import json, sys
import banditlab, banditlab.cli
with open(sys.argv[1], encoding="utf-8") as fh:
    json.load(fh)
banditlab.cli.build_parser().parse_args(sys.argv[2:])
"""


def stamp(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
    }


def measure_setup(config_path: str, argv: list[str]) -> float:
    """Wall seconds of a fresh interpreter that imports banditlab and loads the config."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", SETUP_CODE, config_path, *argv],
        cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - t0


def end_to_end(workload, seed: int, seconds: float, work_dir: str) -> tuple[dict, dict, int, int, bool]:
    import workloads as wl

    config_path = wl.write_config(workload.make_config(seed), os.path.join(work_dir, "config.json"))
    out_dir = os.path.join(work_dir, "out")
    setup_argv = workload.argv(config_path, out_dir, seed)

    walls: list[float] = []
    setup: list[float] = []
    attempted = failed = 0
    correct = True
    first_sha = None
    ops = []
    start = time.perf_counter()
    while True:
        # Set-up samples are spread over the run, like the operations.
        if len(setup) < SETUP_SAMPLES:
            setup.append(measure_setup(config_path, setup_argv))
        res = workload.run_op(config_path, out_dir, seed)
        walls.append(res.wall_s)
        attempted += res.attempted
        sha = res.info.get("sha256")
        if first_sha is None:
            first_sha = sha
        elif sha != first_sha:
            # Identical config and seed must give identical bytes.
            correct = False
            res.failed = res.attempted
        failed += res.failed
        correct &= res.well_formed
        ops.append({k: v for k, v in res.info.items() if k != "sha256"} | {"wall_s": res.wall_s})
        if time.perf_counter() - start >= seconds:
            break
    while len(setup) < SETUP_SAMPLES:
        setup.append(measure_setup(config_path, setup_argv))

    wall_s = statistics.median(walls)
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall_s, "s"),
        "episode_rounds_per_s": (workload.episode_rounds(seed) / wall_s, "1/s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    info = {
        "samples": len(walls),
        "wall_s_all": walls,
        "setup_s_all": setup,
        "sha256": first_sha,
        "ops": ops,
    }
    return metrics, info, attempted, failed, correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["grid_gradient", "grid_phased_corrupt", "verify_fast"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must lie in [0, 2**63)")
    if not os.path.isfile(os.path.join(SRC, "banditlab", "__init__.py")):
        print(f"error: banditlab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import workloads as wl
    from layers import traced_run
    from tracing import Tracer

    workload = wl.WORKLOADS[args.workload]
    work_dir = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    os.makedirs(work_dir)
    header = {"workload": args.workload, "trace": args.trace, "stamp": stamp(args.seed)}
    try:
        if args.trace:
            tracer = Tracer()
            with tracer.span("bench.traced_run", workload=args.workload, seed=args.seed):
                metrics, info, attempted, failed, correct = traced_run(
                    workload, args.seed, work_dir, tracer
                )
            os.makedirs(TRACE_ROOT, exist_ok=True)
            trace_path = os.path.join(TRACE_ROOT, f"{args.workload}-seed{args.seed}.json")
            tracer.write(trace_path, header)
            info["trace_file"] = os.path.relpath(trace_path, ROOT)
        else:
            metrics, info, attempted, failed, correct = end_to_end(
                workload, args.seed, args.seconds, work_dir
            )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(json.dumps({**header, "info": info}))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
