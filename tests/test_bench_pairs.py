"""The verdicts ``tools/bench_pairs.py`` attaches to each end-to-end metric, on synthetic runs."""

import importlib.util
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

import pytest

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = {
    "wall_s": {"name": "wall_s", "better": "lower", "bound": 0.25},
    "episode_rounds_per_s": {"name": "episode_rounds_per_s", "better": "higher", "bound": 0.25},
}


def runs_of(parent: list[float], change: list[float], metric: str = "wall_s") -> dict:
    def run(value):
        return {"metrics": {metric: value}, "sha256": "same", "failed": 0, "correct": True,
                "left_running": False, "cpu_s": 2 * value}

    return {"parent": [run(v) for v in parent], "change": [run(v) for v in change]}


def verdicts(parent, change, metric="wall_s"):
    summary = bench_pairs.summarise(runs_of(parent, change, metric), {metric: METRICS[metric]})
    entry = summary[metric]
    return entry["worse_beyond_bound"], entry["unresolved"], entry["gain_rule_met"]


TIGHT = [1.0 + 0.001 * i for i in range(10)]


def test_clear_gain_meets_the_rule():
    assert verdicts(TIGHT, [0.8 + 0.001 * i for i in range(10)]) == (False, False, True)


def test_nine_of_ten_wins_suffice():
    change = [0.9] * 9 + [2.0]
    assert verdicts(TIGHT, change)[2]


def test_eight_of_ten_wins_do_not():
    change = [0.9] * 8 + [2.0, 2.0]
    worse, unresolved, gain = verdicts(TIGHT, change)
    assert not gain and not unresolved


def test_gap_inside_parent_iqr_is_no_gain():
    parent = [1.0, 1.1] * 5
    change = [v - 0.01 for v in parent]
    assert verdicts(parent, change) == (False, False, False)


def test_worse_beyond_bound_lower_is_better():
    assert verdicts(TIGHT, [1.3 + 0.001 * i for i in range(10)]) == (True, False, False)


def test_worse_within_bound_passes():
    assert verdicts(TIGHT, [1.2 + 0.001 * i for i in range(10)]) == (False, False, False)


def test_worse_beyond_bound_higher_is_better():
    parent = [100.0 + i for i in range(10)]
    worse, _, gain = verdicts(parent, [70.0 + i for i in range(10)], "episode_rounds_per_s")
    assert worse and not gain
    worse, _, gain = verdicts(parent, [130.0 + i for i in range(10)], "episode_rounds_per_s")
    assert gain and not worse


def test_wide_parent_spread_is_unresolved():
    parent = [0.5, 1.0, 1.5, 2.0] * 2 + [1.0, 1.5]
    assert verdicts(parent, parent)[1]


def test_summary_keeps_counts_and_bound():
    summary = bench_pairs.summarise(runs_of(TIGHT, TIGHT), {"wall_s": METRICS["wall_s"]})
    assert summary["wall_s"]["bound"] == 0.25
    assert summary["wall_s"]["pairs_change_better"] == "0/10"
    assert summary["same_csv_bytes_per_seed"] == 10
    assert summary["failed_operations"] == {"parent": 0, "change": 0}
    assert summary["all_correct"]
    assert summary["runs_left_running"] == {"parent": 0, "change": 0}
    # CPU time gets quartiles per side, and no verdict
    assert summary["cpu_s"]["parent"]["median"] == pytest.approx(2 * statistics.median(TIGHT))
    assert set(summary["cpu_s"]) == {"parent", "change"}


def test_bounds_come_from_benchmark_json():
    with open(TOOL.parents[1] / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    runs = {side: [{"metrics": {name: 1.0 for name in declared}, "sha256": "",
                    "failed": 0, "correct": True, "left_running": False, "cpu_s": 1.0}] * 4
            for side in ("parent", "change")}
    summary = bench_pairs.summarise(runs, declared)
    for name, spec in declared.items():
        assert summary[name]["bound"] == pytest.approx(spec["bound"])


def test_one_pair_summarises():
    worse, unresolved, gain = verdicts([1.0], [1.3])
    assert worse and not unresolved and not gain


VERIFY_STDOUT = """\
constants                    PASS  alpha=0.05 vs bound=0.1, epsilon=0.01
drift_nonleader_clean        FAIL  drift=-1.2e-03 +/- 1.0e-04 vs bound=-1.3e-03 (exact -1.4e-03)
drift_nonleader_corrupted    PASS  drift=-1.0e-03 +/- 1.0e-04 vs bound=-1.1e-03 (exact -1.2e-03)
decay                        FAIL  s=100: 0.5000<= 0.4000+0.0100
log_fit                      PASS  slope=60.0 (cap 100), rss ln=1 vs ln^2=2
2 of 5 checks failed
"""


def test_failing_checks_reads_fail_lines_only():
    assert bench_pairs.failing_checks(VERIFY_STDOUT) == ["drift_nonleader_clean", "decay"]
    passing = "constants                    PASS  FAIL in the detail\nall 1 checks passed\n"
    assert bench_pairs.failing_checks(passing) == []


def test_seed_list_joins_spans():
    assert bench_pairs._seed_list("11-13,21,101-102") == [11, 12, 13, 21, 101, 102]
    assert bench_pairs._seeds("grid_gradient:7-8") == ("grid_gradient", [7, 8])


def test_summarise_verify_counts_seeds_and_checks():
    def run(failing, code=0):
        return {"exit": 1 if failing else code, "failing": failing}

    runs = {
        "parent": [run(["decay", "drift_leader_clean"]), run(["decay"]), run([])],
        "change": [run([]), run([], code=2), run([])],
    }
    summary = bench_pairs.summarise_verify(runs)
    assert summary["parent"] == {
        "seeds": 3,
        "seeds_with_failure": 2,
        "failures_by_check": {"decay": 2, "drift_leader_clean": 1},
    }
    assert summary["change"] == {"seeds": 3, "seeds_with_failure": 1, "failures_by_check": {}}


# Exits at once and leaves a forked child, whose pid it prints, sleeping in its session.
LEAVES_A_CHILD = """
import os, time
pid = os.fork()
if pid == 0:
    time.sleep(60)
else:
    print(pid)
"""


# Burns BURN_S of CPU in a forked child it reaps, then as much itself.
BURNS_CPU = """
import os, time
BURN_S = 0.3

def burn():
    start = time.process_time()
    while time.process_time() - start < BURN_S:
        pass

pid = os.fork()
if pid == 0:
    burn()
    os._exit(0)
os.waitpid(pid, 0)
burn()
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork and process groups")
class TestRunInSession:
    def test_clean_run_leaves_nothing(self, tmp_path):
        done, stray, _ = bench_pairs.run_in_session([sys.executable, "-c", "print('hi')"],
                                                    str(tmp_path))
        assert (done.returncode, done.stdout, stray) == (0, "hi\n", False)

    def test_cpu_time_counts_reaped_descendants(self, tmp_path):
        done, _, cpu_s = bench_pairs.run_in_session([sys.executable, "-c", BURNS_CPU],
                                                    str(tmp_path))
        assert done.returncode == 0
        # 0.3 s in the reaped child and 0.3 s in the run, plus interpreter start-up
        assert 0.6 <= cpu_s < 3.0

    def test_outliving_child_is_reported_and_killed(self, tmp_path):
        start = time.monotonic()
        done, stray, _ = bench_pairs.run_in_session([sys.executable, "-c", LEAVES_A_CHILD],
                                                    str(tmp_path))
        assert done.returncode == 0 and stray
        assert time.monotonic() - start < 30  # the child's open stdout did not stall the wait
        child = int(done.stdout)
        deadline = time.monotonic() + 10
        with pytest.raises(ProcessLookupError):
            while time.monotonic() < deadline:
                os.kill(child, 0)
                time.sleep(0.05)

    def test_left_running_is_false_for_an_empty_group(self):
        proc = subprocess.Popen([sys.executable, "-c", "pass"], start_new_session=True)
        proc.wait()
        assert not bench_pairs.left_running(proc.pid)
