import argparse
import contextlib
import hashlib
import json
import os
import pathlib
import platform
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from banditlab.cli import _load_json, _parse_experiment, _parse_instances, main
from banditlab.engine import LOCKSTEP_MIN_REPLICATIONS, InstanceSpec, split_seed

BASE_CONFIG = {
    "schema_version": 1,
    "horizon": 300,
    "replications": 2,
    "master_seed": 42,
    "instance": {"means": [0.2, 0.5, 0.9]},
    "algorithms": [{"algorithm": "samba", "params": {"alpha": 0.05}}],
    "corruption": {"schemes": ["none", "consecutive"], "budgets": [0, 5]},
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_rows(path):
    lines = path.read_text().splitlines()
    return lines[0], lines[1:]


class TestRun:
    def test_happy_path_outputs(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_rows(out / "results.csv")
        assert header == "algorithm,scheme,corruption_level,K,mean_regret,sd_regret,replications,seed"
        assert len(rows) == 2  # the clean cell, then consecutive at 5
        first = rows[0].split(",")
        assert first[0] == "samba"
        assert first[3] == "3"
        assert first[6] == "2"
        curves_header, curve_rows = read_rows(out / "curves.csv")
        assert curves_header == "algorithm,scheme,corruption_level,t,mean_regret,sd_regret"
        assert curve_rows  # one row per cell per checkpoint
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["generator"] == "philox4x64-splitmix64"
        assert manifest["master_seed"] == 42
        assert sorted(manifest["outputs"]) == ["curves.csv", "results.csv"]
        assert manifest["python"] == "{}.{}.{}".format(*sys.version_info[:3])
        assert manifest["numpy"] == np.__version__
        assert manifest["platform"] == f"{sys.platform}-{platform.machine()}"

    def test_one_clean_row_per_algorithm_first(self, tmp_path):
        # configs/quickstart.json's grid: scheme none and budget 0 name one
        # clean cell, played first, so no row reports corruption never played
        payload = {**BASE_CONFIG, "horizon": 2000,
                   "algorithms": [{"algorithm": "samba", "params": {"alpha": 0.05}},
                                  {"algorithm": "tsallis_inf"}],
                   "corruption": {"schemes": ["none", "consecutive"], "budgets": [0, 500]}}
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 0
        _, rows = read_rows(out / "results.csv")
        assert [tuple(row.split(",")[:3]) for row in rows] == [
            ("samba", "none", "0"),
            ("tsallis_inf", "none", "0"),
            ("samba", "consecutive", "500"),
            ("tsallis_inf", "consecutive", "500"),
        ]

    def test_repeated_key_named(self, tmp_path, capsys):
        payload = {**BASE_CONFIG,
                   "algorithms": [{"algorithm": "samba", "params": {"alpha": 0.05}},
                                  {"algorithm": "samba", "params": {"alpha": 0.1}}]}
        assert main(["run", "--config", write_config(tmp_path, payload),
                     "--out", str(tmp_path / "o")]) == 2
        assert "rows keyed samba,none,0,3 " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_missing_config_flag(self, capsys):
        assert main(["run"]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["run", "--config", str(path)]) == 2

    def test_unreadable_config_exit_2(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"schema_version": 1, "horizon": 300, "x": "\xff"}')
        assert main(["run", "--config", str(path)]) == 2
        assert main(["run", "--config", str(tmp_path)]) == 2  # a directory

    def test_wrong_schema_version(self, tmp_path):
        cfg = write_config(tmp_path, {**BASE_CONFIG, "schema_version": 2})
        assert main(["run", "--config", cfg]) == 2

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda c: c.update(algorithms=[]),
            lambda c: c.update(algorithms=[{"algorithm": "thompson"}]),
            lambda c: c.update(horizon=0),
            lambda c: c.update(replications=0),
            lambda c: c.update(instance={"means": [0.5]}),
            lambda c: c.update(instance={"means": [0.5, 1.7]}),
            lambda c: c.update(corruption={"schemes": ["midnight"], "budgets": [5]}),
            lambda c: c.update(corruption={"schemes": ["consecutive"], "budgets": [-2]}),
            lambda c: c.update(corruption={"schemes": [], "budgets": [5]}),
            lambda c: c.update(master_seed=-1),
            lambda c: c.update(master_seed=2**64),
            # explicit rounds go only into a library CorruptionLedger: custom
            # is not a scheme
            pytest.param(lambda c: c.update(corruption={"schemes": ["custom"], "budgets": [5]}),
                         id="custom_scheme"),
            # JSON true/false load as Python ints
            pytest.param(lambda c: c.update(horizon=True), id="horizon_bool"),
            pytest.param(lambda c: c.update(replications=True), id="replications_bool"),
            pytest.param(lambda c: c.update(master_seed=True), id="master_seed_bool"),
            pytest.param(lambda c: c.update(instance={"k": True, "means": "uniform"}),
                         id="k_bool"),
            # above core.MAX_ARMS the run would fail after the parse
            pytest.param(lambda c: c.update(instance={"k": 20000, "means": "uniform"}),
                         id="k_above_max_arms"),
            # json.load accepts NaN and Infinity
            pytest.param(lambda c: c.update(corruption={"schemes": ["consecutive"],
                                                        "budgets": [float("nan")]}),
                         id="budget_nan"),
            pytest.param(lambda c: c.update(corruption={"schemes": ["consecutive"],
                                                        "budgets": [float("inf")]}),
                         id="budget_inf"),
            pytest.param(lambda c: c.update(corruption={"schemes": ["consecutive"],
                                                        "budgets": [10**400]}),
                         id="budget_beyond_float"),
            pytest.param(lambda c: c.update(corruption={"schemes": ["consecutive"], "budgets": [5],
                                                        "per_step_cost": float("nan")}),
                         id="per_step_cost_nan"),
            pytest.param(lambda c: c.update(corruption={"schemes": ["consecutive"], "budgets": [5],
                                                        "per_step_cost": float("inf")}),
                         id="per_step_cost_inf"),
            # policy params are checked against the constructors before any run
            pytest.param(lambda c: c.update(algorithms=[{"algorithm": "samba",
                                                         "params": {"alpah": 0.05}}]),
                         id="params_unknown_name"),
            pytest.param(lambda c: c.update(algorithms=[{"algorithm": "samba",
                                                         "params": {"alpha": 1.5}}]),
                         id="params_alpha_out_of_range"),
            pytest.param(lambda c: c.update(algorithms=[{"algorithm": "tsallis_inf",
                                                         "params": {"eta_scale": "big"}}]),
                         id="params_wrong_type"),
            pytest.param(lambda c: c.update(algorithms=[{"algorithm": "barbar",
                                                         "params": {"delta": 5}}]),
                         id="params_barbar_delta_out_of_range"),
            # barbar/cbarbar take no delta: an in-range one would go unread
            pytest.param(lambda c: c.update(algorithms=[{"algorithm": "barbar",
                                                         "params": {"delta": 0.05}}]),
                         id="params_barbar_delta"),
            pytest.param(lambda c: c.update(algorithms=[{"algorithm": "cbarbar",
                                                         "params": {"delta": 0.05}}]),
                         id="params_cbarbar_delta"),
            # swap_extremes can shift at most max(0.9, 1 - 0.2) = 0.9 per round:
            # a larger per-step cost would spend 3.6 of a budget of 6
            pytest.param(lambda c: c.update(instance={"means": [0.2, 0.9]},
                                            corruption={"schemes": ["consecutive"], "budgets": [6],
                                                        "strategy": "swap_extremes",
                                                        "per_step_cost": 1.5}),
                         id="per_step_cost_above_reach"),
            # uniform means: every replication's drawn instance must be reachable
            pytest.param(lambda c: c.update(instance={"k": 4, "means": "uniform"},
                                            corruption={"schemes": ["consecutive"], "budgets": [5],
                                                        "per_step_cost": 0.999}),
                         id="per_step_cost_above_drawn_reach"),
            # every mean must be a finite JSON number; true would run as 1.0
            pytest.param(lambda c: c.update(instance={"means": [0.2, "0.8"]}), id="means_string"),
            pytest.param(lambda c: c.update(instance={"means": [0.2, None]}), id="means_null"),
            pytest.param(lambda c: c.update(instance={"means": [0.2, [0.8]]}), id="means_list"),
            pytest.param(lambda c: c.update(instance={"means": [0.2, True]}), id="means_bool"),
            pytest.param(lambda c: c.update(instance={"means": [0.2, float("nan")]}),
                         id="means_nan"),
            # labels are written unquoted into results.csv and curves.csv
            pytest.param(lambda c: c.update(algorithms=[{"algorithm": "samba", "label": 5}]),
                         id="label_not_string"),
            pytest.param(lambda c: c.update(algorithms=[{"algorithm": "samba", "label": "a,b"}]),
                         id="label_comma"),
            pytest.param(lambda c: c.update(algorithms=[{"algorithm": "samba", "label": "a\nb"}]),
                         id="label_newline"),
            pytest.param(lambda c: c.update(algorithms=[{"algorithm": "samba", "label": "a\rb"}]),
                         id="label_carriage_return"),
            # schema_version must be the JSON integer 1
            pytest.param(lambda c: c.update(schema_version=True), id="schema_version_bool"),
            pytest.param(lambda c: c.update(schema_version=1.0), id="schema_version_float"),
            # params must be finite numbers: true would run as 1.0, NaN and
            # Infinity would fail mid-grid
            pytest.param(lambda c: c.update(algorithms=[{"algorithm": "barbar",
                                                         "params": {"lambda_scale": True}}]),
                         id="params_bool"),
            pytest.param(lambda c: c.update(algorithms=[{"algorithm": "barbar",
                                                         "params": {"lambda_scale": float("nan")}}]),
                         id="params_nan"),
            pytest.param(lambda c: c.update(algorithms=[{"algorithm": "tsallis_inf",
                                                         "params": {"eta_scale": float("inf")}}]),
                         id="params_inf"),
            # a key the schema does not define would be ignored
            pytest.param(lambda c: c.update(horizn=500), id="unknown_top_level_key"),
            pytest.param(lambda c: c.update(instance={"means": [0.2, 0.9], "mean": [0.5, 0.6]}),
                         id="unknown_instance_key"),
            pytest.param(lambda c: c.update(corruption={"schemes": ["consecutive"], "budgets": [5],
                                                        "stratgy": "swap_extremes"}),
                         id="unknown_corruption_key"),
            pytest.param(lambda c: c.update(algorithms=[{"algorithm": "samba",
                                                         "param": {"alpha": 0.5}}]),
                         id="unknown_algorithm_key"),
            pytest.param(lambda c: c.update(instance={"means": [0.2, 0.9], "k": 5}),
                         id="k_with_explicit_means"),
            # a grid is written one way: lists under the plural keys
            pytest.param(lambda c: c.update(corruption={"scheme": "consecutive", "budget": 5}),
                         id="singular_keys_unknown"),
            pytest.param(lambda c: c.update(corruption={"schemes": "consecutive", "budgets": [5]}),
                         id="schemes_scalar"),
            pytest.param(lambda c: c.update(corruption={"schemes": ["consecutive"], "budgets": 5}),
                         id="budgets_scalar"),
            pytest.param(lambda c: c.update(corruption={"schemes": ["consecutive"], "budgets": []}),
                         id="budgets_empty"),
            # an entry that makes no cell: rows would report corruption never played
            pytest.param(lambda c: c.update(corruption={"schemes": ["none"], "budgets": [500]}),
                         id="budget_without_scheme"),
            pytest.param(lambda c: c.update(corruption={"schemes": ["consecutive"], "budgets": [0]}),
                         id="scheme_without_budget"),
            pytest.param(lambda c: c.update(corruption={"schemes": ["none"], "budgets": [0],
                                                        "per_step_cost": 0.5}),
                         id="per_step_cost_without_corrupted_cell"),
            pytest.param(lambda c: c.update(corruption={"schemes": ["none"], "budgets": [0],
                                                        "strategy": "swap_extremes"}),
                         id="strategy_without_corrupted_cell"),
            # two cells under one (label, scheme, budget, K) key would write
            # rows that cannot be told apart
            pytest.param(lambda c: c.update(corruption={"schemes": ["consecutive", "consecutive"],
                                                        "budgets": [5]}),
                         id="repeated_scheme"),
            pytest.param(lambda c: c.update(corruption={"schemes": ["consecutive"],
                                                        "budgets": [5, 5.0]}),
                         id="repeated_budget"),
            pytest.param(lambda c: c.update(instance={"k": [3, 3], "means": "uniform"}),
                         id="repeated_arm_count"),
            pytest.param(lambda c: c.update(algorithms=[
                {"algorithm": "samba", "params": {"alpha": 0.05}},
                {"algorithm": "samba", "params": {"alpha": 0.1}},
            ]), id="repeated_label"),
        ],
    )
    def test_config_errors_exit_2(self, tmp_path, mutate):
        payload = json.loads(json.dumps(BASE_CONFIG))
        mutate(payload)
        cfg = write_config(tmp_path, payload)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_per_step_cost_at_reach_runs(self, tmp_path):
        payload = {**BASE_CONFIG, "instance": {"means": [0.2, 0.9]},
                   "corruption": {"schemes": ["consecutive"], "budgets": [6],
                                  "strategy": "swap_extremes", "per_step_cost": 0.9}}
        cfg = write_config(tmp_path, payload)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    def test_drawn_reach_names_first_failing_replication(self, tmp_path, capsys):
        payload = {**BASE_CONFIG, "replications": 6, "instance": {"k": 3, "means": "uniform"},
                   "corruption": {"schemes": ["none", "consecutive"], "budgets": [5],
                                  "per_step_cost": 0.8}}
        cfg = write_config(tmp_path, payload)
        # suppress_optimal shifts at most the best drawn mean. Cell 0 is the
        # clean cell, which has no per-step cost; cell 1 plays consecutive,
        # with seeds 1 * replications + rep
        failing = [
            rep for rep in range(6)
            if max(InstanceSpec(k=3).resolve(split_seed(42, 6 + rep)).means) < 0.8
        ]
        assert failing
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"K=3, replication {failing[0]} (cell 1)" in capsys.readouterr().err

    def test_per_step_cost_within_drawn_reach_runs(self, tmp_path):
        payload = {**BASE_CONFIG, "instance": {"k": 3, "means": "uniform"},
                   "corruption": {"schemes": ["consecutive"], "budgets": [5],
                                  "per_step_cost": 0.05}}
        cfg = write_config(tmp_path, payload)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exit_2(self, tmp_path, threads):
        cfg = write_config(tmp_path, BASE_CONFIG)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--threads", threads]) == 2

    def test_non_integer_threads_env_exit_2(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BANDITLAB_THREADS", "abc")
        cfg = write_config(tmp_path, BASE_CONFIG)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "command, flag",
        [
            pytest.param("run", ["--fast"], id="run-fast"),
            pytest.param("sweep", ["--fast"], id="sweep-fast"),
            pytest.param("bench", ["--fast"], id="bench-fast"),
            # verify writes no files; bench runs in one process
            pytest.param("verify", ["--out", "o"], id="verify-out"),
            pytest.param("bench", ["--threads", "2"], id="bench-threads"),
        ],
    )
    def test_flag_only_where_read(self, tmp_path, command, flag):
        cfg = write_config(tmp_path, BASE_CONFIG)
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", cfg, *flag])
        assert exc.value.code == 2

    def test_budget_exceeding_capacity_exit_2(self, tmp_path):
        payload = {**BASE_CONFIG, "horizon": 100,
                   "corruption": {"schemes": ["consecutive"], "budgets": [200]}}
        cfg = write_config(tmp_path, payload)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_budget_exceeding_capacity_in_a_worker_exit_2(self, tmp_path):
        # Two tasks of four episodes, so at two workers the error is raised in a worker.
        payload = {**BASE_CONFIG, "horizon": 100, "replications": 8,
                   "corruption": {"schemes": ["consecutive"], "budgets": [200]}}
        cfg = write_config(tmp_path, payload)
        argv = ["run", "--config", cfg, "--out", str(tmp_path / "o"), "--threads", "2"]
        assert main(argv) == 2

    def test_sweep_is_run(self, tmp_path):
        payload = {**BASE_CONFIG, "instance": {"k": [4, 6], "means": "uniform"}}
        cfg = write_config(tmp_path, payload)
        for command in ("run", "sweep"):
            assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 0
        for name in ("results.csv", "curves.csv"):
            assert (tmp_path / "run" / name).read_bytes() == (tmp_path / "sweep" / name).read_bytes()

    def test_seed_override_changes_rows(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", cfg, "--out", str(out_a)]) == 0
        assert main(["run", "--config", cfg, "--out", str(out_b), "--seed", "7"]) == 0
        assert (out_a / "results.csv").read_text() != (out_b / "results.csv").read_text()
        assert json.loads((out_b / "manifest.json").read_text())["master_seed"] == 7


class TestReproducibility:
    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", cfg, "--out", str(out_a)]) == 0
        assert main(["run", "--config", cfg, "--out", str(out_b)]) == 0
        assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()
        assert (out_a / "curves.csv").read_bytes() == (out_b / "curves.csv").read_bytes()

    def test_threads_flag_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", cfg, "--out", str(out_a), "--threads", "1"]) == 0
        assert main(["run", "--config", cfg, "--out", str(out_b), "--threads", "2"]) == 0
        assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()
        assert (out_a / "curves.csv").read_bytes() == (out_b / "curves.csv").read_bytes()

    def test_config_hash_ignores_key_order(self, tmp_path):
        reordered = {k: BASE_CONFIG[k] for k in reversed(list(BASE_CONFIG))}
        cfg_a = write_config(tmp_path, BASE_CONFIG, "a.json")
        cfg_b = write_config(tmp_path, reordered, "b.json")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", cfg_a, "--out", str(out_a)]) == 0
        assert main(["run", "--config", cfg_b, "--out", str(out_b)]) == 0
        hash_a = json.loads((out_a / "manifest.json").read_text())["config_hash"]
        hash_b = json.loads((out_b / "manifest.json").read_text())["config_hash"]
        assert hash_a == hash_b

    def test_different_config_different_hash(self, tmp_path):
        cfg_a = write_config(tmp_path, BASE_CONFIG, "a.json")
        cfg_b = write_config(tmp_path, {**BASE_CONFIG, "master_seed": 43}, "b.json")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", cfg_a, "--out", str(out_a)])
        main(["run", "--config", cfg_b, "--out", str(out_b)])
        hash_a = json.loads((out_a / "manifest.json").read_text())["config_hash"]
        hash_b = json.loads((out_b / "manifest.json").read_text())["config_hash"]
        assert hash_a != hash_b


# Small grids whose outputs are pinned by digest. "lockstep" plays samba and
# tsallis_inf as lockstep columns (R >= 32, T past one 1024-round window),
# fs_aae round by round and barbar/cbarbar in committed blocks, under every
# config scheme; "per_round" plays samba and tsallis_inf round by round.
GOLDEN_CONFIGS = {
    "lockstep": {
        "schema_version": 1,
        "horizon": 1200,
        "replications": 32,
        "master_seed": 1717,
        "instance": {"k": [2, 6], "means": "uniform"},
        "algorithms": [
            {"algorithm": "samba", "params": {"alpha": 0.05}},
            {"algorithm": "tsallis_inf"},
            {"algorithm": "fs_aae"},
            {"algorithm": "barbar"},
            {"algorithm": "cbarbar"},
        ],
        "corruption": {
            "schemes": ["none", "consecutive", "even_steps", "delayed_block", "random_early"],
            "budgets": [3],
        },
    },
    "per_round": {
        "schema_version": 1,
        "horizon": 400,
        "replications": 4,
        "master_seed": 1718,
        "instance": {"means": [0.1, 0.3, 0.5, 0.7, 0.8, 0.9]},
        "algorithms": [{"algorithm": "samba", "params": {"alpha": 0.1}}, {"algorithm": "tsallis_inf"}],
        "corruption": {
            "schemes": ["none", "consecutive", "random_early"],
            "budgets": [0, 12],
            "strategy": "swap_extremes",
        },
    },
}
# SHA-256 of (results.csv, curves.csv). A change that moves them on purpose
# updates them and says why in CHANGES.md.
GOLDEN_DIGESTS = {
    "lockstep": (
        "871d15a26b4bf71cf6fa7ba9237f295070b237b5f7ace581c9dca878bd860d49",
        "3adc847f8e5221452fc221d6fb4c7eefe323ee668f09df1f76fc908e0e4b4cf5",
    ),
    "per_round": (
        "e2cdd123a5addd575706ae810077e3b2305e6fc3a5b3bf7e0c6a817c4219a3dc",
        "ffbf1eadcb4aa2238403684ddea6b18df28f86a8a08d10c2795513a446724f0b",
    ),
}


class TestGoldenDigests:
    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("name", list(GOLDEN_CONFIGS))
    def test_outputs_match_digests(self, tmp_path, name, threads):
        cfg = GOLDEN_CONFIGS[name]
        lockstep = cfg["replications"] >= LOCKSTEP_MIN_REPLICATIONS
        assert lockstep == (name == "lockstep")
        out = tmp_path / "out"
        argv = ["sweep", "--config", write_config(tmp_path, cfg), "--out", str(out)]
        assert main(argv + ["--threads", threads]) == 0
        digests = tuple(
            hashlib.sha256((out / f).read_bytes()).hexdigest() for f in ("results.csv", "curves.csv")
        )
        assert digests == GOLDEN_DIGESTS[name]


class TestSweep:
    def test_k_grid(self, tmp_path):
        payload = {
            "schema_version": 1,
            "horizon": 200,
            "replications": 2,
            "master_seed": 9,
            "instance": {"k": [4, 6], "means": "uniform"},
            "algorithms": [{"algorithm": "samba", "params": {"alpha": 0.05}}],
        }
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        _, rows = read_rows(out / "results.csv")
        assert [r.split(",")[3] for r in rows] == ["4", "6"]

    def test_empty_grid_exit_2(self, tmp_path):
        payload = {**BASE_CONFIG, "instance": {"k": [], "means": "uniform"}}
        cfg = write_config(tmp_path, payload)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_non_number_means_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, {**BASE_CONFIG, "instance": {"means": ["a", 0.5]}})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_label_distinguishes_same_algorithm(self, tmp_path):
        payload = {
            **BASE_CONFIG,
            "corruption": None,
            "algorithms": [
                {"algorithm": "samba", "params": {"alpha": 0.02}, "label": "samba_slow"},
                {"algorithm": "samba", "params": {"alpha": 0.2}, "label": "samba_hot"},
            ],
        }
        payload.pop("corruption")
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        _, rows = read_rows(out / "results.csv")
        assert [r.split(",")[0] for r in rows] == ["samba_slow", "samba_hot"]


class TestBench:
    def test_bench_columns(self, tmp_path):
        payload = {
            "schema_version": 1,
            "horizon": 800,
            "replications": 2,
            "algorithms": [
                {"algorithm": "samba", "params": {"alpha": 0.05}},
                {"algorithm": "barbar"},
            ],
            "instance": {"means": [0.2, 0.5, 0.9]},
        }
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["bench", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_rows(out / "bench.csv")
        assert header == "algorithm,mean_s,sd_s,step_ratio"
        assert [r.split(",")[0] for r in rows] == ["samba", "barbar"]
        for row in rows:
            assert float(row.split(",")[1]) > 0


    @pytest.mark.parametrize(
        "extra",
        [
            pytest.param({"instance": None}, id="instance_null"),
            pytest.param({"instance": {"means": [0.2, "x"]}}, id="means_string"),
            pytest.param({"instance": {"means": [0.2, True]}}, id="means_bool"),
            pytest.param({"algorithms": [{"algorithm": "samba", "label": "a,b"}]},
                         id="label_comma"),
            pytest.param({"horizn": 100}, id="unknown_key"),
            pytest.param({"instance": {"k": [4, 6], "means": "uniform"}}, id="k_grid"),
        ],
    )
    def test_bad_config_exit_2(self, tmp_path, extra):
        payload = {"schema_version": 1, "horizon": 100, "replications": 2, **extra}
        cfg = write_config(tmp_path, payload)
        assert main(["bench", "--config", cfg, "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("seed", ["abc", True, -1])
    def test_bad_master_seed_exit_2(self, tmp_path, seed):
        payload = {"schema_version": 1, "horizon": 100, "master_seed": seed}
        cfg = write_config(tmp_path, payload)
        assert main(["bench", "--config", cfg, "--out", str(tmp_path / "out")]) == 2


# What `verify --fast` prints at master seed 2024, line for line. A change
# that moves these lines on purpose updates them and says why in CHANGES.md.
VERIFY_CONSTANTS_LINE = (
    "constants                    PASS  alpha=0.05 vs bound=0.125, epsilon=0.0357143, "
    "xi=0.00142857, zeta=0.0143713"
)
VERIFY_LOG_FIT_LINE = (  # the tamper does not reach the engine's curve
    "log_fit                      PASS  slope=149.8 (cap 1800), rss ln=133 vs ln^2=1.45e+03"
)
VERIFY_CLEAN_LINES = [
    VERIFY_CONSTANTS_LINE,
    "drift_nonleader_clean        PASS  drift=-1.282e-02 +/- 5.5e-04 vs bound=-1.429e-03 (exact -1.271e-02)",
    "drift_nonleader_corrupted    PASS  drift=-1.533e-03 +/- 5.1e-04 vs bound=-1.860e-04 (exact -1.435e-03)",
    "drift_leader_clean           PASS  drift=-3.999e-04 +/- 1.8e-05 vs bound=-8.726e-05 (exact -3.974e-04)",
    "drift_leader_corrupted       PASS  drift=-2.685e-04 +/- 8.5e-06 vs bound=-6.648e-05 (exact -2.696e-04)",
    "recovery                     PASS  mean=5.53 +/- 8.06 rounds vs bound=36.0 (979 reps)",
    "decay                        PASS  s=100: 0.4154<= 0.4932+0.0197, "
    "s=1000: 0.2157<= 0.4390+0.0161, s=5000: 0.0742<= 0.2951+0.0054",
    "oracle_mc                    PASS  mc=1.50664 +/- 0.00651 vs exact=1.50442",
    VERIFY_LOG_FIT_LINE,
    "all 9 checks passed",
]
VERIFY_TAMPERED_LINES = [
    VERIFY_CONSTANTS_LINE,
    "drift_nonleader_clean        FAIL  drift=7.750e-02 +/- 5.8e-04 vs bound=-1.429e-03 (exact -1.271e-02)",
    "drift_nonleader_corrupted    FAIL  drift=8.770e-02 +/- 5.2e-04 vs bound=-1.860e-04 (exact -1.435e-03)",
    "drift_leader_clean           PASS  drift=-6.018e-03 +/- 1.0e-05 vs bound=-8.726e-05 (exact -3.974e-04)",
    "drift_leader_corrupted       PASS  drift=-2.914e-03 +/- 4.9e-06 vs bound=-6.648e-05 (exact -2.696e-04)",
    "recovery                     FAIL  not set up: 1000/1000 replications above q=1/2 after 8000 clean rounds",
    "decay                        FAIL  not set up: only 0/60 replications produced an embedded chain of length 5000",
    "oracle_mc                    FAIL  mc=1.29280 +/- 0.00542 vs exact=1.50442",
    VERIFY_LOG_FIT_LINE,
    "5 of 9 checks failed",
]


class TestVerifyCommand:
    # full-size verification runs in the acceptance gate; --fast keeps the
    # command-level plumbing checks quick

    CONFIG = {
        "schema_version": 1,
        "alpha": 0.05,
        "master_seed": 2024,
    }

    def test_clean_pass_exit_0(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.CONFIG)
        code = main(["verify", "--config", cfg, "--fast"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines() == VERIFY_CLEAN_LINES

    def test_tampered_update_exit_1_names_drift(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.CONFIG)
        code = main(["verify", "--config", cfg, "--fast", "--tamper-update"])
        out = capsys.readouterr().out
        assert code == 1
        assert out.splitlines() == VERIFY_TAMPERED_LINES

    def test_alpha_past_the_drift_condition_exit_1_with_every_check(self, tmp_path, capsys):
        # alpha = 0.2 is a valid step size but above this instance's bound of
        # 0.125: the checks that need the bound fail with the reason.
        cfg = write_config(tmp_path, {**self.CONFIG, "alpha": 0.2})
        code = main(["verify", "--config", cfg, "--fast"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 1
        assert len(lines) == 10
        assert lines[-1] == "4 of 9 checks failed"
        marks = {line.split()[0]: line.split()[1] for line in lines[:-1]}
        failing = {name for name, mark in marks.items() if mark == "FAIL"}
        assert failing == {"constants", "drift_nonleader_clean", "drift_nonleader_corrupted", "decay"}
        for line in lines[1:3]:
            assert line.endswith("FAIL  not set up: step size violates the drift condition; bound undefined")

    def test_bad_alpha_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, {**self.CONFIG, "alpha": 1.5})
        assert main(["verify", "--config", cfg, "--fast"]) == 2

    @pytest.mark.parametrize("seed", ["abc", True])
    def test_bad_master_seed_exit_2(self, tmp_path, seed):
        cfg = write_config(tmp_path, {**self.CONFIG, "master_seed": seed})
        assert main(["verify", "--config", cfg, "--fast"]) == 2

    @pytest.mark.parametrize(
        "instance",
        [
            pytest.param(None, id="instance_null"),
            pytest.param([0.2, 0.8], id="instance_list"),
            pytest.param({"means": [0.2, "0.8"]}, id="means_string"),
            pytest.param({"means": [0.2, True]}, id="means_bool"),
            pytest.param({"means": [0.2, 1.5]}, id="means_out_of_range"),
            pytest.param({"k": 3, "means": "uniform"}, id="uniform_means"),
            pytest.param({"means": [0.2, 0.8], "k": 2}, id="k_with_explicit_means"),
            pytest.param({"meens": [0.2, 0.8]}, id="unknown_instance_key"),
        ],
    )
    def test_bad_instance_exit_2(self, tmp_path, instance):
        cfg = write_config(tmp_path, {**self.CONFIG, "instance": instance})
        assert main(["verify", "--config", cfg, "--fast"]) == 2

    def test_unknown_key_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, {**self.CONFIG, "alhpa": 0.1})
        assert main(["verify", "--config", cfg, "--fast"]) == 2


BENCH_CONFIG = {"schema_version": 1, "horizon": 100, "replications": 2}
VERIFY_CONFIG = {"schema_version": 1, "alpha": 0.05, "master_seed": 2024}


class TestCommandKeys:
    """Each command accepts only the top-level keys it reads."""

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("verify", "horizon", 500),
            ("verify", "replications", 2),
            ("verify", "algorithms", [{"algorithm": "samba"}]),
            ("verify", "corruption", {"schemes": ["consecutive"], "budgets": [5]}),
            ("verify", "checkpoints_per_decade", 20),
            ("bench", "corruption", {"schemes": ["consecutive"], "budgets": [5]}),
            ("bench", "checkpoints_per_decade", 20),
            ("bench", "alpha", 0.05),
            ("run", "alpha", 0.05),
            ("run", "checkpoints_per_decade", 20),
            ("sweep", "alpha", 0.05),
        ],
    )
    def test_unread_key_exit_2(self, tmp_path, capsys, command, key, value):
        base = {"verify": VERIFY_CONFIG, "bench": BENCH_CONFIG}.get(command, BASE_CONFIG)
        cfg = write_config(tmp_path, {**base, key: value})
        flags = ["--fast"] if command == "verify" else ["--out", str(tmp_path / "o")]
        assert main([command, "--config", cfg, *flags]) == 2
        err = capsys.readouterr().err
        assert repr(key) in err and repr(command) in err

    @pytest.mark.parametrize(
        "name, command",
        [("quickstart", "run"), ("full_grid", "run"), ("k_sweep", "sweep"), ("verify", "verify")],
    )
    def test_shipped_configs_parse(self, name, command):
        path = pathlib.Path(__file__).parent.parent / "configs" / f"{name}.json"
        cfg = _load_json(str(path), command)
        if command == "verify":
            assert _parse_instances(cfg)[0].means is not None
        else:
            args = argparse.Namespace(seed=None)
            assert _parse_experiment(cfg, args).cells()


class TestProcessLevel:
    def test_module_entrypoint_and_argparse_exit(self):
        # unknown subcommand: argparse exits 2 at the process boundary
        proc = subprocess.run(
            [sys.executable, "-m", "banditlab.cli", "explode"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="workers are forked only where os.fork exists")
    def test_sigterm_leaves_no_worker_running(self, tmp_path):
        # About 5 s of work on two workers: four tasks of four 1e5-round episodes.
        payload = {**BASE_CONFIG, "horizon": 100_000, "replications": 8,
                   "algorithms": [{"algorithm": "samba", "params": {"alpha": 0.05}},
                                  {"algorithm": "tsallis_inf"}],
                   "corruption": {"schemes": ["none"], "budgets": [0]}}
        cfg = write_config(tmp_path, payload)
        proc = subprocess.Popen(
            [sys.executable, "-m", "banditlab.cli", "run", "--config", cfg,
             "--out", str(tmp_path / "o"), "--threads", "2"],
            start_new_session=True,
        )
        pgid = proc.pid
        try:
            children = pathlib.Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and proc.poll() is None:
                if not children.exists():  # no /proc: give the workers time to start
                    time.sleep(2)
                    break
                if len(children.read_text().split()) == 2:
                    break
                time.sleep(0.05)
            assert proc.poll() is None, "the run ended before it could be stopped"
            proc.terminate()
            proc.wait(timeout=10)
            deadline = time.monotonic() + 10
            while True:
                try:
                    os.killpg(pgid, 0)
                except ProcessLookupError:
                    break
                assert time.monotonic() < deadline, "a worker outlived the stopped run"
                time.sleep(0.05)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(pgid, signal.SIGKILL)
            proc.wait()

    def test_help_exits_zero(self):
        proc = subprocess.run(
            [sys.executable, "-m", "banditlab.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "run" in proc.stdout and "verify" in proc.stdout
