"""Show that the benchmark's output checks can go red.

Usage (from the repository root):

    python3 benchmark/selftest.py

1. ``verify --fast`` with the hidden ``--tamper-update`` flag (a deliberately
   broken SAMBA update) must report failed checks.
2. A valid grid output with one results.csv row made invalid must have
   exactly that cell counted as failed.

Prints one JSON line and exits 0 when both checks went red as expected.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import SRC, WORK_ROOT


def main() -> int:
    sys.path.insert(0, SRC)
    import workloads as wl

    seed = 2024
    work_dir = os.path.join(WORK_ROOT, f"selftest-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        verify = wl.WORKLOADS["verify_fast"]
        config_path = wl.write_config(verify.make_config(seed), os.path.join(work_dir, "verify.json"))
        argv = verify.argv(config_path, work_dir, seed) + ["--tamper-update"]
        code, stdout, _ = wl.call_cli(argv)
        attempted, failed, well_formed, failing = wl.check_verify(code, stdout)
        tamper = {"exit": code, "attempted": attempted, "failed": failed,
                  "well_formed": well_formed, "failing": failing}

        cfg = wl.grid_phased_corrupt_config(seed) | {"horizon": 2_000, "replications": 2}
        cfg["corruption"] = cfg["corruption"] | {"budgets": [round(0.048 * 2_000)]}
        grid_config = wl.write_config(cfg, os.path.join(work_dir, "grid.json"))
        out = os.path.join(work_dir, "out")
        code, _, _ = wl.call_cli(["run", "--config", grid_config, "--out", out, "--threads", "2"])
        clean_ok, _ = wl.check_grid(cfg, out)
        results = os.path.join(out, "results.csv")
        with open(results, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        row = lines[2].split(",")
        row[4] = repr(cfg["horizon"] + 1.0)  # regret above horizon x max gap
        lines[2] = ",".join(row)
        with open(results, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        bad_ok, problems = wl.check_grid(cfg, out)
        grid = {"exit": code, "clean_failed": clean_ok.count(False),
                "tampered_failed": bad_ok.count(False), "problems": problems}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    passed = (
        tamper["well_formed"] and tamper["failed"] > 0
        and grid["exit"] == 0 and grid["clean_failed"] == 0 and grid["tampered_failed"] == 1
    )
    print(json.dumps({"passed": passed, "tamper_update": tamper, "invalid_row": grid}))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
