#!/usr/bin/env python3
"""Write ``reference/<size>/<workload>.json`` from the current program.

The committed references hold the outputs of the program as it was when
the benchmark was added.  Regenerate them only for a change whose new
results are intended and documented.

    python3 perfbench/make_reference.py [--size full|smoke] [--workload NAME]

Every master seed is run; a workload whose values are identical for all of
them (kappa and spectrum cells do not use the seed) is stored once under
``"all"``, otherwise per master seed under ``"by_master_seed"``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run
import outputs
import workloads


def reference_values(workload: str, size: str, master: int) -> dict:
    out_dir = os.path.join(run.OUT_ROOT, "reference", workload, str(master))
    shutil.rmtree(out_dir, ignore_errors=True)
    config = workloads.make_config(workload, size, master, out_dir)
    os.makedirs(out_dir)
    cfg_path = os.path.join(out_dir, "config.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    log = os.path.join(out_dir, "cli.log")
    argv = [sys.executable, "-m", "augrkhs.cli", config["command"],
            "--config", cfg_path, "--jobs", "1"]
    wall, _, _, code = run.timed(argv, log)
    found = outputs.extract(config["command"], out_dir)
    if code != 0 or found.failed or found.problems:
        raise SystemExit(f"{workload} master seed {master}: exit {code}, "
                         f"{found.failed} failed cells, {found.problems[:5]}")
    print(f"{workload} {size} master seed {master}: {found.cells} cells, "
          f"{wall:.1f} s", flush=True)
    shutil.rmtree(out_dir)
    return found.values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS))
    args = parser.parse_args()
    chosen = [args.workload] if args.workload else list(workloads.WORKLOADS)
    for workload in chosen:
        per_seed = {str(m): reference_values(workload, args.size, m)
                    for m in range(workloads.MASTER_SEEDS)}
        if all(v == per_seed["0"] for v in per_seed.values()):
            stored = {"all": per_seed["0"]}
        else:
            stored = {"by_master_seed": per_seed}
        path = os.path.join(run.HERE, "reference", args.size, f"{workload}.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(stored, fh, indent=0, sort_keys=True)
            fh.write("\n")
        print(f"{workload}: {'identical for every master seed' if 'all' in stored else 'depends on the master seed'} -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
