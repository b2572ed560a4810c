#!/usr/bin/env python3
"""Layered benchmark of the augrkhs command line.

    python3 perfbench/run.py --workload kappa-sweep --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one table

Closed loop with one client: one sweep at a time, each sweep one ``augrkhs``
subprocess with ``--jobs 1``, timed from outside, its CPU time and peak RSS
taken from ``os.wait4``.  After one untimed warm-up sweep, sweeps repeat
while another fits in ``--seconds`` (at least one runs) and the medians are
reported.  Every sweep's outputs are checked against the reference values
in ``reference/``.

With ``--trace 1`` the run makes the warm-up, one plain sweep and one sweep
under ``tracer.py`` and reports per-layer numbers from the spans instead.

The last line of standard output is one JSON object with ``correct``,
``attempted`` (cells), ``failed`` (error rows) and ``metrics``; the metric
names and units are those of ``BENCHMARK.json``.  Raw results, the spans and
a run manifest go to ``.perfbench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field

import outputs
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
SETUP_RUNS = 5
DEFAULT_SEED = 0
DEFAULT_SECONDS = 25
CHECK_UNITS = {"cell_failure_rate": "ratio", "output_mismatches": "count"}


@dataclass
class Sweep:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    cells: int
    failed: int
    mismatches: list = field(default_factory=list)


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def timed(argv: list[str], log_path: str) -> tuple[float, float, float, int]:
    """Wall time, user+sys CPU, peak RSS (MiB) and exit code of one child."""
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=cli_env(),
                                stdin=subprocess.DEVNULL, stdout=log, stderr=log)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
            proc.returncode)


def load_reference(workload: str, size: str, master: int) -> dict:
    path = os.path.join(HERE, "reference", size, f"{workload}.json")
    with open(path, encoding="utf-8") as fh:
        stored = json.load(fh)
    return stored["all"] if "all" in stored else stored["by_master_seed"][str(master)]


class Run:
    """One benchmark run of one workload at one seed."""

    def __init__(self, workload: str, size: str, seed: int):
        self.workload, self.size, self.seed = workload, size, seed
        self.command = workloads.command(workload, size)
        self.work = os.path.join(OUT_ROOT, workload)
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.log = os.path.join(self.work, "cli.log")

    def config(self, label: str) -> tuple[dict, str]:
        out_dir = os.path.join(self.work, label)
        config = workloads.make_config(self.workload, self.size, self.seed,
                                       out_dir)
        path = out_dir + ".json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh, indent=1)
        return config, path

    def cli_args(self, cfg_path: str) -> list[str]:
        return [self.command, "--config", cfg_path, "--jobs", "1"]

    def setup_s(self) -> float:
        """Interpreter start, imports and config validation: ``--print-config``."""
        _, path = self.config("setup")
        argv = [sys.executable, "-m", "augrkhs.cli", *self.cli_args(path),
                "--print-config"]
        wall, _, _, code = timed(argv, self.log)
        if code != 0:
            raise RuntimeError(f"--print-config exited with {code}; "
                               f"see {self.log}")
        return wall

    def sweep(self, label: str, reference: dict, spans: str | None = None) -> Sweep:
        config, path = self.config(label)
        if spans is None:
            argv = [sys.executable, "-m", "augrkhs.cli", *self.cli_args(path)]
        else:
            argv = [sys.executable, os.path.join(HERE, "tracer.py"),
                    "--spans", spans, "--", *self.cli_args(path)]
        wall, cpu, rss, code = timed(argv, self.log)
        found = outputs.extract(self.command, config["output_dir"])
        misses = found.problems + outputs.compare(found.values, reference)
        expected = workloads.cell_count(config)
        failed = found.failed
        if code not in (0, 2):
            misses.append(f"CLI exited with {code}; see {self.log}")
            failed = expected
        elif (code == 2) != (found.failed > 0):
            misses.append(f"exit code {code} with {found.failed} error rows")
        if found.cells != expected and code in (0, 2):
            misses.append(f"{found.cells} cells in the outputs, "
                          f"{expected} in the config")
        shutil.rmtree(config["output_dir"], ignore_errors=True)
        return Sweep(wall, cpu, rss, code, expected, failed, misses)


def manifest(run: Run, master: int) -> dict:
    import numpy
    import scipy
    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=False)
        commit = got.stdout.strip() or None
    usage = shutil.disk_usage(OUT_ROOT)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: deps.get(k, {}).get("openblas configuration",
                                        deps.get(k, {}).get("name"))
                 for k in ("blas", "lapack")},
        "thread_env": {k: v for k, v in os.environ.items()
                       if k.endswith("_NUM_THREADS")},
        "git_commit": commit,
        "workload": run.workload,
        "size": run.size,
        "workload_seed": run.seed,
        "master_seed": master,
        "jobs": 1,
        "output_dir": run.work,
        "disk_free_gb": usage.free / 1e9,
    }


def declared_metrics() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {key: {m["name"]: m["unit"] for m in spec[key]}
            for key in ("end_to_end", "per_layer")}


def layer_metric(name: str, summary: dict, known: list[str]) -> float:
    """Value of ``<module>.self_s`` or ``<module>.<function>.<stat>``."""
    prefix, stat = name.rsplit(".", 1)
    if prefix in tracer.LAYERS and stat == "self_s":
        return summary["layers"][prefix]
    if prefix not in known:
        raise KeyError(f"no traced function {prefix!r} for metric {name!r}")
    fn = summary["functions"].get(prefix, {"calls": 0, "busy_s": 0.0,
                                           "self_s": 0.0})
    if stat in fn:
        return fn[stat]
    if stat == "busy_share":
        return fn["busy_s"] / summary["wall_s"]
    if prefix not in tracer.COUNTS:
        raise KeyError(f"{prefix!r} records no counts for metric {name!r}")
    counts = summary["counts"].get(prefix, {})
    rows, iters = counts.get("rows", 0), counts.get("iterations", 0)
    derived = {
        "table_mb": counts.get("table_bytes", 0) / 2**20,
        "pair_mb": counts.get("pair_bytes", 0) / 2**20,
        "rows_mb": counts.get("rows_bytes", 0) / 2**20,
        "written_mb": counts.get("written_bytes", 0) / 2**20,
        "iterations": iters,
        "rows": rows,
        "distinct_row_frac": counts.get("distinct_rows", 0) / rows if rows else 0.0,
        "us_per_iter": fn["busy_s"] / iters * 1e6 if iters else 0.0,
    }
    return derived[stat]


def run_workload(workload: str, size: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    run = Run(workload, size, seed)
    master = workloads.master_seed(seed)
    reference = load_reference(workload, size, master)
    config = workloads.make_config(workload, size, seed, run.work)
    result = {"manifest": manifest(run, master), "trace": trace}
    # the first heavy process after a pause runs slow on a shared VM: one
    # warm-up sweep is checked but not timed
    warmup = run.sweep("warmup", reference)
    if trace:
        spans_path = os.path.join(run.work, "spans.jsonl")
        timed_sweeps = [run.sweep("plain", reference),
                        run.sweep("traced", reference, spans=spans_path)]
        header, spans = tracer.load(spans_path)
        summary = tracer.summarize(spans)
        if header["cells"] != workloads.cell_count(config):
            timed_sweeps[1].mismatches.append(
                f"traced {header['cells']} cells, config has "
                f"{workloads.cell_count(config)}")
        extra = {
            "trace.wall_s": summary["wall_s"],
            "trace.overhead_s": timed_sweeps[1].wall_s - timed_sweeps[0].wall_s,
            "harness.cells": workloads.cell_count(config),
            "harness.repeat_cell_frac": workloads.repeat_cell_frac(config),
        }
        values = {name: extra[name] if name in extra
                  else layer_metric(name, summary, header["functions"])
                  for name in declared_metrics()["per_layer"]
                  if name not in CHECK_UNITS}
    else:
        # set-up runs are interleaved with the sweeps so that both sample
        # the same stretches of a shared machine's speed
        setup, timed_sweeps = [], []
        start = time.perf_counter()
        while True:
            setup.append(run.setup_s())
            timed_sweeps.append(run.sweep(f"sweep{len(timed_sweeps)}", reference))
            typical = statistics.median(s.wall_s for s in timed_sweeps)
            if time.perf_counter() - start + typical > seconds:
                break
        while len(setup) < SETUP_RUNS:
            setup.append(run.setup_s())
        result["setup_runs_s"] = setup
        values = {
            "wall_s": statistics.median(s.wall_s for s in timed_sweeps),
            "cpu_s": statistics.median(s.cpu_s for s in timed_sweeps),
            "peak_rss_mb": statistics.median(s.peak_rss_mb for s in timed_sweeps),
            "setup_s": statistics.median(setup),
        }
    sweeps = [warmup, *timed_sweeps]
    attempted = sum(s.cells for s in sweeps)
    failed = sum(s.failed for s in sweeps)
    mismatches = [m for s in sweeps for m in s.mismatches]
    checks = {"cell_failure_rate": failed / attempted,
              "output_mismatches": len(mismatches)}
    if trace:
        values.update(checks)
    result.update(sweeps=[asdict(s) for s in sweeps], metrics=values,
                  checks=checks, attempted=attempted, failed=failed)
    with open(os.path.join(run.work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    for message in mismatches[:20]:
        print(f"{workload}: mismatch: {message}", file=sys.stderr)
    return result


def main(argv=None) -> int:
    names = list(workloads.WORKLOADS)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny grids for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "augrkhs", "cli.py")):
        print(f"augrkhs sources not found under {SRC}", file=sys.stderr)
        return 2
    units = declared_metrics()["per_layer" if args.trace else "end_to_end"]
    chosen = names if args.workload == "all" else [args.workload]
    metrics, attempted, failed, correct = {}, 0, 0, True
    for workload in chosen:
        result = run_workload(workload, args.size, args.seed, args.seconds,
                              bool(args.trace))
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["checks"]["output_mismatches"] == 0 \
            and result["failed"] == 0
        shown = dict(result["metrics"], **result["checks"])
        for name, value in shown.items():
            unit = units.get(name) or CHECK_UNITS[name]
            print(f"{workload:<20} {name:<44} {value:>14.6g} {unit}")
        missing = set(units) - set(result["metrics"])
        if missing:
            raise KeyError(f"metrics not produced: {sorted(missing)}")
        prefix = f"{workload}." if args.workload == "all" else ""
        metrics.update({prefix + name: {"value": result["metrics"][name],
                                        "unit": unit}
                        for name, unit in units.items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
