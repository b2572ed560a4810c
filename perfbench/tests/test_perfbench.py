"""Self-tests of the benchmark on the smoke-size workloads.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import outputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = list(workloads.WORKLOADS)


def cli_sweep(workload, out_dir, seed=0):
    """Run one smoke sweep in-process; returns the config used."""
    import augrkhs.cli
    config = workloads.make_config(workload, "smoke", seed, str(out_dir))
    path = f"{out_dir}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    code = augrkhs.cli.main([config["command"], "--config", path])
    assert code == 0
    return config


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace):
    got = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--size", "smoke", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    lines = got.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    declared = run.declared_metrics()["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    table = lines[:-1]
    for name, unit in declared.items():
        assert any(line.split()[1:2] == [name] and line.endswith(" " + unit)
                   for line in table), name
    for name in ("cell_failure_rate", "output_mismatches"):
        assert any(line.split()[1:3] == [name, "0"] for line in table), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_spans_nest(workload, tmp_path):
    tr = tracer.Tracer()
    tr.install()
    try:
        config = cli_sweep(workload, tmp_path / "out")
    finally:
        tr.restore()
    spans = tr.spans
    assert spans and tr.cells == workloads.cell_count(config)
    for name, start, end, parent, _cell, _info in spans:
        assert start <= end
        if parent is not None:
            assert spans[parent][1] <= start and end <= spans[parent][2], name
    summary = tracer.summarize(spans)
    eps = 1e-9
    for name, fn in summary["functions"].items():
        assert -eps <= fn["self_s"] <= fn["busy_s"] + eps, name
    assert sum(fn["self_s"] for fn in summary["functions"].values()) \
        <= summary["wall_s"] + eps
    assert sum(summary["layers"].values()) <= summary["wall_s"] + eps
    roots = [s for s in spans if s[3] is None]
    assert [s[0] for s in roots] == ["cli.main"]


def test_module_functions_restored():
    import augrkhs
    for layer in tracer.LAYERS:
        __import__(f"augrkhs.{layer}")
    modules = [m for n, m in sys.modules.items()
               if m is not None and (n == "augrkhs" or n.startswith("augrkhs."))]
    before = {m.__name__: dict(vars(m)) for m in modules}
    cell_fns = dict(augrkhs.harness._CELL_FN)
    tr = tracer.Tracer()
    tr.install()
    try:
        # bindings by name in other modules are wrapped, not only the definer
        original = before["augrkhs.spectral"]["decompose"]
        for module in (augrkhs.spectral, augrkhs.complexity, augrkhs.encoders):
            assert module.decompose is not original
            assert module.decompose.__wrapped__ is original
        assert augrkhs.harness.build_hypercube.__wrapped__ is \
            before["augrkhs.processes"]["build_hypercube"]
        assert augrkhs.harness._CELL_FN["kappa"] is not cell_fns["kappa"]
    finally:
        tr.restore()
    for m in modules:
        now = vars(m)
        assert all(now[k] is v for k, v in before[m.__name__].items()), m.__name__
    assert augrkhs.harness._CELL_FN == cell_fns


@pytest.mark.parametrize("workload", WORKLOADS)
def test_outputs_match_reference_and_perturbation_is_caught(workload, tmp_path):
    config = cli_sweep(workload, tmp_path / "out", seed=3)
    found = outputs.extract(config["command"], config["output_dir"])
    reference = run.load_reference(workload, "smoke", workloads.master_seed(3))
    assert found.problems == []
    assert outputs.compare(found.values, reference) == []
    for key, value in reference.items():
        perturbed = copy.deepcopy(reference)
        if isinstance(value, list):
            perturbed[key][-1] = value[-1] * (1 + 1e-4) + 1e-9
        elif isinstance(value, bool) or value is None or isinstance(value, str):
            continue
        elif isinstance(value, int):
            perturbed[key] = value + 1
        else:
            perturbed[key] = value * (1 + 1e-4) + 1e-9
        assert len(outputs.compare(found.values, perturbed)) == 1, key


def test_closed_form_violation_is_caught(tmp_path):
    config = cli_sweep("kappa-sweep", tmp_path / "out")
    path = os.path.join(config["output_dir"], "kappa.csv")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    fields = lines[1].split(",")
    assert fields[1] == "random_mask"
    fields[5] = repr(float(fields[5]) * 1.001)  # kappa_sq_exact
    lines[1] = ",".join(fields)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    found = outputs.extract("kappa", config["output_dir"])
    assert len(found.problems) == 1 and "(2-alpha)^d" in found.problems[0]


def test_kappa_outputs_identical_across_seeds(tmp_path):
    texts = []
    for seed in (0, 5):
        config = cli_sweep("kappa-sweep", tmp_path / f"s{seed}", seed=seed)
        with open(os.path.join(config["output_dir"], "kappa.csv"), "rb") as fh:
            texts.append(fh.read())
    assert texts[0] == texts[1]


def test_exact_counters():
    kappa = workloads.make_config("kappa-sweep", "full", 0, "out")
    spectrum = workloads.make_config("spectrum-export", "full", 0, "out")
    assert workloads.cell_count(kappa) == 16
    assert workloads.repeat_cell_frac(kappa) == 0.5
    assert workloads.cell_count(spectrum) == 12
    assert workloads.repeat_cell_frac(spectrum) == 0.0
    assert workloads.master_seed(11) == 11 % workloads.MASTER_SEEDS


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "outputs.py", "tracer.py", "workloads.py"):
        with open(os.path.join(BENCH, name), "rb") as src:
            (bench / name).write_bytes(src.read())
    with open(os.path.join(ROOT, "BENCHMARK.json"), "rb") as src:
        (tmp_path / "BENCHMARK.json").write_bytes(src.read())
    got = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kappa-sweep"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert got.returncode != 0
    assert got.stdout == ""
