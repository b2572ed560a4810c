import gc
import json
import math
import os
import stat
import sys
import threading
import time
import weakref
from collections import Counter

import numpy as np
import pytest

from augrkhs import complexity, harness, spectral
from augrkhs.cli import main
from augrkhs.exceptions import ValidationError
from augrkhs.harness import (
    HEADERS,
    cell_seed,
    figure_4a_data,
    fit_loglog_slope,
    resolve_config,
    run,
)


def kappa_config(tmp_path, **overrides):
    cfg = {
        "command": "kappa",
        "grid": {"scheme": ["random_mask", "block_mask"], "d_x": [3],
                 "alpha": [0.25, 0.5]},
        "seeds": [0],
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    return cfg


def test_resolve_config_validation(tmp_path):
    with pytest.raises(ValidationError, match="command"):
        resolve_config({"grid": {}, "seeds": [0], "output_dir": "x"})
    with pytest.raises(ValidationError, match="axes"):
        resolve_config({"command": "kappa", "grid": {"scheme": ["random_mask"]},
                        "seeds": [0], "output_dir": "x"})
    with pytest.raises(ValidationError, match="nonempty"):
        resolve_config({"command": "kappa",
                        "grid": {"scheme": [], "d_x": [3], "alpha": [0.5]},
                        "seeds": [0], "output_dir": "x"})
    with pytest.raises(ValidationError, match="seeds"):
        resolve_config(kappa_config(tmp_path, seeds=[]))
    with pytest.raises(ValidationError, match="scheme"):
        resolve_config(kappa_config(
            tmp_path, grid={"scheme": ["mystery"], "d_x": [3],
                            "alpha": [0.5]}))
    # a misspelt option would otherwise be ignored and its default used
    with pytest.raises(ValidationError, match="'max_iter'"):
        resolve_config({"command": "pretrain",
                        "grid": {"scheme": ["random_mask"], "d_x": [3],
                                 "alpha": [0.5], "objective": ["scl"],
                                 "d": [2]},
                        "seeds": [0], "output_dir": "x",
                        "options": {"max_iter": 5}})
    options = {name: 1.0 for name in harness.OPTIONS}
    assert resolve_config(kappa_config(tmp_path, options=options)).options \
        == options


def test_cell_seed_stable_and_distinct():
    a = cell_seed(0, scheme="random_mask", d_x=3, alpha=0.5)
    b = cell_seed(0, scheme="random_mask", d_x=3, alpha=0.5)
    c = cell_seed(0, scheme="random_mask", d_x=3, alpha=0.25)
    d = cell_seed(1, scheme="random_mask", d_x=3, alpha=0.5)
    assert a == b
    assert len({a, c, d}) == 3
    assert a == 7844895342657697870  # pinned: reproducibility across versions


def test_figure_4a_exact_curves():
    header, rows = figure_4a_data()
    assert header == HEADERS["figure_4a"]
    assert len(rows) == 101
    assert rows[0]["alpha"] == 0.0
    for value in (rows[0]["random_mask"], rows[0]["block_mask"],
                  rows[0]["block_mask_flip"]):
        assert value == pytest.approx(2.0, abs=1e-15)
    for value in (rows[100]["random_mask"], rows[100]["block_mask"],
                  rows[100]["block_mask_flip"]):
        assert value == pytest.approx(1.0, abs=1e-15)
    mid = rows[50]
    assert mid["random_mask"] == pytest.approx(1.5, abs=1e-15)
    assert mid["block_mask"] == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert mid["block_mask_flip"] == pytest.approx(1.25**0.75, abs=1e-12)
    assert mid["block_mask_flip"] == pytest.approx(1.18217701, abs=1e-8)
    # independent evaluation at every grid point
    for i, row in enumerate(rows):
        a = i / 100.0
        assert row["random_mask"] == pytest.approx(2.0 - a, abs=1e-12)
        assert row["block_mask"] == pytest.approx(2.0 ** (1.0 - a), abs=1e-12)
        assert row["block_mask_flip"] == pytest.approx(
            (a * a - 2 * a + 2.0) ** (1.0 - a / 2.0), abs=1e-12)


def test_kappa_run_and_determinism(tmp_path):
    cfg = resolve_config(kappa_config(tmp_path))
    outcome = run(cfg)
    assert outcome.exit_code == 0
    path = outcome.files["kappa"]
    body = open(path).read()
    header = body.splitlines()[0].split(",")
    assert header == HEADERS["kappa"]
    outcome2 = run(cfg)
    assert open(outcome2.files["kappa"]).read() == body


def test_kappa_closed_form_column(tmp_path):
    cfg = resolve_config({
        "command": "kappa",
        "grid": {"scheme": ["random_mask"], "d_x": [4],
                 "alpha": [0.05, 0.2, 0.8]},
        "seeds": [0],
        "output_dir": str(tmp_path / "out"),
    })
    outcome = run(cfg)
    for row in outcome.records:
        assert row["closed_form"] == pytest.approx(
            (2.0 - row["alpha"]) ** 4, rel=1e-15)
        assert row["bound_kind"] == "exact"


def test_cell_isolation_rerun_single_cell(tmp_path):
    full = resolve_config(kappa_config(tmp_path))
    rows = {(r["scheme"], r["alpha"]): r for r in run(full).records}
    single = resolve_config(kappa_config(
        tmp_path, grid={"scheme": ["block_mask"], "d_x": [3],
                        "alpha": [0.5]},
        output_dir=str(tmp_path / "cell")))
    only = run(single).records[0]
    matching = rows[("block_mask", 0.5)]
    assert only == matching


def test_partial_failure_exit_code(tmp_path):
    cfg = resolve_config(kappa_config(
        tmp_path,
        grid={"scheme": ["random_mask"], "d_x": [3, 40], "alpha": [0.5]},
        budget=10**6))
    outcome = run(cfg)
    assert outcome.exit_code == 2
    assert outcome.failures == 1
    errors = [r for r in outcome.records if r.get("error")]
    assert len(errors) == 1
    assert "BudgetExceededError" in errors[0]["error"]
    clean = [r for r in outcome.records if not r.get("error")]
    assert len(clean) == 1


def test_parallel_jobs_identical_output(tmp_path):
    serial = run(resolve_config(kappa_config(tmp_path)))
    parallel = run(resolve_config(kappa_config(
        tmp_path, output_dir=str(tmp_path / "par"), jobs=4)))
    assert open(serial.files["kappa"]).read().splitlines()[1:] == \
        open(parallel.files["kappa"]).read().splitlines()[1:]


def test_spectrum_run_exports(tmp_path):
    cfg = resolve_config({
        "command": "spectrum",
        "grid": {"scheme": ["random_mask"], "d_x": [2], "alpha": [0.5]},
        "seeds": [0],
        "output_dir": str(tmp_path / "out"),
    })
    outcome = run(cfg)
    assert outcome.exit_code == 0
    row = outcome.records[0]
    assert row["rank"] == 4
    assert row["duality_residual"] <= 1e-8
    assert row["reconstruction_residual"] <= 1e-10
    lam_files = list((tmp_path / "out").glob("*_lambdas.csv"))
    assert len(lam_files) == 1
    lam = np.loadtxt(lam_files[0], skiprows=1)
    np.testing.assert_allclose(sorted(lam, reverse=True),
                               [1.0, 0.5, 0.5, 0.25], atol=1e-10)


@pytest.mark.parametrize("jobs", [1, 4])
def test_spectrum_exports_each_process_once(tmp_path, monkeypatch, jobs):
    grid = {"scheme": ["random_mask", "block_mask"], "d_x": [3],
            "alpha": [0.25, 0.5]}
    one = run(resolve_config({"command": "spectrum", "grid": grid,
                              "seeds": [4], "output_dir": str(tmp_path / "one")}))
    stems, export = Counter(), spectral.export_decomposition
    lock = threading.Lock()

    def counting_export(dec, out_dir, stem):
        with lock:
            stems[stem] += 1
        return export(dec, out_dir, stem=stem)

    monkeypatch.setattr(spectral, "export_decomposition", counting_export)
    three = run(resolve_config({"command": "spectrum", "grid": grid,
                                "seeds": [4, 5, 6], "jobs": jobs,
                                "output_dir": str(tmp_path / "three")}))
    assert one.exit_code == three.exit_code == 0
    assert len(stems) == 4 and set(stems.values()) == {1}
    exported = sorted(p.name for p in (tmp_path / "one").glob("*_*.csv"))
    assert len(exported) == 12
    assert exported == sorted(p.name for p in (tmp_path / "three").glob("*_*.csv"))
    for name in exported:
        assert (tmp_path / "one" / name).read_bytes() == \
            (tmp_path / "three" / name).read_bytes()
    assert not list((tmp_path / "three").glob("*.tmp"))


def test_output_files_get_the_mode_open_gives(tmp_path):
    old = os.umask(0o022)
    try:
        outcome = run(resolve_config({
            "command": "spectrum",
            "grid": {"scheme": ["random_mask"], "d_x": [2], "alpha": [0.5]},
            "seeds": [0], "output_dir": str(tmp_path / "out")}))
    finally:
        os.umask(old)
    assert outcome.exit_code == 0
    written = sorted((tmp_path / "out").iterdir())
    assert len(written) == 4  # spectrum.csv and the lambdas, psi, phi files
    for path in written:
        assert stat.S_IMODE(path.stat().st_mode) == 0o644, path.name


def test_pretrain_run_emits_records_and_traces(tmp_path):
    cfg = resolve_config({
        "command": "pretrain",
        "grid": {"scheme": ["random_mask"], "d_x": [2], "alpha": [0.5],
                 "objective": ["scl"], "d": [1]},
        "seeds": [1],
        "output_dir": str(tmp_path / "out"),
        "options": {"max_iters": 4000, "learning_rate": 0.3,
                    "grad_tol": 1e-9},
    })
    outcome = run(cfg)
    assert outcome.exit_code == 0
    record = outcome.records[0]
    assert record["final_loss"] == pytest.approx(record["target_loss"],
                                                 abs=1e-4)
    assert record["principal_angle"] <= 1e-2
    lines = open(outcome.files["pretrain"]).read().splitlines()
    parsed = json.loads(lines[0])
    assert parsed["objective"] == "scl"
    traces = list((tmp_path / "out").glob("pretrain_scl_*.csv"))
    assert len(traces) == 1
    losses = np.loadtxt(traces[0], delimiter=",", skiprows=1)[:, 1]
    assert np.all(np.diff(losses) <= 0)


def test_regress_run_schema(tmp_path):
    cfg = resolve_config({
        "command": "regress",
        "grid": {"scheme": ["random_mask"], "d_x": [2], "alpha": [0.5],
                 "d": [2], "n": [64], "sigma": [0.1], "B": [1.0],
                 "epsilon": [0.2]},
        "seeds": [0, 1],
        "output_dir": str(tmp_path / "out"),
    })
    outcome = run(cfg)
    assert outcome.exit_code == 0
    header = open(outcome.files["regress"]).read().splitlines()[0]
    assert header == ",".join(HEADERS["regress"])
    for row in outcome.records:
        assert row["pred_err"] >= 0
        assert row["approx_err"] <= row["lemma32_rhs"] + 1e-9
        assert row["constraint_active"] in (0, 1)


def test_tracegap_experiment_grid_validation(tmp_path):
    with pytest.raises(ValidationError, match="factor of 16"):
        resolve_config({
            "command": "tracegap",
            "grid": {"scheme": ["random_mask"], "d_x": [2], "alpha": [0.5],
                     "d": [1], "N": [8, 16, 24, 30]},
            "seeds": [0],
            "output_dir": str(tmp_path / "out"),
        })


def test_tracegap_run_outputs(tmp_path):
    cfg = resolve_config({
        "command": "tracegap",
        "grid": {"scheme": ["random_mask"], "d_x": [2], "alpha": [0.5],
                 "d": [1], "N": [16, 32, 64, 256]},
        "seeds": [0, 1, 2],
        "output_dir": str(tmp_path / "out"),
    })
    outcome = run(cfg)
    assert outcome.exit_code == 0
    lines = open(outcome.files["tracegap"]).read().splitlines()
    assert lines[0] == ",".join(HEADERS["tracegap"])
    median_rows = [ln for ln in lines[1:] if ",median," in ln]
    assert len(median_rows) == 4
    fit = json.loads(open(outcome.files["fit"]).read())
    assert "slope" in fit
    empirical = [json.loads(ln) for ln in
                 open(outcome.files["empirical"]).read().splitlines()]
    assert len(empirical) == 12
    assert all("lambdas_bar" in e for e in empirical)


def test_sweep_bundle(tmp_path):
    cfg = resolve_config({
        "command": "sweep",
        "grid": {"scheme": ["random_mask", "block_mask", "block_mask_flip"],
                 "d_x": [3], "alpha": [0.2, 0.4, 0.6, 0.8]},
        "seeds": [0],
        "output_dir": str(tmp_path / "out"),
    })
    outcome = run(cfg)
    assert outcome.exit_code == 0
    assert set(outcome.files) == {"figure_4a", "kappa"}
    fig_lines = open(outcome.files["figure_4a"]).read().splitlines()
    assert len(fig_lines) == 102
    # monotone complexity per scheme along the sweep
    by_scheme = {}
    for row in outcome.records:
        by_scheme.setdefault(row["scheme"], []).append(
            (row["alpha"], row["kappa_sq_exact"]))
    for scheme, pairs in by_scheme.items():
        values = [v for _, v in sorted(pairs)]
        assert np.all(np.diff(values) <= 1e-9), scheme


def test_fit_loglog_slope_exact_powers():
    ns = [16, 32, 64, 128]
    values = [10.0 * n**-0.5 for n in ns]
    assert fit_loglog_slope(ns, values) == pytest.approx(-0.5, abs=1e-12)


def test_cli_exit_codes(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(kappa_config(tmp_path)))
    assert main(["kappa", "--config", str(cfg_path)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["kappa", "--config", str(bad)]) == 1
    missing_axis = tmp_path / "missing.json"
    missing_axis.write_text(json.dumps({
        "command": "kappa", "grid": {"scheme": ["random_mask"]},
        "seeds": [0], "output_dir": str(tmp_path / "o")}))
    assert main(["kappa", "--config", str(missing_axis)]) == 1
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps(kappa_config(
        tmp_path, grid={"scheme": ["random_mask"], "d_x": [3, 40],
                        "alpha": [0.5]}, budget=10**6)))
    assert main(["kappa", "--config", str(partial)]) == 2
    capsys.readouterr()


def test_cli_print_config(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(kappa_config(tmp_path)))
    assert main(["kappa", "--config", str(cfg_path), "--print-config",
                 "--seed", "7", "--jobs", "2"]) == 0
    resolved = json.loads(capsys.readouterr().out)
    assert resolved["seeds"] == [7]
    assert resolved["jobs"] == 2
    assert resolved["command"] == "kappa"


@pytest.mark.parametrize("bad", [
    {"master_seed": "abc"}, {"seeds": ["x"]}, {"seeds": [1.5]}, {"seeds": 3},
    {"budget": "big"}, {"jobs": [2]}, {"grid": ["scheme"]}, {"options": "x"},
    {"options": {"max_iter": 5}},
])
def test_cli_reports_config_type_errors(tmp_path, capsys, bad):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(kappa_config(tmp_path), **bad)))
    assert main(["kappa", "--config", str(cfg_path), "--print-config"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:")
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["tracegap", "sweep"])
def test_cli_rejects_a_short_rate_grid_as_config_error(tmp_path, capsys,
                                                       command):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "command": command,
        "grid": {"scheme": ["random_mask"], "d_x": [2], "alpha": [0.5],
                 "d": [1], "N": [8, 16, 24, 30]},
        "seeds": [0],
        "output_dir": str(tmp_path / "out"),
    }))
    for extra in ([], ["--print-config"]):
        assert main([command, "--config", str(cfg_path), *extra]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: the N grid needs")
        assert captured.out == ""
    assert not (tmp_path / "out").exists()
    # a sweep without a d axis runs no rate experiment, so its N is not checked
    cfg = json.loads(cfg_path.read_text())
    del cfg["grid"]["d"]
    assert resolve_config(cfg, command="sweep").command == "sweep"


def tracegap_config(tmp_path, **overrides):
    cfg = {
        "command": "tracegap",
        "grid": {"scheme": ["random_mask", "block_mask"], "d_x": [2],
                 "alpha": [0.5], "d": [1], "N": [16, 32, 64, 256]},
        "seeds": [0, 1, 2],
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    return cfg


@pytest.fixture
def counted_builds(monkeypatch):
    """Count process builds and decompositions per (scheme, d_x, alpha).

    Builds sleep briefly so that parallel cells of one key overlap; every
    built process is tracked by a weak reference.
    """
    builds, decompositions, alive = Counter(), Counter(), []
    lock = threading.Lock()
    build, decompose = harness.build_hypercube, spectral.decompose

    def counting_build(hc, budget):
        with lock:
            builds[(hc.scheme, hc.d_x, hc.alpha)] += 1
        time.sleep(0.01)
        process = build(hc, budget=budget)
        alive.append(weakref.ref(process))
        return process

    def counting_decompose(process, *args, **kwargs):
        with lock:
            decompositions[(process.n_x, process.n_a)] += 1
        return decompose(process, *args, **kwargs)

    monkeypatch.setattr(harness, "build_hypercube", counting_build)
    monkeypatch.setattr(spectral, "decompose", counting_decompose)
    monkeypatch.setattr(complexity, "decompose", counting_decompose)
    return builds, decompositions, alive


@pytest.mark.parametrize("jobs", [1, 4, 8])
@pytest.mark.parametrize("make_config", [kappa_config, tracegap_config])
def test_each_process_built_and_decomposed_once(tmp_path, counted_builds,
                                               make_config, jobs):
    builds, decompositions, _ = counted_builds
    cfg = make_config(tmp_path, seeds=[0, 1], jobs=jobs)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # frequent switches while cells share entries
    try:
        outcome = run(resolve_config(cfg))
    finally:
        sys.setswitchinterval(interval)
    assert outcome.exit_code == 0
    grid = cfg["grid"]
    keys = {(s, d_x, a) for s in grid["scheme"] for d_x in grid["d_x"]
            for a in grid["alpha"]}
    assert set(builds) == keys and set(builds.values()) == {1}
    assert sum(decompositions.values()) == len(keys)
    serial = run(resolve_config(make_config(
        tmp_path, seeds=[0, 1], output_dir=str(tmp_path / "serial"))))
    for name, path in outcome.files.items():
        assert open(path).read() == open(serial.files[name]).read(), name


@pytest.mark.parametrize("jobs", [1, 4])
def test_failed_build_cached_for_every_cell(tmp_path, counted_builds, jobs):
    builds, _, _ = counted_builds
    cfg = resolve_config(kappa_config(
        tmp_path, grid={"scheme": ["random_mask"], "d_x": [3, 40],
                        "alpha": [0.5]},
        seeds=[0, 1, 2], budget=10**6, jobs=jobs))
    outcome = run(cfg)
    errors = [r for r in outcome.records if r.get("error")]
    assert outcome.failures == 3 and len(errors) == 3
    assert [r["seed"] for r in errors] == [0, 1, 2]
    assert len({r["error"] for r in errors}) == 1
    assert errors[0]["error"].startswith("BudgetExceededError")
    assert builds == {("random_mask", 3, 0.5): 1, ("random_mask", 40, 0.5): 1}


@pytest.mark.parametrize("jobs", [1, 4])
def test_entries_released_after_their_last_cell(tmp_path, counted_builds, jobs):
    _, _, alive = counted_builds
    live_after_build = []
    build = harness.build_hypercube

    def count_after_build(hc, budget):
        process = build(hc, budget)
        gc.collect()
        live_after_build.append(sum(ref() is not None for ref in alive))
        return process

    harness.build_hypercube = count_after_build  # restored by the fixture
    outcome = run(resolve_config(kappa_config(tmp_path, seeds=[0, 1],
                                              jobs=jobs)))
    assert outcome.exit_code == 0
    # one process at a time under any jobs, and none once run() has returned
    assert live_after_build == [1, 1, 1, 1]
    del outcome
    gc.collect()
    assert len(alive) == 4
    assert all(ref() is None for ref in alive)


@pytest.fixture
def counted_kappa(monkeypatch):
    """Processes passed to ``complexity.kappa_exact``, one entry per call.

    Each call sleeps briefly, so that parallel cells of one process overlap.
    """
    calls = []
    kappa_exact = complexity.kappa_exact

    def counting_kappa(dec, *args, **kwargs):
        calls.append(dec.process)
        time.sleep(0.01)
        return kappa_exact(dec, *args, **kwargs)

    monkeypatch.setattr(complexity, "kappa_exact", counting_kappa)
    return calls


@pytest.mark.parametrize("jobs", [1, 4])
def test_kappa_computed_once_per_process(tmp_path, counted_kappa, jobs):
    calls = counted_kappa
    outcome = run(resolve_config(kappa_config(tmp_path, seeds=[0, 1],
                                              jobs=jobs)))
    assert outcome.exit_code == 0 and len(outcome.records) == 8
    assert len(calls) == 4  # 4 processes, 2 seeds each
    calls.clear()
    outcome = run(resolve_config({
        "command": "regress",
        "grid": {"scheme": ["random_mask", "block_mask_flip"], "d_x": [2],
                 "alpha": [0.5], "d": [1, 2], "n": [16, 32], "sigma": [0.1],
                 "B": [1.0], "epsilon": [0.2]},
        "seeds": [0, 1],
        "jobs": jobs,
        "output_dir": str(tmp_path / "regress"),
        "options": {"beta": 50.0},
    }))
    assert outcome.exit_code == 0 and len(outcome.records) == 16
    assert len(calls) == 2  # 2 processes, 8 cells each


@pytest.mark.parametrize("jobs", [1, 4])
def test_bad_beta_fails_only_the_kappa_cells(tmp_path, counted_kappa, jobs):
    outcome = run(resolve_config(tracegap_config(
        tmp_path, command="sweep", seeds=[0, 1], jobs=jobs,
        options={"beta": 500.0})))
    kappa_rows = [r for r in outcome.records if "kappa_sq_exact" in r
                  or r.get("error")]
    assert len(kappa_rows) == outcome.failures == 4  # 2 processes x 2 seeds
    assert {r["error"] for r in kappa_rows} == {
        "ValidationError: beta must lie in (0; 100]; got 500.0"}
    assert sum(1 for r in outcome.records if "gap" in r) > 0
    assert len(counted_kappa) == 2  # the failure is computed once per process


@pytest.mark.parametrize("jobs", [1, 4])
def test_spectrum_residuals_computed_once_per_process(tmp_path, monkeypatch,
                                                      jobs):
    grid = {"scheme": ["random_mask", "block_mask_flip"], "d_x": [3],
            "alpha": [0.25, 0.5]}
    calls = Counter()
    for name in ("duality_residual", "verify_integral_identity"):
        def counting(*args, _fn=getattr(spectral, name), _name=name, **kw):
            calls[_name] += 1
            return _fn(*args, **kw)
        monkeypatch.setattr(spectral, name, counting)

    def spectrum(seeds, label):
        calls.clear()
        outcome = run(resolve_config({
            "command": "spectrum", "grid": grid, "seeds": seeds, "jobs": jobs,
            "output_dir": str(tmp_path / label)}))
        assert outcome.exit_code == 0
        return outcome, dict(calls)

    one, one_calls = spectrum([4], "one")
    three, three_calls = spectrum([4, 5, 6], "three")
    # decompose validates duality itself; the rows add one call per process
    assert three_calls == one_calls
    assert one_calls["verify_integral_identity"] == 4
    lines = open(three.files["spectrum"]).read().splitlines()[1:]
    one_lines = open(one.files["spectrum"]).read().splitlines()[1:]
    for k, line in enumerate(one_lines):
        fields = line.split(",")
        for seed, other in zip((4, 5, 6), lines[3 * k:3 * k + 3]):
            assert other.split(",") == fields[:4] + [str(seed)] + fields[5:]


def test_sweep_kappa_rows_once_per_process_and_seed(tmp_path):
    cfg = {
        "command": "sweep",
        "grid": {"scheme": ["random_mask", "block_mask"], "d_x": [2],
                 "alpha": [0.5], "d": [1], "N": [16, 32, 64, 256]},
        "seeds": [0, 1],
        "output_dir": str(tmp_path / "sweep"),
    }
    outcome = run(resolve_config(cfg))
    assert outcome.exit_code == 0
    lines = open(outcome.files["kappa"]).read().splitlines()[1:]
    keys = [tuple(ln.split(",")[1:5]) for ln in lines]
    assert keys == [("random_mask", "2", "0.5", "0"),
                    ("random_mask", "2", "0.5", "1"),
                    ("block_mask", "2", "0.5", "0"),
                    ("block_mask", "2", "0.5", "1")]
    # the sweep's rate experiment writes what the tracegap command writes
    alone = run(resolve_config(dict(cfg, command="tracegap",
                                    output_dir=str(tmp_path / "alone"))))
    assert set(outcome.files) == {"figure_4a", "kappa"} | set(alone.files)
    for name in alone.files:
        assert open(outcome.files[name]).read() == \
            open(alone.files[name]).read(), name


def test_pretrain_needs_no_pair_matrix_budget(tmp_path):
    # random_mask d_x=3: the 8 x 27 table fits a budget of 500; a dense
    # 27 x 27 = 729 entry pair matrix would not, and none is formed
    outcome = run(resolve_config({
        "command": "pretrain",
        "grid": {"scheme": ["random_mask"], "d_x": [3], "alpha": [0.5],
                 "objective": ["scl", "vicreg"], "d": [2]},
        "seeds": [0],
        "output_dir": str(tmp_path / "out"),
        "budget": 500,
        "options": {"max_iters": 50},
    }))
    assert outcome.failures == 0
    assert len(outcome.records) == 2
    for record in outcome.records:
        assert not record.get("error")
        assert math.isfinite(record["final_loss"])
