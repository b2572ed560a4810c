import csv
import dataclasses
import gc
import hashlib
import json
import math
import os
import re
import stat
import subprocess
import sys
import warnings
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from augrkhs import (complexity, encoders, harness, objectives, regression,
                     spectral)
from augrkhs.cli import main
from augrkhs.exceptions import ValidationError
from augrkhs.processes import HypercubeConfig
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
    pretrain = {"command": "pretrain",
                "grid": {"scheme": ["random_mask"], "d_x": [3],
                         "alpha": [0.5], "objective": ["scl"], "d": [2]},
                "seeds": [0], "output_dir": "x"}
    with pytest.raises(ValidationError, match="'max_iter'"):
        resolve_config(dict(pretrain, options={"max_iter": 5}))
    options = {name: 1.0 for name in harness.OPTIONS}
    assert resolve_config(dict(pretrain, options=options)).options == options


@pytest.mark.parametrize("axis, values, repeated", [
    ("d_x", [3, 3.0], [3]), ("alpha", [0.5, 0.25, 0.5, 0.25], [0.5, 0.25]),
    ("scheme", ["block_mask", "random_mask", "block_mask"], ["block_mask"])])
def test_a_repeated_grid_value_is_a_config_error(tmp_path, capsys, axis,
                                                 values, repeated):
    # a repeated value would repeat its rows and build its process again
    cfg = kappa_config(tmp_path)
    cfg["grid"][axis] = values
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["kappa", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == (
        f"config error: grid axis '{axis}' repeats {repeated}\n")
    assert not (tmp_path / "out").exists()


def test_a_repeated_seed_is_a_config_error(tmp_path):
    with pytest.raises(ValidationError,
                       match=re.escape("the seed list repeats [0]")):
        resolve_config(kappa_config(tmp_path, seeds=[0, 1, 0.0]))
    assert resolve_config(kappa_config(tmp_path, seeds=[1, 0])).seeds == (1, 0)


def test_an_overflowing_cell_gets_an_error_row(tmp_path):
    # finite inputs whose errors and bounds overflow: the cell's row names
    # the non-finite fields, and the other cell's row is written as usual.
    # numpy's overflow warnings, errors in these tests, are only printed by
    # the command line
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "command": "regress",
        "grid": {"scheme": ["random_mask"], "d_x": [3], "alpha": [0.5],
                 "d": [2], "n": [16], "sigma": [0.1], "B": [1e200, 1.0],
                 "epsilon": [0.2]},
        "seeds": [0], "output_dir": str(tmp_path / "out")}))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main(["regress", "--config", str(cfg_path)]) == 2
    with open(tmp_path / "out" / "regress.csv", encoding="utf-8") as fh:
        overflowed, finite = csv.DictReader(fh)
    assert (overflowed["B"], finite["B"]) == ("9.9999999999999997e+199", "1")
    assert overflowed["error"] == (
        "ValidationError: non-finite fields ['pred_err'; 'approx_err'; "
        "'est_err'; 'lemma32_rhs'; 'thm31_rhs']")
    assert overflowed["tau_sq"] == overflowed["pred_err"] == ""
    assert finite["error"] == "" and math.isfinite(float(finite["pred_err"]))


def test_a_non_finite_entry_of_a_list_field_is_named():
    row = {"seed": 0, "final_loss": 1.0, "trace": [2.0, float("inf")],
           "lambdas_bar": [0.5], "scheme": "random_mask", "rank": 3}
    with pytest.raises(ValidationError,
                       match=re.escape("non-finite fields ['trace']")):
        harness._check_finite(row)
    row["trace"] = [2.0, 1.0]
    assert harness._check_finite(row) is row


@pytest.mark.parametrize("axis", ["d", "foo"])
def test_a_grid_axis_the_command_does_not_read_is_a_config_error(
        tmp_path, capsys, axis):
    # kappa.csv has no d column, so a d axis would repeat every kappa row
    cfg = kappa_config(tmp_path)
    cfg["grid"][axis] = [2, 3]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["kappa", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == (
        "config error: command 'kappa' reads grid axes "
        f"['scheme', 'd_x', 'alpha'], not ['{axis}']\n")
    assert not (tmp_path / "out").exists()


def test_a_sweep_reads_d_and_N(tmp_path):
    config = resolve_config(tracegap_config(tmp_path, command="sweep"))
    assert (config.grid["d"], config.grid["N"]) == ([1], [16, 32, 64, 256])
    with pytest.raises(ValidationError, match=r"not \['n'\]"):
        resolve_config(tracegap_config(
            tmp_path, command="sweep",
            grid=dict(tracegap_config(tmp_path)["grid"], n=[16])))


@pytest.mark.parametrize("lacking", ["d", "N"])
def test_a_sweep_with_d_or_N_alone_is_a_config_error(tmp_path, capsys,
                                                     lacking):
    # the rate experiment reads both; with one alone no cell reads it
    cfg = tracegap_config(tmp_path, command="sweep")
    del cfg["grid"][lacking]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["sweep", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == (
        "config error: command 'sweep': tracegap reads grid axes "
        f"['d', 'N'] together; the grid lacks ['{lacking}']\n")
    assert not (tmp_path / "out").exists()
    del cfg["grid"]["d" if lacking == "N" else "N"]
    assert resolve_config(cfg).grid == {"scheme": ["random_mask", "block_mask"],
                                        "d_x": [2], "alpha": [0.5]}


# a value of every grid axis, N a grid the rate experiment accepts
_AXIS_VALUES = {"scheme": ["random_mask"], "d_x": [2], "alpha": [0.5],
                "objective": ["scl"], "d": [1], "N": [16, 32, 64, 256],
                "n": [16], "sigma": [0.1], "B": [1.0], "epsilon": [0.2]}


def test_the_output_tables_agree_with_cells_files_and_configs():
    # each output has a cell function, a writer and, for a CSV, exactly its
    # axis columns, in the CSV's own order
    assert set(harness._READS) == set(harness._CELL_FN) == set(harness._WRITERS)
    assert set(_AXIS_VALUES) == set(harness._AXES)
    csvs = [name for name in HEADERS if name in harness._READS]
    assert csvs == ["kappa", "spectrum", "regress", "tracegap"]
    for name in csvs:
        columns = [c for c in HEADERS[name] if c in harness._AXES]
        assert sorted(columns) == sorted(
            harness._PROCESS_AXES + harness._READS[name]), name
    # each command takes the axes its outputs read, fills every output on
    # them, and refuses any other axis
    for command, fills in harness._FILLS.items():
        reads = [a for a in harness._AXES
                 if any(a in harness._PROCESS_AXES + harness._READS[name]
                        for name in fills)]
        cfg = {"command": command, "seeds": [0], "output_dir": "out",
               "grid": {a: _AXIS_VALUES[a] for a in reads}}
        config = resolve_config(cfg)
        assert list(config.grid) == reads, command
        assert [name for name, _ in harness._outputs(command, config.grid)] \
            == list(fills), command
        for axis in harness._AXES:
            if axis not in reads:
                with pytest.raises(ValidationError, match=re.escape(
                        f"command {command!r} reads grid axes {reads}, "
                        f"not ['{axis}']")):
                    resolve_config(dict(cfg, grid=dict(cfg["grid"], **{
                        axis: _AXIS_VALUES[axis]})))


@pytest.mark.parametrize("axis, value", [("d", 2.5), ("n", 16.5),
                                         ("N", 256.5), ("d_x", "3"),
                                         ("d", True)])
def test_integer_axes_refuse_non_integers(tmp_path, capsys, axis, value):
    command = "tracegap" if axis == "N" else "regress"
    grid = (tracegap_config(tmp_path)["grid"] if axis == "N"
            else _PHI_READERS["regress"])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "command": command, "grid": dict(grid, **{axis: [value]}),
        "seeds": [0], "output_dir": str(tmp_path / "out")}))
    assert main([command, "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == (
        f"config error: each '{axis}' value must be an integer, "
        f"got {value!r}\n")


def test_integral_floats_on_integer_axes_run_as_integers(tmp_path):
    def regress(label, **axes):
        outcome = run(resolve_config({
            "command": "regress",
            "grid": dict(_PHI_READERS["regress"], **axes),
            "seeds": [0, 1], "output_dir": str(tmp_path / label)}))
        assert outcome.exit_code == 0
        return open(outcome.files["regress"], "rb").read()

    assert regress("floats", d_x=[3.0], d=[1.0, 2.0], n=[16.0]) == \
        regress("integers")


def test_real_axes_become_floats(tmp_path):
    config = resolve_config({
        "command": "regress",
        "grid": dict(_PHI_READERS["regress"], alpha=[1], sigma=[0], B=[2],
                     epsilon=[0.2]),
        "seeds": [0], "output_dir": str(tmp_path / "out")})
    for axis, values in [("alpha", [1.0]), ("sigma", [0.0]), ("B", [2.0]),
                         ("epsilon", [0.2])]:
        assert config.grid[axis] == values
        assert all(type(v) is float for v in config.grid[axis])
    # a NaN or infinite value would make a non-finite row, which no CSV takes
    for bad in ("0.5", True, None, float("nan"), float("inf")):
        with pytest.raises(ValidationError,
                           match="each 'alpha' value must be a finite number"):
            resolve_config(kappa_config(tmp_path, grid={
                "scheme": ["random_mask"], "d_x": [3], "alpha": [bad]}))
    # the files of an integer alpha are named as those of the float
    outcome = run(resolve_config({
        "command": "spectrum",
        "grid": {"scheme": ["random_mask"], "d_x": [2], "alpha": [1]},
        "seeds": [0], "output_dir": str(tmp_path / "spectrum")}))
    assert outcome.exit_code == 0
    assert sorted(p.name for p in (tmp_path / "spectrum").iterdir()) == [
        "random_mask_dx2_a1p0_lambdas.csv", "random_mask_dx2_a1p0_phi.csv",
        "random_mask_dx2_a1p0_psi.csv", "spectrum.csv"]


def test_an_unknown_objective_is_a_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "command": "pretrain",
        "grid": dict(_PHI_READERS["pretrain"], objective=["scl", "nce"]),
        "seeds": [0], "output_dir": str(tmp_path / "out")}))
    assert main(["pretrain", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == (
        "config error: each 'objective' value must be one of "
        f"{objectives.KINDS}, got 'nce'\n")


@pytest.mark.parametrize("name", ["learning_rate", "grad_tol", "init_scale",
                                  "alpha_w", "beta_w", "c0"])
def test_removed_options_are_unknown(tmp_path, capsys, name):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(kappa_config(tmp_path,
                                                options={name: 1.0})))
    assert main(["kappa", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == (
        f"config error: unknown options ['{name}']; the cells read "
        "['max_iters']\n")


def test_the_readme_example_config_resolves():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    section = readme[readme.index("## Command line"):]
    example = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    config = resolve_config(json.loads(example))
    assert config.command == "kappa"
    assert config.grid["d_x"] == [4, 6]


def test_cell_seed_stable_and_distinct():
    a = cell_seed(0, scheme="random_mask", d_x=3, alpha=0.5)
    b = cell_seed(0, scheme="random_mask", d_x=3, alpha=0.5)
    c = cell_seed(0, scheme="random_mask", d_x=3, alpha=0.25)
    d = cell_seed(1, scheme="random_mask", d_x=3, alpha=0.5)
    assert a == b
    assert len({a, c, d}) == 3
    assert a == 7844895342657697870  # pinned: reproducibility across versions


@settings(max_examples=200, deadline=None)
@given(st.binary() | st.text().map(lambda t: t.encode("utf-8")))
@example(b"")
@example("α=0.5|schème=blöck".encode("utf-8"))
def test_builtin_sha256_matches_hashlib(payload):
    # hashlib, which loads OpenSSL, is the oracle for the built-in hash
    assert harness.sha256(payload).digest() == hashlib.sha256(payload).digest()


# (master seed, axes, seed) as hashlib.sha256 gives them; -0.0 is written
# "-0", so its seed differs from 0.0's
_PINNED_SEEDS = [
    (0, {"scheme": "random_mask", "d_x": 3, "alpha": 0.5}, 7844895342657697870),
    (3, {"scheme": "block_mask", "d_x": 8, "alpha": 0.3}, 3011351240870397477),
    (0, {"scheme": "random_mask", "d_x": 3, "alpha": -0.0}, 1075703279772583007),
    (0, {"scheme": "random_mask", "d_x": 3, "alpha": 0.0}, 8237576384390216326),
    (5, {"scheme": "blöck_maské", "d_x": 2, "alpha": 0.1}, 4466229914608229705),
    (0, {}, 2206167779962007249),
]


@pytest.mark.parametrize("master,axes,seed", _PINNED_SEEDS)
def test_cell_seed_pinned(master, axes, seed):
    assert cell_seed(master, **axes) == seed


def test_cell_seed_falls_back_to_hashlib():
    # an interpreter without the built-in hashes gives the same seeds
    probe = ("import sys\n"
             "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
             "import hashlib, json\n"
             "from augrkhs import harness\n"
             "assert harness.sha256 is hashlib.sha256\n"
             "print(json.dumps([harness.cell_seed(m, **a)\n"
             "                  for m, a in json.loads(sys.argv[1])]))")
    pinned = [[master, axes] for master, axes, _ in _PINNED_SEEDS]
    out = _run_probe(probe, json.dumps(pinned))
    assert json.loads(out) == [seed for _, _, seed in _PINNED_SEEDS]


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


def figure_4a_oracle(a):
    """The base curves written out at d_x = 1, apart from the forms
    ``closed_form_kappa`` and ``figure_4a_data`` share: their oracle."""
    return {"random_mask": 2.0 - a, "block_mask": 2.0 ** (1.0 - a),
            "block_mask_flip": (a * a - 2.0 * a + 2.0) ** (1.0 - a / 2.0)}


def test_figure_4a_rows_equal_the_closed_forms_at_one_coordinate():
    header, rows = figure_4a_data()
    for i, row in enumerate(rows):
        a = i / 100.0
        assert row == {"alpha": a, **figure_4a_oracle(a)}
        if a > 0:  # a mask ratio
            assert all(row[scheme] == complexity.closed_form_kappa(
                HypercubeConfig(1, a, scheme)).value for scheme in header[1:])


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


def test_an_oversized_d_x_is_a_budget_error_row(tmp_path):
    # 3^10000 has more digits than an int prints; the row names the table
    outcome = run(resolve_config(kappa_config(
        tmp_path, grid={"scheme": ["random_mask", "block_mask"],
                        "d_x": [3, 10000], "alpha": [0.5]})))
    assert outcome.exit_code == 2 and outcome.failures == 2
    assert [r.get("error", "").split(" needs ")[0]
            for r in outcome.records] == [
        "", "BudgetExceededError: the random_mask table at d_x=10000",
        "", "BudgetExceededError: the block_mask table at d_x=10000"]
    rows = list(csv.DictReader(open(outcome.files["kappa"])))
    assert rows[1]["error"] == (
        "BudgetExceededError: the random_mask table at d_x=10000 needs "
        "2^10000 x 3^10000 entries; exceeding the budget of 100000000")


def test_spectrum_residual_kernel_over_budget(tmp_path):
    # block_mask d_x=6 alpha=0.5: the 64 x 32 table fits a budget of 10000,
    # the four 64 x 64 arrays of the reconstruction residual do not; d_x=5
    # (32 x 12 table, four 32 x 32 arrays) fits both
    cfg = {"command": "spectrum",
           "grid": {"scheme": ["block_mask"], "d_x": [5, 6], "alpha": [0.5]},
           "seeds": [0], "output_dir": str(tmp_path / "out"), "budget": 10000}
    outcome = run(resolve_config(cfg))
    assert outcome.exit_code == 2 and outcome.failures == 1
    ok, failed = outcome.records
    assert not ok.get("error") and ok["reconstruction_residual"] <= 1e-10
    assert failed["error"] == (
        "BudgetExceededError: the reconstruction residual (four |X| x |X| "
        "arrays) needs 4 x 64 x 64 = 16384 entries; exceeding the budget of "
        "10000")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["spectrum", "--config", str(cfg_path)]) == 2


def _refuse(name):
    def sentinel(*args, **kwargs):
        raise AssertionError(f"{name} was called")
    return sentinel


@pytest.mark.parametrize("command, grid, module, name, what", [
    # n 10^5 at d 2: a 10^5 x 2 design and 10^5 labels
    ("regress", {"scheme": ["random_mask"], "d_x": [3], "alpha": [0.5],
                 "d": [2], "n": [10**5], "sigma": [0.1], "B": [1.0],
                 "epsilon": [0.2]},
     regression, "generate_labels",
     "the probe design with its labels (n x (d + 1)) needs 100000 x 3 = "
     "300000 entries"),
    ("tracegap", {"scheme": ["random_mask"], "d_x": [3], "alpha": [0.5],
                  "d": [2], "N": [10**5, 2 * 10**5, 4 * 10**5, 16 * 10**5]},
     encoders, "sample_process",
     "the vector of N draws needs 100000 = 100000 entries"),
    # random_mask at d_x 3 has 27 augmentations; d 500 exceeds the rank too,
    # which only the finished encoder table would show
    ("pretrain", {"scheme": ["random_mask"], "d_x": [3], "alpha": [0.5],
                  "objective": ["scl"], "d": [500]},
     objectives, "minimize",
     "the encoder table (d x |A|) needs 500 x 27 = 13500 entries"),
], ids=["regress", "tracegap", "pretrain"])
def test_an_array_an_axis_sizes_is_refused_before_it_is_made(
        tmp_path, monkeypatch, command, grid, module, name, what):
    # the function that would make the array raises if it is reached
    monkeypatch.setattr(module, name, _refuse(name))
    outcome = run(resolve_config({
        "command": command, "grid": grid, "seeds": [0], "budget": 10**4,
        "output_dir": str(tmp_path / "out")}))
    errors = [r["error"] for r in outcome.records]
    assert outcome.failures == len(errors) >= 1
    assert errors[0] == (f"BudgetExceededError: {what}; exceeding the budget "
                         "of 10000")
    assert all(e.startswith(errors[0].split(" needs ")[0]) for e in errors)


def test_a_pretrain_d_above_the_rank_is_refused_before_the_optimizer(
        tmp_path, monkeypatch):
    # random_mask at d_x 3, alpha 0.5 has rank 8; the optimizer raises if
    # it is reached
    monkeypatch.setattr(objectives, "minimize", _refuse("minimize"))
    outcome = run(resolve_config({
        "command": "pretrain", "seeds": [0],
        "grid": {"scheme": ["random_mask"], "d_x": [3], "alpha": [0.5],
                 "objective": ["scl"], "d": [20]},
        "output_dir": str(tmp_path / "out")}))
    assert [r["error"] for r in outcome.records] == [
        "ValidationError: d must lie in [1; rank=8]; got 20"]


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


def test_spectrum_exports_each_process_once(tmp_path, monkeypatch):
    grid = {"scheme": ["random_mask", "block_mask"], "d_x": [3],
            "alpha": [0.25, 0.5]}
    one = run(resolve_config({"command": "spectrum", "grid": grid,
                              "seeds": [4], "output_dir": str(tmp_path / "one")}))
    stems, export = Counter(), spectral.export_decomposition

    def counting_export(dec, out_dir, stem):
        stems[stem] += 1
        return export(dec, out_dir, stem=stem)

    monkeypatch.setattr(spectral, "export_decomposition", counting_export)
    three = run(resolve_config({"command": "spectrum", "grid": grid,
                                "seeds": [4, 5, 6],
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
        "options": {"max_iters": 4000},
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
    median_rows = [ln.split(",") for ln in lines[1:] if ",median," in ln]
    # one per N, in grid order
    assert [row[5] for row in median_rows] == ["16", "32", "64", "256"]
    fit = json.loads(open(outcome.files["fit"]).read())
    assert "slope" in fit
    empirical = [json.loads(ln) for ln in
                 open(outcome.files["empirical"]).read().splitlines()]
    assert len(empirical) == 12
    assert all("lambdas_bar" in e for e in empirical)


def test_each_empirical_record_names_its_cell(tmp_path):
    # two schemes draw the same (seed, N) pairs; each record names its cell,
    # in the order of the tracegap rows
    outcome = run(resolve_config(tracegap_config(tmp_path, command="sweep")))
    assert outcome.exit_code == 0
    axes = harness._PROCESS_AXES + harness._READS["tracegap"]
    records = [json.loads(ln) for ln in
               open(outcome.files["empirical"]).read().splitlines()]
    rows = [r for r in csv.DictReader(open(outcome.files["tracegap"]))
            if r["seed"] != "median"]
    assert [sorted(r) for r in records] == len(rows) * [
        sorted(axes + ("seed", "lambdas_bar", "gamma_g"))]
    cells = [tuple(harness.fmt(r[a]) for a in axes + ("seed",))
             for r in records]
    assert cells == [tuple(r[a] for a in axes + ("seed",)) for r in rows]
    assert len(set(cells)) == len(cells) == 24


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
    cfg_path.write_text(json.dumps(kappa_config(tmp_path, seeds=[7])))
    assert main(["kappa", "--config", str(cfg_path), "--print-config",
                 "--jobs", "1"]) == 0
    resolved = json.loads(capsys.readouterr().out)
    assert resolved["seeds"] == [7]
    assert "jobs" not in resolved  # cells always run in grid order
    assert resolved["command"] == "kappa"


@pytest.mark.parametrize("bad", [
    {"master_seed": "abc"}, {"seeds": ["x"]}, {"seeds": [1.5]}, {"seeds": 3},
    {"budget": "big"}, {"jobs": [2]}, {"grid": ["scheme"]}, {"options": "x"},
    {"options": {"max_iter": 5}}, {"options": {"max_iters": "many"}},
    {"options": {"max_iters": 2.7}}, {"options": {"max_iters": -1}},
    {"options": {"grad_tol": True}}, {"options": {"learning_rate": "0.2"}},
    {"options": {"c0": None}}, {"jobs": 4},
    # a relative path, so that a sweep run on it would write under tmp_path
    {"output_dir": ["x"]},
    {"options": {"max_iters": 5}},  # a kappa cell runs no optimizer
    # a valid config in Latin-1, not UTF-8
    pytest.param(json.dumps(
        {"command": "kappa", "seeds": [0], "output_dir": "caf\u00e9",
         "grid": {"scheme": ["random_mask"], "d_x": [3], "alpha": [0.5]}},
        ensure_ascii=False).encode("latin-1"), id="latin-1"),
    # an integer of more digits than Python reads
    pytest.param(json.dumps(
        {"command": "kappa", "seeds": [0], "output_dir": "out",
         "grid": {"scheme": ["random_mask"], "d_x": [3], "alpha": [0.5]},
         "budget": 0}).encode("utf-8").replace(
             b'"budget": 0', b'"budget": 1' + b"0" * 5000), id="5001-digits"),
])
def test_cli_reports_config_type_errors(tmp_path, capsys, monkeypatch, bad):
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    if isinstance(bad, bytes):
        cfg_path.write_bytes(bad)
    else:
        cfg_path.write_text(json.dumps(dict(kappa_config(tmp_path), **bad)))
    assert main(["kappa", "--config", str(cfg_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:")
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert os.listdir(tmp_path) == ["cfg.json"]  # no output directory


def test_cli_accepts_jobs_1_only(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(kappa_config(tmp_path, jobs=1)))
    assert main(["kappa", "--config", str(cfg_path)]) == 0
    assert main(["kappa", "--config", str(cfg_path), "--jobs", "1"]) == 0
    capsys.readouterr()
    for jobs in ("2", "0", "-3"):
        assert main(["kappa", "--config", str(cfg_path), "--jobs", jobs]) == 1
        assert capsys.readouterr().err == (
            f"config error: jobs must be 1 (cells run in grid order), "
            f"got {jobs}\n")
    cfg_path.write_text(json.dumps(kappa_config(tmp_path, jobs=4)))
    assert main(["kappa", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err.startswith("config error: jobs must be 1")


def test_a_budget_below_one_is_a_config_error(tmp_path, capsys):
    # refused before any cell runs, rather than one error row per cell
    cfg_path = tmp_path / "cfg.json"
    for budget in (0, -5):
        cfg_path.write_text(json.dumps(kappa_config(tmp_path, budget=budget)))
        assert main(["kappa", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == (
            f"config error: budget must be >= 1, got {budget}\n")
    assert not (tmp_path / "out").exists()
    assert resolve_config(kappa_config(tmp_path, budget=1)).budget == 1


@pytest.mark.parametrize("key", ["master-seed", "budgett", "seed", "beta"])
def test_an_unknown_top_level_key_is_a_config_error(tmp_path, capsys, key):
    # a misspelt key would otherwise be ignored and its default used
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(kappa_config(tmp_path), **{key: 3})))
    for extra in ([], ["--print-config"]):
        assert main(["kappa", "--config", str(cfg_path), *extra]) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"config error: unknown keys ['{key}']; a "
                                f"config takes {list(harness.KEYS)}\n")
        assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_the_config_command_must_be_the_subcommand(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(kappa_config(tmp_path)))
    assert main(["spectrum", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == (
        "config error: the config's command 'kappa' is not the subcommand "
        "'spectrum'\n")
    assert not (tmp_path / "out").exists()
    # a config without a command takes the subcommand's
    cfg = kappa_config(tmp_path)
    del cfg["command"]
    cfg_path.write_text(json.dumps(cfg))
    assert main(["spectrum", "--config", str(cfg_path), "--print-config"]) == 0
    assert json.loads(capsys.readouterr().out)["command"] == "spectrum"


def test_out_and_jobs_are_written_into_the_config(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(kappa_config(tmp_path)))
    other = str(tmp_path / "other")
    assert main(["kappa", "--config", str(cfg_path), "--out", other,
                 "--jobs", "1", "--print-config"]) == 0
    assert json.loads(capsys.readouterr().out)["output_dir"] == other
    cfg = kappa_config(tmp_path)
    del cfg["output_dir"]
    cfg_path.write_text(json.dumps(cfg))
    assert main(["kappa", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == "config error: output_dir is required\n"


@pytest.mark.parametrize("argv", [
    ["kappa", "--config", "{cfg}", "--seed", "3"],
    ["kappa", "--config", "{cfg}", "--budget", "100"],
    ["kappa", "--config", "{cfg}", "--jobs", "x"],
    ["kappa"],
    ["mystery", "--config", "{cfg}"],
    [],
])
def test_a_usage_error_exits_1(tmp_path, capsys, argv):
    # argparse's own exit code, 2, is the one for failed cells
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(kappa_config(tmp_path)))
    assert main([a.format(cfg=cfg_path) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: augrkhs")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert not (tmp_path / "out").exists()


def test_help_exits_0(capsys):
    for argv in (["--help"], ["kappa", "--help"]):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 0
    assert "--config" in capsys.readouterr().out


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
    # a sweep without a d axis runs no rate experiment, so its N axis is read
    # by no cell: a config error, whatever the N grid
    cfg = json.loads(cfg_path.read_text())
    del cfg["grid"]["d"]
    cfg["command"] = "sweep"
    with pytest.raises(ValidationError, match=re.escape(
            "tracegap reads grid axes ['d', 'N'] together; the grid lacks "
            "['d']")):
        resolve_config(cfg)


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

    Every built process is tracked by a weak reference.
    """
    builds, decompositions, alive = Counter(), Counter(), []
    build, decompose = harness.build_hypercube, spectral.decompose

    def counting_build(hc, budget):
        builds[(hc.scheme, hc.d_x, hc.alpha)] += 1
        process = build(hc, budget=budget)
        alive.append(weakref.ref(process))
        return process

    def counting_decompose(process, *args, **kwargs):
        decompositions[(process.n_x, process.n_a)] += 1
        return decompose(process, *args, **kwargs)

    monkeypatch.setattr(harness, "build_hypercube", counting_build)
    monkeypatch.setattr(spectral, "decompose", counting_decompose)
    monkeypatch.setattr(complexity, "decompose", counting_decompose)
    return builds, decompositions, alive


@pytest.mark.parametrize("make_config", [kappa_config, tracegap_config])
def test_each_process_built_and_decomposed_once(tmp_path, counted_builds,
                                               make_config):
    builds, decompositions, _ = counted_builds
    cfg = make_config(tmp_path, seeds=[0, 1])
    outcome = run(resolve_config(cfg))
    assert outcome.exit_code == 0
    grid = cfg["grid"]
    keys = {(s, d_x, a) for s in grid["scheme"] for d_x in grid["d_x"]
            for a in grid["alpha"]}
    assert set(builds) == keys and set(builds.values()) == {1}
    assert sum(decompositions.values()) == len(keys)


def test_failed_build_cached_for_every_cell(tmp_path, counted_builds):
    builds, _, _ = counted_builds
    cfg = resolve_config(kappa_config(
        tmp_path, grid={"scheme": ["random_mask"], "d_x": [3, 40],
                        "alpha": [0.5]},
        seeds=[0, 1, 2], budget=10**6))
    outcome = run(cfg)
    errors = [r for r in outcome.records if r.get("error")]
    assert outcome.failures == 3 and len(errors) == 3
    assert [r["seed"] for r in errors] == [0, 1, 2]
    assert len({r["error"] for r in errors}) == 1
    assert errors[0]["error"].startswith("BudgetExceededError")
    assert builds == {("random_mask", 3, 0.5): 1, ("random_mask", 40, 0.5): 1}


def test_entries_released_after_their_last_cell(tmp_path, counted_builds):
    _, _, alive = counted_builds
    live_after_build = []
    build = harness.build_hypercube

    def count_after_build(hc, budget):
        process = build(hc, budget)
        gc.collect()
        live_after_build.append(sum(ref() is not None for ref in alive))
        return process

    harness.build_hypercube = count_after_build  # restored by the fixture
    outcome = run(resolve_config(kappa_config(tmp_path, seeds=[0, 1])))
    assert outcome.exit_code == 0
    # one process at a time, and none once run() has returned
    assert live_after_build == [1, 1, 1, 1]
    del outcome
    gc.collect()
    assert len(alive) == 4
    assert all(ref() is None for ref in alive)


@pytest.fixture
def counted_kappa(monkeypatch):
    """Processes passed to ``complexity.kappa_exact``, one entry per call."""
    calls = []
    kappa_exact = complexity.kappa_exact

    def counting_kappa(dec):
        calls.append(dec.process)
        return kappa_exact(dec)

    monkeypatch.setattr(complexity, "kappa_exact", counting_kappa)
    return calls


def test_kappa_computed_once_per_process(tmp_path, counted_kappa):
    calls = counted_kappa
    outcome = run(resolve_config(kappa_config(tmp_path, seeds=[0, 1])))
    assert outcome.exit_code == 0 and len(outcome.records) == 8
    assert len(calls) == 4  # 4 processes, 2 seeds each
    calls.clear()
    outcome = run(resolve_config({
        "command": "regress",
        "grid": {"scheme": ["random_mask", "block_mask_flip"], "d_x": [2],
                 "alpha": [0.5], "d": [1, 2], "n": [16, 32], "sigma": [0.1],
                 "B": [1.0], "epsilon": [0.2]},
        "seeds": [0, 1],
        "output_dir": str(tmp_path / "regress"),
    }))
    assert outcome.exit_code == 0 and len(outcome.records) == 16
    assert len(calls) == 2  # 2 processes, 8 cells each


def test_bad_beta_fails_only_the_kappa_cells(tmp_path, counted_kappa,
                                             monkeypatch):
    # the library's kappa_exact, counted, reached with an out-of-range
    # percentile
    monkeypatch.setattr(complexity, "PERCENTILE", 500.0)
    outcome = run(resolve_config(tracegap_config(
        tmp_path, command="sweep", seeds=[0, 1])))
    kappa_rows = [r for r in outcome.records if "kappa_sq_exact" in r
                  or r.get("error")]
    assert len(kappa_rows) == outcome.failures == 4  # 2 processes x 2 seeds
    assert {r["error"] for r in kappa_rows} == {
        "ValidationError: beta must lie in (0; 100]; got 500.0"}
    assert sum(1 for r in outcome.records if "gap" in r) > 0
    assert len(counted_kappa) == 2  # the failure is computed once per process


def test_spectrum_residuals_computed_once_per_process(tmp_path, monkeypatch):
    grid = {"scheme": ["random_mask", "block_mask_flip"], "d_x": [3],
            "alpha": [0.25, 0.5]}
    calls = Counter()
    for name in ("_duality_residual", "verify_integral_identity"):
        def counting(*args, _fn=getattr(spectral, name), _name=name, **kw):
            calls[_name] += 1
            return _fn(*args, **kw)
        monkeypatch.setattr(spectral, name, counting)

    def spectrum(seeds, label):
        calls.clear()
        outcome = run(resolve_config({
            "command": "spectrum", "grid": grid, "seeds": seeds,
            "output_dir": str(tmp_path / label)}))
        assert outcome.exit_code == 0
        return outcome, dict(calls)

    one, one_calls = spectrum([4], "one")
    three, three_calls = spectrum([4, 5, 6], "three")
    # phi's checks measure duality, and the rows read that value
    assert three_calls == one_calls
    assert one_calls["_duality_residual"] == 4
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


def _run_probe(probe, *args):
    """The stdout of ``probe`` run in a fresh interpreter on this tree."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
        __file__))), "src")
    return subprocess.run([sys.executable, "-c", probe, *args],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=True,
                          timeout=120).stdout


def test_cli_import_leaves_scipy_linalg_out():
    # the runtime needs numpy, and scipy.sparse only for a product with a
    # table stored CSR; scipy.linalg is a test oracle, and importing it costs every sweep
    # start-up time
    probe = ("import sys, augrkhs.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('scipy.linalg')))")
    assert _run_probe(probe).strip() == "[]"


# whether scipy is loaded after the import, after a pretrain sweep on
# random_mask d_x 6, after a random_mask d_x 7 build, after CI's d_x 8
# kappa grid of four schemes and after one product with the d_x 7 table
_SCIPY_PROBE = """
import json, sys
from augrkhs import harness, processes, spectral

loaded = ["scipy" in sys.modules]
pretrain = harness.run(harness.resolve_config({
    "command": "pretrain", "seeds": [0], "output_dir": sys.argv[1],
    "grid": {"scheme": ["random_mask"], "d_x": [6], "alpha": [0.5],
             "objective": ["scl", "sclip", "rbt", "vicreg"], "d": [7]},
    "options": {"max_iters": 20}}))
loaded.append("scipy" in sys.modules)
process = processes.build_hypercube(
    processes.HypercubeConfig(7, 0.5, "random_mask"))
loaded.append("scipy" in sys.modules)
kappa = harness.run(harness.resolve_config({
    "command": "kappa", "seeds": [0, 1], "output_dir": sys.argv[2],
    "grid": {"scheme": ["random_mask", "block_mask", "block_mask_flip",
                        "random_mask_flip"],
             "d_x": [8], "alpha": [0.3, 0.7]}}))
loaded.append("scipy" in sys.modules)
spectral.apply_gamma(process, process.p_x)
loaded.append("scipy" in sys.modules)
print(json.dumps([pretrain.exit_code, kappa.exit_code, process.is_sparse,
                  loaded]))
"""


def test_scipy_loads_only_for_a_product_with_a_csr_table(tmp_path):
    # random_mask d_x 6 is 64 x 729 = 46,656 entries, at most DENSE_ENTRIES,
    # so stored dense; d_x 7 is 279,936 entries below 25% density, so CSR,
    # and so is random_mask at d_x 8.  A kappa sweep reads the entries of a
    # CSR table with numpy; a product runs scipy's kernel
    out = _run_probe(_SCIPY_PROBE, str(tmp_path / "pretrain"),
                     str(tmp_path / "kappa"))
    assert json.loads(out) == [0, 0, True, [False, False, False, False, True]]


# whether scipy is loaded after dumping a dense table and a CSR one
_DUMP_PROBE = """
import json, sys
from augrkhs import processes

stored = []
for d_x, path in ((3, sys.argv[1]), (7, sys.argv[2])):
    process = processes.build_hypercube(
        processes.HypercubeConfig(d_x, 0.5, "random_mask"))
    processes.dump_process(path, process)
    stored.append(process.is_sparse)
print(json.dumps([stored, "scipy" in sys.modules]))
"""


def test_import_loads_no_openssl():
    # cell seeds hash with CPython's built-in SHA-256 and temporary names
    # come from os.urandom, so neither hashlib's OpenSSL nor secrets loads
    probe = ("import sys, augrkhs; print(sorted(m for m in "
             "('_hashlib', 'hmac', 'secrets') if m in sys.modules))")
    assert _run_probe(probe).strip() == "[]"


def test_dump_process_loads_no_scipy(tmp_path):
    out = _run_probe(_DUMP_PROBE, str(tmp_path / "dense.txt"),
                     str(tmp_path / "csr.txt"))
    assert json.loads(out) == [[False, True], False]


# prints OPENBLAS_THREAD_TIMEOUT as it stands when numpy is first looked up,
# which is before OpenBLAS loads and reads it
_BLAS_PROBE = """
import importlib.abc, os, sys

class Probe(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            sys.meta_path.remove(self)
            print(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))

sys.meta_path.insert(0, Probe())
import augrkhs
"""


@pytest.mark.parametrize("setting,seen", [(None, "16"), ("28", "28")])
def test_import_sets_the_blas_timeout_before_numpy_loads(setting, seen):
    # idle OpenBLAS workers park after 2^16 cycles, unless the environment
    # already sets the timeout
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
        __file__))), "src")
    env = {k: v for k, v in os.environ.items()
           if k != "OPENBLAS_THREAD_TIMEOUT"}
    env["PYTHONPATH"] = src
    if setting is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = setting
    out = subprocess.run([sys.executable, "-c", _BLAS_PROBE],
                         capture_output=True, text=True, env=env, check=True,
                         timeout=120)
    assert out.stdout.strip() == seen


def _count_phi(monkeypatch, scale=None):
    """Count the formations and checks of phi on the law route, the duality
    residuals measured, and the ``apply_gamma`` calls ``spectral`` makes
    (phi's formation is one).  Checks, residuals and ``apply_gamma`` calls
    on a process without a hypercube, such as the sample process of the
    empirical route, are counted under ``sample_`` names.  With ``scale``
    the formed phi is multiplied by it.
    """
    counts = Counter()
    walsh_engine = spectral._walsh_engine
    check_phi, apply_gamma = spectral._check_phi, spectral.apply_gamma
    duality = spectral._duality_residual

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return call

    def by_process(name, fn):
        def call(process, *args, **kwargs):
            sample = process.hypercube is None
            counts[f"sample_{name}" if sample else name] += 1
            return fn(process, *args, **kwargs)
        return call

    def form(form_phi):
        phi = form_phi()
        return phi if scale is None else phi * scale

    def engine(process):
        lambdas, psi, form_phi = walsh_engine(process)
        return lambdas, psi, counted("form", lambda: form(form_phi))

    monkeypatch.setattr(spectral, "_walsh_engine", engine)
    monkeypatch.setattr(spectral, "_check_phi", by_process("check", check_phi))
    monkeypatch.setattr(spectral, "_duality_residual",
                        by_process("duality", duality))
    monkeypatch.setattr(spectral, "apply_gamma",
                        by_process("apply_gamma", apply_gamma))
    return counts


@pytest.mark.parametrize("make_config", [kappa_config, tracegap_config])
def test_complexity_cells_never_form_phi(tmp_path, monkeypatch, make_config):
    counts = _count_phi(monkeypatch)
    command = "kappa" if make_config is kappa_config else "sweep"
    outcome = run(resolve_config(make_config(
        tmp_path, command=command, seeds=[0, 1])))
    assert outcome.exit_code == 0
    kappa_rows = sum(1 for r in outcome.records if "kappa_sq_exact" in r)
    assert kappa_rows == (8 if command == "kappa" else 4)  # processes x seeds
    # one row per tracegap cell carries its empirical eigenvalues
    cells = sum(1 for r in outcome.records if "lambdas_bar" in r)
    # each tracegap cell checks its sample's phi once and measures its
    # duality once; no population forms phi
    sample = {k: counts.pop(k) for k in list(counts) if k.startswith("sample_")}
    if command == "sweep":
        assert cells == 16  # processes x N x seeds
        assert sample == {"sample_check": cells, "sample_duality": cells}
    else:
        assert sample == {}
    assert counts == {}


_PHI_READERS = {
    "spectrum": {"scheme": ["random_mask", "block_mask_flip"], "d_x": [3],
                 "alpha": [0.5]},
    "pretrain": {"scheme": ["random_mask", "block_mask_flip"], "d_x": [3],
                 "alpha": [0.5], "objective": ["scl", "vicreg"], "d": [2]},
    "regress": {"scheme": ["random_mask", "block_mask_flip"], "d_x": [3],
                "alpha": [0.5], "d": [1, 2], "n": [16], "sigma": [0.1],
                "B": [1.0], "epsilon": [0.2]},
}


@pytest.mark.parametrize("command", sorted(_PHI_READERS))
def test_phi_formed_and_checked_once_per_process(tmp_path, monkeypatch,
                                                 command):
    counts = _count_phi(monkeypatch)
    outcome = run(resolve_config({
        "command": command, "grid": _PHI_READERS[command],
        "seeds": [0, 1, 2], "output_dir": str(tmp_path / "out"),
        "options": {"max_iters": 20} if command == "pretrain" else {}}))
    assert outcome.exit_code == 0 and len(outcome.records) >= 6
    # two processes; phi's checks measure duality, and the spectrum rows
    # read their value
    assert counts["form"] == counts["check"] == counts["duality"] == 2


def test_spectrum_cells_measure_the_reconstruction_before_phi(tmp_path,
                                                            monkeypatch):
    # the reconstruction's |A| x |X| array is dropped before phi is formed,
    # so the two are never held at once
    verify = spectral.verify_integral_identity
    phi_formed = []

    def recording(dec):
        phi_formed.append(dec._phi._result is not None)
        return verify(dec)

    monkeypatch.setattr(spectral, "verify_integral_identity", recording)
    outcome = run(resolve_config({
        "command": "spectrum", "grid": _PHI_READERS["spectrum"],
        "seeds": [0, 1], "output_dir": str(tmp_path / "out")}))
    assert outcome.exit_code == 0
    assert phi_formed == [False, False]  # once per process


def test_failed_phi_check_fails_only_the_cells_that_read_phi(tmp_path,
                                                             monkeypatch):
    counts = _count_phi(monkeypatch, scale=1 + 1e-6)
    config = resolve_config({
        "command": "regress", "grid": _PHI_READERS["regress"], "seeds": [0, 1],
        "output_dir": str(tmp_path / "out")})
    # a regress grid has no objective axis and reads no options; the
    # pretrain cells need both
    config = dataclasses.replace(
        config, grid=dict(config.grid, objective=["scl"]),
        options={"max_iters": 20})
    outputs = [(name, harness._PROCESS_AXES + harness._READS[name])
               for name in ("kappa", "spectrum", "regress", "pretrain")]
    group = next(harness._groups(config, outputs))
    rows = harness._run_group(config, group)
    assert counts["form"] == counts["check"] == 1
    for (name, _), row in zip(group, rows):
        if name == "kappa":
            assert not row.get("error") and row["kappa_sq_exact"] > 1.0
        else:
            assert row["error"] == ("ValidationError: phi columns are not "
                                    "orthonormal under p_a"), name
    # a sweep's cells read lambda and psi only, so the same fault fails none
    outcome = run(resolve_config(tracegap_config(
        tmp_path, command="sweep", output_dir=str(tmp_path / "sweep"))))
    assert outcome.exit_code == 0


_RERUN_GRIDS = {  # command -> (grid, options, files written)
    "kappa": ({"scheme": ["random_mask", "block_mask_flip"], "d_x": [3],
               "alpha": [0.3, 0.7]}, {}, 1),
    "spectrum": ({"scheme": ["random_mask", "block_mask"], "d_x": [3],
                  "alpha": [0.5]}, {}, 7),  # lambdas, psi and phi per process
    "pretrain": ({"scheme": ["random_mask"], "d_x": [3], "alpha": [0.5],
                  "objective": ["scl", "rbt"], "d": [2]},
                 {"max_iters": 30}, 5),  # a trace per cell
    "regress": ({"scheme": ["random_mask", "block_mask_flip"], "d_x": [3],
                 "alpha": [0.5], "d": [2], "n": [16, 64], "sigma": [0.1],
                 "B": [1.0], "epsilon": [0.2]}, {}, 1),
    "tracegap": ({"scheme": ["random_mask"], "d_x": [3], "alpha": [0.5],
                  "d": [2], "N": [16, 32, 64, 256]}, {}, 3),
    "sweep": ({"scheme": ["random_mask", "block_mask"], "d_x": [3],
               "alpha": [0.5], "d": [2], "N": [16, 32, 64, 256]}, {}, 5),
}


@pytest.mark.parametrize("command", sorted(_RERUN_GRIDS))
def test_rerun_writes_the_same_bytes(tmp_path, capsys, command):
    grid, options, n_files = _RERUN_GRIDS[command]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"command": command, "grid": grid,
                                    "seeds": [0, 1], "options": options}))
    trees = []
    for label in ("first", "second"):
        out = tmp_path / label
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
        trees.append({p.name: p.read_bytes() for p in out.iterdir()})
    capsys.readouterr()
    assert len(trees[0]) == n_files
    assert trees[0] == trees[1]
