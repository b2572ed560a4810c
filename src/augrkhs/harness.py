"""Declarative experiment runner: grids, deterministic seeding, CSV/JSON.

A run is described by a config (JSON file or dict): a command, per-axis
value lists, a seed list, an output directory, and an enumeration budget.
Every cell of the grid-times-seeds cross product executes independently
with a seed derived from the master seed and the cell's axis values, so any
cell can be reproduced in isolation; failures are recorded per cell without
aborting the sweep.  Processes are built one after another: each is built
and decomposed once, its cells run in grid order in the calling thread, and
it is dropped before the next is built.  Floats are written with 17
significant digits and rows are written in grid order, so identical configs
produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import numbers
import os
from dataclasses import dataclass, field

import numpy as np

from . import complexity, encoders, objectives, regression, spectral
from .exceptions import BudgetExceededError, ValidationError
from .processes import DEFAULT_BUDGET, SCHEMES, HypercubeConfig, build_hypercube

SCHEMA_VERSION = "1"

COMMANDS = ("kappa", "spectrum", "pretrain", "regress", "tracegap", "sweep")

_AXIS_ORDER = ("scheme", "d_x", "alpha", "objective", "d", "N", "n", "sigma",
               "B", "epsilon")

_REQUIRED_AXES = {
    "kappa": ("scheme", "d_x", "alpha"),
    "spectrum": ("scheme", "d_x", "alpha"),
    "pretrain": ("scheme", "d_x", "alpha", "objective", "d"),
    "regress": ("scheme", "d_x", "alpha", "d", "n", "sigma", "B", "epsilon"),
    "tracegap": ("scheme", "d_x", "alpha", "d", "N"),
    "sweep": ("scheme", "d_x", "alpha"),
}

# the option names some cell reads; any other name is a config error
OPTIONS = ("beta", "learning_rate", "max_iters", "grad_tol", "init_scale",
           "alpha_w", "beta_w", "c0")

HEADERS = {
    "kappa": ["schema", "scheme", "d_x", "alpha", "seed", "kappa_sq_exact",
              "kappa_sq_p99", "closed_form", "bound_kind", "s_lambda",
              "error"],
    "spectrum": ["schema", "scheme", "d_x", "alpha", "seed", "rank",
                 "lambda_top", "s_lambda", "duality_residual",
                 "reconstruction_residual", "error"],
    "regress": ["schema", "scheme", "d_x", "alpha", "seed", "n", "sigma", "d",
                "B", "epsilon", "tau_sq", "pred_err", "approx_err", "est_err",
                "lemma32_rhs", "thm31_rhs", "constraint_active", "error"],
    "tracegap": ["schema", "scheme", "d_x", "alpha", "d", "N", "seed", "gap",
                 "error"],
    "figure_4a": ["alpha", "random_mask", "block_mask", "block_mask_flip"],
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated description of one sweep."""

    command: str
    grid: dict
    seeds: tuple[int, ...]
    output_dir: str
    budget: int = DEFAULT_BUDGET
    master_seed: int = 0
    options: dict = field(default_factory=dict)


@dataclass(frozen=True)
class RunOutcome:
    records: list
    failures: int
    files: dict

    @property
    def exit_code(self) -> int:
        return 2 if self.failures else 0


def fmt(value) -> str:
    """Canonical field formatting: 17 significant digits for floats."""
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def cell_seed(master_seed: int, **axes) -> int:
    """Stable per-cell seed: SHA-256 of the master seed and axis values.

    Independent of grid shape, so a cell rerun in isolation reproduces its
    row exactly.
    """
    payload = f"{master_seed}|" + "|".join(
        f"{k}={fmt(axes[k])}" for k in sorted(axes)
    )
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def load_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError("config must be a JSON object")
    return raw


def _integer(value, what: str) -> int:
    """A JSON integer (``1e8`` included); strings and fractions are refused."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise ValidationError(f"{what} must be an integer, got {value!r}")


def _object(value, what: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ValidationError(f"{what} must be an object, got {value!r}")
    return dict(value)


def resolve_config(raw: dict, command: str | None = None,
                   seed: int | None = None, out: str | None = None,
                   budget: int | None = None,
                   jobs: int | None = None) -> ExperimentConfig:
    """Merge a raw config dict with command-line overrides and validate."""
    cmd = command or raw.get("command")
    if cmd not in COMMANDS:
        raise ValidationError(f"command must be one of {COMMANDS}, got {cmd!r}")
    grid = _object(raw.get("grid"), "grid")
    for axis, values in grid.items():
        if not isinstance(values, (list, tuple)) or not values:
            raise ValidationError(f"grid axis {axis!r} must be a nonempty list")
    missing = [a for a in _REQUIRED_AXES[cmd] if not grid.get(a)]
    if missing:
        raise ValidationError(f"command {cmd!r} needs grid axes {missing}")
    for scheme in grid.get("scheme", ()):
        if scheme not in SCHEMES:
            raise ValidationError(f"unknown scheme {scheme!r}")
    seeds = raw.get("seeds") or []
    if seed is not None:
        seeds = [seed]
    if not isinstance(seeds, (list, tuple)) or not seeds:
        raise ValidationError("seeds must be a nonempty list")
    output_dir = out or raw.get("output_dir")
    if not output_dir:
        raise ValidationError("output_dir is required")
    options = _object(raw.get("options"), "options")
    unknown = sorted(set(options) - set(OPTIONS))
    if unknown:
        raise ValidationError(
            f"unknown options {unknown}; the cells read {list(OPTIONS)}")
    for name, value in options.items():
        what = f"option {name!r}"
        if name == "max_iters":
            if _integer(value, what) < 0:
                raise ValidationError(f"{what} must be >= 0, got {value!r}")
        elif not isinstance(value, numbers.Real) or isinstance(value, bool):
            raise ValidationError(f"{what} must be a number, got {value!r}")
    jobs = _integer(jobs if jobs is not None else raw.get("jobs", 1), "jobs")
    if jobs != 1:
        raise ValidationError(
            f"jobs must be 1 (cells run in grid order), got {jobs}")
    config = ExperimentConfig(
        command=cmd,
        grid=grid,
        seeds=tuple(_integer(s, "each seed") for s in seeds),
        output_dir=str(output_dir),
        budget=_integer(budget if budget is not None
                        else raw.get("budget", DEFAULT_BUDGET), "budget"),
        master_seed=_integer(raw.get("master_seed", 0), "master_seed"),
        options=options,
    )
    if any(name == "tracegap" for name, _ in _outputs(config)):
        _check_rate_grid(config.grid)
    return config


def config_to_dict(config: ExperimentConfig) -> dict:
    return {
        "command": config.command,
        "grid": config.grid,
        "seeds": list(config.seeds),
        "output_dir": config.output_dir,
        "budget": config.budget,
        "master_seed": config.master_seed,
        "options": config.options,
    }


def _write_atomic(path: str, text: str) -> None:
    with spectral._replacing(path) as fh:
        fh.write(text)


def write_csv(path: str, header: list[str], rows: list[dict]) -> None:
    lines = [",".join(header)]
    for row in rows:
        if not row.get("error"):
            bad = [col for col in header
                   if isinstance(row.get(col), float)
                   and not math.isfinite(row[col])]
            if bad:
                raise ValidationError(f"non-finite fields {bad} in {row}")
        lines.append(",".join(fmt(row.get(col)) for col in header))
    _write_atomic(path, "\n".join(lines) + "\n")


def write_jsonl(path: str, records: list[dict]) -> None:
    _write_atomic(path, "".join(json.dumps(r, sort_keys=True) + "\n"
                                for r in records))


def figure_4a_data() -> tuple[list[str], list[dict]]:
    """Exact base curves of the three closed-form complexities on [0, 1].

    101 rows at step 0.01: ``2 - a``, ``2^(1-a)``, and
    ``(a^2 - 2a + 2)^(1 - a/2)``.
    """
    rows = []
    for i in range(101):
        a = i / 100.0
        rows.append({
            "alpha": a,
            "random_mask": 2.0 - a,
            "block_mask": 2.0 ** (1.0 - a),
            "block_mask_flip": (a * a - 2.0 * a + 2.0) ** (1.0 - a / 2.0),
        })
    return HEADERS["figure_4a"], rows


# the axes that fix a process; every command varies them outermost
_PROCESS_AXES = ("scheme", "d_x", "alpha")


def _grid_axes(config: ExperimentConfig) -> tuple[str, ...]:
    return tuple(a for a in _AXIS_ORDER if a in config.grid)


def _outputs(config: ExperimentConfig) -> list[tuple[str, tuple[str, ...]]]:
    """The outputs ``run`` fills, each with the grid axes of its cells.

    A sweep's complexity cells span only the process axes; its rate
    experiment, run when the grid has ``d`` and ``N`` axes, spans them all.
    """
    if config.command != "sweep":
        return [(config.command, _grid_axes(config))]
    outputs = [("kappa", _PROCESS_AXES)]
    if config.grid.get("N") and config.grid.get("d"):
        outputs.append(("tracegap", _grid_axes(config)))
    return outputs


def _groups(config: ExperimentConfig, outputs):
    """The ``(output, cell)`` pairs of each process, one list per process.

    Processes come in grid order.  Within one, the cells of every output come
    in turn; within one output they follow the grid product, seeds innermost.
    """
    grid = config.grid
    for outer in itertools.product(*(grid[a] for a in _PROCESS_AXES)):
        group = []
        for name, axes in outputs:
            rest = axes[len(_PROCESS_AXES):]
            for combo in itertools.product(*(grid[a] for a in rest)):
                for seed_val in config.seeds:
                    cell = dict(zip(axes, outer + combo))
                    cell["seed"] = cell_seed(config.master_seed,
                                             master=seed_val, **cell)
                    cell["master"] = seed_val
                    group.append((name, cell))
        yield group


def _base_row(cell: dict) -> dict:
    row = {"schema": SCHEMA_VERSION, "seed": cell["master"]}
    for key in _AXIS_ORDER:
        if key in cell:
            row[key] = cell[key]
    return row


def _hypercube(cell) -> HypercubeConfig:
    return HypercubeConfig(cell["d_x"], cell["alpha"], cell["scheme"])


def _check_dense(shape: tuple[int, ...], budget: int, what: str) -> None:
    """Raise :class:`BudgetExceededError` naming ``what`` if a dense array
    of ``shape`` would hold more than ``budget`` entries."""
    entries = math.prod(shape)
    if entries > budget:
        raise BudgetExceededError(
            f"{what} needs a {' x '.join(map(str, shape))} = {entries} entry "
            f"dense array, exceeding the budget of {budget}"
        )


def _error_row(cell: dict, exc: Exception) -> dict:
    row = _base_row(cell)
    row["error"] = f"{type(exc).__name__}: {exc}".replace(",", ";")
    return row


class _Memo(dict):
    """Per-group memo of seed-independent results, one
    :class:`spectral._Once` per key.

    ``once(key, compute)`` returns ``compute()``, computed on the key's first
    call; an exception it raised is raised again to every later caller, so a
    failing value is computed once too.
    """

    def __call__(self, key, compute):
        if key not in self:
            self[key] = spectral._Once(compute)
        return self[key]()


def _kappa(once: _Memo, dec, beta: float = 99.0):
    """The process's complexity report at ``beta``, computed once per group."""
    return once(("kappa", beta),
                lambda: complexity.kappa_exact(dec, beta))


def _kappa_cell(cell, config: ExperimentConfig, dec, once) -> dict:
    row = _base_row(cell)
    report = _kappa(once, dec, float(config.options.get("beta", 99.0)))
    row["kappa_sq_exact"] = report.kappa_sq_max
    row["kappa_sq_p99"] = report.kappa_sq_percentile
    try:
        closed = complexity.closed_form_kappa(_hypercube(cell))
        row["closed_form"] = closed.value
        row["bound_kind"] = closed.kind
    except ValidationError:
        row["closed_form"] = None
        row["bound_kind"] = None
    row["s_lambda"] = report.s_lambda_total
    return row


def _spectrum_cell(cell, config: ExperimentConfig, dec, once) -> dict:
    row = _base_row(cell)
    process = dec.process
    row["rank"] = dec.rank
    row["lambda_top"] = float(dec.lambdas[0])
    row["s_lambda"] = float(dec.lambdas.sum())
    _check_dense((spectral.RESIDUAL_ARRAYS, process.n_x, process.n_x),
                 config.budget,
                 "the reconstruction residual (four |X| x |X| arrays)")
    # the residuals do not depend on the seed; phi's checks measured duality
    row["duality_residual"] = dec.checked_duality_residual
    row["reconstruction_residual"] = once(
        ("reconstruction",),
        lambda: spectral.verify_integral_identity(process, dec))
    if cell["master"] == config.seeds[0]:  # the files do not depend on the seed
        stem = (f"{cell['scheme']}_dx{cell['d_x']}_a{cell['alpha']!r}"
                .replace(".", "p"))
        spectral.export_decomposition(dec, config.output_dir, stem=stem)
    return row


def _pretrain_cell(cell, config: ExperimentConfig, dec, once) -> dict:
    row = _base_row(cell)
    d = int(cell["d"])
    opts = config.options
    opt = objectives.OptimizerConfig(
        learning_rate=float(opts.get("learning_rate", 0.2)),
        max_iters=int(opts.get("max_iters", 20000)),
        grad_tol=float(opts.get("grad_tol", 1e-8)),
        seed=cell["seed"],
        init_scale=float(opts.get("init_scale", 0.5)),
    )
    kind = cell["objective"]
    spec = objectives.ObjectiveSpec(
        kind=kind, d=d,
        alpha_w=float(opts.get("alpha_w", 1.0)) if kind == "rbt" else None,
        beta_w=float(opts.get("beta_w", 1.0)) if kind in ("rbt", "vicreg")
        else None,
    )
    result = objectives.minimize(spec, dec.process, opt)
    lam = dec.lambdas[:d]
    if kind == "scl":
        target = float(-(lam ** 2).sum())
    elif kind == "sclip":
        target = float(-lam.sum())
    elif kind == "vicreg" and spec.beta_w == 1.0:
        target = float(d - (lam ** 2).sum())
    else:
        target = None
    row["final_loss"] = result.final_loss
    row["target_loss"] = target
    row["principal_angle"] = objectives.subspace_angle(result.phi_hat, dec, d)
    row["iterations"] = result.iterations
    row["trace"] = [float(v) for v in result.losses]
    return row


def _regress_cell(cell, config: ExperimentConfig, dec, once) -> dict:
    row = _base_row(cell)
    d = int(cell["d"])
    encoder = encoders.optimal_encoder(dec, d)
    B, eps = float(cell["B"]), float(cell["epsilon"])
    target = regression.sample_target(dec, B, eps, seed=cell["seed"])
    samples = regression.generate_labels(
        target, int(cell["n"]), float(cell["sigma"]), seed=cell["seed"] + 1)
    fit = regression.fit_least_squares(encoder, samples, B, eps, target=target)
    f_psi, approx_err = regression.project_fpsi(target, encoder)
    est = fit.f_hat_values - f_psi
    tau_sq = encoders.trace_gap(encoder)
    report = _kappa(once, dec)  # the default beta, so a beta option cannot fail it
    ctx = regression.BoundContext(
        tau_sq=tau_sq, epsilon=eps, B=B,
        kappa=math.sqrt(report.kappa_sq_max),
        s_lambda_dplus1=complexity.partial_trace(dec, d + 1),
        n=int(cell["n"]), sigma=float(cell["sigma"]),
        c0=float(config.options.get("c0", 1.0)),
        lambda_dplus1=dec.eigenvalue(d + 1),
    )
    bounds = regression.evaluate_bounds(ctx)
    row["tau_sq"] = tau_sq
    row["pred_err"] = fit.prediction_error
    row["approx_err"] = approx_err
    row["est_err"] = float(np.sum(est * est * dec.process.p_x.mass))
    row["lemma32_rhs"] = bounds.lemma32_rhs
    row["thm31_rhs"] = bounds.thm31_rhs
    row["constraint_active"] = int(fit.lagrange_mu > 0)
    return row


def _tracegap_cell(cell, config: ExperimentConfig, dec, once) -> dict:
    row = _base_row(cell)
    d, N = int(cell["d"]), int(cell["N"])
    empirical = encoders.empirical_decomposition(dec.process, N,
                                                 seed=cell["seed"])
    encoder = encoders.near_optimal_encoder(empirical, d, dec)
    cov = encoders.covariances(encoder)
    rt = encoders.ratio_trace(cov)
    gap = complexity.partial_trace(dec, d + 1) - rt - dec.eigenvalue(d + 1)
    row["gap"] = gap
    row["lambdas_bar"] = [float(v) for v in empirical.lambdas_bar[:d]]
    row["gamma_g"] = cov.gamma_g  # reported so its growth in N is observable
    return row


# output name -> cell function ``(cell, config, dec, once)``, where
# ``once`` is the group's ``_Memo`` of seed-independent results
_CELL_FN = {
    "kappa": _kappa_cell,
    "spectrum": _spectrum_cell,
    "pretrain": _pretrain_cell,
    "regress": _regress_cell,
    "tracegap": _tracegap_cell,
}


def _run_group(config: ExperimentConfig, group) -> list[dict]:
    """Build the group's process once and run its cells in turn; return
    their rows.

    The process, its decomposition and the group's memo are locals of this
    call, so they are dropped when it returns.  A failed build gives every
    cell of the group the build's error row.
    """
    try:
        dec = spectral.decompose(
            build_hypercube(_hypercube(group[0][1]), budget=config.budget))
    except Exception as exc:  # each cell's error row, never abort
        return [_error_row(cell, exc) for _, cell in group]
    once = _Memo()
    rows = []
    for name, cell in group:
        try:
            rows.append(_CELL_FN[name](cell, config, dec, once))
        except Exception as exc:  # cell isolation: record, never abort
            rows.append(_error_row(cell, exc))
    return rows


def _execute(config: ExperimentConfig, outputs) -> dict[str, list]:
    """Run the cells of ``outputs``; return each output's rows in grid order.

    Processes are built one after another, so at most one is alive, and the
    cells of each run in grid order in the calling thread.
    """
    by_output = {name: [] for name, _ in outputs}
    for group in _groups(config, outputs):
        for (name, _), row in zip(group, _run_group(config, group)):
            by_output[name].append(row)
    return by_output


def fit_loglog_slope(ns, values) -> float:
    """Least-squares slope of ``log(values)`` against ``log(ns)``."""
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(np.asarray(values, dtype=float))
    x = x - x.mean()
    return float((x @ (y - y.mean())) / (x @ x))


def _check_rate_grid(grid: dict) -> None:
    ns = sorted(set(grid["N"]))
    if len(ns) < 4 or ns[-1] < 16 * ns[0]:
        raise ValidationError(
            "the N grid needs >= 4 points spanning at least a factor of 16"
        )


def _rate_summary(rows) -> tuple[list, float | None]:
    """One median row per (axes, N) group, in grid order, and the log-log
    slope in N."""
    groups: dict[tuple, list] = {}
    for row in rows:
        if row.get("error"):
            continue
        key = (row.get("scheme"), row.get("d_x"), row.get("alpha"),
               row.get("d"), row.get("N"))
        groups.setdefault(key, []).append(row["gap"])
    median_rows = []
    medians: dict[int, list] = {}
    for key, gaps in groups.items():
        med = float(np.median(gaps))
        median_rows.append({
            "schema": SCHEMA_VERSION, "scheme": key[0], "d_x": key[1],
            "alpha": key[2], "d": key[3], "N": key[4], "seed": "median",
            "gap": med,
        })
        medians.setdefault(key[4], []).append(med)
    # the gap is nonnegative up to rounding; only positive medians carry
    # log-scale information
    points = [(n, float(np.mean(medians[n]))) for n in sorted(medians)]
    points = [(n, v) for n, v in points if v > 0.0]
    slope = (fit_loglog_slope([n for n, _ in points], [v for _, v in points])
             if len(points) >= 2 else None)
    return median_rows, slope


def _write_table(config: ExperimentConfig, name: str, rows, files) -> list:
    path = os.path.join(config.output_dir, f"{name}.csv")
    write_csv(path, HEADERS[name], rows)
    files[name] = path
    return rows


def _write_pretrain(config: ExperimentConfig, name: str, rows, files) -> list:
    records = []
    for row in rows:
        records.append({k: v for k, v in row.items() if k != "trace"})
        if "trace" in row:
            stem = (f"pretrain_{row['objective']}_{row['scheme']}"
                    f"_dx{row['d_x']}_a{row['alpha']!r}"
                    f"_d{row['d']}_s{row['seed']}").replace(".", "p")
            trace_path = os.path.join(config.output_dir, stem + ".csv")
            write_csv(trace_path, ["iteration", "loss"],
                      [{"iteration": i, "loss": v}
                       for i, v in enumerate(row["trace"])])
    path = os.path.join(config.output_dir, "pretrain.jsonl")
    write_jsonl(path, records)
    files["pretrain"] = path
    return records


def _write_tracegap(config: ExperimentConfig, name: str, rows, files) -> list:
    median_rows, slope = _rate_summary(rows)
    records = _write_table(config, name, rows + median_rows, files)
    fit_path = os.path.join(config.output_dir, "tracegap_fit.json")
    _write_atomic(fit_path, json.dumps({"slope": slope}) + "\n")
    files["fit"] = fit_path
    empirical_path = os.path.join(config.output_dir, "empirical.jsonl")
    write_jsonl(empirical_path, [
        {"seed": r["seed"], "N": r["N"], "lambdas_bar": r["lambdas_bar"],
         "gamma_g": r["gamma_g"]}
        for r in rows if not r.get("error")
    ])
    files["empirical"] = empirical_path
    return records


# output name -> writer of its files; each returns the output's records
_WRITERS = {
    "kappa": _write_table,
    "spectrum": _write_table,
    "regress": _write_table,
    "pretrain": _write_pretrain,
    "tracegap": _write_tracegap,
}


def run(config: ExperimentConfig) -> RunOutcome:
    """Execute a config and write its output files.

    Cells run independently and deterministically, in grid order;
    failed cells contribute an error row.  Returns the records plus the
    failure count, which drives the process exit code.
    """
    outputs = _outputs(config)
    os.makedirs(config.output_dir, exist_ok=True)
    files = {}
    if config.command == "sweep":
        header, rows = figure_4a_data()
        fig_path = os.path.join(config.output_dir, "figure_4a.csv")
        write_csv(fig_path, header, rows)
        files["figure_4a"] = fig_path
    records, failures = [], 0
    for name, rows in _execute(config, outputs).items():
        failures += sum(1 for r in rows if r.get("error"))
        records += _WRITERS[name](config, name, rows, files)
    return RunOutcome(records=records, failures=failures, files=files)
