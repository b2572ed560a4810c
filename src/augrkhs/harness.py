"""Declarative experiment runner: grids, deterministic seeding, CSV/JSON.

A sweep's one input is a config dict of the :data:`KEYS`: a command, per-axis
value lists, a seed list, an output directory, an enumeration budget and one
option, the optimizer's ``max_iters``.  :func:`resolve_config` checks and
types each setting once, so a row states the values its cell computed at.
A command is the outputs it fills: each single-output command fills its
own, and ``sweep`` fills ``kappa``, then ``tracegap``.  An output's cells
span the process axes and the grid axes the output reads; the first output
always runs, a later one only when the grid holds every axis it reads, and
an axis that no running output reads is a config error.  Every cell of the
grid-times-seeds cross product executes independently with a seed derived
from the master seed and the cell's axis values, so any cell can be
reproduced in isolation; failures are recorded per cell without aborting
the sweep.  Processes are built one after another: each is built
and decomposed once, its cells run in grid order in the calling thread, and
it is dropped before the next is built.  Floats are written with 17
significant digits and rows are written in grid order, so identical configs
produce byte-identical files.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import os
from dataclasses import dataclass

# CPython's built-in SHA-256: hashlib would load OpenSSL's libcrypto, which
# nothing else in a kappa sweep needs
try:
    from _sha2 import sha256  # 3.12 on
except ImportError:
    try:
        from _sha256 import sha256  # 3.10 and 3.11
    except ImportError:  # an interpreter built without built-in hashes
        from hashlib import sha256

import numpy as np

from . import complexity, encoders, objectives, regression, spectral
from .exceptions import ValidationError
from .processes import (DEFAULT_BUDGET, SCHEMES, HypercubeConfig, _check_budget,
                        _replacing, build_hypercube)

SCHEMA_VERSION = "1"

# the axes that fix a process; every output varies them outermost
_PROCESS_AXES = ("scheme", "d_x", "alpha")

# output name -> the grid axes its cells read after the process axes, in
# grid order
_READS = {
    "kappa": (),
    "spectrum": (),
    "pretrain": ("objective", "d"),
    "regress": ("d", "n", "sigma", "B", "epsilon"),
    "tracegap": ("d", "N"),
}

# command -> the outputs it fills.  The first always runs; a later one runs
# only when the grid holds every axis it reads
_FILLS = {name: (name,) for name in _READS} | {"sweep": ("kappa", "tracegap")}

COMMANDS = tuple(_FILLS)

# the option names some cell reads; any other name is a config error
OPTIONS = ("max_iters",)

# the top-level keys of a config; any other key is a config error
KEYS = ("command", "grid", "seeds", "output_dir", "budget", "master_seed",
        "jobs", "options")

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
    budget: int
    master_seed: int
    options: dict


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

    The payload is ``"<master_seed>|k1=v1|k2=v2..."`` over the axes in
    sorted order, each value written by :func:`fmt`, encoded as UTF-8; the
    seed is the digest's first 8 bytes, big-endian, shifted right by one.
    The digest comes from the interpreter's built-in SHA-256, or from
    ``hashlib`` where there is none; both give the same bytes.  Independent
    of grid shape, so a cell rerun in isolation reproduces its row exactly.
    """
    payload = f"{master_seed}|" + "|".join(
        f"{k}={fmt(axes[k])}" for k in sorted(axes)
    )
    digest = sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def load_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:  # not JSON or not UTF-8, or too long an int
            raise ValidationError(
                f"config is not valid UTF-8 JSON: {exc}") from exc
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


def _real(value, what: str) -> float:
    """A finite JSON number, as a float."""
    if (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value)):
        return float(value)
    raise ValidationError(f"{what} must be a finite number, got {value!r}")


def _one_of(names: tuple[str, ...]):
    def name(value, what: str) -> str:
        if value in names:
            return value
        raise ValidationError(f"{what} must be one of {names}, got {value!r}")
    return name


# grid axis -> the function that checks and types each value, in grid order
_AXES = {"scheme": _one_of(SCHEMES), "d_x": _integer, "alpha": _real,
         "objective": _one_of(objectives.KINDS), "d": _integer, "N": _integer,
         "n": _integer, "sigma": _real, "B": _real, "epsilon": _real}


def _distinct(values: list, what: str) -> list:
    """``values``, typed already, if no two are equal; a repeated value
    would repeat its cells, and their process's build."""
    repeated = sorted({v for i, v in enumerate(values) if v in values[:i]},
                      key=values.index)
    if repeated:
        raise ValidationError(f"{what} repeats {repeated}")
    return values


def _object(value, what: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ValidationError(f"{what} must be an object, got {value!r}")
    return dict(value)


def resolve_config(raw: dict) -> ExperimentConfig:
    """Check and type a config dict, the one input of a sweep."""
    unknown = [key for key in raw if key not in KEYS]
    if unknown:
        raise ValidationError(f"unknown keys {unknown}; a config takes "
                              f"{list(KEYS)}")
    cmd = raw.get("command")
    if cmd not in COMMANDS:
        raise ValidationError(f"command must be one of {COMMANDS}, got {cmd!r}")
    grid = _object(raw.get("grid"), "grid")
    fills = _FILLS[cmd]
    reads = list(dict.fromkeys(
        a for name in fills for a in _PROCESS_AXES + _READS[name]))
    unread = [a for a in grid if a not in reads]
    if unread:
        raise ValidationError(f"command {cmd!r} reads grid axes {reads}, "
                              f"not {unread}")
    missing = [a for a in _PROCESS_AXES + _READS[fills[0]] if a not in grid]
    if missing:
        raise ValidationError(f"command {cmd!r} needs grid axes {missing}")
    outputs = dict(_outputs(cmd, grid))
    used = {a for axes in outputs.values() for a in axes}
    for name in fills:  # an axis read only by an output that cannot run
        if any(a in grid and a not in used for a in _READS[name]):
            lacking = [a for a in _READS[name] if a not in grid]
            raise ValidationError(
                f"command {cmd!r}: {name} reads grid axes "
                f"{list(_READS[name])} together; the grid lacks {lacking}")
    for axis, values in grid.items():
        if not isinstance(values, (list, tuple)) or not values:
            raise ValidationError(f"grid axis {axis!r} must be a nonempty list")
        grid[axis] = _distinct(
            [_AXES[axis](v, f"each {axis!r} value") for v in values],
            f"grid axis {axis!r}")
    seeds = raw.get("seeds") or []
    if not isinstance(seeds, (list, tuple)) or not seeds:
        raise ValidationError("seeds must be a nonempty list")
    output_dir = raw.get("output_dir")
    if not output_dir:
        raise ValidationError("output_dir is required")
    if not isinstance(output_dir, str):  # str() would name a directory
        raise ValidationError(f"output_dir must be a string, got {output_dir!r}")
    options = _object(raw.get("options"), "options")
    unknown = sorted(set(options) - set(OPTIONS))
    if unknown:
        raise ValidationError(
            f"unknown options {unknown}; the cells read {list(OPTIONS)}")
    if options and "pretrain" not in fills:  # only the optimizer reads one
        raise ValidationError(
            f"command {cmd!r} reads no options, not {sorted(options)}")
    for name, value in options.items():  # max_iters, a count
        options[name] = _integer(value, f"option {name!r}")
        if options[name] < 0:
            raise ValidationError(f"option {name!r} must be >= 0, got {value}")
    jobs = _integer(raw.get("jobs", 1), "jobs")
    if jobs != 1:
        raise ValidationError(
            f"jobs must be 1 (cells run in grid order), got {jobs}")
    budget = _integer(raw.get("budget", DEFAULT_BUDGET), "budget")
    if budget < 1:
        raise ValidationError(f"budget must be >= 1, got {budget}")
    config = ExperimentConfig(
        command=cmd,
        grid=grid,
        seeds=tuple(_distinct([_integer(s, "each seed") for s in seeds],
                              "the seed list")),
        output_dir=output_dir,
        budget=budget,
        master_seed=_integer(raw.get("master_seed", 0), "master_seed"),
        options=options,
    )
    ns = sorted(grid.get("N", []))
    if "tracegap" in outputs and (len(ns) < 4 or ns[-1] < 16 * ns[0]):
        raise ValidationError(
            "the N grid needs >= 4 points spanning at least a factor of 16")
    return config


def _write_atomic(path: str, text: str) -> None:
    with _replacing(path) as fh:
        fh.write(text)


def write_csv(path: str, header: list[str], rows: list[dict]) -> None:
    lines = [",".join(header)]
    lines += [",".join(fmt(row.get(col)) for col in header) for row in rows]
    _write_atomic(path, "\n".join(lines) + "\n")


def write_jsonl(path: str, records: list[dict]) -> None:
    _write_atomic(path, "".join(json.dumps(r, sort_keys=True) + "\n"
                                for r in records))


def figure_4a_data() -> tuple[list[str], list[dict]]:
    """Exact base curves of the three closed-form complexities on [0, 1].

    101 rows at step 0.01 of the forms of :func:`complexity.closed_form_kappa`
    at ``d_x = 1``, ``a = 0`` included: ``2 - a``, ``2^(1-a)``, and
    ``(a^2 - 2a + 2)^(1 - a/2)``.
    """
    rows = [{"alpha": a} | {scheme: form(1, a) for scheme, (_, form)
                            in complexity._CLOSED_FORMS.items()}
            for a in (i / 100.0 for i in range(101))]
    return HEADERS["figure_4a"], rows


def _outputs(command: str, grid) -> list[tuple[str, tuple[str, ...]]]:
    """The outputs ``command`` fills on ``grid``, each with the grid axes
    of its cells: the first output, and each later one whose axes the grid
    holds."""
    names = _FILLS[command]
    return [(name, _PROCESS_AXES + _READS[name]) for name in names
            if name == names[0] or all(a in grid for a in _READS[name])]


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
    for key in _AXES:
        if key in cell:
            row[key] = cell[key]
    return row


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


def _kappa(once: _Memo, dec):
    """The process's complexity report, computed once per group."""
    return once(("kappa",), lambda: complexity.kappa_exact(dec))


def _kappa_cell(cell, config: ExperimentConfig, dec, once) -> dict:
    row = _base_row(cell)
    report = _kappa(once, dec)
    row["kappa_sq_exact"] = report.kappa_sq_max
    row["kappa_sq_p99"] = report.kappa_sq_percentile
    closed = complexity.closed_form_kappa(dec.process.hypercube)
    row["closed_form"] = None if closed is None else closed.value
    row["bound_kind"] = None if closed is None else closed.kind
    row["s_lambda"] = report.s_lambda_total
    return row


def _spectrum_cell(cell, config: ExperimentConfig, dec, once) -> dict:
    row = _base_row(cell)
    process = dec.process
    row["rank"] = dec.rank
    row["lambda_top"] = float(dec.lambdas[0])
    row["s_lambda"] = float(dec.lambdas.sum())
    _check_budget((spectral.RESIDUAL_ARRAYS, process.n_x, process.n_x),
                  config.budget,
                  "the reconstruction residual (four |X| x |X| arrays)")
    # the residuals do not depend on the seed.  The reconstruction comes
    # first, so its |A| x |X| array is dropped before phi is formed; phi's
    # checks measured duality
    row["reconstruction_residual"] = once(
        ("reconstruction",),
        lambda: spectral.verify_integral_identity(dec))
    row["duality_residual"] = dec.checked_duality_residual
    if cell["master"] == config.seeds[0]:  # the files do not depend on the seed
        stem = (f"{cell['scheme']}_dx{cell['d_x']}_a{cell['alpha']!r}"
                .replace(".", "p"))
        spectral.export_decomposition(dec, config.output_dir, stem=stem)
    return row


def _pretrain_cell(cell, config: ExperimentConfig, dec, once) -> dict:
    row = _base_row(cell)
    _check_budget((cell["d"], dec.process.n_a), config.budget,
                  "the encoder table (d x |A|)")
    spectral._check_d(dec, cell["d"])
    opt = objectives.OptimizerConfig(seed=cell["seed"], **config.options)
    spec = objectives.ObjectiveSpec(kind=cell["objective"], d=cell["d"])
    result = objectives.minimize(spec, dec.process, opt)
    row["final_loss"] = result.final_loss
    row["target_loss"] = objectives.optimal_loss(spec, dec)
    row["principal_angle"] = objectives.subspace_angle(result.phi_hat, dec,
                                                       spec.d)
    row["iterations"] = result.iterations
    row["trace"] = [float(v) for v in result.losses]
    return row


def _regress_cell(cell, config: ExperimentConfig, dec, once) -> dict:
    row = _base_row(cell)
    d, B, eps = cell["d"], cell["B"], cell["epsilon"]
    _check_budget((cell["n"], d + 1), config.budget,
                  "the probe design with its labels (n x (d + 1))")
    encoder = encoders.optimal_encoder(dec, d)
    target = regression.sample_target(dec, B, eps, seed=cell["seed"])
    samples = regression.generate_labels(
        target, cell["n"], cell["sigma"], seed=cell["seed"] + 1)
    fit = regression.fit_least_squares(encoder, samples, B, eps, target=target)
    f_psi, approx_err = regression.project_fpsi(target, encoder)
    est = fit.f_hat_values - f_psi
    tau_sq = encoders.trace_gap(encoder)
    row["tau_sq"] = tau_sq
    row["pred_err"] = fit.prediction_error
    row["approx_err"] = approx_err
    row["est_err"] = float(np.sum(est * est * dec.process.p_x))
    row["lemma32_rhs"] = regression.lemma32_rhs(tau_sq=tau_sq, epsilon=eps, B=B)
    row["thm31_rhs"] = regression.thm31_rhs(
        tau_sq=tau_sq, epsilon=eps, B=B,
        kappa=math.sqrt(_kappa(once, dec).kappa_sq_max),
        s_lambda_dplus1=complexity.partial_trace(dec, d + 1),
        n=cell["n"], sigma=cell["sigma"])
    row["constraint_active"] = int(fit.lagrange_mu > 0)
    return row


def _tracegap_cell(cell, config: ExperimentConfig, dec, once) -> dict:
    row = _base_row(cell)
    d, N = cell["d"], cell["N"]
    _check_budget((N,), config.budget, "the vector of N draws")
    empirical = encoders.empirical_decomposition(dec, N, seed=cell["seed"])
    encoder = encoders.near_optimal_encoder(empirical, d)
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


def _check_finite(row: dict) -> dict:
    """``row``, if each float in it, a field or an entry of a list field,
    is finite; otherwise a :class:`ValidationError` naming the fields that
    are not.  The CSV and JSON files take finite numbers only."""
    def finite(value) -> bool:
        values = value if isinstance(value, list) else [value]
        return all(math.isfinite(v) for v in values if isinstance(v, float))

    bad = [key for key, value in row.items() if not finite(value)]
    if bad:
        raise ValidationError(f"non-finite fields {bad}")
    return row


def _run_group(config: ExperimentConfig, group) -> list[dict]:
    """Build the group's process once and run its cells in turn; return
    their rows.

    The process, its decomposition and the group's memo are locals of this
    call, so they are dropped when it returns.  A failed build gives every
    cell of the group the build's error row, and so does a cell that fails
    or returns a non-finite field.
    """
    try:
        scheme, d_x, alpha = (group[0][1][a] for a in _PROCESS_AXES)
        dec = spectral.decompose(build_hypercube(
            HypercubeConfig(d_x, alpha, scheme), budget=config.budget))
    except Exception as exc:  # each cell's error row, never abort
        return [_error_row(cell, exc) for _, cell in group]
    once = _Memo()
    rows = []
    for name, cell in group:
        try:
            rows.append(_check_finite(_CELL_FN[name](cell, config, dec, once)))
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


def _rate_summary(rows) -> tuple[list, float | None]:
    """One median row per (axes, N) group, in grid order, and the log-log
    slope in N."""
    axes = _PROCESS_AXES + _READS["tracegap"]
    groups: dict[tuple, list] = {}
    for row in rows:
        if not row.get("error"):
            key = tuple(row[a] for a in axes)
            groups.setdefault(key, []).append(row["gap"])
    median_rows = []
    medians: dict[int, list] = {}
    for key, gaps in groups.items():
        med = float(np.median(gaps))
        cell = dict(zip(axes, key))
        median_rows.append({"schema": SCHEMA_VERSION, **cell,
                            "seed": "median", "gap": med})
        medians.setdefault(cell["N"], []).append(med)
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
        {a: r[a] for a in _PROCESS_AXES + _READS[name]}
        | {"seed": r["seed"], "lambdas_bar": r["lambdas_bar"],
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
    outputs = _outputs(config.command, config.grid)
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
