"""Output check: extract comparable values from a sweep's files.

``extract`` reads one output directory and returns the values compared
against the stored reference, the cell and failure counts, and the
closed-form invariants that failed.  Nothing here depends on eigenfunction
signs or on the basis chosen inside a degenerate eigenvalue block: only
eigenvalues, losses, gaps, complexities, file shapes and the residual
columns the CLI already writes are read.
"""

from __future__ import annotations

import csv
import glob
import json
import math
import os
import statistics

# floats agree when |a - b| <= ATOL + RTOL * max(|a|, |b|)
RTOL = 1e-6
ATOL = 1e-12

# the contract bounds the CLI documents for its own residual columns
DUALITY_BOUND = 1e-8
RECONSTRUCTION_BOUND = 1e-10
# closed forms are exact up to rounding of a d-fold product
CLOSED_FORM_RTOL = 1e-9


def close(a: float, b: float) -> bool:
    return abs(a - b) <= ATOL + RTOL * max(abs(a), abs(b))


class Extract:
    """Values, counts and invariant failures read from one sweep."""

    def __init__(self):
        self.values: dict = {}
        self.cells = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _cell_key(row, *axes) -> str:
    return "|".join(f"{a}={row[a]}" for a in axes)


def _stem(scheme, d_x, alpha) -> str:
    # file naming used by the harness for per-cell exports
    return f"{scheme}_dx{d_x}_a{alpha!r}".replace(".", "p")


def _matrix_shape(path) -> tuple[int, int]:
    """(data rows, columns) of a CSV with a header line, by byte counts."""
    lines = commas = 0
    with open(path, "rb") as fh:
        header = fh.readline()
        while chunk := fh.read(1 << 22):
            lines += chunk.count(b"\n")
            commas += chunk.count(b",")
    cols = header.count(b",") + 1
    if commas != lines * (cols - 1):
        return lines, -1  # ragged rows
    return lines, cols


def closed_form(scheme: str, d_x: int, alpha: float):
    """The paper's closed forms: exact for random_mask, bounds for blocks."""
    if scheme == "random_mask":
        return (2.0 - alpha) ** d_x
    if scheme == "block_mask":
        return 2.0 ** ((1.0 - alpha) * d_x)
    if scheme == "block_mask_flip":
        return (alpha * alpha - 2.0 * alpha + 2.0) ** ((1.0 - alpha / 2.0) * d_x)
    return None


def _kappa(out_dir, ex: Extract) -> None:
    for row in _rows(os.path.join(out_dir, "kappa.csv")):
        ex.cells += 1
        key = _cell_key(row, "scheme", "d_x", "alpha", "seed")
        if row["error"]:
            ex.failed += 1
            continue
        for col in ("kappa_sq_exact", "kappa_sq_p99", "s_lambda"):
            ex.values[f"{key}/{col}"] = float(row[col])
        ex.values[f"{key}/closed_form"] = (float(row["closed_form"])
                                           if row["closed_form"] else None)
        ex.values[f"{key}/bound_kind"] = row["bound_kind"]
        kappa = float(row["kappa_sq_exact"])
        bound = closed_form(row["scheme"], int(row["d_x"]), float(row["alpha"]))
        if row["scheme"] == "random_mask":
            ex.check(abs(kappa - bound) <= CLOSED_FORM_RTOL * bound,
                     f"{key}: kappa^2 {kappa!r} != (2-alpha)^d {bound!r}")
        elif bound is not None:
            ex.check(kappa <= bound * (1.0 + CLOSED_FORM_RTOL),
                     f"{key}: kappa^2 {kappa!r} above its bound {bound!r}")


def _spectrum(out_dir, ex: Extract) -> None:
    for row in _rows(os.path.join(out_dir, "spectrum.csv")):
        ex.cells += 1
        key = _cell_key(row, "scheme", "d_x", "alpha", "seed")
        if row["error"]:
            ex.failed += 1
            continue
        rank = int(row["rank"])
        ex.values[f"{key}/rank"] = rank
        ex.values[f"{key}/lambda_top"] = float(row["lambda_top"])
        ex.values[f"{key}/s_lambda"] = float(row["s_lambda"])
        ex.check(float(row["duality_residual"]) <= DUALITY_BOUND,
                 f"{key}: duality residual {row['duality_residual']}")
        ex.check(float(row["reconstruction_residual"]) <= RECONSTRUCTION_BOUND,
                 f"{key}: reconstruction residual "
                 f"{row['reconstruction_residual']}")
        stem = os.path.join(out_dir, _stem(row["scheme"], int(row["d_x"]),
                                           float(row["alpha"])))
        with open(stem + "_lambdas.csv", encoding="utf-8") as fh:
            lambdas = sorted((float(v) for v in fh.read().split()[1:]),
                             reverse=True)
        ex.values[f"{key}/lambdas"] = lambdas
        ex.check(len(lambdas) == rank,
                 f"{key}: {len(lambdas)} eigenvalues in file, rank {rank}")
        for name in ("psi", "phi"):
            rows, cols = _matrix_shape(f"{stem}_{name}.csv")
            ex.values[f"{key}/{name}_rows"] = rows
            ex.check(cols == rank, f"{key}: {name} file has {cols} columns, "
                                   f"rank {rank}")
    n_files = len(glob.glob(os.path.join(out_dir, "*_lambdas.csv")))
    ex.check(n_files == ex.cells - ex.failed,
             f"{n_files} eigenvalue files for {ex.cells - ex.failed} cells")


def _pretrain(out_dir, ex: Extract) -> None:
    with open(os.path.join(out_dir, "pretrain.jsonl"), encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    for rec in records:
        ex.cells += 1
        key = _cell_key(rec, "objective", "scheme", "d_x", "alpha", "d", "seed")
        if rec.get("error"):
            ex.failed += 1
            continue
        ex.values[f"{key}/final_loss"] = rec["final_loss"]
        ex.values[f"{key}/target_loss"] = rec["target_loss"]
        ex.values[f"{key}/iterations"] = rec["iterations"]
        stem = (f"pretrain_{rec['objective']}_{rec['scheme']}"
                f"_dx{rec['d_x']}_a{rec['alpha']!r}"
                f"_d{rec['d']}_s{rec['seed']}").replace(".", "p")
        trace = _rows(os.path.join(out_dir, stem + ".csv"))
        ex.check(len(trace) == rec["iterations"] + 1,
                 f"{key}: loss trace has {len(trace)} rows for "
                 f"{rec['iterations']} iterations")
        ex.check(bool(trace) and float(trace[-1]["loss"]) == rec["final_loss"],
                 f"{key}: loss trace does not end at final_loss")


def _tracegap(out_dir, ex: Extract) -> None:
    gaps: dict[str, list[float]] = {}
    medians = {}
    for row in _rows(os.path.join(out_dir, "tracegap.csv")):
        if row["seed"] == "median":
            medians[row["N"]] = float(row["gap"])
            continue
        ex.cells += 1
        key = _cell_key(row, "scheme", "d_x", "alpha", "d", "N", "seed")
        if row["error"]:
            ex.failed += 1
            continue
        ex.values[f"{key}/gap"] = float(row["gap"])
        gaps.setdefault(row["N"], []).append(float(row["gap"]))
    for n, values in gaps.items():
        ex.check(n in medians and close(medians[n], statistics.median(values)),
                 f"N={n}: median row is not the median of the seed rows")
    with open(os.path.join(out_dir, "tracegap_fit.json"), encoding="utf-8") as fh:
        slope = json.load(fh)["slope"]
    ex.values["slope"] = slope
    points = [(math.log(int(n)), math.log(v)) for n, v in medians.items() if v > 0]
    if len(points) >= 2:
        mx = statistics.fmean(x for x, _ in points)
        my = statistics.fmean(y for _, y in points)
        refit = (sum((x - mx) * (y - my) for x, y in points)
                 / sum((x - mx) ** 2 for x, _ in points))
        ex.check(slope is not None and close(slope, refit),
                 f"fitted slope {slope!r} != refit of the medians {refit!r}")
    with open(os.path.join(out_dir, "empirical.jsonl"), encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            ex.values[f"N={rec['N']}|seed={rec['seed']}/lambdas_bar"] = \
                rec["lambdas_bar"]


_READERS = {"kappa": _kappa, "spectrum": _spectrum, "pretrain": _pretrain,
            "tracegap": _tracegap}


def extract(command: str, out_dir: str) -> Extract:
    """Read a finished sweep; unreadable outputs become invariant failures."""
    ex = Extract()
    try:
        _READERS[command](out_dir, ex)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        ex.problems.append(f"unreadable outputs: {type(exc).__name__}: {exc}")
    return ex


def compare(values: dict, reference: dict) -> list[str]:
    """One message per value that differs from the reference.

    Integers and strings must match exactly, floats within the tolerance,
    and lists of floats element by element.
    """
    misses = []
    for key in sorted(set(values) | set(reference)):
        if key not in values or key not in reference:
            misses.append(f"{key}: present in only one of output and reference")
            continue
        got, want = values[key], reference[key]
        if isinstance(want, list):
            if not isinstance(got, list) or len(got) != len(want):
                misses.append(f"{key}: length differs from the reference")
                continue
            misses += [f"{key}[{i}]: {g!r} != {w!r}"
                       for i, (g, w) in enumerate(zip(got, want))
                       if not close(g, w)]
        elif isinstance(want, float) and isinstance(got, (int, float)):
            if not close(got, want):
                misses.append(f"{key}: {got!r} != {want!r}")
        elif got != want or type(got) is not type(want):
            misses.append(f"{key}: {got!r} != {want!r}")
    return misses
