"""The public surface stays small.

Each public function takes the one object it reads: a decomposition
carries its process, and an encoder, an empirical decomposition and a
target function each carry their decomposition.  Each function the package
exports has a caller in the package or in a demo, or a stated reason to
exist without one, and each option a sweep config takes is set by a
committed config, and each command-line flag by a committed caller."""

import argparse
import ast
import inspect
import re
from pathlib import Path

import augrkhs
from augrkhs import (complexity, encoders, harness, objectives, regression,
                     spectral)
from augrkhs.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]


def _public_functions():
    for module in (spectral, complexity, encoders, objectives, regression):
        for name, fn in vars(module).items():
            if (not name.startswith("_") and inspect.isfunction(fn)
                    and fn.__module__ == module.__name__):
                yield f"{module.__name__}.{name}", inspect.signature(fn)


def _is_process(param) -> bool:
    return (param.name == "process"
            or "AugmentationProcess" in str(param.annotation))


def _is_decomposition(param) -> bool:
    return (param.name in ("decomposition", "dec")
            or "SpectralDecomposition" in str(param.annotation))


def test_no_function_takes_a_process_and_a_decomposition():
    both, optional = [], []
    for name, signature in _public_functions():
        params = signature.parameters.values()
        decs = [p for p in params if _is_decomposition(p)]
        if decs and any(_is_process(p) for p in params):
            both.append(name)
        if any(p.default is None for p in decs):
            optional.append(name)
    assert both == [], f"take a process and a decomposition: {both}"
    assert optional == [], f"default a decomposition to None: {optional}"


# the types that carry a decomposition, matched as words of an annotation
_CARRIER = re.compile(r"\b(Encoder|EmpiricalDecomposition|TargetFunction)\b")


def test_no_function_takes_a_decomposition_beside_its_carrier():
    both = []
    for name, signature in _public_functions():
        params = signature.parameters.values()
        carries = any(_CARRIER.search(str(p.annotation)) for p in params)
        if carries and any(_is_decomposition(p) for p in params):
            both.append(name)
    assert both == [], f"take a decomposition and its carrier: {both}"


def test_the_guard_sees_every_layer():
    names = [name for name, _ in _public_functions()]
    for expected in ("augrkhs.spectral.verify_integral_identity",
                     "augrkhs.complexity.kappa_exact",
                     "augrkhs.encoders.build_average_encoder",
                     "augrkhs.objectives.minimize",
                     "augrkhs.regression.generate_labels"):
        assert expected in names


# exported functions that need no caller, each with its reason
_NO_CALLER = {
    "cell_seed": "reproduces the seed of one sweep cell by hand",
    "value_grad": "the losses' public value-and-gradient route",
    "dump_process": "writes the custom-table file format",
    "load_process": "reads the custom-table file format",
    "fit_least_squares_population": "criterion 10's population-limit oracle",
    "target_from_coefficients": "certifies a target given by its coefficients",
}


def test_every_exported_function_has_a_caller():
    package = Path(augrkhs.__file__).parent
    demos = Path(__file__).resolve().parents[1] / "demos"
    sources = {path: path.read_text(encoding="utf-8")
               for path in [*package.glob("*.py"), *demos.glob("*.py")]
               if path.name != "__init__.py"}
    uncalled = []
    for name, fn in vars(augrkhs).items():
        if not inspect.isfunction(fn):
            continue
        home = package / (fn.__module__.rsplit(".", 1)[1] + ".py")
        word = re.compile(rf"\b{name}\b")
        if not any(word.search(text) for path, text in sources.items()
                   if path != home):
            uncalled.append(name)
    assert sorted(uncalled) == sorted(_NO_CALLER), \
        f"without a caller: {sorted(uncalled)}; allowed: {sorted(_NO_CALLER)}"


# the names that read how a table is stored, which processes alone reads:
# the storage test, the CSR class and its arrays
_STORAGE_WORDS = {"is_sparse", "CSRTable", "csr_array", "entry_rows", "indptr",
                  "indices", "data"}
# spectral._duality_residual picks its operand by the stored form: a dense
# product keeps its column-major gather, whose bits a whole operand moves
_STORAGE_READS_ALLOWED = {("spectral.py", "_duality_residual", "is_sparse")}


def _storage_reads(source: str) -> list[tuple[str, str]]:
    """``(function, word)`` for each attribute, name or import of a word of
    ``_STORAGE_WORDS`` in ``source``, ``function`` the innermost function
    around it (``""`` at module level)."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            inner = (child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function)
            word = None
            if isinstance(child, ast.Attribute):
                word = child.attr
            elif isinstance(child, ast.Name):
                word = child.id
            elif isinstance(child, ast.alias):
                word = child.name
            if word in _STORAGE_WORDS:
                found.append((inner, word))
            visit(child, inner)

    visit(ast.parse(source), "")
    return found


def test_only_processes_reads_how_a_table_is_stored():
    package = Path(augrkhs.__file__).parent
    reads = {path.name: _storage_reads(path.read_text("utf-8"))
             for path in sorted(package.glob("*.py"))}
    # the guard sees every word where the reads belong
    assert {word for _, word in reads.pop("processes.py")} == _STORAGE_WORDS
    outside = sorted((name, function, word) for name, found in reads.items()
                     for function, word in found)
    unexpected = [read for read in outside
                  if read not in _STORAGE_READS_ALLOWED]
    assert unexpected == [], f"reads of the stored form: {unexpected}"


def test_every_option_has_a_setter():
    # the committed configs: the benchmark's workloads and CI's sweeps
    configs = "".join(
        (ROOT / path).read_text(encoding="utf-8")
        for path in ("perfbench/workloads.py", ".github/workflows/tier1.yml"))
    unset = [name for name in harness.OPTIONS
             if not re.search(rf'"{name}"\s*:', configs)]
    assert unset == [], f"options no committed config sets: {unset}"


def _flags_in_argv_lists(source: str) -> set[str]:
    """The ``--flags`` of each Python list literal that invokes the command
    line: one holding ``"augrkhs.cli"`` or ``"--config"``."""
    flags = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.List):
            continue
        words = {elt.value for elt in node.elts
                 if isinstance(getattr(elt, "value", None), str)}
        if words & {"augrkhs.cli", "--config"}:
            flags |= {w for w in words if w.startswith("--")}
    return flags


def _flags_in_shell_calls(script: str) -> set[str]:
    """The ``--flags`` of each shell command, continuation lines joined, that
    runs ``augrkhs.cli``."""
    commands = script.replace("\\\n", " ").splitlines()
    return {flag for line in commands if "augrkhs.cli" in line
            for flag in re.findall(r"(?<![\w-])--[a-z][\w-]*", line)}


def test_every_cli_flag_has_a_caller():
    # the committed callers: the benchmark's runner and reference maker,
    # and CI; a flag none of them passes is a second route to a config key
    passed = set()
    for path in ("perfbench/run.py", "perfbench/make_reference.py"):
        passed |= _flags_in_argv_lists((ROOT / path).read_text("utf-8"))
    passed |= _flags_in_shell_calls(
        (ROOT / ".github/workflows/tier1.yml").read_text("utf-8"))
    parser = build_parser()
    flags = {flag for action in parser._actions
             if isinstance(action, argparse._SubParsersAction)
             for sub in action.choices.values() for a in sub._actions
             for flag in a.option_strings if flag.startswith("--")}
    flags.discard("--help")
    assert flags >= {"--config", "--out"}, "the guard no longer sees flags"
    uncalled = sorted(flags - passed)
    assert uncalled == [], f"flags no committed caller passes: {uncalled}"
