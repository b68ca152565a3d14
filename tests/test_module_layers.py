"""Each package module imports only modules of strictly lower layers.

The layers, lowest first, are `errors` and `rng`; `problems` and `sketch`;
`hessian_approx`; `solvers`; `metrics`; `experiments`; `cli`.  An objective
exposes curvature and a sketch acts on a matrix, so neither reads the other;
each layer above builds on those below and is not read by them.  The check
parses each module with the standard library `ast`; the package's
`__init__.py`, which re-exports every layer, is exempt.
"""

import ast
import pathlib

import approxnewton

PACKAGE_DIR = pathlib.Path(approxnewton.__file__).parent

LAYERS = (
    ("errors", "rng"),
    ("problems", "sketch"),
    ("hessian_approx",),
    ("solvers",),
    ("metrics",),
    ("experiments",),
    ("cli",),
)
LAYER = {name: level for level, names in enumerate(LAYERS) for name in names}


def package_imports(source: str, filename: str) -> set[str]:
    """The package modules a module's source imports, by their short name."""
    imported = set()
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:  # from . import a, b
                imported.update(alias.name for alias in node.names)
            else:  # from .a import name
                imported.add(node.module.partition(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            package, _, rest = (node.module or "").partition(".")
            if package == "approxnewton":
                if rest:
                    imported.add(rest.partition(".")[0])
                else:
                    imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                package, _, rest = alias.name.partition(".")
                if package == "approxnewton" and rest:
                    imported.add(rest.partition(".")[0])
    return imported


def layer_violations(module: str, source: str) -> list[str]:
    """`module -> imported` for each import not from a strictly lower layer."""
    return [
        f"{module} -> {name}"
        for name in sorted(package_imports(source, module))
        if LAYER.get(name, len(LAYERS)) >= LAYER[module]
    ]


def test_checker_reads_every_import_form():
    source = (
        "import numpy as np\n"
        "import approxnewton.rng\n"
        "from . import errors, sketch\n"
        "from .problems import FiniteSumObjective\n"
        "from approxnewton.solvers import SolverConfig\n"
        "from approxnewton import metrics\n"
        "def f():\n    from .cli import main\n"
    )
    assert package_imports(source, "mod.py") == {
        "rng", "errors", "sketch", "problems", "solvers", "metrics", "cli"}


def test_checker_flags_same_and_higher_layers():
    assert layer_violations("problems", "from . import rng, sketch\n") == [
        "problems -> sketch"]
    assert layer_violations("solvers", "from .metrics import x\n") == [
        "solvers -> metrics"]
    assert layer_violations("cli", "from . import experiments, sketch\n") == []


def test_every_module_has_a_layer():
    modules = {path.stem for path in PACKAGE_DIR.glob("*.py")} - {"__init__"}
    assert modules == set(LAYER)


def test_package_modules_import_only_lower_layers():
    violations = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name == "__init__.py":  # its imports are the package's API
            continue
        violations += layer_violations(path.stem, path.read_text())
    assert violations == []
