"""Every name a package module imports must be used in that module.

The converse of `test_module_names.py`: an import left behind when the code
that used it is deleted still runs at import time and still reads as a
dependency.  This check parses each module (standard library `ast`, no lint
tool) and lists every name an import statement binds that no expression in
the module reads.  `from __future__` imports and the re-exports of the
package's `__init__.py` are exempt.
"""

import ast
import pathlib

import approxnewton

PACKAGE_DIR = pathlib.Path(approxnewton.__file__).parent


def unused_imports(source: str, filename: str) -> list[str]:
    """`line: name` for each imported name the module never reads."""
    tree = ast.parse(source, filename)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds `a`
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"{line}: {name}" for name, line in imported.items() if name not in read]


def test_checker_flags_an_unused_import():
    source = "import math\nimport os.path\nfrom . import rng, sketch\n\nx = rng.seed\n"
    assert unused_imports(source, "mod.py") == ["1: math", "2: os", "3: sketch"]
    # a name the module only assigns to is not read
    source = "from .errors import DomainError\nDomainError = None\n"
    assert unused_imports(source, "mod.py") == ["1: DomainError"]


def test_checker_accepts_reads_in_any_scope():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "import scipy.linalg\n"
        "from typing import NamedTuple\n"
        "from .errors import ShapeError\n"
        "class P(NamedTuple):\n    a: np.ndarray\n"
        "def f(x):\n    if x:\n        raise ShapeError('x')\n"
        "    return scipy.linalg.norm(x)\n"
    )
    assert unused_imports(source, "mod.py") == []


def test_package_modules_use_every_name_they_import():
    unused = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name == "__init__.py":  # its imports are the package's API
            continue
        unused += [
            f"{path.stem}:{entry}"
            for entry in unused_imports(path.read_text(), str(path))
        ]
    assert unused == []
