"""Package-structure rules checked on the source text."""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "udakit"


def private_imports(path: Path) -> list[str]:
    """`_`-prefixed names that a module imports from another udakit module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").split(".")[0] == "udakit":
            continue
        module = "." * node.level + (node.module or "")
        found += [f"{path.name}:{node.lineno} {alias.name} from {module}"
                  for alias in node.names
                  if alias.name.startswith("_") and alias.name != "__version__"]
    return found


def test_modules_import_no_private_names_from_each_other():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 9
    offenders = [hit for path in modules for hit in private_imports(path)]
    assert offenders == []


def test_private_imports_are_detected(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text("from .nn import forward, _erm_step_grads\n"
                      "from udakit.adversarial import _dann_step_grads\n"
                      "from numpy import _globals\n"
                      "from __future__ import annotations\n")
    assert private_imports(module) == [
        "probe.py:1 _erm_step_grads from .nn",
        "probe.py:2 _dann_step_grads from udakit.adversarial",
    ]


def test_demos_import_only_names_udakit_exports():
    import udakit

    demos = sorted((PACKAGE.parents[1] / "demos").glob("*.py"))
    assert len(demos) >= 5
    missing = [f"{path.name}:{node.lineno} {alias.name}"
               for path in demos
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.ImportFrom) and node.module == "udakit"
               for alias in node.names if not hasattr(udakit, alias.name)]
    assert missing == []
