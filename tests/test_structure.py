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


def python_blocks(markdown: str) -> list[str]:
    """The ```python fenced code blocks of a markdown text."""
    return [block.split("```", 1)[0] for block in markdown.split("```python\n")[1:]]


def unused_public_definitions(root: Path) -> list[str]:
    """Public top-level functions and classes of src/udakit that nothing in
    src/, demos/, perfbench/ or README's Python blocks refers to by name,
    as module:name. An import or an __all__ entry is not a use."""
    package = root / "src" / "udakit"
    sources = [p.read_text(encoding="utf-8")
               for folder in (package, root / "demos", root / "perfbench")
               for p in sorted(folder.glob("*.py"))]
    sources += python_blocks((root / "README.md").read_text(encoding="utf-8"))
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for text in sources for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Name | ast.Attribute)}
    return [f"{path.stem}:{node.name}"
            for path in sorted(package.glob("*.py"))
            for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, ast.FunctionDef | ast.ClassDef)
            and not node.name.startswith("_") and node.name not in used]


def test_every_public_definition_has_a_use_outside_the_tests():
    assert unused_public_definitions(PACKAGE.parents[1]) == []
