"""Package-structure rules checked on the source text."""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path
from typing import Callable

import pytest

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
                      "from __future__ import annotations\n"
                      "def run():\n    from .nn import _x, backward\n")
    assert private_imports(module) == [
        "probe.py:1 _erm_step_grads from .nn",
        "probe.py:2 _dann_step_grads from udakit.adversarial",
        "probe.py:6 _x from .nn",
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


def imported_module(node: ast.ImportFrom) -> str | None:
    """The dotted name of the udakit module an import-from reads, or None.
    Every module sits directly in the package, so a relative import reads
    the package or one of its modules."""
    if node.level:
        return "udakit" + (f".{node.module}" if node.module else "")
    return node.module if (node.module or "").split(".")[0] == "udakit" else None


def export_table(tree: ast.Module) -> dict[str, tuple[str, ...]]:
    """The package's export table, module -> the names `udakit.<name>`
    reads from it, as the literal `_EXPORTS` of __init__.py; {} without one."""
    return next((ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(getattr(target, "id", None) == "_EXPORTS" for target in node.targets)),
                {})


def package_bindings(modules: dict[str, tuple[str, ast.Module]]) -> dict[str, dict[str, str]]:
    """Each module's top-level names that are bound to a udakit function or
    class, by its definition, by an import or, for the package, by its
    export table, as name -> module:definition."""
    bindings = {name: {node.name: f"{label}:{node.name}" for node in tree.body
                       if isinstance(node, ast.FunctionDef | ast.ClassDef)}
                for name, (label, tree) in modules.items()}
    imports = [(name, imported_module(node), alias.name, alias.asname or alias.name)
               for name, (_, tree) in modules.items() for node in tree.body
               if isinstance(node, ast.ImportFrom) and imported_module(node) in bindings
               for alias in node.names]
    imports += [("udakit", f"udakit.{module}", export, export)
                for module, exports in export_table(modules["udakit"][1]).items()
                if f"udakit.{module}" in bindings for export in exports]
    changed = True
    while changed:      # a module may import a name that another module imported
        changed = False
        for name, source, imported, bound in imports:
            target = bindings[source].get(imported)
            if target and bound not in bindings[name]:
                bindings[name][bound] = target
                changed = True
    return bindings


def definition_resolver(tree: ast.Module, bindings: dict[str, dict[str, str]],
                        module: str | None) -> Callable[[ast.AST], str | None]:
    """For a node of tree (the text of the udakit module named module, or of
    a file outside the package when None), the udakit definition it names,
    as module:definition, or None. A name names a definition when it is
    bound to it in module or by an import from udakit anywhere in tree; an
    attribute does when its object is a udakit module."""
    names, modules = dict(bindings.get(module, {})), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update((alias.asname, alias.name) if alias.asname else ("udakit", "udakit")
                           for alias in node.names if alias.name.split(".")[0] == "udakit")
        elif isinstance(node, ast.ImportFrom) and imported_module(node) in bindings:
            source = imported_module(node)
            for alias in node.names:
                bound = alias.asname or alias.name
                if f"{source}.{alias.name}" in bindings:
                    modules[bound] = f"{source}.{alias.name}"
                elif alias.name in bindings[source]:
                    names[bound] = bindings[source][alias.name]

    def module_of(node: ast.AST) -> str | None:
        if isinstance(node, ast.Name):
            return modules.get(node.id)
        if isinstance(node, ast.Attribute) and (parent := module_of(node.value)):
            return f"{parent}.{node.attr}" if f"{parent}.{node.attr}" in bindings else None
        return None

    def definition_of(node: ast.AST) -> str | None:
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            return names.get(node.id)
        if isinstance(node, ast.Attribute) and (parent := module_of(node.value)):
            return bindings[parent].get(node.attr)
        return None

    return definition_of


def program(root: Path) -> tuple[dict[str, tuple[str, ast.Module]],
                                 list[tuple[ast.Module, Callable[[ast.AST], str | None]]]]:
    """The package's modules, as dotted name ("udakit" for __init__.py) ->
    (the label of its definitions, its syntax tree), and one
    (tree, definition_of) pair per text outside the tests: each module of
    src/udakit, of demos/ and of perfbench/, and each of README's Python
    blocks."""
    package = root / "src" / "udakit"
    modules = {("udakit" if path.stem == "__init__" else f"udakit.{path.stem}"):
               (path.stem, ast.parse(path.read_text(encoding="utf-8")))
               for path in sorted(package.glob("*.py"))}
    bindings = package_bindings(modules)
    texts = [(name, tree) for name, (_, tree) in modules.items()]
    texts += [(None, ast.parse(path.read_text(encoding="utf-8")))
              for folder in (root / "demos", root / "perfbench")
              for path in sorted(folder.glob("*.py"))]
    texts += [(None, ast.parse(block))
              for block in python_blocks((root / "README.md").read_text(encoding="utf-8"))]
    return modules, [(tree, definition_resolver(tree, bindings, name)) for name, tree in texts]


def unused_public_definitions(root: Path) -> list[str]:
    """Public top-level functions and classes of src/udakit that no text
    outside the tests uses, as module:name. A use is a name or attribute
    bound to the definition (see definition_resolver): an import is not
    one, and neither is another file's variable or another object's
    attribute that happens to share the name."""
    modules, texts = program(root)
    used = {definition_of(node) for tree, definition_of in texts for node in ast.walk(tree)}
    return [f"{label}:{node.name}" for label, tree in modules.values() for node in tree.body
            if isinstance(node, ast.FunctionDef | ast.ClassDef)
            and not node.name.startswith("_") and f"{label}:{node.name}" not in used]


def test_every_public_definition_has_a_use_outside_the_tests():
    assert unused_public_definitions(PACKAGE.parents[1]) == []


def probe_program(root: Path) -> Path:
    """A package of one module a.py beside a demo, a perfbench file and a
    README, each using some of a.py's definitions."""
    for folder in ("src/udakit", "demos", "perfbench"):
        (root / folder).mkdir(parents=True)
    (root / "src/udakit/__init__.py").write_text(
        "import importlib\n_EXPORTS = {'a': ('Kept', 'used_by_demo')}\n"
        "def __getattr__(name):\n    return getattr(importlib.import_module('udakit.a'), name)\n")
    (root / "src/udakit/a.py").write_text(
        "def used_by_demo(x, scale=1.0, *, mode='a'):\n    return x\n"
        "def via_module(x, flag=False, level=0):\n    return _helper(y=1) + _unused_flag()\n"
        "def shadowed():\n    pass\n"
        "def attribute_only():\n    pass\n"
        "def _helper(y=0):\n    return y\n"
        "def _unused_flag(z=0):\n    return z\n"
        "class Kept:\n    pass\n")
    (root / "demos/d.py").write_text("from udakit import used_by_demo\nimport udakit.a as m\n"
                                     "used_by_demo(1, 2.0)\nm.via_module(*args)\n")
    (root / "perfbench/p.py").write_text("shadowed = 1\nprint(shadowed, report.attribute_only)\n")
    (root / "README.md").write_text("Use:\n\n```python\nimport udakit\nudakit.Kept()\n```\n")
    return root


def test_a_use_is_a_binding_to_the_definition(tmp_path):
    assert unused_public_definitions(probe_program(tmp_path)) == ["a:shadowed",
                                                                  "a:attribute_only"]


def passes(call: ast.Call, positional: list[str], param: str) -> bool:
    """Whether call passes param of a function whose positional parameters
    are positional; *args and **kwargs pass every parameter they can reach."""
    if any(keyword.arg in (param, None) for keyword in call.keywords):
        return True
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return param in positional
    return param in positional[:len(call.args)]


def unpassed_defaults(root: Path) -> list[str]:
    """Defaulted parameters of the top-level functions of src/udakit that no
    call outside the tests passes, by keyword or by position, as
    module:function(parameter). A call counts where its callee is bound to
    the function (see definition_resolver)."""
    modules, texts = program(root)
    calls: dict[str, list[ast.Call]] = {}
    for tree, definition_of in texts:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and (target := definition_of(node.func)):
                calls.setdefault(target, []).append(node)
    found = []
    for label, tree in modules.values():
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            positional = [arg.arg for arg in args.posonlyargs + args.args]
            defaulted = positional[len(positional) - len(args.defaults):] + [
                arg.arg for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None]
            found += [f"{label}:{node.name}({param})" for param in defaulted
                      if not any(passes(call, positional, param)
                                 for call in calls.get(f"{label}:{node.name}", []))]
    return found


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    assert unpassed_defaults(PACKAGE.parents[1]) == []


def test_defaulted_parameters_no_call_passes_are_detected(tmp_path):
    assert unpassed_defaults(probe_program(tmp_path)) == ["a:used_by_demo(mode)",
                                                          "a:_unused_flag(z)"]


def callers(root: Path, definition: str) -> list[str]:
    """The top-level definitions of src/udakit whose code calls definition
    (module:name), once per call, as module:caller, or module:Class.method
    for a call in a method of a top-level class; a call outside any
    definition counts under "module:<module>"."""
    modules, _ = program(root)
    bindings = package_bindings(modules)
    found = []
    for name, (label, tree) in modules.items():
        definition_of = definition_resolver(tree, bindings, name)
        for top in tree.body:
            owner = getattr(top, "name", "<module>")
            methods = top.body if isinstance(top, ast.ClassDef) else []
            method_of = {node: f"{owner}.{method.name}" for method in methods
                         if isinstance(method, ast.FunctionDef) for node in ast.walk(method)}
            found += [f"{label}:{method_of.get(node, owner)}" for node in ast.walk(top)
                      if isinstance(node, ast.Call) and definition_of(node.func) == definition]
    return sorted(found)


def test_only_run_epochs_and_the_adda_discriminator_set_up_sgd():
    """Every trainer hands its networks to run_epochs, which builds their SGD
    state; ADDA's discriminator, stepped inside ADDA's step, has its own."""
    assert callers(PACKAGE.parents[1], "nn:init_sgd") == ["adversarial:train_adda",
                                                          "nn:run_epochs"]


def test_only_build_model_and_the_discriminator_initialise_networks():
    """Every trainer builds its extractor and heads through build_model (one
    call each for the two); the adversarial trainers add their discriminators."""
    assert sorted(set(callers(PACKAGE.parents[1], "nn:init_mlp"))) == [
        "adversarial:_discriminator", "nn:build_model"]


def test_callers_are_found_through_bindings(tmp_path):
    root = probe_program(tmp_path)
    assert callers(root, "a:_helper") == ["a:via_module"]
    assert callers(root, "a:used_by_demo") == []


# numpy calls that hand their work to BLAS, beside the `@` operator
BLAS_CALLS = {"matmul", "dot", "vdot", "inner", "einsum"}


def blas_calls(tree: ast.Module, names: set[str]) -> list[str]:
    """Each `@` and each call of a BLAS_CALLS name, as a function or a
    method, in the named top-level functions, as name:line operation."""
    found = []
    for top in tree.body:
        if not (isinstance(top, ast.FunctionDef) and top.name in names):
            continue
        for node in ast.walk(top):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append(f"{top.name}:{node.lineno} @")
            elif isinstance(node, ast.Call):
                func = node.func
                called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if called in BLAS_CALLS:
                    found.append(f"{top.name}:{node.lineno} {called}")
    return sorted(found)


def test_the_1d_w1_kernel_makes_no_blas_call():
    """The quantile plan and the per-projection W1 kernel compute without
    BLAS, so the shift files depend on the BLAS kernel through the
    projection product alone (README, byte stability)."""
    tree = ast.parse((PACKAGE / "shift.py").read_text(encoding="utf-8"))
    kernel = {"_quantile_plan", "_w1_rows"}
    assert kernel <= {top.name for top in tree.body if isinstance(top, ast.FunctionDef)}
    assert blas_calls(tree, kernel) == []


def test_blas_calls_are_detected():
    tree = ast.parse("def f(a, b):\n    c = a @ b\n    c @= b\n"
                     "    return np.dot(a, b) + a.vdot(b) + inner(a, b)\n"
                     "def g(a):\n    return np.einsum('ij->i', a) + np.matmul(a, a) + a.sum()\n"
                     "def h(a):\n    return a @ a\n")
    assert blas_calls(tree, {"f", "g"}) == ["f:2 @", "f:3 @", "f:4 dot", "f:4 inner",
                                            "f:4 vdot", "g:6 einsum", "g:6 matmul"]


def check_pass(root: Path) -> tuple[list[str], list[str]]:
    """Where an experiment's schemes are checked: the callers of
    harness:check_scheme (see callers), and the parameters of
    harness:open_grid, which should read a config checked already."""
    modules, _ = program(root)
    open_grid = next(node for node in modules["udakit.harness"][1].body
                     if isinstance(node, ast.FunctionDef) and node.name == "open_grid")
    return (callers(root, "harness:check_scheme"),
            [node.arg for node in ast.walk(open_grid.args) if isinstance(node, ast.arg)])


def test_the_loader_and_udakit_train_alone_check_schemes():
    """ExperimentConfig checks every scheme it names when it is made, and
    udakit train checks its --scheme; open_grid takes the checked config
    alone and checks no scheme again."""
    assert check_pass(PACKAGE.parents[1]) == (
        ["cli:_cmd_train", "harness:ExperimentConfig.__post_init__"], ["cfg"])


def test_a_second_check_pass_is_detected(tmp_path):
    root = probe_program(tmp_path)
    (root / "src/udakit/harness.py").write_text(
        "def check_scheme(scheme, cfg):\n    pass\n"
        "class ExperimentConfig:\n"
        "    def __post_init__(self):\n        check_scheme(None, self)\n"
        "def open_grid(cfg, schemes, *, strict=True):\n"
        "    for scheme in schemes:\n        check_scheme(scheme, cfg)\n")
    (root / "src/udakit/cli.py").write_text(
        "from .harness import check_scheme\n"
        "def _cmd_train(args):\n    check_scheme(args.scheme, None)\n")
    assert check_pass(root) == (["cli:_cmd_train", "harness:ExperimentConfig.__post_init__",
                                 "harness:open_grid"], ["cfg", "schemes", "strict"])


# The benchmark under perfbench/ drives udakit through these entry points;
# a simplification that breaks one of them breaks the benchmark.

def perfbench_constant(module: str, name: str):
    """The literal value of a top-level constant of perfbench/<module>.py."""
    path = PACKAGE.parents[1] / "perfbench" / f"{module}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(getattr(target, "id", None) == name for target in node.targets))


def test_train_cell_takes_the_positional_parameters_perfbench_passes():
    from udakit import harness

    params = inspect.signature(harness.train_cell).parameters.values()
    assert [p.name for p in params] == ["splits", "target_id", "scheme", "source_label", "cfg",
                                        "n_classes", "seed"]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD and p.default is p.empty for p in params)


@pytest.mark.parametrize("command", ["matrix", "fairness"])
def test_matrix_and_fairness_accept_workers(tmp_path, capsys, command):
    from udakit.cli import main

    # a usage error raises SystemExit; a missing config file returns 1
    assert main([command, "--config", str(tmp_path / "missing.json"), "--workers", "2"]) == 1
    assert "missing.json" in capsys.readouterr().err


def test_harness_binds_the_trainers_perfbench_calls_through_it():
    from udakit import adversarial, harness, nn

    assert harness.train_erm is nn.train_erm
    assert harness.train_adda is adversarial.train_adda


def test_every_trainer_perfbench_traces_is_a_udakit_function():
    trainers = perfbench_constant("tracer", "TRAINERS")
    assert len(trainers) == 5
    for name in trainers:
        module, function = name.split(".")
        assert inspect.isfunction(getattr(importlib.import_module(f"udakit.{module}"), function))


def test_every_udakit_name_perfbench_imports_exists():
    imports = [(node.module, alias.name)
               for path in sorted((PACKAGE.parents[1] / "perfbench").glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("udakit")
               for alias in node.names]
    assert imports
    missing = [f"{module}.{name}" for module, name in imports
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


def own_keys_table(markdown: str) -> dict[str, tuple[str, list[str]]]:
    """README's own-keys table as scheme base -> (the trainer of its row, the
    keys the row names, in order)."""
    lines = markdown.split("| scheme base | trainer | own keys |\n", 1)[1].splitlines()
    rows = {}
    for line in lines[1:]:
        if not line.startswith("|"):
            break
        bases, trainer, keys = (cell.strip() for cell in line.strip("|").split("|"))
        for base in bases.split(","):
            rows[base.strip().strip("`")] = (trainer.strip("`"), [] if keys == "none" else [
                key.strip().strip("`") for key in keys.split(",")])
    return rows


def test_readme_own_keys_table_matches_the_trainers():
    from udakit import SCHEME_BASES

    table = own_keys_table((PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8"))
    assert table == {base: (row.trainer, list(row.own_keys)) for base, row in SCHEME_BASES.items()}


def test_own_keys_table_parser_reads_each_row():
    text = ("intro\n\n| scheme base | trainer | own keys |\n|---|---|---|\n"
            "| `a` | `train_a` | none |\n| `b`, `c` | `train_b` | `x`, `y` |\n\nafter | z |\n")
    assert own_keys_table(text) == {"a": ("train_a", []), "b": ("train_b", ["x", "y"]),
                                    "c": ("train_b", ["x", "y"])}


# the module-level names of the scheme table in harness.py
TABLE_NAMES = {"SINGLE", "COMBINED", "MULTI", "POOLED_LABELS", "SCHEME_BASES"}


def scheme_name_constants(path: Path, names: set[str]) -> list[str]:
    """String constants of the module at path that equal one of names, as
    file:line 'text', outside the assignments to TABLE_NAMES and parse_scheme."""
    found = []
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        assigned = {node.id for target in getattr(top, "targets", [])
                    for node in ast.walk(target) if isinstance(node, ast.Name)}
        if assigned & TABLE_NAMES or getattr(top, "name", None) == "parse_scheme":
            continue
        found += [f"{path.name}:{node.lineno} {node.value!r}" for node in ast.walk(top)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and node.value in names]
    return found


def scheme_name_parts() -> set[str]:
    """Every scheme base, its mode prefix (with and without the dash) and its
    trainer suffix (with the dash: bare, "erm" and the like name a trainer's
    RunRecord)."""
    from udakit import SCHEME_BASES

    modes, trainers = zip(*(base.split("-") for base in SCHEME_BASES))
    return {*SCHEME_BASES, *modes, *(f"{m}-" for m in modes), *(f"-{t}" for t in trainers)}


def test_no_code_reads_a_scheme_name_outside_the_table():
    found = [hit for path in sorted(PACKAGE.glob("*.py"))
             for hit in scheme_name_constants(path, scheme_name_parts())]
    # the id concat_domains gives the pooled dataset names data, not a scheme
    assert [hit for hit in found
            if not (hit.startswith("data.py:") and hit.endswith(" 'combined'"))] == []


def test_scheme_name_constants_are_detected(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text("SINGLE, MULTI = 'single', 'multi'\n"
                      "SCHEME_BASES = {'multi-mdan': 1}\n"
                      "def parse_scheme(name):\n    return name.startswith('rs-')\n"
                      "def pick(base):\n"
                      "    if base.startswith('single') or base.endswith('-erm'):\n"
                      "        return base == 'multi-m3sda', base.split('-')[1]\n")
    assert scheme_name_constants(module, scheme_name_parts()) == [
        "probe.py:6 'single'", "probe.py:6 '-erm'", "probe.py:7 'multi-m3sda'"]
