"""The package namespace: its export table, and the modules each entry point loads."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import udakit
from udakit.data import spec_to_dict
from test_harness import blob_spec

SRC = Path(__file__).resolve().parents[1] / "src"

# run in a fresh interpreter: the udakit modules loaded after importing the
# package and the CLI, then after each command of argv[1] (a JSON list) in turn
FOOTPRINT = """
import contextlib, io, json, sys
import udakit, udakit.cli

def loaded():
    return sorted(name for name in sys.modules if name.split(".")[0] == "udakit")

seen = [loaded()]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = udakit.cli.main(argv)
    seen.append([code, loaded()])
print(json.dumps(seen))
"""


def footprint(cwd: Path, *commands: list[str]) -> list:
    path = os.pathsep.join([str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])
    done = subprocess.run([sys.executable, "-c", FOOTPRINT, json.dumps(commands)], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                          text=True, check=True)
    return json.loads(done.stdout)


def test_the_package_and_each_command_load_only_the_modules_they_run(tmp_path):
    specs = [blob_spec(f"d{i}", 10 + i, n=40, mean_shift=0.4 * i) for i in range(2)]
    (tmp_path / "specs.json").write_text(json.dumps([spec_to_dict(s) for s in specs]))
    bare = ["udakit", "udakit.cli"]
    assert footprint(tmp_path, ["gen", "--config", "specs.json", "--out", "data"]) == [
        bare, [0, ["udakit", "udakit.cli", "udakit.data"]]]
    assert footprint(tmp_path, ["diagnose", "--data", "data/d0.csv", "data/d1.csv",
                                "--projections", "4", "--out", "shift"]) == [
        bare, [0, ["udakit", "udakit.cli", "udakit.data", "udakit.shift"]]]


def exports() -> list[tuple[str, str]]:
    return [(module, name) for module, names in udakit._EXPORTS.items() for name in names]


def test_every_export_is_the_object_its_module_holds():
    for module, name in exports():
        assert getattr(udakit, name) is getattr(importlib.import_module(f"udakit.{module}"),
                                                name), name
    assert {name for _, name in exports()} <= set(dir(udakit))


def test_an_export_follows_its_module_global(monkeypatch):
    originals = {(module, name): getattr(udakit, name) for module, name in exports()}
    for module, name in exports():
        monkeypatch.setattr(importlib.import_module(f"udakit.{module}"), name, object())
    for module, name in exports():
        assert getattr(udakit, name) is vars(importlib.import_module(f"udakit.{module}"))[name]
        assert getattr(udakit, name) is not originals[module, name], name
    monkeypatch.undo()
    assert all(getattr(udakit, name) is originals[module, name] for module, name in exports())


def test_submodules_resolve_and_unknown_names_do_not():
    assert udakit.harness is importlib.import_module("udakit.harness")
    with pytest.raises(AttributeError, match="^module 'udakit' has no attribute 'nope'$"):
        udakit.nope
    with pytest.raises(ImportError, match="cannot import name 'nope' from 'udakit'"):
        from udakit import nope  # noqa: F401
