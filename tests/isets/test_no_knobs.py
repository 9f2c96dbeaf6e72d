"""Guard: the set engine and the compiler options stay knob-free.

The engine has one emptiness pipeline, one projection order and no
environment-driven tuning; the compiler has nine option fields.  A new
``REPRO_*`` variable under ``isets/``, a resurrected thread-pool module
or loop generator, or a tenth option field fails here, so it has to be argued for in review.
So does a second spelling of "memoize unless the reference arm is on,
time if profiled": one gate, one per-thread record, one exact key.
"""

import ast
import dataclasses
import importlib
import re
from pathlib import Path

import pytest

import repro.cache.manager
import repro.isets
from repro.core.options import CompilerOptions


def test_no_knob_comes_back():
    reads_environment = [
        path.name
        for path in sorted(Path(repro.isets.__file__).parent.glob("*.py"))
        if "os.environ" in path.read_text()
    ]
    assert reads_environment == []

    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.isets.parallel")

    # One loop generator: the SPMD emitter writes every nest itself.
    for module in ("repro.isets.loopgen", "repro.isets.mmcodegen"):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)

    assert {f.name for f in dataclasses.fields(CompilerOptions)} == {
        "coalesce",
        "inplace",
        "loop_split",
        "active_vp",
        "buffer_mode",
        "compute",
        "caching",
        "cache_dir",
        "profile_sets",
    }


SRC = Path(repro.isets.__file__).parent.parent
ENGINE = sorted((SRC / "isets").glob("*.py")) + sorted(
    (SRC / "cache").glob("*.py")
)


def test_one_switchboard():
    thread_locals = [
        path.name
        for path in ENGINE
        for _ in re.findall(r"threading\.local\b", path.read_text())
    ]
    assert thread_locals == ["profile.py"]

    # The memo-off switch: written by the arm selector, read by the gate
    # and by nothing else anywhere in the package.
    readers = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                if any(
                    isinstance(sub, ast.Attribute)
                    and sub.attr == "memo_off"
                    and isinstance(sub.ctx, ast.Load)
                    for sub in ast.walk(node)
                ):
                    readers.add(f"{path.name}::{node.name}")
    assert readers == {"profile.py::gate"}
    for name in ("enabled", "disabled", "memoize"):
        assert not hasattr(repro.cache.manager.CacheManager, name)


def test_cache_package_does_not_import_the_set_engine():
    for path in sorted((SRC / "cache").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                module = "." * node.level + (node.module or "")
                assert "isets" not in module, (path.name, module)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    assert "isets" not in alias.name, (path.name, alias.name)
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.cache.intern")
