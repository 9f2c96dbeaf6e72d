"""Guard: the set engine and the compiler options stay knob-free.

The engine has one emptiness pipeline, one projection order and no
environment-driven tuning; the compiler has nine option fields.  A new
``REPRO_*`` variable under ``isets/``, a resurrected thread-pool module
or a tenth option field fails here, so it has to be argued for in review.
"""

import dataclasses
import importlib
from pathlib import Path

import pytest

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
