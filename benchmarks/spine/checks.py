"""Output checks: every workload validates what the program produced.

The reference is always the serial interpreter (``run_serial``), never
the compiler under test: element by element at check size through
``run_compiled(validate=True)``, and at the timed sizes — where the
interpreter takes minutes — through per-array summaries recorded in
``expected.json`` by ``run.py --regen-expected``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Mapping

import numpy as np

from repro.lang.interp import run_serial
from repro.lang.parser import parse_program
from repro.runtime.harness import (
    eval_lang_expr,
    owner_coordinate,
    rank_of_coords,
)

EXPECTED_PATH = Path(__file__).with_name("expected.json")
RTOL = 1e-9


def summary(data: np.ndarray) -> List[float]:
    """(sum, min, max, L2) of one array."""
    return [float(data.sum()), float(data.min()), float(data.max()),
            float(np.sqrt((data * data).sum()))]


def serial_summaries(source: str, params: Mapping[str, int]) -> dict:
    """Reference summaries of every array and scalar of a program."""
    program = parse_program(source)
    serial = run_serial(program, dict(params))
    return {
        "arrays": {
            decl.name: summary(serial.arrays[decl.name].data)
            for decl in program.arrays
        },
        "scalars": {
            s.name: float(serial.values.get(s.name, 0.0))
            for s in program.scalars
        },
    }


def _owner_ranks(layout, shape, lbounds, env) -> np.ndarray:
    """Owning rank of every element of one array.

    Ownership along a grid dimension depends on one template coordinate;
    when that coordinate reads a single array dimension (every program
    here), one ``owner_coordinate`` call per index along that dimension
    decides it, instead of one per element.
    """
    grid = layout.grid
    extents = [
        extent if isinstance(extent, int)
        else extent.evaluate({v: env[v] for v in extent.variables()})
        for extent in grid.extents
    ]
    dims = list(layout.data_dims)
    coords = []
    for grid_dim in range(grid.rank):
        image = layout.align_images.get(grid_dim)
        used = [v for v in image.variables() if v in dims] if (
            image is not None and layout.ownerships[grid_dim] is not None
        ) else []
        if not used:
            coords.append(np.zeros(shape, dtype=np.int64))
        elif len(used) == 1:
            axis = dims.index(used[0])
            line = np.empty(shape[axis], dtype=np.int64)
            index = list(lbounds)
            for offset in range(shape[axis]):
                index[axis] = lbounds[axis] + offset
                line[offset] = owner_coordinate(
                    layout, grid_dim, tuple(index), env
                )
            view = [1] * len(shape)
            view[axis] = shape[axis]
            coords.append(np.broadcast_to(line.reshape(view), shape))
        else:
            full = np.empty(shape, dtype=np.int64)
            for offsets in np.ndindex(*shape):
                index = tuple(o + lb for o, lb in zip(offsets, lbounds))
                full[offsets] = owner_coordinate(
                    layout, grid_dim, index, env
                )
            coords.append(full)
    return rank_of_coords(extents, coords)


def parallel_summaries(compiled, results) -> dict:
    """Summaries of the distributed result: every element read from the
    rank that owns it (the comparison ``validate=True`` makes)."""
    env = results[0].env
    arrays = {}
    for decl in compiled.program.arrays:
        layout = compiled.mapping.layout(decl.name)
        first = results[0].arrays[decl.name]
        lbounds = tuple(
            eval_lang_expr(low, env) for low, _ in decl.extents
        )
        owners = _owner_ranks(layout, first.shape, lbounds, env)
        merged = np.empty_like(first)
        for result in results:
            mask = owners == result.rank
            merged[mask] = result.arrays[decl.name][mask]
        arrays[decl.name] = summary(merged)
    scalars = {
        s.name: float(results[0].scalars[s.name])
        for s in compiled.program.scalars
    }
    return {"arrays": arrays, "scalars": scalars}


def summaries_agree(got: dict, want: dict) -> bool:
    for kind in ("arrays", "scalars"):
        if set(got[kind]) != set(want[kind]):
            return False
        for name, reference in want[kind].items():
            if not np.allclose(got[kind][name], reference,
                               rtol=RTOL, atol=1e-9):
                return False
    return True


def load_expected() -> Dict[str, dict]:
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)


def regen_expected(cells, programs) -> None:
    """Rewrite expected.json from the serial interpreter (minutes)."""
    expected = {
        c.key: serial_summaries(programs[c.program].source, dict(c.params))
        for c in cells
    }
    with open(EXPECTED_PATH, "w") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
