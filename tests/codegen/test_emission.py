"""Unit tests for Python-source emission and generated-module structure."""

import ast
import itertools
import re
from pathlib import Path

import pytest

from repro import CompilerOptions, compile_program, programs
from repro.codegen.pyexpr import (
    PRELUDE,
    SourceWriter,
    emit_conjunct_guard,
    emit_linexpr,
    emit_set_guard,
)
from repro.codegen.spmd import _BodyEmitter
from repro.core.driver import _scan_shape
from repro.isets import (
    IntegerSet,
    LinExpr,
    Space,
    enumerate_points,
    ops,
    parse_set,
)
from repro.runtime import machine
from repro.runtime.harness import run_compiled
from repro.runtime.sections import disjoint_sections, message_count

STENCIL = """
program s
  parameter n
  real a(n), b(n)
  processors p(nprocs)
  template t(n)
  align a(i) with t(i)
  align b(i) with t(i)
  distribute t(block) onto p
  do i = 2, n - 1
    a(i) = b(i-1) + b(i+1)
  end do
end
"""


class TestPyExpr:
    def test_emit_linexpr(self):
        expr = LinExpr({"i": 2, "j": -1}, 3)
        text = emit_linexpr(expr)
        assert eval(text, {"i": 5, "j": 4}) == 9

    def test_emit_linexpr_rename(self):
        expr = LinExpr({"i_cur": 1}, 0)
        text = emit_linexpr(expr, {"i_cur": "i"})
        assert "i_cur" not in text

    def test_constant_expr(self):
        assert eval(emit_linexpr(LinExpr.const(-4))) == -4

    def test_conjunct_guard_plain(self):
        conjunct = parse_set("{[i] : 2 <= i <= 8}").conjuncts[0]
        guard = emit_conjunct_guard(conjunct)
        assert eval(guard, {"i": 5})
        assert not eval(guard, {"i": 9})

    def test_conjunct_guard_stride(self):
        conjunct = parse_set(
            "{[i] : exists(a : i = 3a + 1) and 1 <= i <= 20}"
        ).conjuncts[0]
        guard = emit_conjunct_guard(conjunct)
        assert eval(guard, {"i": 7})
        assert not eval(guard, {"i": 8})

    def test_set_guard_union(self):
        subset = parse_set("{[i] : i = 1 or i = 4}")
        guard = emit_set_guard(subset)
        assert eval(guard, {"i": 4}) and not eval(guard, {"i": 3})

    def test_empty_set_guard(self):
        assert emit_set_guard(parse_set("{[i] : 1 <= i <= 0}")) == "False"

    def test_source_writer_indentation(self):
        writer = SourceWriter()
        writer.line("def f():")
        writer.push()
        writer.line("return 1")
        writer.pop()
        text = writer.text()
        namespace = {}
        exec(text, namespace)
        assert namespace["f"]() == 1


class TestGeneratedModule:
    def test_module_is_valid_python(self):
        compiled = compile_program(STENCIL)
        compile(compiled.source, "<generated>", "exec")

    def test_module_structure(self):
        compiled = compile_program(STENCIL)
        source = compiled.source
        assert "def node_main(rt):" in source
        assert "def proc_main(rt):" in source
        assert "rt.send_section(" in source
        assert "rt.recv_section(" in source
        assert "rt.work(" in source
        # partitioned bounds reference myid's (VP) coordinate
        assert "my_p_0" in source

    def test_no_dollar_names_leak(self):
        """Fresh internal names contain '$' and must never be emitted."""
        for options in (
            CompilerOptions(),
            CompilerOptions(coalesce=False),
            CompilerOptions(inplace=False),
            CompilerOptions(loop_split=True, buffer_mode="direct"),
        ):
            compiled = compile_program(STENCIL, options)
            assert "$" not in compiled.source.replace("B_t_0", ""), (
                "internal wildcard name leaked into generated source"
            )

    def test_procedures_emitted_separately(self):
        src = """
program multi
  real a(10)
  processors p(2)
  template t(10)
  align a(i) with t(i)
  distribute t(block) onto p
  procedure init
  do i = 1, 10
    a(i) = i
  end do
  end
  call init
end
"""
        compiled = compile_program(src)
        assert "def proc_init(rt):" in compiled.source
        assert "proc_init(rt)" in compiled.source

    def test_listing_mentions_events(self):
        compiled = compile_program(STENCIL)
        assert "communication event" in compiled.source

    def test_reduction_emits_allreduce(self):
        src = STENCIL.replace(
            "    a(i) = b(i-1) + b(i+1)",
            "    a(i) = b(i-1) + b(i+1)\n    s = max(s, a(i))",
        ).replace("  do i = 2", "  scalar s\n  do i = 2")
        compiled = compile_program(src)
        assert "rt.allreduce('max'" in compiled.source


def _program_source(name: str) -> str:
    if name == "sp_like":  # the reduced variant: seconds, same regime
        return programs.sp_like(routines=2, nests_per_routine=2)
    return getattr(programs, name)()


def test_jacobi_scans_one_conjunct_per_reference():
    """The emitter scans the self-inclusive maps: one conjunct per
    coalesced reference, not the exact map's "partner != me" fan-out."""
    compiled = compile_program(programs.jacobi())
    (event,) = compiled.analyses["main"].events
    sets = event.sets
    assert len(sets.send_scan_map.conjuncts) == 4
    assert len(sets.recv_scan_map.conjuncts) == 4
    assert len(sets.send_comm_map.conjuncts) == 16
    assert len(compiled.source.encode()) < 50_000
    assert "_p.append" not in compiled.source  # no point lists


@pytest.mark.parametrize("name", programs.__all__)
def test_runtime_inplace_checks_registered_once(name):
    """Loop splitting emits one event at several sites; each run-time
    in-place check is still registered once, under the flag name the
    source reads (widehalo used to register 46 entries for 2 names)."""
    compiled = compile_program(_program_source(name))
    names = [entry[0] for entry in compiled.module.runtime_inplace]
    assert len(names) == len(set(names))
    read = re.findall(r"rt\.inplace\['([^']+)'\]", compiled.source)
    assert set(names) == set(read)


#: events each program's procedures emit (sp_like's ``main`` analyses
#: two events whose anchors sit in ``sweep1``, which emits them).
EMITTED_EVENTS = {
    "erlebacher": 2, "gauss": 1, "jacobi": 1, "redblack": 2,
    "sp_like": 2, "tomcatv": 2, "widehalo": 1,
}


@pytest.mark.parametrize("name", programs.__all__)
def test_each_event_is_emitted_once(name):
    """One module-level ``_ev_<tag>`` function per emitted event, called
    at every anchor (widehalo: 1 definition, 23 calls — it used to be 23
    inline copies).  Its parameters are exactly the names the parsed body
    reads as values (callees aside) and never binds."""
    compiled = compile_program(_program_source(name))
    source = compiled.source
    tags = {
        event.tag
        for analysis in compiled.analyses.values()
        for event in analysis.events
    }
    defs = re.findall(r"^def (_ev_\w+)\(rt\b", source, re.MULTILINE)
    calls = re.findall(r"^ +(_ev_\w+)\(rt\b", source, re.MULTILINE)
    assert len(defs) == len(set(defs)) == EMITTED_EVENTS[name]
    assert set(defs) <= {f"_ev_{tag}" for tag in tags}
    assert set(calls) == set(defs)
    assert source.count("# --- communication event") == len(defs)
    if name == "widehalo":
        assert len(calls) == 23
    for fn in ast.parse(source).body:
        if not (isinstance(fn, ast.FunctionDef) and fn.name in defs):
            continue
        callees = {
            id(node.func)
            for node in ast.walk(fn)
            if isinstance(node, ast.Call)
        }
        loads, stores = set(), set()
        for node in ast.walk(ast.Module(body=fn.body, type_ignores=[])):
            if isinstance(node, ast.Name) and id(node) not in callees:
                bucket = loads if isinstance(node.ctx, ast.Load) else stores
                bucket.add(node.id)
        params = [arg.arg for arg in fn.args.args]
        assert params == ["rt"] + sorted(loads - stores - {"rt"}), fn.name


def _section_points(sections):
    points = []
    for kind, dims in sections:
        if kind == "S":
            points += itertools.product(
                *(range(start, start + count * step, step)
                  for start, count, step in dims)
            )
        else:
            points += zip(*dims)
    return points


def _event_functions(source):
    return re.findall(r"^def _ev_\w+\(.*?(?=^def )", source, re.S | re.M)


def test_every_event_side_scans_box_rows(monkeypatch):
    """On the spine programs every emitted side takes the row path, one
    row per conjunct of its simplified scan set and no point list, and
    ``_emit_event`` never enters ``split_disjoint``."""
    inside, entered = [0], []

    def counted(real):
        def split_disjoint(subset):
            if inside[0]:
                entered.append(subset)
            return real(subset)
        return split_disjoint

    real_emit = _BodyEmitter._emit_event

    def emit_event(self, event):
        inside[0] += 1
        try:
            return real_emit(self, event)
        finally:
            inside[0] -= 1

    monkeypatch.setattr(_BodyEmitter, "_emit_event", emit_event)
    monkeypatch.setattr(ops, "split_disjoint", counted(ops.split_disjoint))
    sides = rows = 0
    for name in programs.__all__:
        compiled = compile_program(_program_source(name))
        for analysis in compiled.analyses.values():
            for event in analysis.events:
                for side in ("send", "recv"):
                    shape = compiled.module.scan_shapes.get((event.tag, side))
                    if shape is None:
                        continue
                    scan = getattr(event.sets, f"{side}_scan_map")
                    scan_set = IntegerSet(
                        Space(scan.out_dims), scan.conjuncts
                    ).simplify(full=True)
                    assert shape == (len(scan_set.conjuncts), 0), (
                        name, event.tag, side
                    )
                    sides += 1
                    rows += shape[0]
        if name == "jacobi":
            assert "      send: 4 rows" in compiled.listing()
            (ev0,) = [
                fn for fn in _event_functions(compiled.source)
                if fn.startswith("def _ev_main_ev0(")
            ]
            assert len(ev0.encode()) <= 6_000
        for fn in _event_functions(compiled.source):
            for line in fn.splitlines():
                if line.lstrip().startswith("if "):
                    assert line.count(" and ") + 1 <= 8, (name, line)
    assert (sides, rows) == (22, 46)
    assert entered == []


SPINE = Path(__file__).resolve().parents[2] / "benchmarks" / "spine"


def test_each_message_carries_each_element_once(monkeypatch):
    """On the spine programs at check size, every emitted side takes one
    union per partner (one ``disjoint_sections(`` call, in its transfer
    loop, and no inline section), so every message's sections are
    pairwise disjoint."""
    monkeypatch.syspath_prepend(str(SPINE))
    from plans import PROGRAMS

    messages = []
    real_pack = machine.pack_sections

    def pack_sections(array, lbounds, sections, force_copy):
        messages.append(sections)
        return real_pack(array, lbounds, sections, force_copy)

    monkeypatch.setattr(machine, "pack_sections", pack_sections)
    for name, program in PROGRAMS.items():
        compiled = compile_program(program.source)
        for fn in _event_functions(compiled.source):
            assert "('S', (" not in fn, name
            lines = fn.splitlines()
            sides = [k for k, line in enumerate(lines) if "_bufs_" in line
                     and line.rstrip().endswith(" = {}")]
            calls = [k for k, line in enumerate(lines)
                     if "disjoint_sections(" in line]
            assert len(calls) == len(sides) > 0, name
            for k in calls:
                assert lines[k - 1].lstrip().startswith(
                    "for _q, (_r, _p) in sorted(_bufs_"
                ), (name, lines[k])
        del messages[:]
        run_compiled(
            compiled, program.check, program.check_nprocs,
            backend="inproc-seq",
        )
        assert messages, name
        for sections in messages:
            rows = [
                tuple((start, start + (count - 1) * step, step)
                      for start, count, step in dims)
                for kind, dims in sections if kind == "S"
            ]
            points = [
                point for kind, dims in sections if kind == "F"
                for point in zip(*dims)
            ]
            assert message_count(sections) == disjoint_sections(
                rows, points, count=True
            ), name


def test_non_box_conjunct_becomes_an_exact_point_list():
    """A triangular conjunct overlapping a box: one row plus one point
    list, and at ground values the partner's union holds exactly the
    set's points."""
    subset = parse_set(
        "{[d0,d1] : 1 <= d0 <= n and d0 <= d1 <= n or "
        "2 <= d0 <= m and 1 <= d1 <= 3}"
    ).simplify(full=True)
    env = {"n": 6, "m": 4}
    expected = enumerate_points(subset, env)
    body = _BodyEmitter.__new__(_BodyEmitter)
    body.w = SourceWriter()
    assert body._emit_rows(subset, {}) == (1, 1)
    namespace = {}
    exec(PRELUDE, namespace)
    namespace.update(env, _r=[], _p=[])
    exec(body.w.text(), namespace)
    rows, points = namespace["_r"], namespace["_p"]
    sections = disjoint_sections(rows, points)
    assert sorted(_section_points(sections)) == expected  # no duplicates
    assert disjoint_sections(rows, points, count=True) == len(expected)
    assert _scan_shape(1, 1) == "1 row, 1 point list (conjunct not a box)"
