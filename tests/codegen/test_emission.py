"""Unit tests for Python-source emission and generated-module structure."""

import ast
import re

import pytest

from repro import CompilerOptions, compile_program, programs
from repro.codegen.pyexpr import (
    SourceWriter,
    emit_conjunct_guard,
    emit_linexpr,
    emit_set_guard,
)
from repro.isets import LinExpr, parse_set

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
    assert compiled.source.count("_fidx.append") < 10


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
