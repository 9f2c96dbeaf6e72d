"""Unit tests for the compiler driver and its instrumentation."""

import pytest

from repro import CompilerOptions, compile_program
from repro.core.phases import PhaseTimer
from repro.isets import NonAffineError
from repro.lang import SemanticError

STENCIL = """
program s
  parameter n
  real a(n), b(n)
  processors p(nprocs)
  template t(n)
  align a(i) with t(i)
  align b(i) with t(i)
  distribute t(block) onto p
  do iter = 1, 3
    do i = 2, n - 1
      a(i) = b(i-1) + b(i+1)
    end do
    do i = 2, n - 1
      b(i) = a(i)
    end do
  end do
end
"""


class TestDriver:
    def test_compiled_program_structure(self):
        compiled = compile_program(STENCIL)
        assert "main" in compiled.analyses
        analysis = compiled.analyses["main"]
        assert len(analysis.cps) == 2
        assert len(analysis.events) == 1
        event = analysis.events[0]
        assert event.tag.startswith("main_ev")
        assert event.outer_iters is not None
        assert event.outer_iters.space.in_dims == ("iter",)

    def test_phase_timings_recorded(self):
        compiled = compile_program(STENCIL)
        report = dict(
            (name, seconds)
            for name, seconds, _ in compiled.phases.report()
        )
        for phase in (
            "parse", "data_mapping", "partitioning",
            "communication_generation", "codegen",
        ):
            assert phase in report
            assert report[phase] >= 0.0

    def test_phase_timer_nesting_and_format(self):
        timer = PhaseTimer()
        with timer.phase("outer"):
            with timer.phase("inner"):
                pass
        assert "outer/inner" in timer.totals
        table = timer.format_table("title")
        assert "title" in table and "outer" in table

    def test_loop_split_option_computes_sections(self):
        compiled = compile_program(
            STENCIL, CompilerOptions(loop_split=True)
        )
        assert compiled.analyses["main"].splits
        assert "loop splitting" in compiled.source

    def test_inplace_disabled_skips_analysis(self):
        compiled = compile_program(
            STENCIL, CompilerOptions(inplace=False)
        )
        for event in compiled.analyses["main"].events:
            assert event.inplace_send is None

    def test_ast_input_accepted(self):
        from repro.lang import parse_program

        compiled = compile_program(parse_program(STENCIL))
        assert compiled.source


class TestRejections:
    @pytest.mark.parametrize("field,value", [
        ("buffer_mode", "drect"), ("compute", "bogus"),
        ("caching", "maybe"), ("inplace", "no"), ("coalesce", 1),
        ("profile_sets", None), ("cache_dir", 7),
    ])
    def test_options_refused_where_built(self, field, value):
        with pytest.raises(ValueError, match=f"CompilerOptions.{field}"):
            CompilerOptions(**{field: value})
        with pytest.raises(ValueError, match=f"CompilerOptions.{field}"):
            CompilerOptions().with_(**{field: value})

    def test_nonaffine_subscript_rejected(self):
        src = STENCIL.replace("b(i-1)", "b(i*i)")
        with pytest.raises(Exception) as info:
            compile_program(src)
        assert isinstance(
            info.value, (NonAffineError, SemanticError, Exception)
        )

    def test_symbolic_loop_stride_rejected(self):
        src = STENCIL.replace(
            "do i = 2, n - 1\n      a(i)",
            "do i = 2, n - 1, n\n      a(i)",
        )
        with pytest.raises(SemanticError):
            compile_program(src)

    def test_unknown_template_rejected(self):
        src = STENCIL.replace("with t(i)", "with zz(i)", 1)
        with pytest.raises(SemanticError):
            compile_program(src)


class TestListing:
    def test_listing_reports_cps_and_events(self):
        compiled = compile_program(STENCIL)
        listing = compiled.listing()
        assert "ON_HOME a(i)" in listing
        assert "event main_ev0" in listing
        assert "send = {" in listing and "recv = {" in listing
        assert "in-place:" in listing

    def test_listing_reports_active_vps_for_cyclic(self):
        src = STENCIL.replace("distribute t(block)", "distribute t(cyclic)")
        compiled = compile_program(src)
        assert "activeSendVPSet" in compiled.listing()
