"""Integration tests for the command-line interface."""

import pytest

from repro.__main__ import main

PROGRAM = """
program cli
  parameter n
  real a(n), b(n)
  processors p(nprocs)
  template t(n)
  align a(i) with t(i)
  align b(i) with t(i)
  distribute t(block) onto p
  do i = 1, n
    b(i) = i
    a(i) = 0.0
  end do
  do i = 2, n - 1
    a(i) = b(i-1) + b(i+1)
  end do
end
"""


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "prog.hpf"
    path.write_text(PROGRAM)
    return str(path)


def test_compile_listing(program_file, capsys):
    assert main(["compile", program_file]) == 0
    out = capsys.readouterr().out
    assert "ON_HOME a(i)" in out and "event main_ev0" in out


def test_compile_source(program_file, capsys):
    assert main(["compile", program_file, "--source"]) == 0
    out = capsys.readouterr().out
    assert "def node_main(rt):" in out


def test_compile_phases(program_file, capsys):
    assert main(["compile", program_file, "--phases"]) == 0
    assert "partitioning" in capsys.readouterr().out


def test_run_validates(program_file, capsys):
    code = main([
        "run", program_file, "--nprocs", "3", "--param", "n=17",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "validation: OK" in out
    assert "messages:" in out


def test_run_mp_backend_reports_wallclock(program_file, capsys):
    code = main([
        "run", program_file, "--backend", "mp", "--nprocs", "4",
        "--param", "n=17",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "validation: OK" in out
    assert "backend:    mp" in out
    assert "measured wall-clock" in out
    for rank in range(4):
        assert f"rank {rank}:" in out


def test_run_inproc_seq_backend(program_file, capsys):
    code = main([
        "run", program_file, "--backend", "inproc-seq", "--nprocs", "2",
        "--param", "n=17", "--recv-timeout", "5",
    ])
    assert code == 0
    assert "backend:    inproc-seq" in capsys.readouterr().out


def test_run_unknown_backend_rejected(program_file):
    with pytest.raises(SystemExit, match="unknown execution backend"):
        main([
            "run", program_file, "--backend", "warp-drive",
            "--param", "n=17",
        ])


def test_run_zero_nprocs_rejected(program_file):
    with pytest.raises(SystemExit, match="nprocs must be at least 1"):
        main(["run", program_file, "--nprocs", "0", "--param", "n=17"])


def test_run_with_options(program_file, capsys):
    code = main([
        "run", program_file, "--nprocs", "2", "--param", "n=17",
        "--no-coalesce", "--loop-split", "--buffer-mode", "direct",
    ])
    assert code == 0
    assert "validation: OK" in capsys.readouterr().out


def test_sets_enumeration(capsys):
    code = main([
        "sets", "{[i] : 1 <= i <= 9 and exists(a : i = 2a)}",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "4 point(s):" in out


def test_sets_with_params(capsys):
    code = main(["sets", "{[i] : 1 <= i <= n}", "--param", "n=3"])
    assert code == 0
    assert "3 point(s):" in capsys.readouterr().out


@pytest.mark.parametrize("argv, message", [
    (["sets", "{[i]: 1 <= i <= }"], "error: "),
    (["run", "/no/such.hpf"], "error: [Errno 2]"),
    (["submit", "PROGRAM", "--port", "1"], "Connection refused"),
], ids=["sets-parse-error", "missing-program", "no-server"])
def test_user_mistake_is_one_line_and_exit_1(
    argv, message, program_file, capsys
):
    argv = [program_file if arg == "PROGRAM" else arg for arg in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert message in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_bad_param_rejected(program_file):
    with pytest.raises(SystemExit):
        main(["run", program_file, "--param", "oops"])


def test_compile_with_cache_dir_warm_start(program_file, tmp_path, capsys):
    cache_dir = str(tmp_path / "cc")
    assert main([
        "compile", program_file, "--phases", "--cache-dir", cache_dir,
    ]) == 0
    cold_out = capsys.readouterr().out
    assert "served from the compile cache" not in cold_out
    assert main([
        "compile", program_file, "--phases", "--cache-dir", cache_dir,
    ]) == 0
    warm_out = capsys.readouterr().out
    assert "served from the compile cache" in warm_out


def test_run_reports_cache_lines(program_file, tmp_path, capsys):
    cache_dir = str(tmp_path / "cc")
    args = [
        "run", program_file, "--nprocs", "2", "--param", "n=17",
        "--backend", "inproc-seq", "--cache-dir", cache_dir,
    ]
    assert main(args) == 0
    cold_out = capsys.readouterr().out
    assert "set-op memoization:" in cold_out
    assert main(args) == 0
    warm_out = capsys.readouterr().out
    assert "compile cache: warm (artifact reused)" in warm_out
    assert "validation: OK" in warm_out


def test_caching_off_flag(program_file, capsys):
    assert main([
        "compile", program_file, "--source", "--caching", "off",
    ]) == 0
    off_src = capsys.readouterr().out
    assert main(["compile", program_file, "--source"]) == 0
    assert capsys.readouterr().out == off_src


def test_cache_stats_and_clear(program_file, tmp_path, capsys):
    cache_dir = str(tmp_path / "cc")
    assert main(["compile", program_file, "--cache-dir", cache_dir]) == 0
    capsys.readouterr()
    assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert "artifacts: 1" in out
    assert "in-process memoization caches:" in out
    assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
    assert "removed 1 artifact(s)" in capsys.readouterr().out
    assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
    assert "artifacts: 0" in capsys.readouterr().out
