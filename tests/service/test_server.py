"""The compile server end to end: HTTP protocol, caching kinds,
single-flight coalescing, typed failure behaviour, CLI verbs."""

import http.client
import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import CompilerOptions, compile_program, run_compiled
from repro.__main__ import main
from repro.service import ServiceClient, create_server

PROGRAM = """
program served
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


def variant(tag: int) -> str:
    """A distinct program (and therefore fingerprint) per tag."""
    return PROGRAM.replace("a(i) = 0.0", f"a(i) = {float(tag)}")


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    root = tmp_path_factory.mktemp("service-store")
    server = create_server(port=0, cache_dir=str(root))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


@pytest.fixture
def client(server):
    with ServiceClient(host=server.server_address[0],
                       port=server.server_address[1]) as client:
        yield client


def test_healthz(client):
    assert client.healthz() == {"ok": True}


def test_livez_and_ready_split(client):
    # Liveness and readiness agree while the server is healthy; the
    # split only diverges during drain (covered in test_pool.py).
    assert client.livez() == {"ok": True}
    assert client.ready() is True


def test_cold_then_hot_compile_byte_identical(client):
    cold = client.compile(variant(1))
    warm = client.compile(variant(1))
    assert cold["ok"] and warm["ok"]
    assert cold["cache"] == "cold"
    assert warm["cache"] == "hot"
    assert warm["fingerprint"] == cold["fingerprint"]
    assert warm["artifact_sha256"] == cold["artifact_sha256"]
    # And identical to a single-client in-process compile.
    from repro.service.protocol import sha256_text

    local = compile_program(variant(1), CompilerOptions())
    assert sha256_text(local.source) == cold["artifact_sha256"]


def test_caching_off_bypass_is_byte_identical(client):
    on = client.compile(variant(2))
    off = client.compile(variant(2), options={"caching": "off"})
    assert off["cache"] == "bypass"
    assert off["artifact_sha256"] == on["artifact_sha256"]


def test_concurrent_identical_requests_single_flight(client, server):
    source = variant(3)
    before = server.service.flight.led_total

    def submit(_):
        with ServiceClient(host=server.server_address[0],
                           port=server.server_address[1]) as c:
            return c.compile(source)

    with ThreadPoolExecutor(max_workers=8) as pool:
        responses = list(pool.map(submit, range(8)))
    kinds = sorted(r["cache"] for r in responses)
    assert all(r["ok"] for r in responses)
    # Exactly one compile ran; everything else coalesced onto it or hit
    # the store just after it finished.
    assert kinds.count("cold") == 1
    assert set(kinds) <= {"cold", "coalesced", "hot"}
    assert server.service.flight.led_total == before + 1
    shas = {r["artifact_sha256"] for r in responses}
    assert len(shas) == 1


def test_run_matches_in_process_run(client):
    response = client.run(variant(4), params={"n": 14}, nprocs=2)
    assert response["ok"] and response["validated"]
    outcome = response["outcome"]
    local = run_compiled(
        compile_program(variant(4), CompilerOptions()),
        params={"n": 14}, nprocs=2,
    )
    assert outcome["backend"] == "threads"
    assert outcome["nprocs"] == 2
    assert outcome["messages"] == local.stats.total_messages
    assert outcome["payload_bytes"] == local.stats.total_bytes
    assert outcome["attempts"][-1]["outcome"] == "ok"


def test_faulted_run_returns_typed_error_and_server_survives(client):
    # Short receive timeout: the surviving rank notices the crashed
    # peer quickly instead of waiting out the 60 s default.
    response = client.run(
        variant(4), params={"n": 14}, nprocs=2,
        fault_spec="crash:rank=1:n=1", recv_timeout_s=2.0,
    )
    assert response["ok"] is False
    assert response["error"]["type"] == "RankCrashError"
    assert response["error"]["transient"] is True
    assert response["error"]["attempts"][-1]["outcome"] == "RankCrashError"
    # The failure was contained to that request.
    assert client.healthz() == {"ok": True}
    assert client.run(variant(4), params={"n": 14}, nprocs=2)["ok"]


def test_supervised_retry_expires_injected_fault(client):
    response = client.run(
        variant(4), params={"n": 14}, nprocs=2,
        fault_spec="crash:rank=1:n=1:attempts=1", retries=2,
        recv_timeout_s=2.0,
    )
    assert response["ok"] is True
    attempts = response["outcome"]["attempts"]
    assert [a["outcome"] for a in attempts] == ["RankCrashError", "ok"]


def test_bad_requests_are_400(client):
    bad_option = client.compile(PROGRAM, options={"bogus": 1})
    assert bad_option["ok"] is False
    assert bad_option["error"]["type"] == "BadRequest"
    # A known field with a value no compile path handles is refused too,
    # naming the field.
    for field, value in (("buffer_mode", "drect"), ("inplace", "no"),
                         ("compute", "bogus"), ("caching", "maybe")):
        response = client.compile(PROGRAM, options={field: value})
        assert response["ok"] is False, field
        assert response["error"]["type"] == "BadRequest", field
        assert field in response["error"]["message"], field
    empty = client.request("POST", "/compile", payload={"source": "  "})
    assert empty["ok"] is False
    missing = client.request("GET", "/nowhere")
    assert missing["ok"] is False and missing["error"]["type"] == "NotFound"


def test_removed_option_is_a_400_not_a_silent_default(server):
    """A knob that no longer exists must be refused at the wire, never
    compiled as if it had not been sent."""
    conn = http.client.HTTPConnection(*server.server_address[:2], timeout=30)
    try:
        conn.request(
            "POST", "/compile",
            body=json.dumps({
                "source": PROGRAM, "options": {"dataplane": "elements"},
            }),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        data = json.loads(response.read())
    finally:
        conn.close()
    assert response.status == 400
    assert data["error"]["type"] == "BadRequest"
    assert "unknown or forbidden option field" in data["error"]["message"]
    assert "dataplane" in data["error"]["message"]


def test_two_services_in_one_process_share_no_artifacts(tmp_path):
    from repro.service.server import CompileService

    a = CompileService(cache_dir=str(tmp_path / "a"), memory_artifacts=64)
    b = CompileService(cache_dir=str(tmp_path / "b"), memory_artifacts=2)
    assert a.compile_source(variant(40))[1]["cache"] == "cold"
    # B never compiled nor stored it: its first answer is its own compile.
    assert b.compile_source(variant(40))[1]["cache"] == "cold"
    assert b.compile_source(variant(40))[1]["cache"] == "hot"
    # Each service honours its own in-memory bound...
    for tag in (41, 42):
        b.compile_source(variant(tag))
    assert (a._mem.maxsize, b._mem.maxsize) == (64, 2)
    assert len(b._mem) == 2 and len(a._mem) == 1
    # ...and reports its own counters under the name it always had.
    assert b.stats()["memo_caches"]["service.artifacts"]["evictions"] == 1
    assert a.stats()["memo_caches"]["service.artifacts"]["evictions"] == 0


def test_stats_shape(client, server):
    client.compile(variant(1))  # guarantee at least one hot hit
    stats = client.stats()
    assert stats["ok"]
    totals = stats["store"]["totals"]
    assert set(totals) == {"entries", "bytes", "hits", "misses",
                          "stores", "evictions"}
    assert stats["store"]["dir"] == str(server.service.store.root)
    assert stats["store"]["capacity"] == 2048
    assert stats["single_flight"]["led"] >= 1
    assert stats["queue_depth"]["peak"] >= 1
    latency = stats["latency"]
    assert "compile_cold" in latency and latency["compile_cold"]["count"]
    assert latency["compile_cold"]["p99_ms"] >= latency["compile_cold"]["p50_ms"] * 0 + 0
    assert "run" in latency
    assert stats["counters"]["run.ok"] >= 1


# -- one artifact store: the service and the CLI share the directory ------


def test_cli_compile_is_served_hot(tmp_path):
    from repro.service.server import CompileService

    compile_program(variant(50), CompilerOptions(cache_dir=str(tmp_path)))
    service = CompileService(cache_dir=str(tmp_path))
    assert service.compile_source(variant(50))[1]["cache"] == "hot"


def test_service_compile_is_cli_cache_hit(tmp_path):
    from repro.service.server import CompileService

    service = CompileService(cache_dir=str(tmp_path))
    assert service.compile_source(variant(51))[1]["cache"] == "cold"
    compiled = compile_program(
        variant(51), CompilerOptions(cache_dir=str(tmp_path))
    )
    assert compiled.cache_hit


def test_cache_stats_and_clear_see_service_artifacts(tmp_path, capsys):
    from repro.service.server import CompileService

    service = CompileService(cache_dir=str(tmp_path))
    for tag in (52, 53):
        service.compile_source(variant(tag))
    assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
    assert "artifacts: 2 " in capsys.readouterr().out
    assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
    assert "removed 2 artifact(s)" in capsys.readouterr().out
    assert list(tmp_path.rglob("cc-*.pkl")) == []


# -- CLI verbs -------------------------------------------------------------


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "prog.hpf"
    path.write_text(variant(5))
    return str(path)


def test_submit_text_output(server, program_file, capsys):
    port = str(server.server_address[1])
    assert main(["submit", program_file, "--port", port,
                 "--nprocs", "2", "--param", "n=14"]) == 0
    out = capsys.readouterr().out
    assert "fingerprint:" in out
    assert "validation:  OK" in out


def test_submit_json_output(server, program_file, capsys):
    port = str(server.server_address[1])
    assert main(["submit", program_file, "--port", port, "--json",
                 "--nprocs", "2", "--param", "n=14"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["cache"] in ("hot", "cold", "coalesced")
    assert payload["outcome"]["nprocs"] == 2
    assert payload["outcome"]["cache_delta"] is not None
    assert payload["outcome"]["scalars"] == {}


def test_submit_compile_only_json(server, program_file, capsys):
    port = str(server.server_address[1])
    assert main(["submit", program_file, "--port", port, "--json",
                 "--compile-only"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert "outcome" not in payload
    assert len(payload["fingerprint"]) == 64


def test_submit_failure_exit_code(server, program_file, capsys):
    port = str(server.server_address[1])
    assert main(["submit", program_file, "--port", port, "--json",
                 "--nprocs", "2", "--param", "n=14",
                 "--fault-spec", "crash:rank=0:n=1",
                 "--recv-timeout", "2.0"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert payload["error"]["type"] == "RankCrashError"
