"""Wire protocol of the compile service: JSON shapes, one place.

Requests and responses are plain JSON dicts; this module owns every
conversion between them and the in-process types, so the HTTP handler,
the client, the ``repro submit --json`` CLI, and the load harness all
agree on field names by construction.

Request → types:

* :func:`options_from_wire` — client ``options`` dict →
  :class:`~repro.core.options.CompilerOptions`.  Unknown fields are
  rejected (a typo must not silently compile with defaults), and the
  cache-placement fields are server-controlled: clients may choose
  ``caching`` ("on"/"off" — the A/B path), never ``cache_dir``.

Types → response:

* :func:`outcome_to_wire` — a :class:`~repro.runtime.harness.RunOutcome`
  as machine-readable JSON (stats, timings, attempts, the per-compile
  cache delta);
* :func:`error_to_wire` — a typed runtime failure with its taxonomy name
  and transience, so a client can branch exactly like in-process callers
  branch on the exception class.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Dict, Optional

from ..core.options import CompilerOptions
from ..runtime.errors import CommunicationError, is_transient

#: CompilerOptions fields a client may set over the wire.  ``cache_dir``
#: is excluded on purpose: artifact placement belongs to the server.
WIRE_OPTION_FIELDS = frozenset(
    f.name for f in dataclasses.fields(CompilerOptions)
) - {"cache_dir"}


class BadRequest(ValueError):
    """The request payload is malformed (maps to HTTP 400)."""


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def options_from_wire(data: Optional[Dict[str, object]]) -> CompilerOptions:
    data = data or {}
    if not isinstance(data, dict):
        raise BadRequest("'options' must be an object")
    unknown = set(data) - WIRE_OPTION_FIELDS
    if unknown:
        raise BadRequest(
            f"unknown or forbidden option field(s): {sorted(unknown)}"
        )
    try:
        return CompilerOptions(**data)
    except (TypeError, ValueError) as exc:
        raise BadRequest(f"bad options: {exc}")


def attempts_to_wire(attempts) -> list:
    return [
        {
            "attempt": record.attempt,
            "backend": record.backend,
            "outcome": record.outcome,
            "error": record.error,
            "wall_ms": round(record.wall_s * 1e3, 3),
            "backoff_ms": round(record.backoff_s * 1e3, 3),
        }
        for record in attempts
    ]


def outcome_to_wire(outcome) -> Dict[str, object]:
    """Machine-readable :class:`RunOutcome` (the ``--json`` shape)."""
    stats = outcome.stats
    return {
        "backend": outcome.backend,
        "nprocs": outcome.nprocs,
        "messages": stats.total_messages,
        "payload_bytes": stats.total_bytes,
        "copies": stats.total_copies,
        "bytes_copied": stats.total_bytes_copied,
        "bytes_viewed": stats.total_bytes_viewed,
        "predicted_ms": round(outcome.predicted_time * 1e3, 6),
        "serial_ms": round(outcome.serial_time * 1e3, 6),
        "speedup": round(outcome.speedup, 4),
        "measured_wall_ms": round(outcome.max_rank_wall_s * 1e3, 3),
        "launch_wall_ms": round(outcome.launch_wall_s * 1e3, 3),
        "scalars": {
            name: float(value)
            for name, value in sorted(outcome.results[0].scalars.items())
        },
        "cache_delta": outcome.cache_stats,
        "attempts": attempts_to_wire(outcome.attempts),
        # Scheduler counters (taskgraph backend): steals, ready depth,
        # critical path, per-SCC seconds; None for other backends.
        "scheduler": stats.scheduler,
    }


def error_to_wire(exc: BaseException) -> Dict[str, object]:
    """A typed failure as JSON; mirrors the exception taxonomy.

    ``wire_type`` (when present) overrides the class name: a compile
    failure relayed from a pool worker reports the *original* exception
    type, so pooled and single-process services emit identical errors.
    """
    payload: Dict[str, object] = {
        "type": getattr(exc, "wire_type", type(exc).__name__),
        "message": str(exc),
        "transient": (
            is_transient(exc) if isinstance(exc, CommunicationError)
            else False
        ),
    }
    attempts = getattr(exc, "attempts", None)
    if attempts:
        payload["attempts"] = attempts_to_wire(attempts)
    retry_after = getattr(exc, "retry_after_s", None)
    if retry_after is not None:
        payload["retry_after_s"] = retry_after
    return payload


def compile_meta_to_wire(fingerprint: str, cache_kind: str,
                         compile_ms: float, source_sha: str,
                         artifact_sha: str) -> Dict[str, object]:
    """The compile-side fields shared by /compile and /run responses."""
    return {
        "fingerprint": fingerprint,
        "cache": cache_kind,
        "compile_ms": round(compile_ms, 3),
        "source_sha256": source_sha,
        "artifact_sha256": artifact_sha,
    }
