"""Compiler option flags (optimization toggles for the ablation studies)."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional


@dataclass
class CompilerOptions:
    """Optimization switches of the dHPF reproduction.

    Every flag corresponds to an optimization the paper describes; the
    ablation benchmarks flip them individually.
    """

    #: message coalescing (§3.2): merge same-array, same-placement refs.
    coalesce: bool = True
    #: in-place communication recognition (§3.3).
    inplace: bool = True
    #: non-local index-set splitting (§3.4 / Figure 4).
    loop_split: bool = False
    #: restrict VP loops to active virtual processors (§4.1 / Figure 5).
    active_vp: bool = True
    #: buffer handling: 'overlap' unpacks into array storage (copy cost);
    #: 'direct' references received data in place (check cost unless the
    #: loop is split).
    buffer_mode: str = "overlap"
    #: compute plane: 'kernels' lowers qualifying innermost affine loop
    #: pieces to numpy strided-slice statements (recognized reductions
    #: become ``np.max``/``np.min``/``np.sum`` partials feeding the
    #: existing allreduce); statements that fail qualification fall back
    #: per-statement to the interpreted scalar loop.  'scalar' keeps every
    #: statement in the per-point loop (A/B oracle).
    compute: str = "kernels"
    #: 'on' memoizes the pure set operations and enables the persistent
    #: compile cache; 'off' bypasses every cache layer (uncached A/B path,
    #: required to emit byte-identical programs).
    caching: str = "on"
    #: directory of the persistent compile cache; ``None`` disables
    #: persistence (the CLI defaults this from ``$REPRO_CACHE_DIR``).
    #: Not part of the artifact fingerprint.
    cache_dir: Optional[str] = None
    #: attach a per-compile integer-set operation profiler: op counters,
    #: time and size histograms for intersect/subtract/then/project_out/
    #: normalize/redundancy/emptiness, surfaced through ``PhaseTimer``
    #: (``set_stats``) and the ``--profile-sets`` CLI flag.  Observability
    #: only — never changes compile results; not part of the fingerprint.
    profile_sets: bool = False

    def __post_init__(self) -> None:
        """Reject a value no compile path handles, naming the field, so
        a typo is refused where the options are built (the service maps
        the ``ValueError`` to HTTP 400) instead of compiling as if it
        were some other value."""
        for name, allowed in _CHOICES.items():
            value = getattr(self, name)
            if value not in allowed:
                raise ValueError(
                    f"CompilerOptions.{name} must be "
                    f"{' or '.join(map(repr, allowed))}, got {value!r}"
                )
        for name in _SWITCHES:
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise ValueError(
                    f"CompilerOptions.{name} must be a bool, got {value!r}"
                )
        if not isinstance(self.cache_dir, (str, type(None))):
            raise ValueError(
                f"CompilerOptions.cache_dir must be a str or None, "
                f"got {self.cache_dir!r}"
            )

    def with_(self, **changes) -> "CompilerOptions":
        return replace(self, **changes)


_CHOICES = {
    "buffer_mode": ("overlap", "direct"),
    "compute": ("kernels", "scalar"),
    "caching": ("on", "off"),
}
_SWITCHES = ("coalesce", "inplace", "loop_split", "active_vp", "profile_sets")
