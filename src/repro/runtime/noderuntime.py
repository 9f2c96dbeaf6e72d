"""The abstract runtime API generated node programs run against.

The SPMD emitter targets exactly this surface: ``rt.send_section`` /
``rt.recv_section`` for descriptor-based communication (per-element
``rt.send`` / ``rt.recv`` remain for hand-written node programs),
``rt.allreduce`` / ``rt.barrier``
for collectives, ``rt.work`` / ``rt.check`` for cost accounting,
``rt.member`` for fallback set guards, and the ``env`` / ``arrays`` /
``lbounds`` / ``scalars`` / ``red_base`` / ``inplace`` state
dictionaries.  Each execution backend provides a concrete
subclass: the thread-simulated :class:`~repro.runtime.machine.NodeRuntime`,
and the multiprocess worker's shared-memory implementation in
:mod:`repro.runtime.backends.mp`.

Only the four communication primitives differ between backends; state
handling, tracing hooks, and guard evaluation are shared here.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, List, Tuple

import numpy as np

from .errors import CommunicationError
from .faults import OP_OF_METHOD
from .trace import Trace


class NodeRuntimeBase(abc.ABC):
    """Backend-independent half of the node-program runtime protocol."""

    #: does this runtime own its OS process?  Controls whether a ``kill``
    #: fault may deliver a real signal (mp workers) or must degrade to an
    #: in-process crash (threads / inproc-seq share the interpreter).
    out_of_process: bool = False

    def __init__(
        self,
        rank: int,
        nprocs: int,
        env: Dict[str, int],
        arrays: Dict[str, np.ndarray],
        lbounds: Dict[str, Tuple[int, ...]],
        scalars: Dict[str, float],
    ):
        self.rank = rank
        self.nprocs = nprocs
        self.env = env
        self.arrays = arrays
        self.lbounds = lbounds
        self.scalars = scalars
        self.trace = Trace(rank)
        #: membership closures for guards the emitter could not express
        #: inline; registered by the harness.
        self.member_fns: List[Callable[..., bool]] = []
        #: pre-nest values of '+'-reduction scalars.
        self.red_base: Dict[str, float] = {}
        #: runtime-evaluated in-place contiguity flags, by name.
        self.inplace: Dict[str, bool] = {}
        #: last phase this rank entered — crash-report fodder
        #: (startup → compute / send / recv / collective / step).
        self.phase: str = "startup"
        #: armed fault injector, if any (set by ``faults.arm_runtime``).
        self.faults = None
        self._install_phase_tracking()

    def _install_phase_tracking(self) -> None:
        """Wrap the op methods so ``self.phase`` always names the phase.

        Instance-level wrapping covers every backend's concrete
        implementation uniformly; on failure the phase is left at the op
        that raised (the wrapper only resets it on success), so crash
        reports can say *where* a rank died.
        """
        for name, phase in OP_OF_METHOD.items():
            original = getattr(self, name)
            setattr(self, name, self._phased(original, phase))

    def _phased(self, original: Callable, phase: str) -> Callable:
        def tracked(*args, **kwargs):
            self.phase = phase
            result = original(*args, **kwargs)
            self.phase = "compute"
            return result

        return tracked

    # -- communication (backend-specific) ---------------------------------------

    @abc.abstractmethod
    def send(
        self, dest: int, tag, values, indices=None, inplace: bool = False
    ) -> None:
        """Buffered (non-blocking) send of ``values`` to ``dest``."""

    @abc.abstractmethod
    def recv(self, src: int, tag, inplace: bool = False):
        """Blocking receive; returns ``(indices, values)`` from ``src``."""

    @abc.abstractmethod
    def send_section(
        self, dest: int, tag, name: str, sections, inplace: bool = False
    ) -> None:
        """Buffered send of array ``name``'s ``sections`` to ``dest``.

        ``sections`` is a list of section descriptors (see
        :mod:`repro.runtime.sections`) in global index coordinates; the
        payload is gathered with vectorized numpy slice reads (zero-copy
        where the transport allows it) and the descriptors travel with
        the message.
        """

    @abc.abstractmethod
    def recv_section(
        self, src: int, tag, name: str, inplace: bool = False, count=None
    ) -> None:
        """Blocking receive scattering directly into array ``name``.

        Uses the descriptors the *sender* shipped (minus this rank's
        allocation lower bounds), so no enumeration-order agreement is
        required; the payload is written via strided views instead of
        index-by-index assignments.  ``count``, when given, is the
        element count the receiver computed for this message; a payload
        of any other size raises :class:`CommunicationError` before
        anything is scattered.
        """

    def _check_count(self, src: int, tag, received: int, count) -> None:
        if count is not None and received != count:
            raise CommunicationError(
                f"rank {self.rank}: message {tag!r} from {src} holds "
                f"{received} elements, expected {count}"
            )

    @abc.abstractmethod
    def allreduce(self, op: str, value: float) -> float:
        """Combine ``value`` across all ranks with ``op`` in {'+','max','min'}."""

    @abc.abstractmethod
    def barrier(self) -> None:
        """Block until every rank reaches the barrier."""

    # -- accounting (shared) ----------------------------------------------------

    def work(self, amount: float, vectorized: bool = False) -> None:
        self.trace.compute(amount, vectorized=vectorized)

    def check(self, count: int = 1) -> None:
        self.trace.check(count)

    def member(self, index: int, point, overrides=None) -> bool:
        env = dict(self.env)
        if overrides:
            env.update(overrides)
        return self.member_fns[index](env, point)
