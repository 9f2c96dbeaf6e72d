"""Unit tests for the simulated message-passing machine."""

import numpy as np
import pytest

from repro.runtime.machine import (
    CommunicationError,
    Machine,
    NodeRuntime,
)


def _make_runtime_factory(scalars=None, size=0):
    """Each rank gets a zeroed array ``a`` of ``size`` elements."""
    def make(rank, machine):
        return NodeRuntime(
            machine, rank, {"rank": rank}, {"a": np.zeros(size)},
            {"a": (0,)}, dict(scalars or {}),
        )
    return make


def _span(lo, count):
    """One strided section of ``a``: ``count`` elements from ``lo``."""
    return [("S", ((lo, count, 1),))]


def test_point_to_point_roundtrip():
    def node(rt):
        a = rt.arrays["a"]
        if rt.rank == 0:
            a[1:3] = [1.0, 2.0]
            rt.send_section(1, "t", "a", _span(1, 2))
        else:
            rt.recv_section(0, "t", "a", count=2)
            assert list(a) == [0.0, 1.0, 2.0]

    Machine(2).run(node, _make_runtime_factory(size=3))


def test_allreduce_ops():
    results = {}

    def node(rt):
        results[("max", rt.rank)] = rt.allreduce("max", rt.rank * 10)
        results[("sum", rt.rank)] = rt.allreduce("+", 1.0)

    Machine(3).run(node, _make_runtime_factory())
    assert results[("max", 0)] == 20
    assert results[("sum", 2)] == 3.0


def test_exchange_does_not_deadlock():
    def node(rt):
        other = 1 - rt.rank
        rt.arrays["a"][rt.rank] = float(rt.rank)
        rt.send_section(other, "x", "a", _span(rt.rank, 1))
        rt.recv_section(other, "x", "a", count=1)
        assert rt.arrays["a"][other] == float(other)

    Machine(2).run(node, _make_runtime_factory(size=2))


def test_tag_mismatch_detected():
    def node(rt):
        if rt.rank == 0:
            rt.send_section(1, "a", "a", _span(0, 1))
        else:
            rt.recv_section(0, "b", "a")

    with pytest.raises(CommunicationError):
        Machine(2).run(node, _make_runtime_factory(size=1))


def test_rank_exception_surfaces():
    def node(rt):
        if rt.rank == 1:
            raise ValueError("boom")
        rt.allreduce("+", 0)  # would block forever without rank 1

    with pytest.raises(CommunicationError):
        Machine(2, recv_timeout_s=0.5).run(node, _make_runtime_factory())


def test_traces_recorded():
    def node(rt):
        rt.work(42)
        if rt.rank == 0:
            rt.send_section(1, "t", "a", _span(0, 10))
        else:
            rt.recv_section(0, "t", "a", count=10)

    results = Machine(2).run(node, _make_runtime_factory(size=10))
    assert results[0].trace.compute_units == 42
    assert results[0].trace.messages_sent == 1
    assert results[0].trace.bytes_sent == 80


def test_member_closures_with_overrides():
    def node(rt):
        assert rt.member(0, (3,)) is True
        assert rt.member(0, (3,), {"lim": 2}) is False

    def make(rank, machine):
        rt = NodeRuntime(machine, rank, {"lim": 5}, {}, {}, {})
        rt.member_fns = [lambda env, pt: pt[0] <= env["lim"]]
        return rt

    Machine(1).run(node, make)
