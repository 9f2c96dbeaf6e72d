"""A communication side's scan set, written as box rows and exact point
nests by ``_BodyEmitter._emit_rows``, executed at ground values and
compared against point enumeration."""

import itertools

import pytest

from repro.codegen.pyexpr import PRELUDE, SourceWriter
from repro.codegen.spmd import _BodyEmitter
from repro.isets import CodegenError, enumerate_points, parse_set
from repro.runtime.sections import disjoint_sections


def _emit(method, *args):
    """The text ``method`` writes on a bare body emitter, and its result."""
    body = _BodyEmitter.__new__(_BodyEmitter)
    body.w = SourceWriter()
    result = method(body, *args)
    return body.w.text(), result


def _run(text, env):
    """``(rows, points)`` the emitted text appends at ``env``."""
    namespace = {}
    exec(PRELUDE, namespace)
    namespace.update(env, _r=[], _p=[])
    exec(text, namespace)
    return namespace["_r"], namespace["_p"]


def side_points(subset, env=None):
    """Every element the emitted side of ``subset`` ships at ``env``, in
    message order, after the transfer loop's union; and the side's
    ``(rows, point lists)`` shape."""
    text, shape = _emit(_BodyEmitter._emit_rows, subset, {})
    rows, points = _run(text, dict(env or {}))
    shipped = []
    for kind, dims in disjoint_sections(rows, points):
        if kind == "S":
            shipped += itertools.product(
                *(range(start, start + count * step, step)
                  for start, count, step in dims)
            )
        else:
            shipped += zip(*dims)
    assert disjoint_sections(rows, points, count=True) == len(shipped)
    return shipped, shape


def nest_points(text, env=None):
    """The points the nest of the one conjunct of ``text`` appends, in
    the order it appends them."""
    subset = parse_set(text)
    (conjunct,) = subset.conjuncts
    leaf = f"_p.append(({', '.join(subset.dims)},))"
    source, _ = _emit(
        _BodyEmitter._emit_point_nest, conjunct, subset.dims, {}, leaf
    )
    return _run(source, dict(env or {}))[1]


CASES = [
    ("{[i] : 1 <= i <= 10}", {}),
    ("{[i,j] : 1 <= i <= 5 and i <= j <= 2i}", {}),
    ("{[i,j,k] : 1 <= i <= 3 and i <= j <= 4 and j <= k <= 5}", {}),
    ("{[i] : 1 <= i <= 20 and exists(a : i = 3a + 1)}", {}),
    ("{[i,j] : 1 <= i <= 6 and 1 <= j <= 6 and 2j = i}", {}),
    ("{[i] : 1 <= i <= n}", {"n": 9}),
    ("{[i,j] : 1 <= i <= n and i + 1 <= j <= n + 1}", {"n": 5}),
    ("{[i] : 1 <= i <= 3 or 7 <= i <= 9}", {}),
    ("{[i] : 1 <= i <= 8 or 5 <= i <= 12}", {}),
    ("{[i,j] : 1 <= i <= 3 and 1 <= j <= 3 or "
     "2 <= i <= 5 and 2 <= j <= 5}", {}),
    ("{[i] : 0 <= i <= 30 and exists(a : i = 5a) or "
     "0 <= i <= 30 and exists(b : i = 5b + 2)}", {}),
    ("{[p,t] : 0 <= p <= 3 and 10p + 1 <= t <= 10p + 10}", {}),
    # The diagonal, a coupled parity, and two non-unit strides whose
    # divisibility test opens inside the inner loop: (i + j) % 3 == 0.
    ("{[i,j] : 1 <= i <= 6 and 1 <= j <= 6 and i = j}", {}),
    ("{[i,j] : 0 <= i <= 7 and 0 <= j <= 7 and "
     "exists(a : i + j = 2a)}", {}),
    ("{[i,j] : 0 <= i <= 9 and 0 <= j <= 9 and "
     "exists(a : 2j = 3a + i)}", {}),
    ("{[i,j] : 0 <= i <= 9 and 0 <= j <= 9 and "
     "exists(a : i + 2j = 3a)}", {}),
]


#: one short name per case, in order.
CASE_IDS = [
    "interval", "triangle", "chain-3d", "stride-3", "half-diagonal",
    "param-interval", "param-triangle", "two-intervals",
    "overlapping-intervals", "overlapping-squares", "two-strides",
    "skewed-blocks", "diagonal", "parity", "mod-3-shifted", "mod-3-sum",
]


@pytest.mark.parametrize("text,env", CASES, ids=CASE_IDS)
def test_side_ships_exactly_the_set(text, env):
    subset = parse_set(text).simplify(full=True)
    shipped, _shape = side_points(subset, env)
    assert sorted(shipped) == enumerate_points(subset, env)  # no duplicates


def test_coupled_conjuncts_take_the_point_nest():
    """Every conjunct that couples two dims or carries a deeper
    divisibility test is a point list; the test sits in its own loop."""
    for text, _env in CASES[12:]:
        subset = parse_set(text).simplify(full=True)
        assert side_points(subset)[1] == (0, 1), text
    text, _ = _emit(
        _BodyEmitter._emit_rows, parse_set(CASES[14][0]).simplify(full=True),
        {},
    )
    assert text.splitlines()[1:3] == [
        "    for j in range((0), (9) + 1):",
        "        if (i + j) % 3 == 0:",
    ]


def test_lexicographic_order():
    points = nest_points("{[i,j] : 1 <= i <= 3 and 1 <= j <= i + 1}")
    assert points == sorted(points)
    assert len(points) == 9


def test_zero_trip_inner_loops():
    # The inner range is always empty.
    assert nest_points("{[i,j] : 1 <= i <= 5 and 10 <= j <= i}") == []


def test_unbounded_raises():
    with pytest.raises(CodegenError):
        nest_points("{[i] : i >= 0}")
    with pytest.raises(CodegenError):
        side_points(parse_set("{[i,j] : i >= 0 and 0 <= j <= i}"))


def test_parameter_guard_wraps_nest():
    text = "{[i] : 1 <= i <= 5 and n >= 3}"
    assert nest_points(text, {"n": 2}) == []
    assert len(nest_points(text, {"n": 3})) == 5


def test_stride_with_symbolic_base():
    points = nest_points(
        "{[i] : exists(a : i = 2a + n) and n <= i <= n + 9}", {"n": 4}
    )
    assert points == [(4,), (6,), (8,), (10,), (12,)]

