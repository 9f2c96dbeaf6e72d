"""Section descriptors: the vectorized communication data plane.

The emitter scans each communication event's self-inclusive scan set one
conjunct at a time.  A conjunct that is a *box* — every constraint bounds
one array dimension, per-dimension strides included — becomes one **row**:
per dimension ``(lo, hi, step)`` with ``lo`` already aligned to the
stride, under a guard made of the conjunct's own dimension-free
constraints.  Any other conjunct is scanned by its own loop nest into an
exact **point list**.  Each physical partner collects the rows and points
of every virtual-processor pair the two ranks own, and those overlap
(their partner coordinates were symbols at compile time, and several
VPs of one rank can need the same element), so :func:`disjoint_sections`
takes their union once per partner at run time, in ground integers:
repeated rows are dropped, boxes with equal strides subtract in closed
form, and lattices of unequal stride that meet, as well as point lists,
become exact points deduplicated against the boxes.  Each element thus
crosses each rank pair once per event instance.  The runtime then moves
each payload with numpy slice assignments — one vectorized copy (or none
at all on the shared-memory backend) instead of one Python iteration per
element.

Descriptor format — a message carries a list of sections, each one of:

* ``("S", ((start, count, step), ...))`` — a strided span per array
  dimension, in **global** index coordinates (the receiver subtracts its
  own allocation lower bounds).  Enumerates the rectangular lattice
  ``start, start+step, ..., start+(count-1)*step`` per dimension in
  C order.
* ``("F", (indices_dim0, indices_dim1, ...))`` — exact fancy-index
  section for points no strided span covers (conjuncts that are not
  boxes, e.g. triangular sets, and lattices that meet a box of another
  stride).  Parallel per-dimension index sequences, also global.

Payloads are C-contiguous 1-D ``float64`` vectors holding the sections
back to back, in descriptor order.  Because the descriptors travel with
the message, sender and receiver never need to agree on an enumeration
order — the receiver scatters exactly what the sender described.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import itertools
import math

import numpy as np

SLICE = "S"
FANCY = "F"


def section_count(section) -> int:
    """Number of elements a single section describes."""
    kind, dims = section
    if kind == SLICE:
        total = 1
        for _start, count, _step in dims:
            total *= count
        return total
    return len(dims[0]) if dims else 0


def message_count(sections) -> int:
    """Total element count of a descriptor list."""
    return sum(section_count(section) for section in sections)


def disjoint_sections(rows, points=(), count=False):
    """The union of ``rows`` and ``points`` as pairwise-disjoint sections.

    ``rows`` are boxes, one ``(lo, hi, step)`` triple per dimension with
    ``lo`` on the lattice (a row with ``lo > hi`` in any dimension is
    empty; exact repeats are dropped first); ``points`` are index tuples.
    Returns the slice sections plus at most one fancy section, or with
    ``count`` only their element count (what a receiver needs).
    """
    boxes: list = []
    loose: list = []
    for row in dict.fromkeys(rows):  # the union is idempotent
        if any(lo > hi for lo, hi, _step in row):
            continue
        pieces = [
            tuple((lo, lo + (hi - lo) // step * step, step)
                  for lo, hi, step in row)
        ]
        for kept in boxes:
            if all(a[2] == b[2] for a, b in zip(kept, pieces[0])):
                pieces = [p for piece in pieces for p in _subtract(piece, kept)]
            elif any(_meet(piece, kept) for piece in pieces):
                loose += pieces
                pieces = []
            if not pieces:
                break
        boxes += pieces
    extra = [
        point for piece in loose
        for point in _box_points(piece)
    ] + list(points)
    if extra:
        extra = list(dict.fromkeys(
            point for point in extra
            if not any(_contains(box, point) for box in boxes)
        ))
    if count:
        return len(extra) + sum(
            math.prod((hi - lo) // step + 1 for lo, hi, step in box)
            for box in boxes
        )
    sections = [
        (SLICE, tuple((lo, (hi - lo) // step + 1, step)
                      for lo, hi, step in box))
        for box in boxes
    ]
    if extra:
        sections.append((FANCY, tuple(zip(*extra))))
    return sections


def _subtract(box, other):
    """``box`` minus ``other``, both on the same strides: at most two
    slabs per dimension, cut in closed form."""
    cut = []
    for (lo, hi, step), (olo, ohi, _step) in zip(box, other):
        if (lo - olo) % step:
            return [box]  # other residue class: disjoint
        clo, chi = max(lo, olo), min(hi, ohi)
        if clo > chi:
            return [box]
        cut.append((clo, chi))
    pieces = []
    rest = list(box)
    for k, ((lo, hi, step), (clo, chi)) in enumerate(zip(box, cut)):
        if lo < clo:
            pieces.append(tuple(rest[:k] + [(lo, clo - step, step)]
                                + rest[k + 1:]))
        if chi < hi:
            pieces.append(tuple(rest[:k] + [(chi + step, hi, step)]
                                + rest[k + 1:]))
        rest[k] = (clo, chi, step)
    return pieces


def _meet(box, other) -> bool:
    """Whether two boxes of unequal strides share a point."""
    for (lo, hi, step), (olo, ohi, ostep) in zip(box, other):
        first, last = max(lo, olo), min(hi, ohi)
        period = step * ostep // math.gcd(step, ostep)
        if not any(
            (x - lo) % step == 0 and (x - olo) % ostep == 0
            for x in range(first, min(last, first + period - 1) + 1)
        ):
            return False
    return True


def _contains(box, point) -> bool:
    return all(
        lo <= x <= hi and (x - lo) % step == 0
        for (lo, hi, step), x in zip(box, point)
    )


def _box_points(box):
    return itertools.product(
        *(range(lo, hi + 1, step) for lo, hi, step in box)
    )


def _local_slices(dims, lbounds) -> Tuple[slice, ...]:
    return tuple(
        slice(start - lb, start - lb + (count - 1) * step + 1, step)
        for (start, count, step), lb in zip(dims, lbounds)
    )


def _local_fancy(dims, lbounds):
    return tuple(
        np.asarray(ix, dtype=np.intp) - lb
        for ix, lb in zip(dims, lbounds)
    )


def _checked_slice_view(array, lbounds, dims):
    view = array[_local_slices(dims, lbounds)]
    counts = tuple(count for _start, count, _step in dims)
    if view.shape != counts:
        raise ValueError(
            f"section {dims} exceeds array bounds "
            f"(shape {array.shape}, lbounds {tuple(lbounds)})"
        )
    return view


def section_view(array, lbounds, section):
    """A view (slice sections) or gathered copy (fancy) of one section."""
    kind, dims = section
    if kind == SLICE:
        return _checked_slice_view(array, lbounds, dims)
    return array[_local_fancy(dims, lbounds)]


def pack_sections(array, lbounds, sections, force_copy: bool):
    """Gather ``sections`` of ``array`` into one contiguous payload.

    Returns ``(payload, copied_bytes, viewed_bytes)`` where ``payload``
    is a C-contiguous 1-D float64 vector.  When ``force_copy`` is false
    and the message is a single contiguous slice section, the payload is
    a zero-copy view into ``array`` (``viewed_bytes`` = payload bytes);
    every other shape stages exactly one vectorized copy
    (``copied_bytes`` = payload bytes).  Backends whose transport does
    not immediately consume the payload (the in-process machines, whose
    channel holds it until the receiver scatters) must pass
    ``force_copy=True`` — the sender is free to overwrite the sent region
    as soon as the call returns.
    """
    if len(sections) == 1:
        kind, dims = sections[0]
        if kind == SLICE:
            view = _checked_slice_view(array, lbounds, dims)
            if view.flags.c_contiguous:
                flat = view.reshape(-1)
                if force_copy:
                    return flat.copy(), flat.nbytes, 0
                return flat, 0, flat.nbytes
            flat = np.ascontiguousarray(view).reshape(-1)
            return flat, flat.nbytes, 0
        gathered = array[_local_fancy(dims, lbounds)].astype(
            np.float64, copy=False
        )
        flat = np.ascontiguousarray(gathered).reshape(-1)
        return flat, flat.nbytes, 0
    total = message_count(sections)
    out = np.empty(total, dtype=np.float64)
    pos = 0
    for section in sections:
        piece = section_view(array, lbounds, section)
        n = piece.size
        out[pos : pos + n] = piece.reshape(-1)
        pos += n
    return out, out.nbytes, 0


def scatter_sections(array, lbounds, sections, payload) -> int:
    """Scatter a received ``payload`` into ``array`` per ``sections``.

    Writes directly from the payload (which may be a read-only view into
    a transport buffer) into array storage via strided slice assignment
    (slice sections) or advanced indexing (fancy sections).  Returns the
    number of elements consumed; raises when the descriptor element count
    disagrees with the payload length.
    """
    flat = np.asarray(payload).reshape(-1)
    pos = 0
    for kind, dims in sections:
        if kind == SLICE:
            counts = tuple(count for _start, count, _step in dims)
            n = 1
            for count in counts:
                n *= count
            view = _checked_slice_view(array, lbounds, dims)
            view[...] = flat[pos : pos + n].reshape(counts)
        else:
            idx = _local_fancy(dims, lbounds)
            n = len(dims[0]) if dims else 0
            array[idx] = flat[pos : pos + n]
        pos += n
    if pos != flat.size:
        raise ValueError(
            f"descriptor count {pos} != payload length {flat.size}"
        )
    return pos
