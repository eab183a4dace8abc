"""HOMFLY polynomial by skein recursion and the degree-based index bounds.

Convention (fixed, no runtime switches)::

    v^-1 P(L+) - v P(L-) = z P(L0),      P(unknot) = 1

so a k-component unlink evaluates to delta^(k-1) with
delta = (v^-1 - v)/z.

States.  :func:`homfly` checks its ``Diagram`` once (planarity and both
caps) and then works on states: one ``bytes`` object per subdiagram.  It
holds the four slot arcs of each crossing in ``Crossing`` order
(``u_in o_in u_out o_out``), then one sign per crossing (1 positive,
0 negative), then the free-loop count.  Two states are equal exactly
when the diagrams they stand for are equal, so a state is the memo key.
Values of 256 or more are stored 2, 4 or 8 bytes wide.  A state of C
crossings holds 5C + 1 values, so its length modulo 5 names its width
(1, 2, 4, and 3 for 8), and states of different widths never compare
equal.  At the default 16-crossing cap a state is at most 114 bytes, well
under the 512 bytes up to which CPython's small-object allocator serves
it; larger blocks go to ``malloc`` and fragment the heap around whatever
the caller keeps.

Splices.  Smoothing a crossing and cancelling a Reidemeister-II pair are
one local edit (:func:`_splice`).  The at most 8 arcs at the removed
crossings lie on two strands, which are one if they share an arc.  A
strand that closed up becomes a free loop; any other keeps its smallest
arc, and every surviving arc ``x`` becomes ``x - #(removed arcs < x)``.
That is exactly the numbering of ``diagram.rebuild``, so each state
equals the rebuilt diagram.  On a one-byte state both steps are
``bytes.translate`` calls.

R2 folding.  A bigon face with crossings of opposite sign is an oriented
Reidemeister-II pair, and cancelling it keeps the polynomial.  Each child
state is folded, cancelling the first such bigon in dart order until none
is left, before the memo sees it, so the memo holds no intermediate R2
state.  A switch keeps the combinatorial map: the counterclockwise slot
order after it is a rotation of the one before (at a positive crossing,
``u_in o_in u_out o_out`` becomes ``o_in u_out o_out u_in``).
A folded state has no opposite-sign bigon, so after a switch any such
bigon has a dart at the switched crossing, and only its 4 darts are
checked.  After a splice every dart is.

Expansion.  A folded state uses the descending-diagram strategy:
components are ordered by smallest arc id and traversed from their
smallest arc; the first crossing whose first pass is on the under-strand
is switched and smoothed, and ``P = v^(2s) P_switched + s v^s z
P_smoothed`` for its sign s.  A state with no such crossing is descending,
an unlink, and the walk that found none counted its components.  The
worst case stays exponential in the crossings, on subdiagrams with no
cancellable bigon.  Nodes are evaluated from an explicit stack, so a long
diagram under a raised cap does not exhaust Python's recursion limit.

Each top-level call keeps its own memo and drops it on return: nothing is
cached across calls.  A leaf of k components costs a power delta^(k-1) of
k terms, so :func:`homfly` refuses more free loops than its crossing cap,
as it refuses more crossings.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from .diagram import Crossing, Diagram, check_planar
from .errors import SizeLimitError, ZeroPolynomialError
from .graph_index import IndexReport
from .poly import DELTA, LaurentPoly2
from .seifert import seifert_analysis

DEFAULT_CROSSING_CAP = 16

# Array type codes for the wide state widths, keyed by width modulo 5.
_WIDE = {array(code).itemsize % 5: code for code in "HIQ"}
_IDENTITY = bytes(range(256))


@dataclass(frozen=True)
class DegreeReport:
    min_deg_v: int
    max_deg_v: int
    v_span: int
    mfw_lower: int
    eq1_holds: bool
    eq2_holds: bool
    eq1_tight: bool
    eq2_tight: bool


def _pack(values) -> bytes:
    """The state holding ``values``, one byte each when every value fits."""
    try:
        return bytes(values)
    except ValueError:
        top = max(values)
        code = "H" if top < 1 << 16 else "I" if top < 1 << 32 else "Q"
        return array(code, values).tobytes()


def _ints(state: bytes):
    """The state's values as an indexable sequence of ints."""
    width = len(state) % 5
    return state if width == 1 else array(_WIDE[width], state).tolist()


def _state(d: Diagram) -> bytes:
    signs = [int(x.sign > 0) for x in d.crossings]
    return _pack([a for x in d.crossings for a in x[1:]] + signs + [d.free_loops])


def _diagram(state: bytes) -> Diagram:
    v = _ints(state)
    c4 = len(v) // 5 * 4
    crossings = tuple(
        Crossing(1 if v[c4 + i] else -1, *v[4 * i:4 * i + 4]) for i in range(c4 // 4)
    )
    return Diagram(c4 // 2, crossings, v[-1])


def _first_discordant(v) -> tuple[int | None, int]:
    """First crossing whose first pass is on the under-strand, else the
    link component count.

    Passes are ordered by traversing components (ordered by smallest arc)
    from their smallest arc along orientation.  The walk stops at the
    first such crossing; only a descending state is walked to the end,
    and its count (free loops included) comes with it.
    """
    c4 = len(v) // 5 * 4
    head = [0] * (c4 // 2)  # the in-slot where each arc ends
    for p in range(0, c4, 4):
        head[v[p]] = p
        head[v[p + 1]] = p + 1
    seen = bytearray(c4 // 2)
    over_passed = bytearray(c4 // 4)
    components = v[-1]
    for start in range(c4 // 2):
        if seen[start]:
            continue
        components += 1
        a = start
        while not seen[a]:
            seen[a] = 1
            p = head[a]
            if p & 1:
                over_passed[p >> 2] = 1
            elif not over_passed[p >> 2]:
                return p >> 2, components
            a = v[p + 2]  # the out-slot of the same strand
    return None, components


def _splice(v, drop: tuple[int, ...], strands) -> bytes:
    """Remove the crossings ``drop`` (ascending) and join the strands through them.

    ``strands`` holds two pairs ``(arcs, joins)``: the arcs of one strand
    through the removed crossings, joined end to end at ``joins`` of its
    passes.  Two strands that share an arc are one.  A strand with as
    many joins as arcs closed up and becomes a free loop; any other keeps
    its smallest arc.
    """
    c4 = len(v) // 5 * 4
    (arcs1, joins1), (arcs2, joins2) = strands
    if not arcs1.isdisjoint(arcs2):
        strands = ((arcs1 | arcs2, joins1 + joins2),)
    merged, into, removed = [], [], []
    loops = v[-1]
    for arcs, joins in strands:
        if len(arcs) == joins:
            removed += arcs
            loops += 1
        else:
            least = min(arcs)
            for x in arcs:
                if x != least:
                    merged.append(x)
                    into.append(least)
    removed += merged
    slots, signs, lo = v[:0], v[:0], 0
    for ci in drop:
        slots += v[4 * lo:4 * ci]
        signs += v[c4 + lo:c4 + ci]
        lo = ci + 1
    slots += v[4 * lo:c4]
    signs += v[c4 + lo:-1]
    # Merged arcs take their strand's smallest arc, and each surviving arc
    # x becomes x - #(removed arcs < x).
    n = c4 // 2
    if type(v) is bytes and loops < 256:
        kept = _IDENTITY[:n].translate(None, bytes(removed))
        merge = bytes.maketrans(bytes(merged), bytes(into))
        shift = bytes.maketrans(kept, _IDENTITY[:len(kept)])
        return slots.translate(merge).translate(shift) + signs + bytes((loops,))
    relabel = {x: i for i, x in enumerate(sorted(set(range(n)).difference(removed)))}
    relabel.update(zip(merged, map(relabel.__getitem__, into)))
    return _pack([*map(relabel.__getitem__, slots), *signs, loops])


def _smoothed(v, ci: int) -> bytes:
    """Oriented smoothing: remove crossing ci, joining u_in~o_out, o_in~u_out."""
    p = 4 * ci
    return _splice(v, (ci,), (({v[p], v[p + 3]}, 1), ({v[p + 1], v[p + 2]}, 1)))


def _cancelled(v, c1: int, c2: int) -> bytes:
    """Remove a Reidemeister-II pair (c1 < c2), joining u_in~u_out and o_in~o_out at both.

    One strand passes under at both crossings and one over, so the under
    arcs of both crossings lie on one strand, and so do the over arcs.
    """
    p1, p2 = 4 * c1, 4 * c2
    under = {v[p1], v[p1 + 2], v[p2], v[p2 + 2]}
    over = {v[p1 + 1], v[p1 + 3], v[p2 + 1], v[p2 + 3]}
    return _splice(v, (c1, c2), ((under, 2), (over, 2)))


def _switched(v, ci: int) -> bytes:
    """Crossing ci switched: its strands trade under and over, and its sign flips."""
    p = 4 * ci
    w = bytearray(v) if type(v) is bytes else list(v)
    w[p:p + 4] = w[p + 1], w[p], w[p + 3], w[p + 2]
    w[len(w) // 5 * 4 + ci] ^= 1
    return _pack(w)


def _bigon(v, darts=None) -> tuple[int, int] | None:
    """The crossings of an opposite-sign bigon face, or None.

    Darts are numbered by slot position, ``4*crossing + slot``.  Slots run
    0 1 2 3 counterclockwise at a positive crossing and 0 3 2 1 at a
    negative one.  A dart steps along its arc to the arc's other end,
    then back one slot there, which keeps the face on its left; a dart
    whose successor's successor is itself runs round a bigon.  On a planar
    diagram a bigon with opposite signs is an oriented Reidemeister-II
    pair.  Of the bigons through ``darts`` (all darts by default), the one
    whose first dart comes first is returned.
    """
    c4 = len(v) // 5 * 4
    signs = v[c4:-1]
    if 0 not in signs or 1 not in signs:
        return None
    # The dart before each arc's head end and before its tail end.
    before_head = [0] * (c4 // 2)
    before_tail = [0] * (c4 // 2)
    for p in range(0, c4, 4):
        if signs[p >> 2]:
            before_head[v[p]], before_head[v[p + 1]] = p + 3, p
            before_tail[v[p + 2]], before_tail[v[p + 3]] = p + 1, p + 2
        else:
            before_head[v[p]], before_head[v[p + 1]] = p + 1, p + 2
            before_tail[v[p + 2]], before_tail[v[p + 3]] = p + 3, p
    best = None
    # A dart at an in-slot runs to its arc's tail, one at an out-slot to its head.
    for t in range(c4) if darts is None else darts:
        u = before_head[v[t]] if t & 2 else before_tail[v[t]]
        if signs[t >> 2] != signs[u >> 2] and (before_head[v[u]] if u & 2 else before_tail[v[u]]) == t:
            if darts is None:  # the scan runs in dart order
                return t >> 2, u >> 2
            if best is None or min(t, u) < best[0]:
                best = min(t, u), t >> 2, u >> 2
    return best and best[1:]


def _folded(state: bytes, pair: tuple[int, int] | None) -> bytes:
    """Cancel opposite-sign bigons, each the first in dart order, until none is left."""
    while pair is not None:
        state = _cancelled(_ints(state), *sorted(pair))
        pair = _bigon(_ints(state))
    return state


def _evaluate(root: bytes) -> LaurentPoly2:
    memo: dict[bytes, LaurentPoly2] = {}
    unlinks: dict[int, LaurentPoly2] = {}
    stack: list[tuple[bytes, tuple | None]] = [(root, None)]
    while stack:
        state, branches = stack.pop()
        if branches is not None:
            s, switched, smoothed = branches
            # P+ = v^2 P- + v z P0 and P- = v^-2 P+ - v^-1 z P0
            memo[state] = memo[switched].shifted_sum(2 * s, memo[smoothed], s, 1, s)
            continue
        if state in memo:
            continue
        v = _ints(state)
        ci, components = _first_discordant(v)
        if ci is None:
            if components == 0:
                raise ZeroPolynomialError("empty diagram has no HOMFLY normalization")
            if components not in unlinks:
                unlinks[components] = DELTA ** (components - 1)
            memo[state] = unlinks[components]
            continue
        # A state here has no opposite-sign bigon, and a switch keeps the
        # faces, so any such bigon after it has a dart at ci.
        switched = _switched(v, ci)
        switched = _folded(switched, _bigon(_ints(switched), range(4 * ci, 4 * ci + 4)))
        smoothed = _smoothed(v, ci)
        smoothed = _folded(smoothed, _bigon(_ints(smoothed)))
        s = 1 if v[len(v) // 5 * 4 + ci] else -1
        stack.append((state, (s, switched, smoothed)))
        for child in (smoothed, switched):
            if child not in memo:
                stack.append((child, None))
    return memo[root]


def _switch(d: Diagram, ci: int) -> Diagram:
    x = d.crossings[ci]
    swapped = Crossing(-x.sign, x.over_in, x.under_in, x.over_out, x.under_out)
    crossings = d.crossings[:ci] + (swapped,) + d.crossings[ci + 1:]
    return Diagram(d.arc_count, crossings, d.free_loops)


def _smooth(d: Diagram, ci: int) -> Diagram:
    return _diagram(_smoothed(_ints(_state(d)), ci))


def _cancel(d: Diagram, c1: int, c2: int) -> Diagram:
    return _diagram(_cancelled(_ints(_state(d)), *sorted((c1, c2))))


def _r2_bigon(d: Diagram) -> tuple[int, int] | None:
    return _bigon(_ints(_state(d)))


def homfly(d: Diagram, crossing_cap: int = DEFAULT_CROSSING_CAP) -> LaurentPoly2:
    check_planar(d)
    if len(d.crossings) > crossing_cap:
        raise SizeLimitError(
            f"{len(d.crossings)} crossings exceeds HOMFLY cap {crossing_cap}"
        )
    if d.free_loops > crossing_cap:
        raise SizeLimitError(
            f"{d.free_loops} free loops exceeds HOMFLY cap {crossing_cap}"
        )
    root = _state(d)
    return _evaluate(_folded(root, _bigon(_ints(root))))


def degree_report(p: LaurentPoly2, d: Diagram, idx: IndexReport) -> DegreeReport:
    if p.is_zero():
        raise ZeroPolynomialError("degree report of zero polynomial")
    if idx.size_limited:
        raise SizeLimitError("Seifert graph exceeds the index vertex cap")
    analysis = seifert_analysis(d)
    o, sl = analysis.circle_count, analysis.sl
    min_v, max_v = p.min_deg_v(), p.max_deg_v()
    span = max_v - min_v
    if span % 2:
        raise ZeroPolynomialError(f"odd v-span {span}; not a link polynomial")
    lower1 = sl + 1 + 2 * idx.ind_minus
    upper2 = sl + 2 * o - 1 - 2 * idx.ind_plus  # O + writhe - 1 - 2 ind_plus
    return DegreeReport(
        min_deg_v=min_v,
        max_deg_v=max_v,
        v_span=span,
        mfw_lower=span // 2 + 1,
        eq1_holds=min_v >= lower1,
        eq2_holds=max_v <= upper2,
        eq1_tight=min_v == lower1,
        eq2_tight=max_v == upper2,
    )
