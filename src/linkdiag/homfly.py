"""HOMFLY polynomial by skein recursion and the degree-based index bounds.

Convention (fixed, no runtime switches)::

    v^-1 P(L+) - v P(L-) = z P(L0),      P(unknot) = 1

so a k-component unlink evaluates to delta^(k-1) with
delta = (v^-1 - v)/z.

Each node first cancels an oriented Reidemeister-II pair when it has
one: two crossings of opposite sign that bound a bigon face (see
``diagram.faces``), where one strand passes over at both.  The node's
value is then that of the diagram with both crossings removed, since
HOMFLY is an isotopy invariant.  A bigon is read off the faces, so
:func:`homfly` checks once that its input is planar
(``diagram.check_planar``); switching, smoothing and cancelling keep a
diagram planar.

A node without such a pair uses the descending-diagram strategy:
components are ordered by smallest arc id and traversed from their
smallest arc; the first crossing whose first pass is on the under-strand
is switched (branch 1) and smoothed (branch 2).  Descending diagrams are
unlinks.  The same traversal counts the link components, so a leaf needs
no second pass.  The worst case stays exponential in the crossings, on
subdiagrams with no cancellable bigon.

Different branches often reach the same subdiagram, so each top-level
:func:`homfly` call keeps a memo keyed on the exact ``Diagram`` (arc ids,
crossings and free loops) and evaluates each subdiagram once.  The memo
is created per call and dropped when it returns: nothing is cached across
calls, so memory does not grow with the number of diagrams seen.

A leaf of k components costs a power delta^(k-1) of k terms, so
:func:`homfly` refuses more free loops than its crossing cap, as it
refuses more crossings.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import Crossing, Diagram, check_planar, dart_successors, in_ports, rebuild
from .errors import SizeLimitError, ZeroPolynomialError
from .graph_index import IndexReport
from .poly import DELTA, LaurentPoly2
from .seifert import seifert_analysis

DEFAULT_CROSSING_CAP = 16

_V2 = LaurentPoly2.monomial(1, 2, 0)
_VZ = LaurentPoly2.monomial(1, 1, 1)
_VINV2 = LaurentPoly2.monomial(1, -2, 0)
_VINVZ = LaurentPoly2.monomial(1, -1, 1)


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


def _first_discordant(d: Diagram) -> tuple[int | None, int]:
    """First crossing whose first pass is on the under-strand, and the link
    component count.

    Passes are ordered by traversing components (ordered by smallest arc)
    from their smallest arc along orientation, through ``diagram.in_ports``.
    The walk covers every component, so the count (free loops included)
    comes with it.
    """
    crossings = d.crossings
    n = d.arc_count
    port = in_ports(d)
    seen = [False] * n
    visited = [False] * len(crossings)
    found = None
    components = d.free_loops
    for start in range(n):
        if seen[start]:
            continue
        components += 1
        a = start
        while not seen[a]:
            seen[a] = True
            ci, over = port[a] >> 1, port[a] & 1
            if not visited[ci]:
                visited[ci] = True
                if not over and found is None:
                    found = ci
            x = crossings[ci]
            a = x.over_out if over else x.under_out
    return found, components


def _switch(d: Diagram, ci: int) -> Diagram:
    x = d.crossings[ci]
    swapped = Crossing(-x.sign, x.over_in, x.under_in, x.over_out, x.under_out)
    crossings = d.crossings[:ci] + (swapped,) + d.crossings[ci + 1:]
    return Diagram(d.arc_count, crossings, d.free_loops)


def _smooth(d: Diagram, ci: int) -> Diagram:
    """Oriented smoothing: remove crossing ci, joining u_in~o_out, o_in~u_out."""
    x = d.crossings[ci]
    joins = ((x.under_in, x.over_out), (x.over_in, x.under_out))
    return rebuild(d.arc_count, joins, d.crossings[:ci] + d.crossings[ci + 1:], d.free_loops)


def _r2_bigon(d: Diagram) -> tuple[int, int] | None:
    """Two crossings of opposite sign that bound a bigon face, or None.

    A dart whose successor's successor is itself runs round a bigon.  On
    a planar diagram, a bigon with opposite signs is an oriented
    Reidemeister-II pair.  Diagrams of one sign have none.
    """
    crossings = d.crossings
    if len({x.sign for x in crossings}) < 2:
        return None
    succ = dart_successors(d)
    for t, u in enumerate(succ):
        if crossings[t >> 2].sign != crossings[u >> 2].sign and succ[u] == t:
            return t >> 2, u >> 2
    return None


def _cancel(d: Diagram, c1: int, c2: int) -> Diagram:
    """Remove a Reidemeister-II pair, joining u_in~u_out and o_in~o_out at both."""
    joins = []
    for x in (d.crossings[c1], d.crossings[c2]):
        joins += [(x.under_in, x.under_out), (x.over_in, x.over_out)]
    rest = tuple(x for ci, x in enumerate(d.crossings) if ci != c1 and ci != c2)
    return rebuild(d.arc_count, joins, rest, d.free_loops)


def _homfly_rec(d: Diagram, memo: dict[Diagram, LaurentPoly2]) -> LaurentPoly2:
    p = memo.get(d)
    if p is not None:
        return p
    pair = _r2_bigon(d)
    if pair is not None:
        p = _homfly_rec(_cancel(d, *pair), memo)
        memo[d] = p
        return p
    ci, comps = _first_discordant(d)
    if ci is None:
        if comps == 0:
            raise ZeroPolynomialError("empty diagram has no HOMFLY normalization")
        p = DELTA ** (comps - 1)
    else:
        switched = _homfly_rec(_switch(d, ci), memo)
        smoothed = _homfly_rec(_smooth(d, ci), memo)
        if d.crossings[ci].sign > 0:
            # P+ = v^2 P- + v z P0
            p = _V2 * switched + _VZ * smoothed
        else:
            # P- = v^-2 P+ - v^-1 z P0
            p = _VINV2 * switched - _VINVZ * smoothed
    memo[d] = p
    return p


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
    return _homfly_rec(d, {})


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
