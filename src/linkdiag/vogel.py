"""Transform a connected diagram into a closed braid on O(D) strands.

Faces come from ``diagram.faces``, the package's one face tracer, on the
combinatorial map that the crossing signs define, so
:func:`vogel_braidize` checks once that its input is planar.  Following
Vogel's scheme, a face is *defective* when it carries two edges of
distinct Seifert circles inducing the same orientation on the face
boundary; an oriented Reidemeister-II insertion across such a pair (one
positive and one negative crossing) removes the defect while preserving
both the Seifert circle count and the writhe.  When no defect remains,
the Seifert graph is a path of coherent circles and the braid word is
read off along one ray from the braid axis: the circles are cut in path
order, the first at its smallest arc and each next one at its smallest
arc sharing a face with the previous cut.  The circles are concentric,
so two such arcs meet only in the annulus between their circles, and the
chains of crossings that start at the cuts merge into one word by a head
sweep: a crossing goes next once it heads the chains of both its circles.

The braid word is not canonical; the contract is (strands, writhe,
link type).  It is exact at any size: the word is accepted only when its
closure is the coherent diagram itself, relabelled, as it is or seen
from behind (see ``diagram.isomorphic`` and ``diagram.from_behind``).
R2 moves keep the link, so the word's closure is the input's link.
Otherwise ``IterationLimitError`` is raised.
"""

from __future__ import annotations

from .braids import BraidWord, closure
from .diagram import Crossing, Diagram, check_planar, counts, faces, from_behind, in_ports, isomorphic
from .errors import IterationLimitError, SplitInputError
from .seifert import seifert_analysis


def _r2_insert(d: Diagram, alpha_arc: int, beta_arc: int, forward: bool) -> Diagram:
    """Push arc ``alpha`` across arc ``beta`` with an oriented R2 move.

    ``forward`` says whether the pair was traversed along its orientation
    on the (interior-left) face boundary; it fixes which of the two new
    crossings is positive.  Alpha passes over beta at both crossings.
    """
    n = d.arc_count
    a1, b1 = alpha_arc, beta_arc
    a2, a3, b2, b3 = n, n + 1, n + 2, n + 3

    def rewire_in(x: Crossing) -> Crossing:
        ui = a3 if x.under_in == a1 else (b3 if x.under_in == b1 else x.under_in)
        oi = a3 if x.over_in == a1 else (b3 if x.over_in == b1 else x.over_in)
        return Crossing(x.sign, ui, oi, x.under_out, x.over_out)

    crossings = [rewire_in(x) for x in d.crossings]
    s1, s2 = (-1, +1) if forward else (+1, -1)
    crossings.append(Crossing(s1, b2, a1, b3, a2))  # first crossing along alpha
    crossings.append(Crossing(s2, b1, a2, b2, a3))  # second crossing along alpha
    return Diagram(n + 4, tuple(crossings), d.free_loops)


def _path_order(graph) -> list[int]:
    """Order the Seifert-graph vertices along their simple path."""
    neighbors: dict[int, set[int]] = {v: set() for v in range(graph.vertex_count)}
    for e in graph.edges:
        neighbors[e.u].add(e.v)
        neighbors[e.v].add(e.u)
    if graph.vertex_count == 1:
        return [0]
    ends = [v for v, ns in neighbors.items() if len(ns) == 1]
    if len(ends) != 2 or any(len(ns) > 2 for ns in neighbors.values()):
        raise IterationLimitError("coherent diagram's Seifert graph is not a path")
    order = [min(ends)]
    prev = None
    while len(order) < graph.vertex_count:
        nxt = [w for w in neighbors[order[-1]] if w != prev]
        if len(nxt) != 1:
            raise IterationLimitError("Seifert path traversal failed")
        prev = order[-1]
        order.append(nxt[0])
    return order


def _read_word(d: Diagram, analysis) -> BraidWord:
    """Read a braid word off coherent ``d`` along one ray from the axis.

    The circles are cut in path order: the first at its smallest arc, each
    next one at its smallest arc sharing a face with the previous cut.  The
    word is accepted only if its closure is ``d`` itself, as it is or seen
    from behind; the two views are the same link.
    """
    n = analysis.circle_count
    if not d.crossings:
        return BraidWord(max(n, 1), ())
    graph = analysis.graph
    order = _path_order(graph)
    strand_of_circle = {c: i for i, c in enumerate(order)}
    gen_of_crossing = {}
    for e in graph.edges:
        i, j = strand_of_circle[e.u], strand_of_circle[e.v]
        if abs(i - j) != 1:
            raise IterationLimitError("crossing joins non-adjacent strands")
        gen_of_crossing[e.crossing_id] = min(i, j) + 1

    faces_of_arc: dict[int, set[int]] = {}
    for fid, face in enumerate(faces(d)):
        for a, _fw in face:
            faces_of_arc.setdefault(a, set()).add(fid)

    # Each circle's crossing sequence starts at its cut arc: the crossing
    # each arc runs into, in walk order.
    port = in_ports(d)
    chains = []
    cut = None
    for c in order:
        walk = analysis.circles[c]
        shared = [a for a in walk if cut is None or faces_of_arc[a] & faces_of_arc[cut]]
        if not shared:
            raise IterationLimitError("no arc of the next Seifert circle shares a face with the cut")
        cut = min(shared)
        k = walk.index(cut)
        chains.append([port[a] >> 1 for a in walk[k:] + walk[:k]])
    letters = tuple(gen_of_crossing[c] * d.crossings[c].sign for c in _merge_chains(chains))
    word = BraidWord(n, letters)
    cand = closure(word)
    if isomorphic(cand, d) or isomorphic(cand, from_behind(d)):
        return word
    raise IterationLimitError("the ray's word does not close to the coherent diagram")


def _merge_chains(chains: list[list[int]]) -> list[int]:
    """Merge the chains, in path order, into one word by a head sweep.

    A crossing of generator g lies on chains g-1 and g, and is ready when
    it heads both.  The smallest ready crossing goes next and both heads
    advance: Kahn's order, smallest first.  A stuck sweep leaves crossings
    out, so the word then fails the closure check.
    """
    heads = [0] * len(chains)

    def head(k: int) -> int | None:
        return chains[k][heads[k]] if heads[k] < len(chains[k]) else None

    out = []
    while ready := [
        (head(k), k) for k in range(len(chains) - 1) if head(k) is not None and head(k) == head(k + 1)
    ]:
        c, k = min(ready)
        out.append(c)
        heads[k] += 1
        heads[k + 1] += 1
    return out


def vogel_braidize(d: Diagram) -> BraidWord:
    check_planar(d)
    c = counts(d)
    if c.split_parts > 1:
        raise SplitInputError(f"diagram has {c.split_parts} split parts")
    analysis = seifert_analysis(d)
    target_o, target_sl = analysis.circle_count, analysis.sl

    current = d
    limit = 4 * (len(d.crossings) + target_o + 2) ** 2 + 16
    moves = 0
    while (pair := _find_defect(current, analysis.circle_of_arc)) is not None:
        current = _r2_insert(current, *pair)
        moves += 1
        analysis = seifert_analysis(current)
        if analysis.circle_count != target_o:
            raise IterationLimitError("R2 insertion changed the Seifert circle count")
        # O is unchanged, so sl = writhe - O checks the writhe.
        if analysis.sl != target_sl:
            raise IterationLimitError("R2 insertion changed the writhe")
        if moves > limit:
            raise IterationLimitError(f"no coherent form after {moves} moves")

    return _read_word(current, analysis)


def _find_defect(d: Diagram, circle_of_arc):
    """Pick a defect triple (alpha_arc, beta_arc, forward), deterministically.

    A defect is a pair of arcs on one face, traversed the same way along
    the boundary, lying on different Seifert circles.  Faces are ranked by
    their smallest incident arc id; within a face the lexicographically
    smallest qualifying (arc, arc, flag) triple wins.
    """
    best = None
    for face in sorted(faces(d), key=lambda f: min(a for a, _fw in f)):
        entries = sorted(set(face))
        for i, (a, fa) in enumerate(entries):
            for b, fb in entries[i + 1:]:
                if fa != fb or circle_of_arc[a] == circle_of_arc[b]:
                    continue
                pair = (a, b, fa)
                if best is None or pair < best:
                    best = pair
        if best is not None:
            return best
    return None
