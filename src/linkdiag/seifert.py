"""Seifert circles, the signed Seifert graph, O+, sl, and homogeneity.

Oriented smoothing at a crossing joins ``under_in`` to ``over_out`` and
``over_in`` to ``under_out``; Seifert circles are the orbits of arcs under
these joins.  :func:`seifert_analysis` walks each circle once along the
smoothing from its smallest arc, so circles are numbered by that arc.  A
free loop is one isolated vertex, counted but never stored.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import DSU, Diagram, check_valid, in_ports
from .errors import InvariantError, LoopEdgeError


@dataclass(frozen=True, slots=True)
class GraphEdge:
    u: int
    v: int
    sign: int
    crossing_id: int


@dataclass(frozen=True, slots=True)
class SignedMultigraph:
    vertex_count: int
    edges: tuple[GraphEdge, ...]

    def __post_init__(self):
        if not isinstance(self.vertex_count, int) or self.vertex_count < 0:
            raise InvariantError(f"vertex count must be a non-negative integer: {self.vertex_count!r}")
        crossing_ids = set()
        for e in self.edges:
            if not all(isinstance(x, int) for x in (e.u, e.v, e.sign, e.crossing_id)):
                raise InvariantError(f"edge fields must be integers: {e}")
            if e.sign not in (1, -1):
                raise InvariantError(f"edge sign must be +1 or -1 (crossing {e.crossing_id}): {e.sign}")
            if e.crossing_id in crossing_ids:
                raise InvariantError(f"duplicate crossing id {e.crossing_id}")
            crossing_ids.add(e.crossing_id)
            if e.u == e.v:
                raise InvariantError(f"loop edge at vertex {e.u} (crossing {e.crossing_id})")
            if not (0 <= e.u < self.vertex_count and 0 <= e.v < self.vertex_count):
                raise InvariantError(f"edge endpoint out of range: {e}")

    def multiplicity(self) -> dict[tuple[int, int], int]:
        mult: dict[tuple[int, int], int] = {}
        for e in self.edges:
            key = (min(e.u, e.v), max(e.u, e.v))
            mult[key] = mult.get(key, 0) + 1
        return mult

    def to_edge_list(self) -> str:
        lines = [f"vertices:{self.vertex_count}"]
        for e in self.edges:
            lines.append(f"{e.u} {e.v} {e.sign:+d} {e.crossing_id}")
        return "\n".join(lines) + "\n"


def graph_from_edge_list(text: str) -> SignedMultigraph:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.strip().startswith("#")]
    if not lines or not lines[0].startswith("vertices:"):
        raise InvariantError("edge list must start with 'vertices:<n>'")
    n = _int_field(lines[0].split(":", 1)[1], lines[0])
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 4:
            raise InvariantError(f"bad edge line: {ln!r}")
        edges.append(GraphEdge(*(_int_field(part, ln) for part in parts)))
    return SignedMultigraph(n, tuple(edges))


def _int_field(text: str, line: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise InvariantError(f"non-integer field {text.strip()!r} in line {line!r}") from None


@dataclass(frozen=True)
class SeifertAnalysis:
    """The per-diagram Seifert object; sl, O+ and homogeneity read its graph."""

    circle_count: int
    circle_of_arc: tuple[int, ...]
    graph: SignedMultigraph
    circles: tuple[tuple[int, ...], ...]  # arcs of each circle in walk order; no free loops

    @property
    def sl(self) -> int:
        """Writhe minus O: the sum of the edge signs less the circle count."""
        return sum(e.sign for e in self.graph.edges) - self.circle_count

    @property
    def o_plus(self) -> int:
        """Components of the graph on its positive edges: O after smoothing
        every negative crossing and keeping every positive one."""
        n = len(self.circles)
        dsu = DSU(n)
        for e in self.graph.edges:
            if e.sign > 0:
                dsu.union(e.u, e.v)
        return len({dsu.find(v) for v in range(n)}) + self.circle_count - n

    @property
    def homogeneity(self) -> HomogeneityReport:
        """One sign per block (Cromwell); reduced when no block is a bridge."""
        g = self.graph
        factors = []
        for block in blocks(g):
            signs = {g.edges[ei].sign for ei in block}
            sign = signs.pop() if len(signs) == 1 else 0
            vertices = frozenset()
            for ei in block:
                vertices |= {g.edges[ei].u, g.edges[ei].v}
            factors.append(Factor(vertices, block, sign))
        factors.sort(key=lambda f: f.edge_ids)
        edge_signs = {e.sign for e in g.edges}
        return HomogeneityReport(
            is_homogeneous=all(f.sign != 0 for f in factors),
            factors=tuple(factors),
            # A block of one edge is a bridge, i.e. a nugatory crossing;
            # any larger block gives each of its vertices valence >= 2.
            is_reduced=all(len(f.edge_ids) > 1 for f in factors),
            is_special=len(edge_signs) <= 1,
            is_positive_diagram=-1 not in edge_signs,
        )


@dataclass(frozen=True)
class Factor:
    vertices: frozenset[int]
    edge_ids: tuple[int, ...]
    sign: int  # +1, -1, or 0 for mixed


@dataclass(frozen=True)
class HomogeneityReport:
    is_homogeneous: bool
    factors: tuple[Factor, ...]
    is_reduced: bool
    is_special: bool
    is_positive_diagram: bool


def seifert_analysis(d: Diagram) -> SeifertAnalysis:
    """Circles and signed graph; reads no faces, so ``check_valid`` suffices."""
    check_valid(d)
    port = in_ports(d)
    circle_of = [-1] * d.arc_count
    circles = []
    for start in range(d.arc_count):
        if circle_of[start] >= 0:
            continue
        walk = []
        a = start
        while circle_of[a] < 0:
            circle_of[a] = len(circles)
            walk.append(a)
            x = d.crossings[port[a] >> 1]
            a = x.under_out if port[a] & 1 else x.over_out
        circles.append(tuple(walk))
    edges = []
    for ci, x in enumerate(d.crossings):
        u = circle_of[x.under_in]
        v = circle_of[x.over_in]
        if u == v:
            raise LoopEdgeError(
                f"crossing {ci} joins Seifert circle {u} to itself; not admissible"
            )
        edges.append(GraphEdge(u, v, x.sign, ci))
    circle_count = len(circles) + d.free_loops
    graph = SignedMultigraph(circle_count, tuple(edges))
    return SeifertAnalysis(circle_count, tuple(circle_of), graph, tuple(circles))


def o_plus(d: Diagram) -> int:
    return seifert_analysis(d).o_plus


def diagram_sl(d: Diagram) -> int:
    return seifert_analysis(d).sl


def blocks(g: SignedMultigraph) -> list[tuple[int, ...]]:
    """Biconnected blocks of a loop-free multigraph as tuples of edge indices.

    Parallel edges land in a common block; a bridge forms a block of its
    own.  Isolated vertices belong to no block, so the search covers only
    the vertices up to the largest edge endpoint: free loops cost nothing.
    """
    ends = [(e.u, e.v) for e in g.edges]
    return biconnected_blocks(1 + max(map(max, ends), default=-1), ends)


def biconnected_blocks(vertex_count: int, ends: list[tuple[int, int]]) -> list[tuple[int, ...]]:
    """Blocks of the loop-free multigraph whose edge i joins ``ends[i]``.

    One iterative Tarjan DFS; each block is a sorted tuple of edge indices.
    """
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(vertex_count)]
    for ei, (u, v) in enumerate(ends):
        adjacency[u].append((v, ei))
        adjacency[v].append((u, ei))

    depth = [-1] * vertex_count
    low = [0] * vertex_count
    result: list[tuple[int, ...]] = []

    for root in range(vertex_count):
        if depth[root] >= 0 or not adjacency[root]:
            continue
        depth[root] = 0
        edge_stack: list[int] = []
        # Frames of (vertex, parent edge, adjacency iterator, edge-stack
        # height below the parent edge).
        stack = [(root, -1, iter(adjacency[root]), 0)]
        while stack:
            v, parent_edge, it, height = stack[-1]
            for w, ei in it:
                if depth[w] < 0:
                    stack.append((w, ei, iter(adjacency[w]), len(edge_stack)))
                    edge_stack.append(ei)
                    depth[w] = low[w] = depth[v] + 1
                    break
                if depth[w] < depth[v] and ei != parent_edge:
                    edge_stack.append(ei)
                    if depth[w] < low[v]:
                        low[v] = depth[w]
            else:
                stack.pop()
                if stack:
                    pv = stack[-1][0]
                    if low[v] < low[pv]:
                        low[pv] = low[v]
                    if low[v] >= depth[pv]:
                        result.append(tuple(sorted(edge_stack[height:])))
                        del edge_stack[height:]
    return result


def homogeneity(d: Diagram) -> HomogeneityReport:
    """Reads blocks of the Seifert graph, not faces: no planarity check."""
    return seifert_analysis(d).homogeneity
