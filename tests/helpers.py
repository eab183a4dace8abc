"""Shared corpus builders and independent oracles for the test suite.

The oracles here are deliberately naive: the index oracle enumerates raw
move sequences with no memoization or pruning, so it shares no code path
with the engine it checks.  The HOMFLY oracle runs the skein recursion
with no memo, from the other end of each diagram, and counts leaf
components with ``counts``.
"""

from __future__ import annotations

import itertools
import random
import sys

from linkdiag import DELTA, BraidWord, Diagram, LaurentPoly2, closure, counts, parse_braid
from linkdiag.diagram import DSU, Crossing, check_planar, faces, rebuild
from linkdiag.seifert import GraphEdge, SignedMultigraph
from linkdiag.vogel import _r2_insert

# --- fixture diagrams --------------------------------------------------

def fixture_words() -> dict[str, str]:
    return {
        "unknot": "braid n=1:",
        "kink_pos": "braid n=2: 1",
        "kink_neg": "braid n=2: -1",
        "trefoil": "braid n=2: 1 1 1",
        "trefoil_neg_kink": "braid n=3: 1 1 1 -2",
        "figure_eight": "braid n=3: 1 -2 1 -2",
        "hopf_plus": "braid n=2: 1 1",
        "torus_2_3": "braid n=2: 1 1 1",
        "torus_2_5": "braid n=2: 1 1 1 1 1",
        "torus_2_7": "braid n=2: 1 1 1 1 1 1 1",
        "torus_3_4": "braid n=3: 1 2 1 2 1 2 1 2",
        "torus_3_5": "braid n=3: 1 2 1 2 1 2 1 2 1 2",
        "granny_chain": "braid n=3: 1 1 1 2 2 2",
        "granny_chain_long": "braid n=4: 1 1 1 2 2 2 3 3 3",
    }


def fixture_diagrams() -> dict[str, Diagram]:
    return {name: closure(parse_braid(text)) for name, text in fixture_words().items()}


# --- braid corpora -----------------------------------------------------

def enumerate_words(strands: int, max_len: int):
    letters = [i for i in range(-(strands - 1), strands) if i != 0]
    for length in range(max_len + 1):
        for combo in itertools.product(letters, repeat=length):
            yield BraidWord(strands, combo)


def braid_corpus_full():
    """Stratified enumeration plus a seeded random tail, <= 8 letters, <= 4 strands."""
    words = []
    words.extend(enumerate_words(2, 8))
    words.extend(enumerate_words(3, 5))
    words.extend(enumerate_words(4, 4))
    rng = random.Random(20230817)
    for _ in range(300):
        n = rng.choice([3, 4])
        length = rng.randint(6, 8)
        words.append(random_word(rng, n, length))
    return words


def braid_corpus_small():
    words = []
    words.extend(enumerate_words(2, 6))
    words.extend(enumerate_words(3, 4))
    rng = random.Random(991)
    for _ in range(60):
        n = rng.choice([3, 4])
        words.append(random_word(rng, n, rng.randint(5, 7)))
    return words


def random_word(rng: random.Random, strands: int, length: int) -> BraidWord:
    letters = [i for i in range(-(strands - 1), strands) if i != 0]
    return BraidWord(strands, tuple(rng.choice(letters) for _ in range(length)))


def random_diagram(rng: random.Random, max_crossings: int = 8) -> Diagram:
    n = rng.randint(2, 4)
    length = rng.randint(1, max_crossings)
    return closure(random_word(rng, n, length))


# --- planar diagrams that are not closed braids ------------------------

def split_union(d1: Diagram, d2: Diagram, extra_loops: int = 0) -> Diagram:
    """``d1`` beside ``d2`` (arcs of ``d2`` shifted), plus ``extra_loops``."""
    shifted = tuple(Crossing(x.sign, *(arc + d1.arc_count for arc in x[1:])) for x in d2.crossings)
    return Diagram(
        d1.arc_count + d2.arc_count, d1.crossings + shifted, d1.free_loops + d2.free_loops + extra_loops
    )


def r2_moved(rng: random.Random, d: Diagram, moves: int) -> Diagram:
    """``d`` after oriented R2 insertions across same-way arcs of one face.

    Stops early, returning the diagram as it stands, when no face has a
    same-way pair (a diagram with no crossings has no faces at all).
    """
    for _ in range(moves):
        pairs = [
            (a, b, fa)
            for face in faces(d)
            for a, fa in face
            for b, fb in face
            if a < b and fa == fb
        ]
        if not pairs:
            break
        d = check_planar(_r2_insert(d, *rng.choice(pairs)))
    return d


def r1_kinked(rng: random.Random, d: Diagram, kinks: int) -> Diagram:
    """``d`` after Reidemeister-I kinks on arcs chosen by ``rng``.

    A kink on arc ``a`` adds a crossing where ``a`` ends: the strand runs
    through it, round a loop arc and out on a new arc, which takes ``a``'s
    old place at its head.  The strand passes first under or first over,
    and the crossing takes either sign.  Both ends of the loop arc are
    neighbouring slots of the new crossing, so the kink bounds a monogon
    and the diagram stays planar.  Stops early on a diagram with no
    crossings.
    """
    for _ in range(kinks):
        if not d.crossings:
            break
        a, loop, rest = rng.randrange(d.arc_count), d.arc_count, d.arc_count + 1
        crossings = [
            Crossing(x.sign, *(rest if arc == a and slot < 2 else arc for slot, arc in enumerate(x[1:])))
            for x in d.crossings
        ]
        sign = rng.choice((1, -1))
        if rng.random() < 0.5:
            crossings.append(Crossing(sign, a, loop, loop, rest))
        else:
            crossings.append(Crossing(sign, loop, a, rest, loop))
        d = check_planar(Diagram(d.arc_count + 2, tuple(crossings), d.free_loops))
    return d


def reverse_component(d: Diagram, rng: random.Random) -> Diagram:
    """``d`` with one link component, chosen by ``rng``, run backwards.

    Each crossing on the component swaps its in and out slots; its sign
    flips when exactly one of its two strands was reversed.
    """
    strand = DSU(d.arc_count)
    for x in d.crossings:
        strand.union(x.under_in, x.under_out)
        strand.union(x.over_in, x.over_out)
    comp = rng.choice(sorted({strand.find(a) for a in range(d.arc_count)}))
    crossings = []
    for x in d.crossings:
        ui, oi, uo, oo = x.under_in, x.over_in, x.under_out, x.over_out
        flip_u = strand.find(ui) == comp
        flip_o = strand.find(oi) == comp
        if flip_u:
            ui, uo = uo, ui
        if flip_o:
            oi, oo = oo, oi
        crossings.append(Crossing(-x.sign if flip_u != flip_o else x.sign, ui, oi, uo, oo))
    return check_planar(Diagram(d.arc_count, tuple(crossings), d.free_loops))


# --- call counting ------------------------------------------------------

def count_calls(monkeypatch, original):
    """Route every linkdiag module's name for ``original`` through a counter.

    Returns the list of argument tuples, one per call.
    """
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    for name in [n for n in sys.modules if n == "linkdiag" or n.startswith("linkdiag.")]:
        for attr, value in list(vars(sys.modules[name]).items()):
            if value is original:
                monkeypatch.setattr(sys.modules[name], attr, counted)
    return calls


# --- independent O+ oracle ---------------------------------------------

def oracle_o_plus(d: Diagram) -> int:
    """O+ on arcs: smooth each negative crossing, glue all four arcs of each
    positive one, and count the pieces and free loops."""
    dsu = DSU(d.arc_count)
    for x in d.crossings:
        if x.sign < 0:
            dsu.union(x.under_in, x.over_out)
            dsu.union(x.over_in, x.under_out)
        else:
            dsu.union(x.under_in, x.over_in)
            dsu.union(x.under_in, x.under_out)
            dsu.union(x.under_in, x.over_out)
    return len({dsu.find(a) for a in range(d.arc_count)}) + d.free_loops


# --- independent HOMFLY oracle -----------------------------------------

def oracle_homfly(d: Diagram) -> LaurentPoly2:
    """HOMFLY by unmemoized skein recursion with its own basepoints.

    Components are ordered by largest arc id and walked from that arc; the
    first crossing first passed on its under-strand is switched and
    smoothed.  Descending leaves are unlinks, counted with ``counts``.
    """
    ci = _oracle_discordant(d)
    if ci is None:
        return DELTA ** (counts(d).link_components - 1)
    x = d.crossings[ci]
    rest = d.crossings[:ci] + d.crossings[ci + 1:]
    flipped = Crossing(-x.sign, x.over_in, x.under_in, x.over_out, x.under_out)
    switched = Diagram(d.arc_count, d.crossings[:ci] + (flipped,) + d.crossings[ci + 1:], d.free_loops)
    smoothed = rebuild(d.arc_count, ((x.under_in, x.over_out), (x.over_in, x.under_out)), rest, d.free_loops)
    # v^-1 P(L+) - v P(L-) = z P(L0), solved for the crossing's own sign.
    s = x.sign
    return (
        LaurentPoly2.monomial(1, 2 * s, 0) * oracle_homfly(switched)
        + LaurentPoly2.monomial(s, s, 1) * oracle_homfly(smoothed)
    )


def _oracle_discordant(d: Diagram):
    step = {}
    for ci, x in enumerate(d.crossings):
        step[x.under_in] = (ci, True, x.under_out)
        step[x.over_in] = (ci, False, x.over_out)
    seen, passed = set(), set()
    for start in range(d.arc_count - 1, -1, -1):
        a = start
        while a not in seen:
            seen.add(a)
            ci, under, a = step[a]
            if ci not in passed:
                if under:
                    return ci
                passed.add(ci)
    return None


# --- independent index oracle ------------------------------------------

def oracle_ind(mult: tuple[tuple[int, ...], ...]) -> int:
    """Maximum number of lone-edge contractions, by raw enumeration."""
    n = len(mult)
    best = 0
    for a in range(n):
        for b in range(a + 1, n):
            if mult[a][b] == 1:
                best = max(best, 1 + oracle_ind(oracle_contract(mult, a, b)))
    return best


def oracle_contract(mult, a, b):
    n = len(mult)
    keep = [v for v in range(n) if v != b]
    rows = []
    for v in keep:
        row = []
        for w in keep:
            if v == w:
                row.append(0)
            else:
                count = mult[v][w]
                if v == a:
                    count += mult[b][w]
                if w == a:
                    count += mult[v][b]
                row.append(count)
        rows.append(tuple(row))
    return tuple(rows)


def oracle_ind_signed(g: SignedMultigraph, mode: int) -> int:
    """Sign-restricted index by raw enumeration on (u, v, sign) edge lists."""
    edges = [(e.u, e.v, e.sign) for e in g.edges]
    return _oracle_signed_rec(edges, mode)


def _oracle_signed_rec(edges, mode) -> int:
    mult = {}
    for u, v, _s in edges:
        key = (min(u, v), max(u, v))
        mult[key] = mult.get(key, 0) + 1
    best = 0
    for u, v, s in edges:
        if mult[(min(u, v), max(u, v))] != 1:
            continue
        if mode != 0 and s != mode:
            continue
        keep, drop = min(u, v), max(u, v)
        rest = [
            (keep if a == drop else a, keep if b == drop else b, t)
            for a, b, t in edges
            if {a, b} != {u, v}
        ]
        best = max(best, 1 + _oracle_signed_rec(rest, mode))
    return best


def oracle_min_witness(g: SignedMultigraph, mode: int) -> tuple[int, ...]:
    """Lexicographically smallest crossing-id sequence among maximum runs.

    Enumerates every legal run on (u, v, sign, crossing_id) edge lists.
    """
    return _oracle_best_run([(e.u, e.v, e.sign, e.crossing_id) for e in g.edges], mode)


def _oracle_best_run(edges, mode) -> tuple[int, ...]:
    mult = {}
    for u, v, _s, _c in edges:
        key = (min(u, v), max(u, v))
        mult[key] = mult.get(key, 0) + 1
    best: tuple[int, ...] = ()
    for u, v, s, c in edges:
        if mult[(min(u, v), max(u, v))] != 1 or (mode != 0 and s != mode):
            continue
        keep, drop = min(u, v), max(u, v)
        rest = [
            (keep if a == drop else a, keep if b == drop else b, t, cid)
            for a, b, t, cid in edges
            if {a, b} != {u, v}
        ]
        run = (c,) + _oracle_best_run(rest, mode)
        if (-len(run), run) < (-len(best), best):
            best = run
    return best


def graph_matrix(g: SignedMultigraph) -> tuple[tuple[int, ...], ...]:
    m = [[0] * g.vertex_count for _ in range(g.vertex_count)]
    for e in g.edges:
        m[e.u][e.v] += 1
        m[e.v][e.u] += 1
    return tuple(tuple(row) for row in m)


def graph_from_matrix(mult, signs=None) -> SignedMultigraph:
    edges = []
    cid = 0
    n = len(mult)
    for a in range(n):
        for b in range(a + 1, n):
            for _k in range(mult[a][b]):
                sign = signs[cid] if signs is not None else +1
                edges.append(GraphEdge(a, b, sign, cid))
                cid += 1
    return SignedMultigraph(n, tuple(edges))


def enumerate_multigraphs(max_vertices: int, max_edges: int):
    """All loop-free multigraphs up to isomorphism, as multiplicity matrices.

    Each relabelling orbit is canonicalised once, by a ``min`` over all n!
    relabellings when its first composition is met; every composition of
    the orbit is then marked as seen.
    """
    out = []
    for n in range(1, max_vertices + 1):
        pairs = list(itertools.combinations(range(n), 2))
        perms = list(itertools.permutations(range(n)))
        seen = set()
        for vec in _compositions(len(pairs), max_edges):
            if vec in seen:
                continue
            mult = [[0] * n for _ in range(n)]
            for (a, b), k in zip(pairs, vec):
                mult[a][b] = mult[b][a] = k
            relabelled = [
                tuple(tuple(mult[p[a]][p[b]] for b in range(n)) for a in range(n))
                for p in perms
            ]
            seen.update(tuple(m[a][b] for a, b in pairs) for m in relabelled)
            out.append(min(relabelled))
    return out


def _compositions(slots: int, max_total: int):
    """All nonnegative integer vectors of given length with sum <= max_total."""
    if slots == 0:
        yield ()
        return
    for head in range(max_total + 1):
        for tail in _compositions(slots - 1, max_total - head):
            yield (head,) + tail


def random_signed_graph(rng: random.Random, max_vertices: int = 6, max_edges: int = 8) -> SignedMultigraph:
    n = rng.randint(2, max_vertices)
    m = rng.randint(0, max_edges)
    edges = []
    for cid in range(m):
        a, b = rng.sample(range(n), 2)
        edges.append(GraphEdge(min(a, b), max(a, b), rng.choice([1, -1]), cid))
    return SignedMultigraph(n, tuple(edges))


# Block shapes that split under contraction: contracting the chord of the
# 4-cycle, or both edges of one path of the theta graph, leaves two
# parallel-only pairs.
CYCLE4_CHORD = ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2))
THETA = ((0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1))


def _random_block(rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """A biconnected block on at most 5 vertices, as (vertex count, pairs)."""
    shape = rng.randrange(4)
    if shape == 0:
        return 4, list(CYCLE4_CHORD)
    if shape == 1:
        return 5, list(THETA)
    if shape == 2:  # one vertex pair with 1-3 parallel edges
        return 2, [(0, 1)] * rng.randint(1, 3)
    k = rng.randint(3, 5)
    pairs = [(i, (i + 1) % k) for i in range(k)]
    for _ in range(rng.randint(0, 3)):
        pairs.append(tuple(rng.sample(range(k), 2)))
    return k, pairs


def glued_block_graph(rng: random.Random, max_vertices: int = 12):
    """A signed multigraph of 8..max_vertices vertices with known blocks.

    Glues 2-4 random blocks of at most 5 vertices at cut vertices, then
    hangs pendant bridges until the vertex count is reached; vertices and
    crossing ids are shuffled.  Returns ``(graph, blocks)`` with each block
    a list of crossing ids, built without any block finder.
    """
    while True:
        n, pieces = 1, []
        for _ in range(rng.randint(2, 4)):
            k, pairs = _random_block(rng)
            if n + k - 1 > max_vertices:
                break
            cut = rng.randrange(n)
            label = [cut] + list(range(n, n + k - 1))
            pieces.append([(label[a], label[b]) for a, b in pairs])
            n += k - 1
        if len(pieces) >= 2:
            break
    for v in range(n, rng.randint(max(n, 8), max(n, max_vertices))):
        pieces.append([(rng.randrange(v), v)])
        n = v + 1
    perm = list(range(n))
    rng.shuffle(perm)
    ids = list(range(sum(len(p) for p in pieces)))
    rng.shuffle(ids)
    edges, blocks = [], []
    for piece in pieces:
        blocks.append([])
        for a, b in piece:
            cid = ids[len(edges)]
            edges.append(GraphEdge(perm[a], perm[b], rng.choice([1, -1]), cid))
            blocks[-1].append(cid)
    return SignedMultigraph(n, tuple(edges)), blocks
