import random

import pytest

from linkdiag import closure, dhl_check, ind_all, ind_value, mirror, parse_braid, seifert_analysis
from linkdiag import graph_index
from linkdiag.graph_index import BLOCKED, MOVABLE, ReductionWitness, WitnessStep
from linkdiag.seifert import GraphEdge, SignedMultigraph, blocks

from helpers import (
    braid_corpus_small,
    glued_block_graph,
    graph_from_matrix,
    graph_matrix,
    oracle_ind,
    oracle_ind_signed,
    oracle_min_witness,
    random_signed_graph,
)


def test_parallel_opposite_signs_block_restricted_moves():
    # A lone pair is contractible for ind, but a negative edge parallel to
    # positive edges is never a legal ind_minus move.
    edges = (
        GraphEdge(0, 1, 1, 0),
        GraphEdge(1, 2, 1, 1),
        GraphEdge(1, 2, 1, 2),
        GraphEdge(1, 2, -1, 3),
    )
    r = ind_all(SignedMultigraph(3, edges))
    assert (r.ind, r.ind_plus, r.ind_minus) == (1, 1, 0)


def path_graph(lengths_signs):
    edges = []
    for i, sign in enumerate(lengths_signs):
        edges.append(GraphEdge(i, i + 1, sign, i))
    return SignedMultigraph(len(lengths_signs) + 1, tuple(edges))


def test_trefoil_graph_no_moves():
    g = SignedMultigraph(2, tuple(GraphEdge(0, 1, 1, i) for i in range(3)))
    r = ind_all(g)
    assert (r.ind, r.ind_plus, r.ind_minus) == (0, 0, 0)
    assert r.witness.steps == ()


def test_path_two_edges():
    r = ind_all(path_graph([1, 1]))
    assert r.ind == 2
    assert [s.crossing_id for s in r.witness.steps] == [0, 1]


def test_triangle_single_edges():
    edges = (GraphEdge(0, 1, 1, 0), GraphEdge(1, 2, 1, 1), GraphEdge(0, 2, 1, 2))
    g = SignedMultigraph(3, edges)
    r = ind_all(g)
    assert r.ind == 1
    assert oracle_ind(graph_matrix(g)) == 1


def test_dhl_examples():
    tref = SignedMultigraph(2, tuple(GraphEdge(0, 1, 1, i) for i in range(3)))
    assert dhl_check(tref) == (False, [])
    kink = SignedMultigraph(2, (GraphEdge(0, 1, 1, 0),))
    assert dhl_check(kink) == (True, [(0, 1)])
    f8 = SignedMultigraph(
        3,
        (
            GraphEdge(0, 1, 1, 0),
            GraphEdge(0, 1, 1, 1),
            GraphEdge(1, 2, -1, 2),
            GraphEdge(1, 2, -1, 3),
        ),
    )
    assert dhl_check(f8) == (False, [])


def test_size_limit_flag():
    g = SignedMultigraph(16, ())
    r = ind_all(g, vertex_cap=14)
    assert r.size_limited and r.ind is None


def test_oracle_agreement_random():
    rng = random.Random(11)
    for _ in range(150):
        g = random_signed_graph(rng, max_vertices=5, max_edges=7)
        r = ind_all(g)
        assert r.ind == oracle_ind(graph_matrix(g))
        assert r.ind == oracle_ind_signed(g, 0)
        assert r.ind_plus == oracle_ind_signed(g, +1)
        assert r.ind_minus == oracle_ind_signed(g, -1)


def test_search_stops_at_the_part_floor(monkeypatch):
    # A remaining vertex set needs one part per component of its movable
    # pairs, and two for a component that is not itself a part (its pairs
    # close a cycle or hold a blocked pair).  On these blocks that floor is
    # the fewest parts in every mode, so each search ends at its first
    # partition that meets it.  The number of parts tried pins that stop;
    # the same search without it tries 9 and 54.
    tried = []
    parts = graph_index._parts

    def counting(movable, blocked, rest):
        for part in parts(movable, blocked, rest):
            tried.append(part)
            yield part

    monkeypatch.setattr(graph_index, "_parts", counting)
    square = SignedMultigraph(
        4, tuple(GraphEdge(i, (i + 1) % 4, 1, i) for i in range(4)) + (GraphEdge(0, 2, 1, 4), GraphEdge(0, 2, 1, 5))
    )
    signs = (1, -1, 1, -1, 1, -1)
    hexagon = SignedMultigraph(
        6, tuple(GraphEdge(i, (i + 1) % 6, signs[i], i) for i in range(6)) + (GraphEdge(0, 3, 1, 6), GraphEdge(0, 3, -1, 7))
    )
    for g, count, indices in ((square, 2, (2, 2, 0)), (hexagon, 20, (4, 3, 3))):
        tried.clear()
        r = ind_all(g)
        assert len(tried) == count
        assert (r.ind, r.ind_plus, r.ind_minus) == indices
        everything = (1 << g.vertex_count) - 1
        for mode, value in zip((0, +1, -1), indices):
            m = graph_index._matrix(g, mode)
            floor = graph_index._floor(graph_index._rows(m, MOVABLE), graph_index._rows(m, BLOCKED), everything)
            assert floor == g.vertex_count - value
        assert r.ind == oracle_ind(graph_matrix(g))
        assert indices == tuple(oracle_ind_signed(g, mode) for mode in (0, +1, -1))


def test_dhl_iff_ind_zero_random():
    rng = random.Random(12)
    for _ in range(150):
        g = random_signed_graph(rng, max_vertices=5, max_edges=7)
        has_lone, _pairs = dhl_check(g)
        assert (ind_all(g).ind == 0) == (not has_lone)


def test_witness_replay_is_legal():
    rng = random.Random(13)
    for _ in range(80):
        g = random_signed_graph(rng, max_vertices=6, max_edges=8)
        r = ind_all(g)
        _replay(g, r.witness, r.ind, 0)
        _replay(g, r.witness_plus, r.ind_plus, +1)
        _replay(g, r.witness_minus, r.ind_minus, -1)


def test_witness_is_lexicographically_smallest():
    rng = random.Random(16)
    for _ in range(150):
        g = random_signed_graph(rng, max_vertices=6, max_edges=8)
        r = ind_all(g)
        for witness, mode in ((r.witness, 0), (r.witness_plus, +1), (r.witness_minus, -1)):
            ids = tuple(step.crossing_id for step in witness.steps)
            assert ids == oracle_min_witness(g, mode)


def _replay(g, witness, expected_len, mode):
    assert len(witness.steps) == expected_len
    edges = [(e.u, e.v, e.sign, e.crossing_id) for e in g.edges]
    for step in witness.steps:
        live = [e for e in edges if e[3] == step.crossing_id]
        assert len(live) == 1
        u, v, sign, _cid = live[0]
        assert mode == 0 or sign == mode
        between = [e for e in edges if {e[0], e[1]} == {u, v}]
        assert len(between) == 1
        keep, drop = min(u, v), max(u, v)
        edges = [
            (keep if a == drop else a, keep if b == drop else b, s, c)
            for a, b, s, c in edges
            if {a, b} != {u, v}
        ]


def test_disjoint_union_additivity():
    rng = random.Random(14)
    for _ in range(40):
        g1 = random_signed_graph(rng, max_vertices=4, max_edges=5)
        g2 = random_signed_graph(rng, max_vertices=4, max_edges=5)
        shift = g1.vertex_count
        merged = SignedMultigraph(
            g1.vertex_count + g2.vertex_count,
            g1.edges
            + tuple(
                GraphEdge(e.u + shift, e.v + shift, e.sign, e.crossing_id + 100)
                for e in g2.edges
            ),
        )
        assert ind_value(merged) == ind_value(g1) + ind_value(g2)


def test_block_additivity_oracle():
    rng = random.Random(15)
    for _ in range(80):
        g = random_signed_graph(rng, max_vertices=6, max_edges=8)
        total = 0
        for block in blocks(g):
            sub_edges = tuple(g.edges[i] for i in block)
            verts = sorted({v for e in sub_edges for v in (e.u, e.v)})
            relabel = {v: i for i, v in enumerate(verts)}
            sub = SignedMultigraph(
                len(verts),
                tuple(GraphEdge(relabel[e.u], relabel[e.v], e.sign, e.crossing_id) for e in sub_edges),
            )
            total += oracle_ind(graph_matrix(sub))
        assert ind_value(g) == total


def _sub_graph(g, crossing_ids):
    sub_edges = [e for e in g.edges if e.crossing_id in set(crossing_ids)]
    verts = sorted({v for e in sub_edges for v in (e.u, e.v)})
    relabel = {v: i for i, v in enumerate(verts)}
    return SignedMultigraph(
        len(verts),
        tuple(GraphEdge(relabel[e.u], relabel[e.v], e.sign, e.crossing_id) for e in sub_edges),
    )


def test_glued_blocks_sum_and_witnesses():
    rng = random.Random(17)
    for _ in range(40):
        g, glued = glued_block_graph(rng)
        r = ind_all(g)
        for value, witness, mode in (
            (r.ind, r.witness, 0),
            (r.ind_plus, r.witness_plus, +1),
            (r.ind_minus, r.witness_minus, -1),
        ):
            assert value == sum(oracle_ind_signed(_sub_graph(g, ids), mode) for ids in glued)
            _replay(g, witness, value, mode)


def test_glued_blocks_witness_is_lexicographically_smallest():
    rng = random.Random(18)
    for _ in range(12):
        g, _glued = glued_block_graph(rng, max_vertices=8)
        r = ind_all(g)
        for witness, mode in ((r.witness, 0), (r.witness_plus, +1), (r.witness_minus, -1)):
            ids = tuple(step.crossing_id for step in witness.steps)
            assert ids == oracle_min_witness(g, mode)


def test_vertex_cap_counts_whole_graph():
    # Every block of a path is a bridge, yet the cap still counts all
    # fifteen vertices.
    path = path_graph([1] * 14)
    assert ind_all(path).size_limited
    r = ind_all(path, vertex_cap=15)
    assert not r.size_limited
    assert (r.ind, r.ind_plus, r.ind_minus) == (14, 14, 0)
    assert [s.crossing_id for s in r.witness.steps] == list(range(14))


def test_mirror_swaps_sign_indices():
    for w in braid_corpus_small()[:200]:
        d = closure(w)
        g = seifert_analysis(d).graph
        mg = seifert_analysis(mirror(d)).graph
        r, mr = ind_all(g), ind_all(mg)
        assert mr.ind_minus == r.ind_plus
        assert mr.ind_plus == r.ind_minus
        assert mr.ind == r.ind


def test_homogeneous_index_splits():
    from linkdiag import counts, homogeneity

    for w in braid_corpus_small()[:300]:
        d = closure(w)
        g = seifert_analysis(d).graph
        r = ind_all(g)
        assert r.ind_plus + r.ind_minus >= r.ind
        if homogeneity(d).is_homogeneous:
            assert r.ind_plus + r.ind_minus == r.ind


def test_negative_special_block_lemma():
    # For a sign-pure negative factor with no valence-one vertex, the
    # negative index stays strictly below (O+ of its sub-diagram) - 1:
    # min valence >= 2 forces at least V edges, so a full contraction to
    # a point is impossible.
    from linkdiag import counts, homogeneity, o_plus
    from test_seifert import _sub_diagram

    for w in braid_corpus_small():
        d = closure(w)
        if counts(d).split_parts != 1:
            continue
        g = seifert_analysis(d).graph
        rep = homogeneity(d)
        for f in rep.factors:
            if f.sign != -1:
                continue
            valence = {}
            for ei in f.edge_ids:
                e = g.edges[ei]
                valence[e.u] = valence.get(e.u, 0) + 1
                valence[e.v] = valence.get(e.v, 0) + 1
            if any(v == 1 for v in valence.values()):
                continue
            sub = _sub_diagram(d, [g.edges[ei].crossing_id for ei in f.edge_ids])
            sub_g = seifert_analysis(sub).graph
            assert ind_all(sub_g).ind_minus < o_plus(sub) - 1


def _positive_graph(n, pairs):
    return SignedMultigraph(n, tuple(GraphEdge(u, v, 1, i) for i, (u, v) in enumerate(pairs)))


def _grid(rows, cols):
    at = lambda r, c: r * cols + c  # noqa: E731
    pairs = [(at(r, c), at(r, c + 1)) for r in range(rows) for c in range(cols - 1)]
    pairs += [(at(r, c), at(r + 1, c)) for r in range(rows - 1) for c in range(cols)]
    return _positive_graph(rows * cols, pairs)


WORST_CASES = {
    "star": (_positive_graph(14, [(0, v) for v in range(1, 14)]), 13),
    "path": (_positive_graph(14, [(v, v + 1) for v in range(13)]), 13),
    "cycle": (_positive_graph(14, [(v, (v + 1) % 14) for v in range(14)]), 12),
    "wheel": (_positive_graph(14, [(0, v) for v in range(1, 14)] + [(v, v % 13 + 1) for v in range(1, 14)]), 12),
    "ladder_2x7": (_grid(2, 7), 12),
    "grid_3x4": (_grid(3, 4), 10),
    "k_5_5": (_positive_graph(10, [(u, v) for u in range(5) for v in range(5, 10)]), 8),
    "k_2_12": (_positive_graph(14, [(u, v) for u in range(2) for v in range(2, 14)]), 12),
}


def test_worst_case_families_at_the_vertex_cap():
    # Single positive edges: every pair is movable in modes 0 and +1 and
    # blocked in mode -1.  Each 2-connected family keeps two parts or more
    # (a cycle needs two trees, a 3x4 grid and K_{5,5} two each), and every
    # witness replays as a legal run of its length.
    for name, (g, value) in WORST_CASES.items():
        r = ind_all(g)
        assert (r.ind, r.ind_plus, r.ind_minus) == (value, value, 0), name
        _replay(g, r.witness, value, 0)
        _replay(g, r.witness_plus, value, +1)
        _replay(g, r.witness_minus, 0, -1)
        assert r.witness == r.witness_plus


def test_ind_all_keeps_no_state_between_calls():
    import gc
    import tracemalloc

    g = _grid(2, 4)
    ind_all(g)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(200):
            ind_all(g)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 1024
    cached = [
        name
        for name, value in vars(graph_index).items()
        if isinstance(value, (dict, list, set)) and not name.startswith("__") or hasattr(value, "cache_info")
    ]
    assert cached == []


def test_index_report_surface():
    import gc
    import tracemalloc

    big = 2**70
    g = SignedMultigraph(
        5,
        (GraphEdge(0, 1, 1, 300), GraphEdge(1, 2, -1, 70000), GraphEdge(2, 3, 1, -5), GraphEdge(3, 4, -1, big)),
    )
    r = ind_all(g)
    assert (r.ind, r.ind_plus, r.ind_minus) == (4, 2, 2)
    assert r == ind_all(g) and hash(r) == hash(ind_all(g))
    assert r != ind_all(path_graph([1, -1, 1, -1]))
    for field in ("ind", "packed", "witness", "size_limited"):
        # A property of a frozen dataclass with slots raises TypeError on CPython 3.11.
        with pytest.raises((AttributeError, TypeError)):
            setattr(r, field, None)
    assert isinstance(r.witness, ReductionWitness) and r.witness == ind_all(g).witness
    witnesses = (r.witness, r.witness_plus, r.witness_minus)
    steps = [[(s.crossing_id, s.sign, s.kept, s.dropped, s.merged) for s in w.steps] for w in witnesses]
    assert all(type(s) is WitnessStep for w in witnesses for s in w.steps)
    assert steps == [
        [(-5, 1, 2, 3, (2, 3)), (300, 1, 0, 1, (0, 1)), (70000, -1, 0, 2, (0, 2)), (big, -1, 0, 4, (0, 4))],
        [(-5, 1, 2, 3, (2, 3)), (300, 1, 0, 1, (0, 1))],
        [(70000, -1, 1, 2, (1, 2)), (big, -1, 3, 4, (3, 4))],
    ]
    _replay(g, r.witness, 4, 0)
    limited = ind_all(g, vertex_cap=3)
    assert limited.size_limited and limited.witness is None and limited.witness_minus is None

    # A retained report on 10 vertices: three indices and its packed steps.
    rng = random.Random(19)
    pairs = rng.sample([(u, v) for u in range(10) for v in range(u + 1, 10)], 13)
    edges = pairs + pairs[:3]
    g = SignedMultigraph(10, tuple(GraphEdge(u, v, rng.choice((1, -1)), i) for i, (u, v) in enumerate(edges)))
    ind_all(g)
    kept = [None] * 20
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(len(kept)):
            kept[i] = ind_all(g)
        gc.collect()
        retained = (tracemalloc.get_traced_memory()[0] - before) / len(kept)
    finally:
        tracemalloc.stop()
    assert kept[0].ind > 0
    assert retained <= 256
