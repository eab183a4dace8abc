import random

from linkdiag import closure, dhl_check, ind_all, ind_value, mirror, parse_braid, seifert_analysis
from linkdiag import graph_index
from linkdiag.graph_index import IndexReport
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


def test_blocked_pairs_lower_the_search_bound(monkeypatch):
    # Each block stops at n minus the components of its movable pairs,
    # minus one more for each component that holds a blocked pair: a
    # blocked pair's ends never merge.  The contraction count pins that
    # stop; a search bounded by the movable forest alone makes 10 and 42.
    calls = []
    contract = graph_index._contract

    def counting(m, a, b):
        calls.append((a, b))
        return contract(m, a, b)

    monkeypatch.setattr(graph_index, "_contract", counting)
    square = SignedMultigraph(
        4, tuple(GraphEdge(i, (i + 1) % 4, 1, i) for i in range(4)) + (GraphEdge(0, 2, 1, 4), GraphEdge(0, 2, 1, 5))
    )
    signs = (1, -1, 1, -1, 1, -1)
    hexagon = SignedMultigraph(
        6, tuple(GraphEdge(i, (i + 1) % 6, signs[i], i) for i in range(6)) + (GraphEdge(0, 3, 1, 6), GraphEdge(0, 3, -1, 7))
    )
    for g, contractions, indices in ((square, 6, (2, 2, 0)), (hexagon, 21, (4, 3, 3))):
        calls.clear()
        r = ind_all(g)
        assert len(calls) == contractions
        assert (r.ind, r.ind_plus, r.ind_minus) == indices
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
