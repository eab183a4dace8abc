import random

import pytest

from linkdiag import (
    braid_sl,
    closure,
    counts,
    diagram_sl,
    graph_from_edge_list,
    homogeneity,
    mirror,
    o_plus,
    parse_braid,
    seifert_analysis,
)
from linkdiag.diagram import Crossing, Diagram
from linkdiag.errors import InvariantError, LoopEdgeError
from linkdiag.seifert import GraphEdge, SignedMultigraph

from helpers import (
    braid_corpus_small,
    fixture_diagrams,
    oracle_o_plus,
    r2_moved,
    random_diagram,
    random_word,
    split_union,
)


def test_trefoil_graph():
    d = closure(parse_braid("braid n=2: 1 1 1"))
    a = seifert_analysis(d)
    assert a.circle_count == 2
    assert len(a.graph.edges) == 3
    assert all({e.u, e.v} == {0, 1} and e.sign == 1 for e in a.graph.edges)


def test_figure_eight_graph():
    d = closure(parse_braid("braid n=3: 1 -2 1 -2"))
    a = seifert_analysis(d)
    assert a.circle_count == 3
    mult = a.graph.multiplicity()
    assert sorted(mult.values()) == [2, 2]
    signs = {}
    for e in a.graph.edges:
        signs.setdefault((e.u, e.v), set()).add(e.sign)
    assert sorted(s.pop() for s in signs.values()) == [-1, 1]


def test_kink_graph():
    d = closure(parse_braid("braid n=2: 1"))
    a = seifert_analysis(d)
    assert a.circle_count == 2
    assert len(a.graph.edges) == 1


def test_free_loop_isolated_vertex():
    d = closure(parse_braid("braid n=3: 1"))
    a = seifert_analysis(d)
    assert a.circle_count == 3
    assert d.free_loops == 1


def test_loop_edge_rejected():
    # A (virtual-style) code whose smoothing lands both strands on one circle.
    d = Diagram(2, (Crossing(1, 0, 1, 0, 1),), 0)
    for invariant in (seifert_analysis, o_plus, diagram_sl, homogeneity):
        with pytest.raises(LoopEdgeError):
            invariant(d)


def test_sl_values():
    fx = fixture_diagrams()
    assert diagram_sl(fx["trefoil"]) == 1
    assert diagram_sl(fx["figure_eight"]) == -3
    assert diagram_sl(fx["unknot"]) == -1
    assert diagram_sl(fx["trefoil_neg_kink"]) == -1


def test_o_plus_values():
    fx = fixture_diagrams()
    assert o_plus(fx["trefoil"]) == 1
    assert o_plus(fx["figure_eight"]) == 2
    assert o_plus(fx["trefoil_neg_kink"]) == 2
    assert o_plus(fx["granny_chain"]) == 1


def _non_braid_corpus():
    """Seeded R2-moved closures, some with no crossings, and split unions
    of them with free loops beside."""
    rng = random.Random(6)
    moved = []
    for _ in range(300):
        d = closure(random_word(rng, rng.randint(2, 4), rng.randint(0, 7)))
        moved.append(r2_moved(rng, d, rng.randint(1, 3)))
    unions = [
        split_union(rng.choice(moved), random_diagram(rng, 5), rng.randint(0, 2)) for _ in range(300)
    ]
    return moved + unions


def test_graph_invariants_match_arc_oracles_off_braids():
    for d in _non_braid_corpus():
        c = counts(d)
        assert o_plus(d) == oracle_o_plus(d)
        assert diagram_sl(d) == -seifert_analysis(d).circle_count + c.c_plus - c.c_minus
        assert homogeneity(d).is_positive_diagram == (c.c_minus == 0)


def test_circles_walk_the_smoothing_from_their_smallest_arc():
    for d in _non_braid_corpus():
        a = seifert_analysis(d)
        smoothed = {}
        for x in d.crossings:
            smoothed[x.under_in] = x.over_out
            smoothed[x.over_in] = x.under_out
        assert len(a.circles) + d.free_loops == a.circle_count
        assert sorted(arc for circle in a.circles for arc in circle) == list(range(d.arc_count))
        assert [circle[0] for circle in a.circles] == sorted(min(circle) for circle in a.circles)
        for i, circle in enumerate(a.circles):
            assert circle[0] == min(circle)
            assert [smoothed[arc] for arc in circle] == list(circle[1:] + circle[:1])
            assert {a.circle_of_arc[arc] for arc in circle} == {i}


def test_r2_moved_without_faces_is_unchanged():
    loops = closure(parse_braid("braid n=3:"))
    assert r2_moved(random.Random(0), loops, 2) == loops


def test_o_plus_split_additivity():
    a = closure(parse_braid("braid n=2: 1 1 1"))
    assert o_plus(split_union(a, a)) == 2


def test_homogeneity_fixtures():
    fx = fixture_diagrams()
    f8 = homogeneity(fx["figure_eight"])
    assert f8.is_homogeneous and f8.is_reduced
    assert sorted(f.sign for f in f8.factors) == [-1, 1]

    tk = homogeneity(fx["trefoil_neg_kink"])
    assert tk.is_homogeneous and not tk.is_reduced
    assert sorted((f.sign, len(f.edge_ids)) for f in tk.factors) == [(-1, 1), (1, 3)]

    mixed = homogeneity(closure(parse_braid("braid n=2: 1 -1 1")))
    assert not mixed.is_homogeneous

    tref = homogeneity(fx["trefoil"])
    assert tref.is_homogeneous and tref.is_reduced and tref.is_special
    assert tref.is_positive_diagram


def test_mirror_identities_on_corpus():
    for w in braid_corpus_small()[:400]:
        d = closure(w)
        a = seifert_analysis(d)
        m = mirror(d)
        assert seifert_analysis(m).circle_count == a.circle_count
        assert diagram_sl(d) + diagram_sl(m) == -2 * a.circle_count


def test_braid_closure_o_and_sl():
    rng = random.Random(4)
    for _ in range(100):
        w = random_word(rng, rng.randint(2, 4), rng.randint(1, 8))
        d = closure(w)
        assert seifert_analysis(d).circle_count == w.strands
        assert diagram_sl(d) == braid_sl(w)
        assert counts(d).writhe == w.exponent_sum


def test_positive_diagram_o_plus_equals_split_parts():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(2, 4)
        w = random_word(rng, n, rng.randint(1, 7))
        pos = type(w)(w.strands, tuple(abs(x) for x in w.letters))
        d = closure(pos)
        assert o_plus(d) == counts(d).split_parts


def test_homogeneous_o_plus_one_implies_positive():
    for w in braid_corpus_small():
        d = closure(w)
        c = counts(d)
        if c.split_parts != 1:
            continue
        rep = homogeneity(d)
        if rep.is_homogeneous and o_plus(d) == 1:
            assert c.c_minus == 0


def test_o_plus_star_factor_additivity():
    # O+(D)-1 equals the sum of per-factor (O+ - 1), computed on the
    # sub-diagram supported by each factor's crossings.
    for w in braid_corpus_small()[:600]:
        d = closure(w)
        if counts(d).split_parts != 1 or not d.crossings:
            continue
        rep = homogeneity(d)
        total = 0
        for f in rep.factors:
            sub = _sub_diagram(d, f.edge_ids)
            total += o_plus(sub) - counts(sub).split_parts
        assert o_plus(d) - 1 == total


def _sub_diagram(d: Diagram, crossing_ids) -> Diagram:
    keep = set(crossing_ids)
    from linkdiag.diagram import DSU

    dsu = DSU(d.arc_count)
    for ci, x in enumerate(d.crossings):
        if ci not in keep:
            dsu.union(x.under_in, x.over_out)
            dsu.union(x.over_in, x.under_out)
    used = set()
    kept = []
    for ci, x in enumerate(d.crossings):
        if ci not in keep:
            continue
        arcs = [dsu.find(a) for a in (x.under_in, x.over_in, x.under_out, x.over_out)]
        used.update(arcs)
        kept.append((x.sign, arcs))
    live = sorted(used)
    relabel = {rep: i for i, rep in enumerate(live)}
    crossings = tuple(
        Crossing(sign, relabel[a[0]], relabel[a[1]], relabel[a[2]], relabel[a[3]])
        for sign, a in kept
    )
    return Diagram(2 * len(crossings), crossings, 0)


def test_alternating_corpus_homogeneous():
    # Standard alternating forms in the corpus: (2,k) torus closures and
    # alternating 3-braids sigma_1^a sigma_2^-b.
    alternating = ["braid n=2: " + "1 " * k for k in range(1, 8)]
    alternating += [
        "braid n=3: 1 -2 1 -2",
        "braid n=3: 1 1 -2 -2",
        "braid n=3: 1 1 1 -2",
        "braid n=3: 1 -2 -2 -2",
    ]
    for text in alternating:
        assert homogeneity(closure(parse_braid(text))).is_homogeneous


def test_edge_list_round_trip():
    d = closure(parse_braid("braid n=3: 1 1 -2 -2"))
    g = seifert_analysis(d).graph
    g2 = graph_from_edge_list(g.to_edge_list())
    assert g2 == g


def _rejected(text):
    with pytest.raises(InvariantError) as exc:
        graph_from_edge_list(text)
    assert "\n" not in str(exc.value)
    return str(exc.value)


def test_edge_list_rejects_sign_other_than_unit():
    # Signs 0 and 7 used to be read as negative and positive.
    assert "sign" in _rejected("vertices:3\n0 1 +0 0\n1 2 +1 1\n")
    assert "sign" in _rejected("vertices:3\n0 1 +1 0\n1 2 +7 1\n")
    with pytest.raises(InvariantError):
        SignedMultigraph(2, (GraphEdge(0, 1, 2, 0),))


def test_edge_list_rejects_duplicate_crossing_id():
    assert "duplicate" in _rejected("vertices:3\n0 1 +1 4\n1 2 -1 4\n")
    with pytest.raises(InvariantError):
        SignedMultigraph(3, (GraphEdge(0, 1, 1, 0), GraphEdge(1, 2, 1, 0)))


def test_edge_list_rejects_negative_vertex_count():
    assert "vertex count" in _rejected("vertices:-1\n")
    with pytest.raises(InvariantError):
        SignedMultigraph(-2, ())


def test_edge_list_rejects_non_integer_field():
    assert "'x'" in _rejected("vertices:x\n")
    assert "'1.5'" in _rejected("vertices:3\n0 1.5 +1 0\n")
    assert "'a'" in _rejected("vertices:3\n0 1 +1 a\n")
    with pytest.raises(InvariantError):
        SignedMultigraph(3, (GraphEdge(0, 1, 1, "0"),))
