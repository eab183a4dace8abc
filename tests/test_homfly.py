import random

import pytest

from linkdiag import (
    DELTA,
    LaurentPoly2,
    closure,
    counts,
    degree_report,
    homfly,
    ind_all,
    mirror,
    parse_braid,
    seifert_analysis,
)
from linkdiag.braids import BraidWord
from linkdiag.diagram import Crossing, Diagram
from linkdiag.errors import SizeLimitError
from linkdiag.homfly import _r2_bigon, _smooth, _switch

from helpers import fixture_diagrams, oracle_homfly, r2_moved, random_diagram, random_word, split_union

TREFOIL_P = LaurentPoly2({(2, 0): 2, (4, 0): -1, (2, 2): 1})
HOPF_P = LaurentPoly2({(1, 1): 1, (1, -1): 1, (3, -1): -1})
FIG8_P = LaurentPoly2({(-2, 0): 1, (0, 0): -1, (2, 0): 1, (0, 2): -1})


def test_poly_arithmetic():
    a = LaurentPoly2({(1, 0): 2, (0, 1): -1})
    b = LaurentPoly2({(1, 0): -2, (0, 0): 3})
    assert (a + b) == LaurentPoly2({(0, 1): -1, (0, 0): 3})
    assert (a - a).is_zero()
    assert a * LaurentPoly2.one() == a
    assert str(LaurentPoly2({(4, 0): -1, (2, 0): 2, (2, 2): 1})) == "-v^4 + 2v^2 + v^2 z^2"
    assert DELTA == LaurentPoly2({(-1, -1): 1, (1, -1): -1})


def test_unknot_and_unlinks():
    fx = fixture_diagrams()
    assert homfly(fx["unknot"]) == LaurentPoly2.one()
    two_unlink = closure(parse_braid("braid n=2:"))
    assert homfly(two_unlink) == DELTA
    three_unlink = closure(parse_braid("braid n=3:"))
    assert homfly(three_unlink) == DELTA * DELTA


def test_hand_skein_values():
    fx = fixture_diagrams()
    assert homfly(fx["trefoil"]) == TREFOIL_P
    assert homfly(fx["hopf_plus"]) == HOPF_P
    assert homfly(fx["figure_eight"]) == FIG8_P


def test_invariance_under_kinks_and_mirrors():
    fx = fixture_diagrams()
    assert homfly(fx["trefoil_neg_kink"]) == TREFOIL_P
    assert homfly(fx["kink_pos"]) == LaurentPoly2.one()
    assert homfly(mirror(fx["figure_eight"])) == FIG8_P  # amphichiral


def test_size_limit():
    d = closure(parse_braid("braid n=2: " + "1 " * 17))
    with pytest.raises(SizeLimitError):
        homfly(d)


def test_free_loops_count_against_the_cap():
    d = closure(parse_braid("braid n=20: 1"))
    assert d.free_loops == 18
    with pytest.raises(SizeLimitError, match="18 free loops"):
        homfly(d)
    assert homfly(d, 18) == DELTA ** 18


def test_skein_relation_random():
    rng = random.Random(71)
    z = LaurentPoly2.monomial(1, 0, 1)
    v = LaurentPoly2.monomial(1, 1, 0)
    vinv = LaurentPoly2.monomial(1, -1, 0)
    for _ in range(120):
        d = random_diagram(rng, 8)
        if not d.crossings:
            continue
        ci = rng.randrange(len(d.crossings))
        plus_first = d.crossings[ci].sign > 0
        d_plus = d if plus_first else _switch(d, ci)
        d_minus = _switch(d, ci) if plus_first else d
        d_zero = _smooth(d, ci)
        lhs = vinv * homfly(d_plus) - v * homfly(d_minus)
        rhs = z * homfly(d_zero)
        assert lhs == rhs


def test_markov_stabilization_invariance():
    rng = random.Random(72)
    for _ in range(60):
        n = rng.randint(2, 3)
        w = random_word(rng, n, rng.randint(1, 6))
        stabilized = type(w)(n + 1, w.letters + (n,))
        destabilized_neg = type(w)(n + 1, w.letters + (-n,))
        p = homfly(closure(w))
        assert homfly(closure(stabilized)) == p
        assert homfly(closure(destabilized_neg)) == p


def test_mirror_substitution():
    rng = random.Random(73)
    for _ in range(60):
        d = random_diagram(rng, 7)
        assert homfly(mirror(d)) == homfly(d).substitute_v_neg_inv()


def test_split_union_multiplicativity():
    rng = random.Random(74)
    for _ in range(40):
        d1 = random_diagram(rng, 4)
        d2 = random_diagram(rng, 4)
        assert homfly(split_union(d1, d2)) == DELTA * homfly(d1) * homfly(d2)


def test_matches_unmemoized_oracle():
    rng = random.Random(77)
    cases = [random_diagram(rng, 9) for _ in range(80)]
    cases += [split_union(random_diagram(rng, 4), random_diagram(rng, 4), rng.randint(0, 2)) for _ in range(30)]
    cases += [closure(parse_braid("braid n=2: " + "1 " * q)) for q in range(1, 11)]
    cases += [closure(parse_braid("braid n=3: " + "1 2 " * q)) for q in range(1, 5)]
    for _ in range(30):
        n = rng.randint(2, 4)
        cases.append(closure(BraidWord(n, tuple(rng.randint(1, n - 1) for _ in range(rng.randint(1, 9))))))
    for _ in range(30):
        # Split parts with cancellable bigons, and free loops beside them.
        a = closure(BraidWord(3, (1, -1, 2, -2) + random_word(rng, 3, 2).letters))
        b = r2_moved(rng, closure(random_word(rng, 2, rng.randint(2, 3))), 1)
        cases.append(split_union(a, b, rng.randint(0, 2)))
    for d in cases:
        assert homfly(d) == oracle_homfly(d)


def test_r2_bigon_finder():
    d = closure(parse_braid("braid n=2: 1 -1 1"))
    pair = _r2_bigon(d)
    assert pair is not None
    assert sorted(d.crossings[ci].sign for ci in pair) == [-1, 1]
    # The Hopf clasp's bigons have equal signs; so have T(2,5)'s and, in
    # its alternating diagram, the figure-eight's.
    for text in ("braid n=2: 1 1", "braid n=2: 1 1 1 1 1", "braid n=3: 1 -2 1 -2"):
        assert _r2_bigon(closure(parse_braid(text))) is None


def test_r2_moved_closures_match_oracle():
    # Not closed braids, planar, and rich in bigons the skein cancels.
    rng = random.Random(78)
    for _ in range(60):
        d = closure(random_word(rng, rng.randint(2, 4), rng.randint(2, 6)))
        moved = r2_moved(rng, d, rng.randint(1, 3))
        assert _r2_bigon(moved) is not None
        assert homfly(moved) == homfly(d) == oracle_homfly(moved)


def test_cancelling_letters_match_oracle():
    rng = random.Random(79)
    for _ in range(60):
        n = rng.randint(2, 4)
        w = random_word(rng, n, rng.randint(0, 6))
        i = rng.randint(0, len(w.letters))
        g = rng.choice([k for k in range(1 - n, n) if k])
        d = closure(BraidWord(n, w.letters[:i] + (g, -g) + w.letters[i:]))
        assert _r2_bigon(d) is not None
        assert homfly(d) == homfly(closure(w)) == oracle_homfly(d)


def test_no_state_survives_a_call():
    fx = fixture_diagrams()
    a, b = fx["torus_3_5"], fx["figure_eight"]
    first = homfly(a).triples()
    homfly(b)
    assert homfly(a).triples() == first


def test_degree_report_trefoil():
    fx = fixture_diagrams()
    d = fx["trefoil"]
    idx = ind_all(seifert_analysis(d).graph)
    rep = degree_report(homfly(d), d, idx)
    assert (rep.min_deg_v, rep.max_deg_v, rep.v_span) == (2, 4, 2)
    assert rep.mfw_lower == 2
    assert rep.eq1_holds and rep.eq1_tight
    assert rep.eq2_holds and rep.eq2_tight


def test_degree_report_trefoil_neg_kink():
    fx = fixture_diagrams()
    d = fx["trefoil_neg_kink"]
    idx = ind_all(seifert_analysis(d).graph)
    assert idx.ind_minus == 1
    rep = degree_report(homfly(d), d, idx)
    assert rep.min_deg_v == 2
    assert rep.eq1_holds and rep.eq1_tight


def test_degree_report_figure_eight():
    fx = fixture_diagrams()
    d = fx["figure_eight"]
    idx = ind_all(seifert_analysis(d).graph)
    rep = degree_report(homfly(d), d, idx)
    assert rep.v_span == 4
    assert rep.mfw_lower == 3


def test_degree_report_rejects_size_limited_index():
    d = closure(parse_braid("braid n=3: 1 -2 1 -2"))
    idx = ind_all(seifert_analysis(d).graph, 1)
    assert idx.size_limited
    with pytest.raises(SizeLimitError):
        degree_report(homfly(d), d, idx)


def test_inequalities_on_random_corpus():
    rng = random.Random(75)
    for _ in range(150):
        d = random_diagram(rng, 7)
        try:
            idx = ind_all(seifert_analysis(d).graph)
        except Exception:
            continue
        p = homfly(d)
        rep = degree_report(p, d, idx)
        assert rep.eq1_holds and rep.eq2_holds


def test_recursion_order_independence():
    # The deterministic engine must agree with a skein expansion done in a
    # different (reversed component numbering) order: relabel arcs.
    rng = random.Random(76)
    for _ in range(40):
        d = random_diagram(rng, 6)
        relabeled = _relabel_reversed(d)
        assert homfly(relabeled) == homfly(d)


def _relabel_reversed(d: Diagram) -> Diagram:
    remap = {a: d.arc_count - 1 - a for a in range(d.arc_count)}
    crossings = tuple(
        Crossing(x.sign, remap[x.under_in], remap[x.over_in], remap[x.under_out], remap[x.over_out])
        for x in d.crossings
    )
    return Diagram(d.arc_count, crossings, d.free_loops)
