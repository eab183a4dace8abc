import pytest
from hypothesis import given, settings, strategies as st

from linkdiag import (
    Crossing,
    Diagram,
    QPFactor,
    QPWitness,
    certify,
    closure,
    counts,
    diagram_from_json,
    diagram_to_json,
    homfly,
    import_pd,
    mirror,
    parse_braid,
    parse_diagram,
    seifert_analysis,
    serialize_diagram,
    validate,
    vogel_braidize,
)
from linkdiag.diagram import check_planar, faces, from_behind, in_ports, isomorphic
from linkdiag.errors import AmbiguousOrientation, DiagramSyntaxError, InvariantError, NonPlanarError

from helpers import fixture_diagrams, random_word, split_union

import random


def test_parse_unknot():
    d = parse_diagram("arcs:0 loops:1")
    assert d == Diagram(0, (), 1)


def test_parse_trefoil_closure_wiring():
    text = (
        "arcs:6 loops:0\n"
        "X+ u_in:1 o_in:0 u_out:2 o_out:3\n"
        "X+ u_in:3 o_in:2 u_out:4 o_out:5\n"
        "X+ u_in:5 o_in:4 u_out:0 o_out:1\n"
    )
    d = parse_diagram(text)
    assert counts(d).c_plus == 3
    assert serialize_diagram(d) == text


def test_duplicate_in_slot_rejected():
    text = (
        "arcs:4 loops:0\n"
        "X+ u_in:0 o_in:1 u_out:1 o_out:2\n"
        "X+ u_in:0 o_in:3 u_out:3 o_out:0\n"
    )
    with pytest.raises(InvariantError, match="arc 0"):
        parse_diagram(text)


def test_bad_header():
    with pytest.raises(DiagramSyntaxError):
        parse_diagram("arcs:x loops:0")


def test_json_round_trip():
    for d in fixture_diagrams().values():
        assert diagram_from_json(diagram_to_json(d)) == d


def test_text_round_trip_fixtures():
    for d in fixture_diagrams().values():
        assert parse_diagram(serialize_diagram(d)) == d


def test_mirror_involution_and_counts():
    for d in fixture_diagrams().values():
        m = mirror(d)
        assert mirror(m) == d
        assert counts(m).c_plus == counts(d).c_minus
        assert counts(m).c_minus == counts(d).c_plus
        assert counts(m).link_components == counts(d).link_components


def test_counts_examples():
    trefoil = counts(closure(parse_braid("braid n=2: 1 1 1")))
    assert (trefoil.c_plus, trefoil.c_minus, trefoil.writhe) == (3, 0, 3)
    assert (trefoil.link_components, trefoil.split_parts) == (1, 1)
    hopf = counts(closure(parse_braid("braid n=2: 1 1")))
    assert (hopf.c_plus, hopf.c_minus, hopf.writhe) == (2, 0, 2)
    assert (hopf.link_components, hopf.split_parts) == (2, 1)


def test_in_ports_name_the_slot_each_arc_runs_into():
    rng = random.Random(14)
    for _ in range(50):
        d = closure(random_word(rng, rng.randint(2, 4), rng.randint(0, 8)))
        port = in_ports(d)
        assert len(port) == d.arc_count
        for ci, x in enumerate(d.crossings):
            assert (port[x.under_in], port[x.over_in]) == (2 * ci, 2 * ci + 1)


def test_split_union_parts():
    a = closure(parse_braid("braid n=2: 1 1 1"))
    shifted = tuple(
        Crossing(x.sign, x.under_in + 6, x.over_in + 6, x.under_out + 6, x.over_out + 6)
        for x in a.crossings
    )
    both = Diagram(12, a.crossings + shifted, 0)
    assert validate(both).ok
    assert counts(both).split_parts == 2


def _relabelled(d, rng):
    """``d`` with shuffled arc ids and crossing order."""
    arc = list(range(d.arc_count))
    rng.shuffle(arc)
    crossings = [Crossing(x.sign, *(arc[a] for a in x[1:])) for x in d.crossings]
    rng.shuffle(crossings)
    return Diagram(d.arc_count, tuple(crossings), d.free_loops)


def _switched(d, ci):
    x = d.crossings[ci]
    flipped = Crossing(-x.sign, x.over_in, x.under_in, x.over_out, x.under_out)
    return Diagram(d.arc_count, d.crossings[:ci] + (flipped,) + d.crossings[ci + 1:], d.free_loops)


@pytest.mark.parametrize("seed", range(4))
def test_isomorphic_relabelled_copy(seed):
    rng = random.Random(seed)
    seen = 0
    while seen < 25:
        d = closure(random_word(rng, rng.randint(2, 4), rng.randint(1, 10)))
        if counts(d).split_parts != 1:
            continue
        seen += 1
        assert validate(_relabelled(d, rng)).ok
        assert isomorphic(_relabelled(d, rng), d)
        assert isomorphic(d, _relabelled(d, rng))


def test_isomorphic_cyclic_rotation_of_the_word():
    # Conjugating by a cyclic rotation redraws the same closed braid.
    a = closure(parse_braid("braid n=3: 1 1 -2 2 -1"))
    b = closure(parse_braid("braid n=3: -2 2 -1 1 1"))
    assert isomorphic(a, b)


def test_isomorphic_rejects_switched_crossing_and_chiral_mirror():
    d = closure(parse_braid("braid n=3: 1 -2 1 1 -2 2"))
    for ci in range(len(d.crossings)):
        assert not isomorphic(_switched(d, ci), d)
    trefoil = closure(parse_braid("braid n=2: 1 1 1"))
    assert not isomorphic(mirror(trefoil), trefoil)


def test_isomorphic_rejects_equal_signs_on_other_wiring():
    # Four positive crossings on three strands each: a 3-component link
    # against a knot, so only the propagation can tell them apart.
    a = closure(parse_braid("braid n=3: 1 1 2 2"))
    b = closure(parse_braid("braid n=3: 1 2 1 2"))
    assert not isomorphic(a, b) and not isomorphic(b, a)


def test_isomorphic_never_matches_an_unreached_part():
    trefoil = closure(parse_braid("braid n=2: 1 1 1"))
    assert not isomorphic(split_union(trefoil, trefoil), split_union(trefoil, mirror(trefoil)))


def test_isomorphic_is_one_to_one():
    # T(2,4) wraps twice around each Hopf link of a split pair: every
    # crossing has an image, but two crossings share each one.
    hopf = closure(parse_braid("braid n=2: 1 1"))
    assert not isomorphic(closure(parse_braid("braid n=2: 1 1 1 1")), split_union(hopf, hopf))


def test_isomorphic_checks_every_sign():
    # Granny knot against the same wiring with its second trefoil summand
    # reflected in the plane (signs negated, slots kept): a square knot.
    granny = closure(parse_braid("braid n=3: 1 1 1 2 2 2"))
    square = Diagram(
        granny.arc_count,
        granny.crossings[:3] + tuple(Crossing(-x.sign, *x[1:]) for x in granny.crossings[3:]),
        0,
    )
    assert validate(square).ok
    assert not isomorphic(square, granny) and not isomorphic(granny, square)
    # One negated sign, slots kept, at each crossing in turn.
    for ci, x in enumerate(granny.crossings):
        negated = granny.crossings[:ci] + (Crossing(-x.sign, *x[1:]),) + granny.crossings[ci + 1:]
        e = Diagram(granny.arc_count, negated, 0)
        assert not isomorphic(e, granny) and not isomorphic(granny, e)


def test_isomorphic_checks_in_slot_roles():
    # Trading one crossing's in-slots keeps every out-slot and sign; the
    # result is slot-valid, so only the role of the entered slot differs.
    d = closure(parse_braid("braid n=3: 1 -2 1 -2"))
    for ci, x in enumerate(d.crossings):
        traded = Crossing(x.sign, x.over_in, x.under_in, x.under_out, x.over_out)
        e = Diagram(d.arc_count, d.crossings[:ci] + (traded,) + d.crossings[ci + 1:], 0)
        assert validate(e).ok
        assert not isomorphic(e, d) and not isomorphic(d, e)


def test_isomorphic_crossingless():
    assert isomorphic(Diagram(0, (), 1), Diagram(0, (), 1))
    assert not isomorphic(Diagram(0, (), 2), Diagram(0, (), 1))


@pytest.mark.parametrize(
    "text, behind",
    [
        ("braid n=3: 1 1 -2", "braid n=3: 2 2 -1"),
        ("braid n=4: 1 -2 3 3 -1 2", "braid n=4: 3 -2 1 1 -3 2"),
    ],
)
def test_role_swapped_closure_needs_the_swap(text, behind):
    # Seen from behind, a closed braid's strand positions reverse: generator
    # i becomes n - i and keeps its sign.
    d = closure(parse_braid(text))
    e = _relabelled(closure(parse_braid(behind)), random.Random(5))
    assert not isomorphic(e, d)
    assert isomorphic(from_behind(e), d)
    assert from_behind(from_behind(d)) == d
    assert counts(from_behind(d)) == counts(d)


# Slot-valid but not planar: V - E + F = 2 - 4 + 2 = 0.
NON_PLANAR = Diagram(4, (Crossing(1, 3, 2, 0, 1), Crossing(-1, 1, 0, 2, 3)), 0)


def test_faces_of_trefoil():
    d = closure(parse_braid("braid n=2: 1 1 1"))
    fs = faces(d)
    assert sorted(len(f) for f in fs) == [2, 2, 2, 3, 3]
    # Each arc borders two faces, traversed once each way.
    sides = sorted(side for f in fs for side in f)
    assert sides == [(a, fw) for a in range(d.arc_count) for fw in (False, True)]


def test_non_planar_code_rejected_in_every_format():
    assert validate(NON_PLANAR).ok
    assert issubclass(NonPlanarError, InvariantError)
    for parse, text in (
        (parse_diagram, serialize_diagram(NON_PLANAR)),
        (parse_diagram, diagram_to_json(NON_PLANAR)),
        (import_pd, "X[1,2,3,4] X[3,1,4,2]"),
    ):
        with pytest.raises(NonPlanarError, match="V - E \\+ F = 0"):
            parse(text)


@pytest.mark.parametrize(
    "entry_point",
    [
        homfly,
        vogel_braidize,
        lambda d: certify(QPWitness(2, (QPFactor((), 1), QPFactor((), 1))), d, "thm1"),
    ],
    ids=["homfly", "vogel_braidize", "certify"],
)
def test_face_reading_entry_points_reject_non_planar_code(entry_point):
    # Built in code, so no parser has checked it; Seifert data needs no
    # faces and still reads it.
    assert seifert_analysis(NON_PLANAR).circle_count == 2
    with pytest.raises(NonPlanarError):
        entry_point(NON_PLANAR)


def test_planarity_counts_every_split_part():
    trefoil = closure(parse_braid("braid n=2: 1 1 1"))
    hopf = closure(parse_braid("braid n=2: 1 1"))
    both = split_union(split_union(trefoil, hopf), Diagram(0, (), 2))
    assert check_planar(both) is both
    assert parse_diagram(serialize_diagram(both)) == both
    # A planar part does not make up for a non-planar one.
    with pytest.raises(NonPlanarError):
        check_planar(split_union(trefoil, NON_PLANAR))


def test_import_pd_trefoil():
    d = import_pd("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]")
    c = counts(d)
    assert (c.c_plus, c.c_minus) == (3, 0)


def test_import_pd_figure_eight():
    d = import_pd("X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]")
    c = counts(d)
    assert (c.c_plus, c.c_minus) == (2, 2)


def test_import_pd_kink_tie_break():
    # Orientation propagation resolves the wraparound kink to a positive curl.
    d = import_pd("X[1,2,2,1]")
    assert counts(d).c_plus == 1


def test_import_pd_bad_label_multiplicity():
    with pytest.raises(DiagramSyntaxError):
        import_pd("X[1,2,3,4]")


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_round_trip_random_closures(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    w = random_word(rng, n, rng.randint(0, 7)) if n > 1 else parse_braid("braid n=1:")
    d = closure(w)
    assert validate(d).ok
    assert parse_diagram(serialize_diagram(d)) == d
    assert diagram_from_json(diagram_to_json(d)) == d


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_closure_letter_counts(seed):
    rng = random.Random(seed)
    w = random_word(rng, rng.randint(2, 4), rng.randint(1, 8))
    c = counts(closure(w))
    assert c.c_plus == sum(1 for x in w.letters if x > 0)
    assert c.c_minus == sum(1 for x in w.letters if x < 0)
