import random
import warnings

import pytest

from linkdiag import (
    closure,
    counts,
    homfly,
    mirror,
    parse_braid,
    parse_diagram,
    seifert_analysis,
    vogel_braidize,
)
from linkdiag.diagram import Crossing, Diagram, from_behind
from linkdiag.errors import IterationLimitError, SplitInputError

from helpers import fixture_diagrams, fixture_words, oracle_homfly, r2_moved, random_word, reverse_component


def _check_word(d, word):
    assert word.strands == seifert_analysis(d).circle_count
    assert word.exponent_sum == counts(d).writhe
    assert homfly(closure(word)) == homfly(d)


def test_braided_fixtures_round_trip():
    for name, d in fixture_diagrams().items():
        if counts(d).split_parts != 1:
            continue
        _check_word(d, vogel_braidize(d))


def test_unknot_free_loop():
    d = Diagram(0, (), 1)
    w = vogel_braidize(d)
    assert w.strands == 1 and w.letters == ()


def test_split_input_rejected():
    d = closure(parse_braid("braid n=3: 1"))  # untouched strand splits off
    with pytest.raises(SplitInputError):
        vogel_braidize(d)


def test_incoherent_two_kink_unknot():
    # Hand-built diagram whose Seifert circles are not coherently nested:
    # requires at least one R2 insertion before a word can be read.
    d = Diagram(4, (Crossing(1, 0, 1, 1, 2), Crossing(-1, 3, 2, 0, 3)), 0)
    w = vogel_braidize(d)
    _check_word(d, w)
    assert w.strands == 3 and w.exponent_sum == 0


def test_pd_imports_braidize():
    from linkdiag import import_pd

    trefoil = import_pd("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]")
    _check_word(trefoil, vogel_braidize(trefoil))
    fig8 = import_pd("X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]")
    _check_word(fig8, vogel_braidize(fig8))


def test_random_closures_round_trip():
    rng = random.Random(31)
    seen = 0
    while seen < 120:
        w = random_word(rng, rng.randint(2, 4), rng.randint(1, 7))
        d = closure(w)
        if counts(d).split_parts != 1:
            continue
        seen += 1
        out = vogel_braidize(d)
        _check_word(d, out)


def test_mirrored_inputs():
    rng = random.Random(32)
    seen = 0
    while seen < 40:
        w = random_word(rng, rng.randint(2, 3), rng.randint(1, 6))
        d = mirror(closure(w))
        if counts(d).split_parts != 1:
            continue
        seen += 1
        _check_word(d, vogel_braidize(d))


# A 3-component link: a 3-strand closure with one component reversed.  Its
# Seifert circles are incoherent, and braidizing it takes four R2 moves,
# which bring it from 8 to 16 crossings.
INCOHERENT_LINK = """arcs:16 loops:0
X- u_in:1 o_in:2 u_out:4 o_out:3
X- u_in:3 o_in:6 u_out:5 o_out:0
X- u_in:7 o_in:5 u_out:6 o_out:8
X+ u_in:4 o_in:8 u_out:9 o_out:10
X+ u_in:12 o_in:9 u_out:7 o_out:11
X- u_in:0 o_in:11 u_out:12 o_out:13
X+ u_in:10 o_in:13 u_out:14 o_out:15
X+ u_in:15 o_in:14 u_out:1 o_out:2
"""


def _braidize_recording(d):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        word = vogel_braidize(d)
    return word, [str(w.message) for w in caught]


def test_incoherent_within_cap_is_verified():
    d = parse_diagram(INCOHERENT_LINK)
    word, caught = _braidize_recording(d)
    assert caught == []
    assert len(word.letters) == 16
    _check_word(d, word)
    assert counts(closure(word)).link_components == counts(d).link_components == 3


def test_incoherent_link_exact_without_cap():
    # The word is checked by isomorphism, so no size leaves it unchecked;
    # the closure's HOMFLY is also compared with the independent oracle.
    d = parse_diagram(INCOHERENT_LINK)
    word, caught = _braidize_recording(d)
    assert caught == []
    assert oracle_homfly(closure(word)) == oracle_homfly(d)
    assert word.strands == seifert_analysis(d).circle_count == 5
    assert word.exponent_sum == counts(d).writhe == 0


def test_non_braid_diagrams_round_trip():
    # R2-moved closures, their views from behind, and closures with one
    # component reversed; HOMFLY is compared within its default cap.
    rng = random.Random(34)
    seen = compared = 0
    while seen < 200:
        d = closure(random_word(rng, rng.randint(2, 4), rng.randint(2, 5)))
        c = counts(d)
        kind = seen % 3
        if c.split_parts != 1 or (kind == 2 and c.link_components < 2):
            continue
        if kind == 0:
            d = r2_moved(rng, d, rng.randint(1, 2))
        elif kind == 1:
            d = from_behind(r2_moved(rng, d, rng.randint(1, 2)))
        else:
            d = reverse_component(d, rng)
        seen += 1
        word = vogel_braidize(d)
        assert word.strands == seifert_analysis(d).circle_count
        assert word.exponent_sum == counts(d).writhe
        if len(word.letters) <= 16:
            assert homfly(closure(word)) == homfly(d)
            compared += 1
    assert compared > 100


def test_no_accepted_ray_raises(monkeypatch):
    from linkdiag import vogel

    monkeypatch.setattr(vogel, "isomorphic", lambda a, b: False)
    with pytest.raises(IterationLimitError):
        vogel_braidize(parse_diagram(INCOHERENT_LINK))
