import random

import pytest

from linkdiag import (
    BraidWord,
    QPFactor,
    QPWitness,
    braid_sl,
    closure,
    counts,
    diagram_sl,
    expand_witness,
    homfly,
    parse_braid,
    seifert_analysis,
    serialize_braid,
    witness_from_json,
    witness_to_json,
)
from linkdiag.errors import BraidRangeError, DiagramSyntaxError

from helpers import random_word


def test_parse_and_serialize():
    w = parse_braid("braid n=3: 1 2 -1")
    assert w == BraidWord(3, (1, 2, -1))
    assert serialize_braid(w) == "braid n=3: 1 2 -1"
    assert parse_braid(serialize_braid(w)) == w
    assert parse_braid("braid n=1:") == BraidWord(1, ())


def test_parse_rejects_bad_text():
    with pytest.raises(DiagramSyntaxError):
        parse_braid("braids n=2: 1")
    with pytest.raises(DiagramSyntaxError):
        parse_braid("braid n=2: x")


def test_letter_range_checked():
    with pytest.raises(BraidRangeError):
        parse_braid("braid n=2: 3")
    with pytest.raises(BraidRangeError):
        BraidWord(2, (0,))
    with pytest.raises(BraidRangeError):
        BraidWord(0, ())


def test_exponent_sum_and_sl():
    w = parse_braid("braid n=2: 1 1 1")
    assert w.exponent_sum == 3
    assert braid_sl(w) == 1
    assert braid_sl(parse_braid("braid n=3: 1 -2 1 -2")) == -3
    assert braid_sl(parse_braid("braid n=1:")) == -1


def test_closure_structure():
    d = closure(parse_braid("braid n=2: 1 1 1"))
    c = counts(d)
    assert (c.c_plus, c.c_minus, c.link_components) == (3, 0, 1)
    assert seifert_analysis(d).circle_count == 2
    empty = closure(parse_braid("braid n=3:"))
    assert empty.free_loops == 3 and not empty.crossings


def test_closure_sl_matches_braid_sl():
    rng = random.Random(21)
    for _ in range(80):
        w = random_word(rng, rng.randint(2, 4), rng.randint(0, 8))
        assert diagram_sl(closure(w)) == braid_sl(w)


def test_witness_json_round_trip():
    q = QPWitness(3, (QPFactor((2, -1), 1), QPFactor((), 2)))
    assert witness_from_json(witness_to_json(q)) == q


def test_witness_json_errors():
    with pytest.raises(DiagramSyntaxError):
        witness_from_json("{")
    with pytest.raises(DiagramSyntaxError):
        witness_from_json('{"strands": 2}')
    with pytest.raises(BraidRangeError):
        witness_from_json('{"strands": 2, "factors": [{"conj": [], "gen": 2}]}')
    for factors in ('"x"', "[1]", "{}"):
        with pytest.raises(DiagramSyntaxError):
            witness_from_json('{"strands": 2, "factors": %s}' % factors)


def test_expand_witness_trefoil():
    q = QPWitness(2, tuple(QPFactor((), 1) for _ in range(3)))
    w = expand_witness(q)
    assert w == BraidWord(2, (1, 1, 1))


def test_expand_witness_conjugation():
    q = QPWitness(3, (QPFactor((2,), 1),))
    assert expand_witness(q) == BraidWord(3, (2, 1, -2))


def test_witness_exponent_sum_is_factor_count():
    rng = random.Random(22)
    for _ in range(60):
        n = rng.randint(2, 4)
        factors = []
        for _k in range(rng.randint(1, 4)):
            conj = tuple(
                rng.choice([i for i in range(-(n - 1), n) if i != 0])
                for _ in range(rng.randint(0, 3))
            )
            factors.append(QPFactor(conj, rng.randint(1, n - 1)))
        q = QPWitness(n, tuple(factors))
        w = expand_witness(q)
        assert w.exponent_sum == len(factors)
        assert braid_sl(w) == len(factors) - n


def test_witness_closure_homfly_conjugation_invariant():
    # Conjugating a factor does not change the closure's link type.
    base = QPWitness(3, (QPFactor((), 1), QPFactor((), 2)))
    conjugated = QPWitness(3, (QPFactor((2,), 1), QPFactor((), 2)))
    p1 = homfly(closure(expand_witness(base)))
    p2 = homfly(closure(expand_witness(conjugated)))
    assert p1 == p2
