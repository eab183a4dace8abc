"""The skein's state operations against ``rebuild``, and its pinned outputs.

``homfly`` walks compact states and splices them locally.  These tests
check each splice against ``diagram.rebuild`` on seeded diagrams, pin the
polynomials of two seeded corpora by SHA-256 digests recorded before the
state encoding replaced ``Diagram`` nodes, and bound the number of skein
nodes evaluated on a fixed corpus.
"""

import hashlib
import json
import os
import random

import pytest

from linkdiag import closure, homfly, parse_braid
from linkdiag.diagram import Crossing, Diagram, dart_successors, faces, rebuild
from linkdiag.errors import SizeLimitError
from linkdiag.homfly import (
    _cancel,
    _cancelled,
    _first_discordant,
    _ints,
    _r2_bigon,
    _smooth,
    _smoothed,
    _state,
    _switch,
)

from helpers import count_calls, r1_kinked, r2_moved, random_word, reverse_component, split_union

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "homfly_sha256.json")

# Memo entries over ``node_corpus()`` before R2 chains were folded: one
# per subdiagram evaluated, the R2-cancelled ones included.
NODES_BEFORE_FOLDING = 2811


def closure_corpus(count=400):
    rng = random.Random(1601)
    return [closure(random_word(rng, rng.randint(2, 5), rng.randint(1, 13))) for _ in range(count)]


def non_braid_corpus(count=200):
    """R2-moved, kinked, reversed and split diagrams, most not closed braids."""
    rng = random.Random(1602)

    def small():
        return closure(random_word(rng, rng.randint(2, 4), rng.randint(1, 8)))

    out = []
    for i in range(count):
        kind = i % 5
        if kind == 0:
            d = r2_moved(rng, small(), rng.randint(1, 3))
        elif kind == 1:
            d = r1_kinked(rng, small(), rng.randint(1, 3))
        elif kind == 2:
            d = split_union(small(), r1_kinked(rng, small(), 1), rng.randint(0, 2))
        elif kind == 3:
            d = reverse_component(r2_moved(rng, small(), 1), rng)
        else:
            d = r1_kinked(rng, r2_moved(rng, small(), rng.randint(1, 2)), rng.randint(1, 2))
        out.append(d)
    return out


def node_corpus():
    rng = random.Random(1603)
    words = [random_word(rng, 3 + i % 2, 13 + i % 3) for i in range(40)]
    return [closure(w) for w in words] + non_braid_corpus(60)


def digest(corpus):
    return hashlib.sha256("\n".join(str(homfly(d)) for d in corpus).encode()).hexdigest()


def _pinned():
    with open(FIXTURE, encoding="utf-8") as fh:
        return json.load(fh)


def test_closure_polynomials_are_pinned():
    assert digest(closure_corpus()) == _pinned()["closures"]


def test_non_braid_polynomials_are_pinned():
    assert digest(non_braid_corpus()) == _pinned()["non_braid"]


def test_nodes_evaluated_stay_below_the_unfolded_count(monkeypatch):
    corpus = node_corpus()
    calls = count_calls(monkeypatch, _first_discordant)
    for d in corpus:
        homfly(d)
    assert len(calls) < NODES_BEFORE_FOLDING


# --- splices against rebuild ---------------------------------------------

def _property_corpus():
    rng = random.Random(1604)
    out = []
    for i in range(1000):
        d = closure(random_word(rng, rng.randint(2, 4), rng.randint(0, 9)))
        kind = i % 4
        if kind == 1:
            d = r2_moved(rng, d, rng.randint(1, 3))
        elif kind == 2:
            d = split_union(d, r1_kinked(rng, closure(random_word(rng, 2, rng.randint(1, 3))), 1), rng.randint(0, 2))
        elif kind == 3:
            d = r1_kinked(rng, d, rng.randint(1, 3))
        out.append(d)
    return out


def _opposite_bigons(d):
    """Every crossing pair of opposite sign on a bigon face, in dart order."""
    succ = dart_successors(d)
    return [
        (t >> 2, u >> 2)
        for t, u in enumerate(succ)
        if succ[u] == t and d.crossings[t >> 2].sign != d.crossings[u >> 2].sign
    ]


def _face_cycles(d):
    """Faces as a sorted list of boundary cycles, each from its least entry."""
    out = []
    for face in faces(d):
        k = face.index(min(face))
        out.append(tuple(face[k:] + face[:k]))
    return sorted(out)


def test_splices_match_rebuild():
    corpus = _property_corpus()
    assert sum(1 for d in corpus if d.free_loops) > 50
    assert sum(1 for d in corpus if any(len(set(x[1:])) < 4 for x in d.crossings)) > 200
    bigons = 0
    for d in corpus:
        # A wide state's values come as a list; its splices take the
        # general path and must give the same state.
        v = _ints(_state(d))
        for ci, x in enumerate(d.crossings):
            rest = d.crossings[:ci] + d.crossings[ci + 1:]
            joins = ((x.under_in, x.over_out), (x.over_in, x.under_out))
            assert _smooth(d, ci) == rebuild(d.arc_count, joins, rest, d.free_loops)
            assert _smoothed(list(v), ci) == _smoothed(v, ci)
            assert _face_cycles(_switch(d, ci)) == _face_cycles(d)
        pairs = _opposite_bigons(d)
        assert _r2_bigon(d) == (pairs[0] if pairs else None)
        for c1, c2 in pairs:
            bigons += 1
            joins = [j for x in (d.crossings[c1], d.crossings[c2]) for j in ((x.under_in, x.under_out), (x.over_in, x.over_out))]
            rest = tuple(x for ci, x in enumerate(d.crossings) if ci not in (c1, c2))
            assert _cancel(d, c1, c2) == rebuild(d.arc_count, joins, rest, d.free_loops)
            low, high = sorted((c1, c2))
            assert _cancelled(list(v), low, high) == _cancelled(v, low, high)
    assert bigons > 200


def test_wide_states_are_exact():
    # Past 255 arcs or free loops a state stores wider values; the result
    # must not depend on the width.
    d = closure(parse_braid("braid n=2: " + "1 -1 " * 64 + "1 1 1"))
    assert homfly(d, 200) == homfly(closure(parse_braid("braid n=2: 1 1 1")))
    loops = Diagram(d.arc_count, d.crossings, 300)
    with pytest.raises(SizeLimitError):
        homfly(loops)
    kink = Diagram(2, (Crossing(1, 0, 1, 1, 0),), 300)
    assert homfly(kink, 400) == homfly(Diagram(0, (), 301), 400)
