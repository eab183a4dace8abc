import random

import pytest

from linkdiag import (
    QPFactor,
    QPWitness,
    abe_s,
    braid_index_bounds,
    certify,
    closure,
    counts,
    diagram_sl,
    expand_witness,
    homfly,
    homogeneity,
    mirror,
    mirror_identity_check,
    mp_reduce,
    o_plus,
    parse_braid,
    seifert_analysis,
    witness_sl,
)
from linkdiag.errors import (
    NotCutEdgeError,
    NotHomogeneousError,
    NotLoneError,
    SplitInputError,
    WitnessMismatchError,
)
from linkdiag.theorems import WitnessSL

from helpers import fixture_diagrams, random_diagram


def qp_positive_word(strands, count):
    return QPWitness(strands, tuple(QPFactor((), 1 + i % (strands - 1)) for i in range(count)))


def test_abe_s_fixtures():
    fx = fixture_diagrams()
    assert abe_s(fx["trefoil"]) == 2
    assert abe_s(fx["figure_eight"]) == 0
    assert abe_s(fx["unknot"]) == 0
    assert abe_s(mirror(fx["trefoil"])) == -2


def test_abe_s_torus_formula():
    fx = fixture_diagrams()
    for name, (p, q) in {
        "torus_2_3": (2, 3),
        "torus_2_5": (2, 5),
        "torus_2_7": (2, 7),
        "torus_3_4": (3, 4),
        "torus_3_5": (3, 5),
    }.items():
        assert abe_s(fx[name]) == (p - 1) * (q - 1)


def test_abe_s_errors():
    with pytest.raises(SplitInputError):
        abe_s(closure(parse_braid("braid n=2:")))
    with pytest.raises(NotHomogeneousError):
        abe_s(closure(parse_braid("braid n=2: 1 -1 1")))


def test_witness_sl_verified():
    fx = fixture_diagrams()
    q = QPWitness(2, tuple(QPFactor((), 1) for _ in range(3)))
    ws = witness_sl(q, fx["trefoil"])
    assert ws.value == 1 and ws.verified


def test_witness_sl_own_closure_verified_at_any_cap():
    q = QPWitness(2, tuple(QPFactor((), 1) for _ in range(3)))
    assert witness_sl(q, closure(expand_witness(q)), -1) == WitnessSL(1, True)
    assert witness_sl(q, fixture_diagrams()["trefoil_neg_kink"], -1) == WitnessSL(1, False)


def test_witness_sl_mismatch():
    fx = fixture_diagrams()
    q = QPWitness(2, tuple(QPFactor((), 1) for _ in range(3)))
    with pytest.raises(WitnessMismatchError):
        witness_sl(q, fx["figure_eight"])


def test_witness_sl_component_mismatch():
    fx = fixture_diagrams()
    q = QPWitness(2, (QPFactor((), 1), QPFactor((), 1)))  # Hopf link, 2 components
    with pytest.raises(WitnessMismatchError):
        witness_sl(q, fx["trefoil"])


def test_witness_sl_skips_homfly_for_its_own_closure(monkeypatch):
    from linkdiag import theorems

    calls = []

    def counting_homfly(d, crossing_cap):
        calls.append(d)
        return homfly(d, crossing_cap)

    monkeypatch.setattr(theorems, "homfly", counting_homfly)
    q = QPWitness(2, tuple(QPFactor((), 1) for _ in range(3)))
    ws = witness_sl(q, closure(expand_witness(q)))
    assert (ws.value, ws.verified, len(calls)) == (1, True, 0)
    # The kinked trefoil is the same knot on another diagram.
    ws = witness_sl(q, fixture_diagrams()["trefoil_neg_kink"])
    assert (ws.value, ws.verified, len(calls)) == (1, True, 2)


def test_bounds_fixtures():
    fx = fixture_diagrams()
    b = braid_index_bounds(fx["trefoil"])
    assert (b.lower_mfw, b.upper_mp, b.upper_refined, b.pinned) == (2, 2, 2, 2)
    b8 = braid_index_bounds(fx["figure_eight"])
    assert (b8.lower_mfw, b8.upper_refined, b8.pinned) == (3, 3, 3)
    bk = braid_index_bounds(fx["kink_pos"])
    assert (bk.upper_mp, bk.pinned) == (1, 1)


def test_bounds_invariants_random():
    rng = random.Random(41)
    for _ in range(120):
        d = random_diagram(rng, 7)
        b = braid_index_bounds(d)
        assert b.upper_refined <= b.upper_mp
        if b.lower_mfw is not None:
            assert b.lower_mfw <= b.upper_refined


def test_mirror_identity_fixtures_and_random():
    rng = random.Random(42)
    for d in fixture_diagrams().values():
        assert mirror_identity_check(d)["ok"]
    for _ in range(100):
        assert mirror_identity_check(random_diagram(rng, 8))["ok"]


def test_certify_thm1_trefoil_positive():
    fx = fixture_diagrams()
    q = QPWitness(2, tuple(QPFactor((), 1) for _ in range(3)))
    cert = certify(q, fx["trefoil"], "thm1")
    assert cert.status == "Positive"
    assert (cert.sl_max, cert.s_value, cert.chi4) == (1, 2, -1)


def test_certify_thm1_kinked_not_applicable():
    fx = fixture_diagrams()
    q = QPWitness(2, tuple(QPFactor((), 1) for _ in range(3)))
    cert = certify(q, fx["trefoil_neg_kink"], "thm1")
    assert cert.status == "NotApplicable"
    failed = [h.name for h in cert.hypothesis_trace if not h.ok]
    assert "SL=sl(D)" in failed


def test_certify_thm4_kinked_not_applicable():
    fx = fixture_diagrams()
    q = QPWitness(2, tuple(QPFactor((), 1) for _ in range(3)))
    cert = certify(q, fx["trefoil_neg_kink"], "thm4")
    assert cert.status == "NotApplicable"
    failed = [h.name for h in cert.hypothesis_trace if not h.ok]
    assert "irreducible" in failed
    # The arithmetic hypothesis itself holds: sl + 2 ind_minus = -1 + 2 = 1 = SL.
    arith = next(h for h in cert.hypothesis_trace if h.name == "SL=sl(D)+2ind_minus")
    assert arith.ok


def test_certify_cor_mp_kinked_not_contradiction():
    # The kinked diagram pins b = O - ind but is reducible; without the
    # irreducibility check it would be flagged as a false contradiction.
    fx = fixture_diagrams()
    q = QPWitness(2, tuple(QPFactor((), 1) for _ in range(3)))
    cert = certify(q, fx["trefoil_neg_kink"], "cor_mp")
    assert cert.status == "NotApplicable"


def test_certify_cor_mp_trefoil_positive():
    fx = fixture_diagrams()
    q = QPWitness(2, tuple(QPFactor((), 1) for _ in range(3)))
    cert = certify(q, fx["trefoil"], "cor_mp")
    assert cert.status == "Positive"


def test_certify_torus_links_positive():
    fx = fixture_diagrams()
    cases = {
        "torus_2_5": qp_positive_word(2, 5),
        "torus_3_4": QPWitness(3, tuple(QPFactor((), g) for g in (1, 2) * 4)),
    }
    for name, q in cases.items():
        for mode in ("thm1", "thm4", "cor_mp"):
            assert certify(q, fx[name], mode).status == "Positive"


def test_certify_bad_mode():
    fx = fixture_diagrams()
    q = qp_positive_word(2, 3)
    with pytest.raises(ValueError):
        certify(q, fx["trefoil"], "thm3")


def test_qp_corpus_never_contradiction():
    # Random quasipositive witnesses against their own closures: the
    # positivity theorems must never report a contradiction.
    rng = random.Random(43)
    checked = 0
    for _attempt in range(1000):
        if checked >= 40:
            break
        n = rng.randint(2, 3)
        pool = [i for i in range(-(n - 1), n) if i != 0]
        factors = tuple(
            QPFactor(tuple(rng.choice(pool) for _ in range(rng.randint(0, 2))), rng.randint(1, n - 1))
            for _ in range(rng.randint(1, 3))
        )
        q = QPWitness(n, factors)
        d = closure(expand_witness(q))
        if len(d.crossings) > 14:
            continue
        checked += 1
        for mode in ("thm1", "thm4", "cor_mp"):
            cert = certify(q, d, mode)
            assert cert.status != "Contradiction", (mode, q)
            for h in cert.hypothesis_trace:
                if h.name.startswith("gap"):
                    assert h.ok


def test_thm1_contrapositive_on_qp_corpus():
    # Homogeneous non-split closures of quasipositive words with c_minus > 0
    # must fail the SL = sl hypothesis (else Theorem 1 would be violated).
    rng = random.Random(44)
    checked = 0
    for _attempt in range(4000):
        if checked >= 25:
            break
        n = rng.randint(2, 3)
        pool = [i for i in range(-(n - 1), n) if i != 0]
        factors = tuple(
            QPFactor(tuple(rng.choice(pool) for _ in range(rng.randint(1, 2))), rng.randint(1, n - 1))
            for _ in range(rng.randint(1, 3))
        )
        q = QPWitness(n, factors)
        d = closure(expand_witness(q))
        c = counts(d)
        if len(d.crossings) > 14 or c.split_parts != 1 or c.c_minus == 0:
            continue
        if not homogeneity(d).is_homogeneous:
            continue
        checked += 1
        assert diagram_sl(d) < witness_sl(q, d).value


def test_mp_reduce_kink_to_unknot():
    d = closure(parse_braid("braid n=2: 1"))
    out = mp_reduce(d, 0)
    assert not out.crossings and out.free_loops == 1


def test_mp_reduce_kinked_trefoil():
    fx = fixture_diagrams()
    d = fx["trefoil_neg_kink"]
    out = mp_reduce(d, 3)
    assert homfly(out) == homfly(fx["trefoil"])
    assert seifert_analysis(out).circle_count == 2
    # Removing a lone negative crossing raises sl by exactly 2.
    assert diagram_sl(out) == diagram_sl(d) + 2


def test_mp_reduce_not_lone():
    fx = fixture_diagrams()
    with pytest.raises(NotLoneError):
        mp_reduce(fx["trefoil"], 0)


def test_mp_reduce_not_cut_edge():
    # Three circles pairwise joined by single crossings: a triangle graph,
    # so every edge is lone but none is a cut edge.
    from linkdiag.diagram import Crossing, Diagram

    d = Diagram(
        6,
        (
            Crossing(1, 0, 2, 3, 1),
            Crossing(1, 3, 4, 5, 2),
            Crossing(1, 5, 1, 0, 4),
        ),
        0,
    )
    g = seifert_analysis(d).graph
    assert all(k == 1 for k in g.multiplicity().values())
    with pytest.raises(NotCutEdgeError):
        mp_reduce(d, 0)


def test_mp_reduce_chain_granny():
    fx = fixture_diagrams()
    d = fx["granny_chain_long"]
    # No lone crossings at all: every edge has multiplicity 3.
    with pytest.raises(NotLoneError):
        mp_reduce(d, 0)


def test_abe_s_equals_witness_bound_on_qp_homogeneous():
    # For a homogeneous quasipositive closure, s = SL + 1.
    fx = fixture_diagrams()
    q = QPWitness(3, tuple(QPFactor((), g) for g in (1, 1, 1, 2, 2, 2)))
    d = fx["granny_chain"]
    assert abe_s(d) == witness_sl(q, d).value + 1
