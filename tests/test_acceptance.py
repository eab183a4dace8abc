"""Acceptance suite: one test per criterion, each emitting a PASS/FAIL line.

The lines appear in the terminal summary (``acceptance criteria``
section) after any pytest run that includes this module; look for
``ACCEPTANCE <n> (...): PASS``.
"""

import os
import random

from linkdiag import (
    LaurentPoly2,
    QPFactor,
    QPWitness,
    abe_s,
    certify,
    closure,
    counts,
    dhl_check,
    diagram_sl,
    expand_witness,
    homfly,
    homogeneity,
    ind_all,
    mirror_identity_check,
    o_plus,
    parse_braid,
    seifert_analysis,
    witness_sl,
)
from linkdiag.cli import run as cli_run
from linkdiag.homfly import _smooth, _switch
from linkdiag.theorems import index_bounds
from linkdiag.vogel import vogel_braidize

from helpers import (
    braid_corpus_full,
    braid_corpus_small,
    enumerate_multigraphs,
    fixture_diagrams,
    graph_from_matrix,
    oracle_ind_signed,
    random_diagram,
    random_signed_graph,
    random_word,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def _line(num: int, title: str, ok: bool) -> None:
    import acceptance_report

    acceptance_report.lines.append(f"ACCEPTANCE {num} ({title}): {'PASS' if ok else 'FAIL'}")


def _finish(num: int, title: str, failures: list) -> None:
    _line(num, title, not failures)
    assert not failures, failures[:5]


def test_criterion_1_formula_fixtures():
    failures = []
    fx = fixture_diagrams()
    # name -> (sl, O, O_plus, abe_s)
    expected = {
        "unknot": (-1, 1, 1, 0),
        "kink_pos": (-1, 2, 1, 0),
        "kink_neg": (-3, 2, 2, 0),
        "trefoil": (1, 2, 1, 2),
        "trefoil_neg_kink": (-1, 3, 2, 2),
        "figure_eight": (-3, 3, 2, 0),
        "hopf_plus": (0, 2, 1, 1),
        "granny_chain": (3, 3, 1, 4),
    }
    for q in range(2, 6):
        word = parse_braid("braid n=3: " + "1 2 " * q)
        expected[f"torus_3_{q}"] = (2 * q - 3, 3, 1, 2 * q - 2)
        fx[f"torus_3_{q}"] = closure(word)
    for name, (sl, o, op, s) in expected.items():
        d = fx[name]
        got = (diagram_sl(d), seifert_analysis(d).circle_count, o_plus(d), abe_s(d))
        if got != (sl, o, op, s):
            failures.append((name, got, (sl, o, op, s)))
    for name, (p, q) in {
        "torus_2_3": (2, 3),
        "torus_2_5": (2, 5),
        "torus_2_7": (2, 7),
        "torus_3_4": (3, 4),
        "torus_3_5": (3, 5),
    }.items():
        if abe_s(fx[name]) != (p - 1) * (q - 1):
            failures.append((name, abe_s(fx[name]), (p - 1) * (q - 1)))
    _finish(1, "formula fixtures", failures)


def test_criterion_2_homfly_oracle():
    failures = []
    fx = fixture_diagrams()
    oracle = {
        "trefoil": LaurentPoly2({(2, 0): 2, (4, 0): -1, (2, 2): 1}),
        "figure_eight": LaurentPoly2({(-2, 0): 1, (0, 0): -1, (2, 0): 1, (0, 2): -1}),
        "hopf_plus": LaurentPoly2({(1, 1): 1, (1, -1): 1, (3, -1): -1}),
    }
    for name, expect in oracle.items():
        if homfly(fx[name]) != expect:
            failures.append((name, str(homfly(fx[name]))))
    rng = random.Random(2023)
    z = LaurentPoly2.monomial(1, 0, 1)
    v = LaurentPoly2.monomial(1, 1, 0)
    vinv = LaurentPoly2.monomial(1, -1, 0)
    done = 0
    while done < 200:
        d = random_diagram(rng, 8)
        if not d.crossings:
            continue
        done += 1
        ci = rng.randrange(len(d.crossings))
        d_plus = d if d.crossings[ci].sign > 0 else _switch(d, ci)
        d_minus = _switch(d, ci) if d.crossings[ci].sign > 0 else d
        d_zero = _smooth(d, ci)
        if vinv * homfly(d_plus) - v * homfly(d_minus) != z * homfly(d_zero):
            failures.append(("skein", d, ci))
    _finish(2, "homfly oracle + skein", failures)


def test_criterion_3_index_oracle_exhaustive():
    failures = []
    for m in enumerate_multigraphs(5, 7):
        edges = sum(sum(row) for row in m) // 2
        for bits in range(2 ** edges):
            signs = [1 if bits >> i & 1 else -1 for i in range(edges)]
            g = graph_from_matrix(m, signs)
            r = ind_all(g)
            if r.ind != oracle_ind_signed(g, 0):
                failures.append(("ind", m, signs))
            if r.ind_plus != oracle_ind_signed(g, +1):
                failures.append(("ind_plus", m, signs))
            if r.ind_minus != oracle_ind_signed(g, -1):
                failures.append(("ind_minus", m, signs))
            if (r.ind == 0) != (not dhl_check(g)[0]):
                failures.append(("dhl", m, signs))
            if failures:
                break
        if failures:
            break
    _finish(3, "index oracle exhaustive", failures)


def test_criterion_4_paper_inequalities_on_corpus():
    failures = []
    diagrams = [closure(w) for w in braid_corpus_full()]
    diagrams.extend(fixture_diagrams().values())
    for d in diagrams:
        analysis = seifert_analysis(d)
        idx = ind_all(analysis.graph)
        c = counts(d)
        sl = diagram_sl(d)
        o = analysis.circle_count
        p = homfly(d)
        if not p.is_zero():
            if p.min_deg_v() < sl + 1 + 2 * idx.ind_minus:
                failures.append(("eq1", d))
            if p.max_deg_v() > o + c.writhe - 1 - 2 * idx.ind_plus:
                failures.append(("eq2", d))
        b = index_bounds(d, o, idx)
        if b.upper_refined > b.upper_mp:
            failures.append(("refined<=mp", d))
        if b.lower_mfw is not None and b.lower_mfw > b.upper_refined:
            failures.append(("mfw<=refined", d))
        if homogeneity(d).is_homogeneous and idx.ind != idx.ind_plus + idx.ind_minus:
            failures.append(("homog ind split", d))
        if failures:
            break
    _finish(4, "paper inequalities on corpus", failures)


def _witness_corpus():
    out = []
    # Systematic small witnesses.
    for n in (2, 3):
        gens = range(1, n)
        for count in (1, 2, 3):
            for g in gens:
                out.append(QPWitness(n, tuple(QPFactor((), g) for _ in range(count))))
        for conj in ([1], [-1], [2], [-2]) if n == 3 else ([1], [-1]):
            for g in gens:
                out.append(QPWitness(n, (QPFactor(tuple(conj), g),)))
                out.append(QPWitness(n, (QPFactor(tuple(conj), g), QPFactor((), g))))
    rng = random.Random(555)
    while len(out) < 120:
        n = rng.randint(2, 3)
        pool = [i for i in range(-(n - 1), n) if i != 0]
        factors = tuple(
            QPFactor(tuple(rng.choice(pool) for _ in range(rng.randint(0, 2))), rng.randint(1, n - 1))
            for _ in range(rng.randint(1, 3))
        )
        out.append(QPWitness(n, factors))
    return [q for q in out if len(expand_witness(q).letters) <= 14]


def test_criterion_5_theorem_conformance():
    failures = []
    for q in _witness_corpus():
        d = closure(expand_witness(q))
        for mode in ("thm1", "thm4", "cor_mp"):
            cert = certify(q, d, mode)
            if cert.status == "Contradiction":
                failures.append(("contradiction", mode, q))
            for h in cert.hypothesis_trace:
                if h.name.startswith("gap") and not h.ok:
                    failures.append(("gap", mode, q))
        c = counts(d)
        if (
            c.split_parts == 1
            and c.c_minus > 0
            and homogeneity(d).is_homogeneous
            and diagram_sl(d) >= witness_sl(q, d).value
        ):
            failures.append(("contrapositive", q))
        if failures:
            break
    _finish(5, "theorem conformance", failures)


def test_criterion_6_braidization():
    failures = []
    for w in braid_corpus_small():
        d = closure(w)
        if counts(d).split_parts != 1:
            continue
        word = vogel_braidize(d)
        ok = (
            word.strands == seifert_analysis(d).circle_count
            and word.exponent_sum == counts(d).writhe
            and homfly(closure(word)) == homfly(d)
        )
        if not ok:
            failures.append((w, word))
            break
    _finish(6, "braidization", failures)


def test_criterion_7_identity_suite():
    failures = []
    rng = random.Random(777)
    for _ in range(500):
        d = random_diagram(rng, 8)
        if not mirror_identity_check(d)["ok"]:
            failures.append(("mirror-identity", d))
            break
    for _ in range(200):
        g = random_signed_graph(rng, max_vertices=6, max_edges=8)
        mg = type(g)(
            g.vertex_count,
            tuple(type(e)(e.u, e.v, -e.sign, e.crossing_id) for e in g.edges),
        )
        r, mr = ind_all(g), ind_all(mg)
        if mr.ind_minus != r.ind_plus or mr.ind_plus != r.ind_minus:
            failures.append(("ind-swap", g))
            break
    _finish(7, "identity suite", failures)


def test_criterion_8_cli_goldens_and_exit_codes(tmp_path, capsys):
    failures = []

    def fixture(name):
        return os.path.join(FIXTURES, name)

    def run_cli(argv):
        code = cli_run(argv)
        captured = capsys.readouterr()
        return code, captured.out

    cases = [
        (["analyze", fixture("trefoil.knot"), "--json"], "golden_analyze_trefoil.json"),
        (["homfly", fixture("trefoil.knot"), "--json"], "golden_homfly_trefoil.json"),
        (
            [
                "certify",
                fixture("trefoil.knot"),
                "--witness",
                fixture("qp_trefoil.json"),
                "--mode",
                "thm1",
                "--json",
            ],
            "golden_certify_trefoil.json",
        ),
    ]
    for argv, golden_name in cases:
        code, out = run_cli(argv)
        with open(fixture(golden_name), encoding="utf-8") as fh:
            golden = fh.read()
        if code != 0 or out != golden:
            failures.append((golden_name, code))

    bad = tmp_path / "bad.knot"
    bad.write_text("arcs:x loops:0\n")
    if run_cli(["analyze", str(bad), "--json"])[0] != 2:
        failures.append(("exit-2",))
    big = tmp_path / "big.braid"
    big.write_text("braid n=2: " + " ".join(["1"] * 20) + "\n")
    if run_cli(["homfly", str(big), "--json"])[0] != 3:
        failures.append(("exit-3",))
    fig8 = tmp_path / "fig8.braid"
    fig8.write_text("braid n=3: 1 -2 1 -2\n")
    argv = [
        "certify",
        str(fig8),
        "--witness",
        fixture("qp_trefoil.json"),
        "--mode",
        "thm1",
        "--json",
    ]
    if run_cli(argv)[0] != 4:
        failures.append(("exit-4",))
    _finish(8, "cli goldens + exit codes", failures)
