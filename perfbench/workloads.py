"""Seeded inputs, requests and correctness checks for the four workloads.

Each workload is a corpus of requests built from ``--seed`` alone.  The
program only ever sees the generated files (CLI workloads) or the parsed
graphs (``index_graphs``).  A request returns ``(exit_code, output)``;
``check`` turns one output into a list of problems, empty when correct.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

# Imported lazily by ``load_linkdiag`` so that set-up can time the import.
ld = None


def load_linkdiag():
    """Import linkdiag afresh, dropping any loaded copy, and return the package."""
    import importlib
    import sys

    for name in [n for n in sys.modules if n == "linkdiag" or n.startswith("linkdiag.")]:
        del sys.modules[name]
    global ld
    ld = importlib.import_module("linkdiag")
    importlib.import_module("linkdiag.cli")
    importlib.import_module("linkdiag.vogel")
    return ld


class Request:
    """One request: a key naming its input, and the data the check needs."""

    __slots__ = ("key", "argv", "graph", "meta")

    def __init__(self, key, argv=None, graph=None, meta=None):
        self.key = key
        self.argv = argv
        self.graph = graph
        self.meta = meta or {}


def _word_text(strands, letters):
    return f"braid n={strands}: " + " ".join(str(x) for x in letters)


def _random_word(rng, strands, length, positive=False):
    gens = range(1, strands)
    letters = [rng.choice(gens) for _ in range(length)]
    if not positive:
        letters = [x if rng.random() < 0.5 else -x for x in letters]
    return letters


def _write(workdir, name, text):
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


# --- analyze_braids ----------------------------------------------------
#
# Generators stratify: item i takes its strand count and length from i
# alone and only the letters from the seed.  Sizes are kept to a narrow
# band because HOMFLY time grows about 1.5-fold per letter: over a wide band
# the median and tail of a 20-s run jump between size classes from run to
# run.

TORUS = [(2, [1] * q) for q in range(2, 17)] + [(3, [1, 2] * q) for q in range(1, 9)]


def gen_analyze_braids(rng, workdir, count=1000):
    reqs = []
    for i in range(count):
        if i % 32 == 31:
            n, letters = TORUS[(i // 32) % len(TORUS)]
        else:
            n, length = 3 + i % 2, 13 + (i // 2) % 3
            letters = _random_word(rng, n, length)
        key = f"a{i:04d}"
        path = _write(workdir, key + ".braid", _word_text(n, letters) + "\n")
        meta = {"strands": n, "exponent_sum": sum(1 if x > 0 else -1 for x in letters)}
        reqs.append(Request(key, ["analyze", path, "--json"], meta=meta))
    return reqs


def check_analyze(req, out):
    r = json.loads(out)["result"]
    m = req.meta
    o = r["seifert"]["O"]
    b = r.get("bounds")
    idx = r["index"]
    problems = []
    if o != m["strands"]:
        problems.append(f"O={o} but the braid has {m['strands']} strands")
    if r["counts"]["writhe"] != m["exponent_sum"]:
        problems.append("writhe differs from the exponent sum")
    if b is None or b["lower_mfw"] is None:
        problems.append("bounds missing")
    else:
        if b["lower_mfw"] > b["upper_refined"]:
            problems.append("lower_mfw > upper_refined")
        if b["lower_mfw"] > m["strands"]:
            problems.append("lower_mfw > strands")
    for name in ("ind", "ind_plus", "ind_minus"):
        if idx[name] is None or idx[name] > o - 1:
            problems.append(f"{name}={idx[name]} exceeds O-1")
    return problems


# --- certify_qp --------------------------------------------------------

def _qp_factors(rng, n, length):
    """Factors w g w^-1 with |w| <= 1 whose expansion has exactly `length` letters."""
    factors, left = [], length
    while left:
        conj = []
        if left >= 3 and rng.random() < 0.5:
            conj = [rng.choice([x for x in range(-(n - 1), n) if x])]
        factors.append((conj, rng.randint(1, n - 1)))
        left -= 1 + 2 * len(conj)
    return factors


def gen_certify_qp(rng, workdir, count=600):
    """Alternate positive closures (trivial witness) and conjugated QP words."""
    reqs = []
    for i in range(count):
        positive, n, length = i % 2 == 0, 3 + (i // 2) % 2, 11 + (i // 4) % 3
        mode = ("thm1", "cor_mp")[(i // 12) % 2]
        if positive:
            letters = _random_word(rng, n, length, positive=True)
            while set(letters) != set(range(1, n)):
                letters = _random_word(rng, n, length, positive=True)
            factors = [([], g) for g in letters]
        else:
            factors = _qp_factors(rng, n, length)
            letters = [x for conj, g in factors for x in conj + [g] + [-c for c in reversed(conj)]]
        key = f"c{i:04d}"
        path = _write(workdir, key + ".braid", _word_text(n, letters) + "\n")
        witness = {"strands": n, "factors": [{"conj": c, "gen": g} for c, g in factors]}
        wpath = _write(workdir, key + ".qp.json", json.dumps(witness, sort_keys=True))
        argv = ["certify", path, "--witness", wpath, "--mode", mode, "--json"]
        reqs.append(Request(key, argv, meta={"positive": positive, "mode": mode}))
    return reqs


def check_certify(req, out):
    r = json.loads(out)["result"]
    problems = []
    if r["status"] == "Contradiction":
        problems.append("certificate contradiction")
    if req.meta["positive"] and req.meta["mode"] == "thm1" and r["status"] != "Positive":
        problems.append(f"positive input with trivial witness got {r['status']}")
    return problems


# --- index_graphs ------------------------------------------------------

def gen_index_graphs(rng, workdir, count=700):
    """Signed multigraphs on 10 vertices with 16 edges, parsed from edge-list text.

    The search cost follows the number of lone pairs, so each graph takes
    13 distinct vertex pairs and doubles 3 of them, which fixes that number
    at 10; signs are balanced.  One size only: from 8 to 12 vertices the
    cost grows fortyfold, and a mix of sizes made the median jump.
    """
    reqs = []
    for i in range(count):
        n, m, p = 10, 16, 3
        pairs = set()
        while len(pairs) < m - p:
            pairs.add(tuple(sorted(rng.sample(range(n), 2))))
        pairs = sorted(pairs)
        rng.shuffle(pairs)
        signs = [1] * (m // 2) + [-1] * (m - m // 2)
        rng.shuffle(signs)
        edges = pairs + pairs[:p]
        rng.shuffle(edges)
        lines = [f"vertices:{n}"] + [f"{u} {v} {s:+d} {cid}" for cid, ((u, v), s) in enumerate(zip(edges, signs))]
        reqs.append(Request(f"g{i:04d}", graph=ld.graph_from_edge_list("\n".join(lines) + "\n")))
    return reqs


def index_output(report):
    def steps(w):
        return [[s.crossing_id, s.sign, list(s.merged)] for s in w.steps]

    return json.dumps(
        {
            "ind": report.ind,
            "ind_plus": report.ind_plus,
            "ind_minus": report.ind_minus,
            "size_limited": report.size_limited,
            "witness": steps(report.witness),
            "witness_plus": steps(report.witness_plus),
            "witness_minus": steps(report.witness_minus),
        },
        sort_keys=True,
    )


def _replay(graph, steps, mode):
    """Replay a witness on the original graph; return problems found."""
    label = list(range(graph.vertex_count))

    def find(v):
        while label[v] != v:
            v = label[v]
        return v

    live = {e.crossing_id: e for e in graph.edges}
    for cid, sign, merged in steps:
        e = live.get(cid)
        if e is None:
            return [f"step contracts missing edge {cid}"]
        a, b = find(e.u), find(e.v)
        parallel = [f for f in live.values() if {find(f.u), find(f.v)} == {a, b}]
        if len(parallel) != 1:
            return [f"edge {cid} is not lone ({len(parallel)} parallel)"]
        if sign != e.sign or (mode and e.sign != mode):
            return [f"edge {cid} has the wrong sign for mode {mode}"]
        keep, drop = min(a, b), max(a, b)
        if tuple(merged) != (keep, drop):
            return [f"edge {cid} merges {merged}, expected {[keep, drop]}"]
        label[drop] = keep
        del live[cid]
    return []


def check_index(req, out):
    r = json.loads(out)
    problems = []
    for field, mode, value in (
        ("witness", 0, r["ind"]),
        ("witness_plus", 1, r["ind_plus"]),
        ("witness_minus", -1, r["ind_minus"]),
    ):
        steps = r[field]
        if len(steps) != value:
            problems.append(f"{field} has {len(steps)} steps for value {value}")
        problems += _replay(req.graph, steps, mode)
    if r["ind_plus"] > r["ind"] or r["ind_minus"] > r["ind"]:
        problems.append("signed index exceeds ind")
    return problems


# --- braidize_incoherent -----------------------------------------------

def _reverse_component(d, rng):
    """Reverse one link component of d: swap its in/out slots, flip mixed signs."""
    strand = ld.diagram.DSU(d.arc_count)
    for x in d.crossings:
        strand.union(x.under_in, x.under_out)
        strand.union(x.over_in, x.over_out)
    comp = rng.choice(sorted({strand.find(a) for a in range(d.arc_count)}))
    crossings = []
    for x in d.crossings:
        ui, oi, uo, oo = x.under_in, x.over_in, x.under_out, x.over_out
        flip_u = strand.find(ui) == comp
        flip_o = strand.find(oi) == comp
        if flip_u:
            ui, uo = uo, ui
        if flip_o:
            oi, oo = oo, oi
        sign = -x.sign if flip_u != flip_o else x.sign
        crossings.append(ld.Crossing(sign, ui, oi, uo, oo))
    return ld.diagram.check_valid(ld.Diagram(d.arc_count, tuple(crossings), d.free_loops))


def _has_vogel_defect(d):
    """True when some face carries two same-way arcs of distinct Seifert circles.

    Faces are traced on the combinatorial map the crossing signs define:
    slots run counterclockwise as (u_in, o_in, u_out, o_out) at a positive
    crossing and (u_in, o_out, u_out, o_in) at a negative one.
    """
    circle = ld.diagram.DSU(d.arc_count)
    ends = {}  # arc -> [out dart, in dart]; a dart is (crossing, ccw position)
    for ci, x in enumerate(d.crossings):
        circle.union(x.under_in, x.over_out)
        circle.union(x.over_in, x.under_out)
        ccw = ((x.under_in, False), (x.over_in, False), (x.under_out, True), (x.over_out, True))
        if x.sign < 0:
            ccw = (ccw[0], ccw[3], ccw[2], ccw[1])
        for pos, (arc, is_out) in enumerate(ccw):
            ends.setdefault(arc, [None, None])[0 if is_out else 1] = (ci, pos, arc, is_out)
    darts = {(e[0], e[1]): e for pair in ends.values() for e in pair}
    seen = set()
    for start in darts:
        face = set()
        dart = start
        while dart not in seen:
            seen.add(dart)
            _ci, _pos, arc, is_out = darts[dart]
            face.add((circle.find(arc), is_out))
            other = ends[arc][1 if is_out else 0]
            dart = (other[0], (other[1] - 1) % 4)
        for is_out in (True, False):
            if len({c for c, f in face if f == is_out}) > 1:
                return True
    return False


def gen_braidize_incoherent(rng, workdir, count=900):
    """Connected 3-strand closures of 5-8 letters, 2+ components, one reversed.

    Outputs above the 16-crossing cap skip HOMFLY verification and cost a
    fraction of verified ones; with longer or 4-strand inputs that split
    made the median jump between runs.
    """
    reqs = []
    for i in range(count):
        n, length = 3, 5 + i % 4
        while True:
            d = ld.closure(ld.BraidWord(n, tuple(_random_word(rng, n, length))))
            c = ld.counts(d)
            if c.split_parts == 1 and c.link_components >= 2:
                r = _reverse_component(d, rng)
                if _has_vogel_defect(r):
                    break
        key = f"b{i:04d}"
        path = _write(workdir, key + ".knot", ld.serialize_diagram(r))
        reqs.append(Request(key, ["braidize", path, "--json"]))
    return reqs


def check_braidize(req, out):
    r = json.loads(out)["result"]
    d = ld.parse_diagram(_read(req.argv[1]))
    word = ld.parse_braid(r["text"])
    problems = []
    if r["strands"] != ld.seifert_analysis(d).circle_count:
        problems.append("strands differ from O(input)")
    if word.exponent_sum != ld.counts(d).writhe:
        problems.append("exponent sum differs from the writhe")
    if len(word.letters) <= len(d.crossings):
        problems.append("no R2 move: the input had no Vogel defect")
    if len(word.letters) <= 16 and len(d.crossings) <= 16:
        if ld.homfly(ld.closure(word), 16) != ld.homfly(d, 16):
            problems.append("closure HOMFLY differs from the input's")
    return problems


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


# --- requests ----------------------------------------------------------

def run_cli(req):
    """One in-process ``linkdiag`` CLI call; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = ld.cli.run(req.argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def run_index(req):
    """One ``ind_all`` call; the report object is serialised outside the timer."""
    return 0, ld.ind_all(req.graph)


WORKLOADS = {
    "analyze_braids": (gen_analyze_braids, run_cli, check_analyze),
    "certify_qp": (gen_certify_qp, run_cli, check_certify),
    "index_graphs": (gen_index_graphs, run_index, check_index),
    "braidize_incoherent": (gen_braidize_incoherent, run_cli, check_braidize),
}
