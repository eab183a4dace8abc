"""Executable bounds, identities, and positivity certificates.

The maximal self-linking number of a link enters only through a
quasipositive witness: for the closure of a quasipositive braid the slice
Bennequin inequality is an equality, so the witness expansion pins
SL = e - n (and with it s = SL + 1 and chi_4 = -SL).
"""

from __future__ import annotations

from dataclasses import dataclass

from .braids import QPWitness, closure, expand_witness
from .diagram import Diagram, check_valid, counts, rebuild
from .errors import (
    CrossingRangeError,
    NotCutEdgeError,
    NotHomogeneousError,
    NotLoneError,
    SizeLimitError,
    SplitInputError,
    WitnessMismatchError,
)
from .graph_index import DEFAULT_VERTEX_CAP, IndexReport, ind_all
from .homfly import DEFAULT_CROSSING_CAP, homfly
from .seifert import blocks, diagram_sl, seifert_analysis
from . import diagram as diagram_mod


@dataclass(frozen=True)
class Bounds:
    lower_mfw: int | None
    upper_mp: int
    upper_refined: int
    pinned: int | None
    lower_omitted: bool = False


@dataclass(frozen=True)
class HypothesisCheck:
    name: str
    value: object
    ok: bool


@dataclass(frozen=True)
class Certificate:
    mode: str
    status: str  # Positive | NotApplicable | Contradiction
    hypothesis_trace: tuple[HypothesisCheck, ...]
    sl_max: int | None
    s_value: int | None
    chi4: int | None

    def to_json_obj(self) -> dict:
        return {
            "mode": self.mode,
            "status": self.status,
            "hypothesis_trace": [
                {"name": h.name, "value": h.value, "ok": h.ok} for h in self.hypothesis_trace
            ],
            "sl_max": self.sl_max,
            "s_value": self.s_value,
            "chi4": self.chi4,
        }


@dataclass(frozen=True)
class WitnessSL:
    value: int
    verified: bool


def abe_s(d: Diagram) -> int:
    """Rasmussen invariant of a homogeneous non-split diagram's link."""
    c = counts(d)
    if c.split_parts > 1:
        raise SplitInputError(f"diagram has {c.split_parts} split parts")
    analysis = seifert_analysis(d)
    if not analysis.homogeneity.is_homogeneous:
        raise NotHomogeneousError("diagram is not homogeneous")
    return analysis.sl + 2 * analysis.o_plus - 1


def witness_sl(q: QPWitness, d: Diagram, crossing_cap: int = DEFAULT_CROSSING_CAP) -> WitnessSL:
    """SL(K) from a quasipositive witness, verified at invariant level."""
    check_valid(d)
    word = expand_witness(q)
    wd = closure(word)
    if counts(wd).link_components != counts(d).link_components:
        raise WitnessMismatchError("witness closure and diagram differ in component count")
    # Equal diagrams have equal polynomials: when d is the witness's own
    # closure it is verified at any size, with nothing to evaluate.
    verified = wd == d
    if not verified and len(wd.crossings) <= crossing_cap and len(d.crossings) <= crossing_cap:
        if homfly(wd, crossing_cap) != homfly(d, crossing_cap):
            raise WitnessMismatchError("witness closure and diagram have different HOMFLY polynomials")
        verified = True
    return WitnessSL(word.exponent_sum - word.strands, verified)


def braid_index_bounds(
    d: Diagram, crossing_cap: int = DEFAULT_CROSSING_CAP, vertex_cap: int = DEFAULT_VERTEX_CAP
) -> Bounds:
    analysis = seifert_analysis(d)
    return index_bounds(d, analysis.circle_count, ind_all(analysis.graph, vertex_cap), crossing_cap)


def index_bounds(
    d: Diagram, circle_count: int, idx: IndexReport, crossing_cap: int = DEFAULT_CROSSING_CAP
) -> Bounds:
    """Bounds on b(K) from O(D), the index report of D and its HOMFLY."""
    if idx.size_limited:
        raise SizeLimitError("Seifert graph exceeds the index vertex cap")
    upper_mp = circle_count - idx.ind
    upper_refined = circle_count - idx.ind_plus - idx.ind_minus
    lower = None
    omitted = False
    if len(d.crossings) <= crossing_cap:
        p = homfly(d, crossing_cap)
        lower = (p.max_deg_v() - p.min_deg_v()) // 2 + 1
    else:
        omitted = True
    pinned = lower if lower is not None and lower == upper_refined else None
    return Bounds(lower, upper_mp, upper_refined, pinned, omitted)


def mirror_identity_check(d: Diagram) -> dict:
    analysis = seifert_analysis(d)
    lhs = analysis.sl + diagram_sl(diagram_mod.mirror(d))
    rhs = -2 * analysis.circle_count
    return {"lhs": lhs, "rhs": rhs, "ok": lhs == rhs}


def certify(
    q: QPWitness,
    d: Diagram,
    mode: str,
    crossing_cap: int = DEFAULT_CROSSING_CAP,
    vertex_cap: int = DEFAULT_VERTEX_CAP,
) -> Certificate:
    if mode not in ("thm1", "thm4", "cor_mp"):
        raise ValueError(f"unknown certificate mode {mode!r}")
    trace: list[HypothesisCheck] = []
    c = counts(d)
    analysis = seifert_analysis(d)
    report = analysis.homogeneity
    trace.append(HypothesisCheck("homogeneous", report.is_homogeneous, report.is_homogeneous))
    nonsplit = c.split_parts == 1
    trace.append(HypothesisCheck("non-split", c.split_parts, nonsplit))
    applicable = report.is_homogeneous and nonsplit
    if mode in ("thm4", "cor_mp"):
        trace.append(HypothesisCheck("irreducible", report.is_reduced, report.is_reduced))
        applicable = applicable and report.is_reduced

    ws = witness_sl(q, d, crossing_cap)
    sl_max = ws.value
    s_value = sl_max + 1
    chi4 = -sl_max
    trace.append(HypothesisCheck("witness-verified", ws.verified, True))

    sl = analysis.sl
    idx = ind_all(analysis.graph, vertex_cap)
    # thm4 and cor_mp need the index; thm1 only loses the gap row below.
    bounds = None
    if not idx.size_limited or mode != "thm1":
        bounds = index_bounds(d, analysis.circle_count, idx, crossing_cap)
    if mode == "thm1":
        ok = sl_max == sl
        trace.append(HypothesisCheck("SL=sl(D)", {"SL": sl_max, "sl": sl}, ok))
    elif mode == "thm4":
        value = sl + 2 * idx.ind_minus
        ok = sl_max == value
        trace.append(HypothesisCheck("SL=sl(D)+2ind_minus", {"SL": sl_max, "sl+2ind_minus": value}, ok))
    else:  # cor_mp
        ok = bounds.pinned is not None and bounds.pinned == bounds.upper_mp
        trace.append(
            HypothesisCheck("b(K)=O(D)-ind(D)", {"pinned": bounds.pinned, "O-ind": bounds.upper_mp}, ok)
        )
    applicable = applicable and ok

    # Gap bound O(D) - b >= O_plus(D) - 1; it needs a homogeneous non-split
    # diagram and a pinned braid index, so it is recorded only then.
    if bounds is not None and bounds.pinned is not None and report.is_homogeneous and nonsplit:
        op = analysis.o_plus
        trace.append(
            HypothesisCheck(
                "gap O-b>=O_plus-1",
                {"O": analysis.circle_count, "b": bounds.pinned, "O_plus": op},
                analysis.circle_count - bounds.pinned >= op - 1,
            )
        )

    if not applicable:
        status = "NotApplicable"
    elif c.c_minus == 0:
        trace.append(HypothesisCheck("c_minus=0", c.c_minus, True))
        status = "Positive"
    else:
        trace.append(HypothesisCheck("c_minus=0", c.c_minus, False))
        status = "Contradiction"
    return Certificate(mode, status, tuple(trace), sl_max, s_value, chi4)


def mp_reduce(d: Diagram, crossing_id: int, crossing_cap: int = DEFAULT_CROSSING_CAP) -> Diagram:
    """Remove a lone cut-edge crossing, splicing its two Seifert circles.

    The strands pass straight through: the under strand continues
    under_in -> under_out and the over strand over_in -> over_out.  Only
    the nugatory case is supported: the crossing must be the unique edge
    between its two circles and a cut edge of the Seifert graph.
    """
    analysis = seifert_analysis(d)
    if not 0 <= crossing_id < len(d.crossings):
        raise CrossingRangeError(f"crossing {crossing_id} out of range for {len(d.crossings)} crossings")
    g = analysis.graph
    edge = g.edges[crossing_id]
    mult = g.multiplicity()
    if mult[(min(edge.u, edge.v), max(edge.u, edge.v))] != 1:
        raise NotLoneError(f"crossing {crossing_id} is not a lone crossing")
    if not any(len(b) == 1 and g.edges[b[0]].crossing_id == crossing_id for b in blocks(g)):
        raise NotCutEdgeError(f"crossing {crossing_id} is not a cut edge of the Seifert graph")

    x = d.crossings[crossing_id]
    joins = ((x.under_in, x.under_out), (x.over_in, x.over_out))
    rest = d.crossings[:crossing_id] + d.crossings[crossing_id + 1:]
    result = rebuild(d.arc_count, joins, rest, d.free_loops)

    if seifert_analysis(result).circle_count != analysis.circle_count - 1:
        raise NotCutEdgeError("reduction did not merge exactly one circle pair")
    if len(d.crossings) <= crossing_cap:
        if homfly(result, crossing_cap) != homfly(d, crossing_cap):
            raise NotCutEdgeError("reduction changed the HOMFLY polynomial")
    return result

