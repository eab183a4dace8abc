"""Oriented link-diagram codes: parsing, validation, mirroring, counting.

A diagram is a list of signed crossings over numbered arcs.  Each crossing
records the four arc ids at its slots: the under-strand runs
``under_in -> under_out`` and the over-strand runs ``over_in -> over_out``.
Crossing-free circle components are tracked as a bare ``free_loops`` count.

The native text format is::

    arcs:6 loops:0
    X+ u_in:0 o_in:4 u_out:5 o_out:1
    ...

with one ``X`` line per crossing.  A JSON mirror of the same fields is
also supported (see :func:`diagram_to_json` / :func:`diagram_from_json`).

The crossing sign fixes the counterclockwise order of the four slots, so
a diagram is also a combinatorial map whose faces :func:`faces` traces
with no separate planar data.  Parsed and imported diagrams must be
planar: :func:`check_planar` rejects a slot-valid code that fails
Euler's formula.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import NamedTuple

from .errors import AmbiguousOrientation, DiagramSyntaxError, InvariantError, NonPlanarError


class Crossing(NamedTuple):
    sign: int
    under_in: int
    over_in: int
    under_out: int
    over_out: int

    def in_slots(self) -> tuple[int, int]:
        return (self.under_in, self.over_in)

    def out_slots(self) -> tuple[int, int]:
        return (self.under_out, self.over_out)


@dataclass(frozen=True)
class Diagram:
    arc_count: int
    crossings: tuple[Crossing, ...]
    free_loops: int = 0


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    issues: tuple[tuple[str, str, object], ...]


@dataclass(frozen=True)
class DiagramCounts:
    c_plus: int
    c_minus: int
    writhe: int
    link_components: int
    split_parts: int


class DSU:
    """Small union-find over 0..n-1."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


def rebuild(arc_count: int, joins, crossings, free_loops: int) -> Diagram:
    """Glue arcs and renumber: the one rebuild after a splice or closure.

    ``joins`` are pairs of arc ids in ``0..arc_count-1`` to identify, and
    ``crossings`` use those ids.  Surviving classes are renumbered in order
    of their smallest id; classes no crossing touches become free loops on
    top of ``free_loops``.  The result is not validated.
    """
    dsu = DSU(arc_count)
    for a, b in joins:
        dsu.union(a, b)
    find = dsu.find
    resolved = [
        (x.sign, find(x.under_in), find(x.over_in), find(x.under_out), find(x.over_out))
        for x in crossings
    ]
    live = sorted({a for r in resolved for a in r[1:]})
    relabel = {rep: i for i, rep in enumerate(live)}
    new = tuple(
        Crossing(s, relabel[ui], relabel[oi], relabel[uo], relabel[oo])
        for s, ui, oi, uo, oo in resolved
    )
    classes = sum(1 for a, p in enumerate(dsu.parent) if a == p)
    return Diagram(2 * len(new), new, free_loops + classes - len(live))


def validate(d: Diagram) -> ValidationReport:
    """Check the slot invariants; every arc once in, once out."""
    issues = []
    if d.arc_count < 0 or d.free_loops < 0:
        issues.append(("negative-count", "arc_count and free_loops must be nonnegative", None))
    arc_count_ok = d.arc_count == 2 * len(d.crossings)
    if not arc_count_ok:
        issues.append(
            ("arc-count", f"arc_count={d.arc_count} but diagram has {len(d.crossings)} crossings", None)
        )
    ins: dict[int, int] = {}
    outs: dict[int, int] = {}
    for ci, x in enumerate(d.crossings):
        if x.sign not in (+1, -1):
            issues.append(("bad-sign", f"crossing {ci} has sign {x.sign}", ci))
        for a in (x.under_in, x.over_in, x.under_out, x.over_out):
            if not (0 <= a < d.arc_count):
                issues.append(("arc-range", f"crossing {ci} references arc {a}", a))
        for a in x.in_slots():
            ins[a] = ins.get(a, 0) + 1
        for a in x.out_slots():
            outs[a] = outs.get(a, 0) + 1
    # The per-arc checks run over the declared arc count, which is read from
    # the input; after an arc-count issue they would only repeat it, once
    # per arc.
    for a in range(d.arc_count if arc_count_ok else 0):
        if ins.get(a, 0) != 1:
            issues.append(("in-slot", f"arc {a} occurs {ins.get(a, 0)} times as an in-slot", a))
        if outs.get(a, 0) != 1:
            issues.append(("out-slot", f"arc {a} occurs {outs.get(a, 0)} times as an out-slot", a))
    return ValidationReport(ok=not issues, issues=tuple(issues))


def check_valid(d: Diagram) -> Diagram:
    """Raise InvariantError unless d is valid; return d for chaining."""
    report = validate(d)
    if not report.ok:
        code, message, _loc = report.issues[0]
        raise InvariantError(f"{code}: {message}")
    return d


def dart_successors(d: Diagram) -> list[int]:
    """Next dart along its face, for each dart ``4*crossing + slot``.

    Slots are numbered as in ``Crossing``: 0 ``u_in``, 1 ``o_in``,
    2 ``u_out``, 3 ``o_out``.  Counterclockwise they run 0 1 2 3 at a
    positive crossing and 0 3 2 1 at a negative one, so the slot before
    ``s`` is ``(s - sign) % 4``.  A dart steps along its arc to the
    arc's other end, then back one slot there, which keeps the face on
    its left.
    """
    before_end = [0] * (2 * d.arc_count)  # 2*arc + 1: head end, 2*arc: tail end
    for ci, x in enumerate(d.crossings):
        base, s = 4 * ci, x.sign
        before_end[2 * x.under_in + 1] = base + (0 - s) % 4
        before_end[2 * x.over_in + 1] = base + (1 - s) % 4
        before_end[2 * x.under_out] = base + (2 - s) % 4
        before_end[2 * x.over_out] = base + (3 - s) % 4
    return [
        before_end[2 * arc + (slot >= 2)]
        for x in d.crossings
        for slot, arc in enumerate(x[1:])
    ]


def faces(d: Diagram) -> list[list[tuple[int, bool]]]:
    """Faces as lists of (arc, forward) entries along the boundary.

    Faces come in order of their first dart and each starts there.
    Traversal keeps the face interior on the left; ``forward`` records
    whether the arc's orientation agrees with the traversal.
    """
    succ = dart_successors(d)
    crossings = d.crossings
    seen = [False] * len(succ)
    out = []
    for start in range(len(succ)):
        face = []
        t = start
        while not seen[t]:
            seen[t] = True
            face.append((crossings[t >> 2][1 + (t & 3)], t & 3 >= 2))
            t = succ[t]
        if face:
            out.append(face)
    return out


def check_planar(d: Diagram) -> Diagram:
    """Raise unless d is valid and planar; return d for chaining.

    Each split part with crossings is a map with V crossings, E = 2V arcs
    and F faces, and it lies on a sphere exactly when V - E + F = 2.
    Free loops carry no map, so the sum over the diagram must be twice
    the number of split parts that are not free loops.
    """
    check_valid(d)
    parts = counts(d).split_parts - d.free_loops
    euler = len(d.crossings) - d.arc_count + len(faces(d))
    if euler != 2 * parts:
        raise NonPlanarError(
            f"non-planar: V - E + F = {euler} but {parts} split part(s) need {2 * parts}"
        )
    return d


_HEADER_RE = re.compile(r"^arcs:(\d+)\s+loops:(\d+)$")
_CROSSING_RE = re.compile(
    r"^X([+-])\s+u_in:(\d+)\s+o_in:(\d+)\s+u_out:(\d+)\s+o_out:(\d+)$"
)


def parse_diagram(text: str) -> Diagram:
    """Parse the native text format (or its JSON mirror) into a Diagram."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return diagram_from_json(stripped)
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.strip().startswith("#")]
    if not lines:
        raise DiagramSyntaxError("empty diagram text")
    m = _HEADER_RE.match(lines[0])
    if not m:
        raise DiagramSyntaxError(f"bad header line: {lines[0]!r}")
    arc_count, free_loops = int(m.group(1)), int(m.group(2))
    crossings = []
    for ln in lines[1:]:
        cm = _CROSSING_RE.match(ln)
        if not cm:
            raise DiagramSyntaxError(f"bad crossing line: {ln!r}")
        sign = 1 if cm.group(1) == "+" else -1
        crossings.append(
            Crossing(sign, int(cm.group(2)), int(cm.group(3)), int(cm.group(4)), int(cm.group(5)))
        )
    return check_planar(Diagram(arc_count, tuple(crossings), free_loops))


def serialize_diagram(d: Diagram) -> str:
    lines = [f"arcs:{d.arc_count} loops:{d.free_loops}"]
    for x in d.crossings:
        s = "+" if x.sign > 0 else "-"
        lines.append(f"X{s} u_in:{x.under_in} o_in:{x.over_in} u_out:{x.under_out} o_out:{x.over_out}")
    return "\n".join(lines) + "\n"


def diagram_to_json(d: Diagram) -> str:
    obj = {
        "arcs": d.arc_count,
        "loops": d.free_loops,
        "crossings": [
            {"sign": x.sign, "u_in": x.under_in, "o_in": x.over_in, "u_out": x.under_out, "o_out": x.over_out}
            for x in d.crossings
        ],
    }
    return json.dumps(obj, sort_keys=True)


def diagram_from_json(text: str) -> Diagram:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DiagramSyntaxError(f"bad JSON diagram: {exc}") from exc
    try:
        crossings = tuple(
            Crossing(int(x["sign"]), int(x["u_in"]), int(x["o_in"]), int(x["u_out"]), int(x["o_out"]))
            for x in obj.get("crossings", [])
        )
        d = Diagram(int(obj["arcs"]), crossings, int(obj.get("loops", 0)))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DiagramSyntaxError(f"bad JSON diagram fields: {exc}") from exc
    return check_planar(d)


def mirror(d: Diagram) -> Diagram:
    """Negate every crossing sign and swap under/over roles."""
    flipped = tuple(
        Crossing(-x.sign, x.over_in, x.under_in, x.over_out, x.under_out) for x in d.crossings
    )
    return Diagram(d.arc_count, flipped, d.free_loops)


def from_behind(d: Diagram) -> Diagram:
    """The same diagram seen from the other side of the projection plane.

    Every crossing's over and under strands trade places and its sign
    stays.  The view is a rotation by pi in R^3, so the link is unchanged.
    """
    swapped = tuple(
        Crossing(x.sign, x.over_in, x.under_in, x.over_out, x.under_out) for x in d.crossings
    )
    return Diagram(d.arc_count, swapped, d.free_loops)


def isomorphic(a: Diagram, b: Diagram) -> bool:
    """Whether relabelling arcs and crossings turns ``a`` into ``b``.

    Crossing 0 of ``a`` is tried against each crossing of ``b`` with its
    sign; the map then propagates along the outgoing arcs, so each try is
    linear and the test is O(C^2).  The map keeps signs and slot roles, and
    with them the rotation of the slots, so for a non-split ``a`` it is
    equality of diagrams on S^2.  Crossings that propagation from crossing
    0 cannot reach, in a second split part, are never matched.
    """
    if (len(a.crossings), a.free_loops) != (len(b.crossings), b.free_loops):
        return False
    if not a.crossings:
        return True
    next_a, next_b = _next_ports(a), _next_ports(b)
    sign_a = [x.sign for x in a.crossings]
    sign_b = [x.sign for x in b.crossings]
    return any(
        _extends(next_a, next_b, sign_a, sign_b, j)
        for j in range(len(sign_b))
        if sign_b[j] == sign_a[0]
    )


def in_ports(d: Diagram) -> list[int]:
    """For each arc, the port ``2*crossing + role`` (0 under, 1 over) it runs into."""
    port = [0] * d.arc_count
    for ci, x in enumerate(d.crossings):
        port[x.under_in] = 2 * ci
        port[x.over_in] = 2 * ci + 1
    return port


def _next_ports(d: Diagram) -> list[int]:
    """Port ``2*crossing + role`` -> port its out-arc enters."""
    head = in_ports(d)
    return [head[a] for x in d.crossings for a in (x.under_out, x.over_out)]


def _extends(next_a, next_b, sign_a, sign_b, start: int) -> bool:
    """Whether crossing 0 -> ``start`` extends to a full isomorphism."""
    n = len(sign_a)
    to_b, to_a = [-1] * n, [-1] * n
    to_b[0], to_a[start] = start, 0
    stack = [0]
    while stack:
        i = stack.pop()
        j = to_b[i]
        for role in (0, 1):
            p, q = next_a[2 * i + role], next_b[2 * j + role]
            if p & 1 != q & 1:
                return False
            i2, j2 = p >> 1, q >> 1
            if to_b[i2] < 0:
                if to_a[j2] >= 0 or sign_a[i2] != sign_b[j2]:
                    return False
                to_b[i2], to_a[j2] = j2, i2
                stack.append(i2)
            elif to_b[i2] != j2:
                return False
    return -1 not in to_b


def counts(d: Diagram) -> DiagramCounts:
    """Signs, link components and split parts; reads no faces, checks nothing."""
    c_plus = sum(1 for x in d.crossings if x.sign > 0)
    c_minus = len(d.crossings) - c_plus

    # Join along strands for the components, then across crossings for the parts.
    dsu = DSU(d.arc_count)
    for x in d.crossings:
        dsu.union(x.under_in, x.under_out)
        dsu.union(x.over_in, x.over_out)
    link_components = len({dsu.find(a) for a in range(d.arc_count)}) + d.free_loops
    for x in d.crossings:
        dsu.union(x.under_in, x.over_in)
    split_parts = len({dsu.find(a) for a in range(d.arc_count)}) + d.free_loops
    return DiagramCounts(c_plus, c_minus, c_plus - c_minus, link_components, split_parts)


# --- classic PD import -------------------------------------------------

_PD_RE = re.compile(r"X\[\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\]")


def import_pd(text: str) -> Diagram:
    """Import a classic PD code ``X[a,b,c,d] ...``.

    Slot ``a`` is the incoming under-arc and the slots are listed
    counterclockwise, so ``c`` is the outgoing under-arc and ``b``, ``d``
    carry the over-strand.  Over-strand directions are recovered by
    propagating the rule that each arc label is incoming at exactly one of
    its two occurrences; chains this leaves undetermined fall back to the
    label-successor heuristic (``x -> x+1``, wraparound from the maximum
    label of the chain).  The crossing is positive when the over-strand
    runs ``b -> d``.
    """
    tuples = [tuple(int(g) for g in m.groups()) for m in _PD_RE.finditer(text)]
    if not tuples:
        stripped = text.strip()
        if stripped:
            raise DiagramSyntaxError(f"no PD crossings found in {stripped[:40]!r}")
        return Diagram(0, (), 0)

    occurrences: dict[int, list[tuple[int, int]]] = {}
    for ci, slots in enumerate(tuples):
        for si, label in enumerate(slots):
            occurrences.setdefault(label, []).append((ci, si))
    for label, occ in occurrences.items():
        if len(occ) != 2:
            raise DiagramSyntaxError(f"PD arc label {label} occurs {len(occ)} times (expected 2)")

    # role[(ci, si)] = "in" or "out"; under slots are fixed.
    role: dict[tuple[int, int], str] = {}
    for ci in range(len(tuples)):
        role[(ci, 0)] = "in"
        role[(ci, 2)] = "out"

    def other(label: int, here: tuple[int, int]) -> tuple[int, int]:
        occ = occurrences[label]
        return occ[1] if occ[0] == here else occ[0]

    # Constraint propagation: the two occurrences of a label take opposite
    # roles, and the two over-slots (1 and 3) of a crossing take opposite
    # roles.
    changed = True
    while changed:
        changed = False
        for ci, slots in enumerate(tuples):
            for si in (1, 3):
                here = (ci, si)
                if here in role:
                    continue
                partner = (ci, 4 - si)
                if partner in role:
                    role[here] = "in" if role[partner] == "out" else "out"
                    changed = True
                    continue
                twin = other(slots[si], here)
                if twin in role:
                    role[here] = "in" if role[twin] == "out" else "out"
                    changed = True

    # Successor heuristic for any remaining over-over chains.
    unresolved = [
        (ci, si) for ci, slots in enumerate(tuples) for si in (1, 3) if (ci, si) not in role
    ]
    if unresolved:
        labels = sorted({tuples[ci][si] for ci, si in unresolved})
        for ci, si in unresolved:
            if (ci, si) in role:
                continue
            b, dd = tuples[ci][1], tuples[ci][3]
            if dd == b + 1:
                direction = "b->d"
            elif b == dd + 1:
                direction = "d->b"
            elif dd == min(labels) and b == max(labels):
                direction = "b->d"
            elif b == min(labels) and dd == max(labels):
                direction = "d->b"
            else:
                raise AmbiguousOrientation(
                    f"cannot orient over-strand of X{list(tuples[ci])}"
                )
            role[(ci, 1)] = "in" if direction == "b->d" else "out"
            role[(ci, 3)] = "out" if direction == "b->d" else "in"

    # Consistency check.
    for label, occ in occurrences.items():
        roles = sorted(role[o] for o in occ)
        if roles != ["in", "out"]:
            raise AmbiguousOrientation(f"inconsistent orientation at PD arc label {label}")

    arc_id = {label: i for i, label in enumerate(sorted(occurrences))}
    crossings = []
    for ci, (a, b, c, dd) in enumerate(tuples):
        if role[(ci, 1)] == "in":
            over_in, over_out, sign = b, dd, +1
        else:
            over_in, over_out, sign = dd, b, -1
        crossings.append(Crossing(sign, arc_id[a], arc_id[over_in], arc_id[c], arc_id[over_out]))
    return check_planar(Diagram(2 * len(tuples), tuple(crossings), 0))
