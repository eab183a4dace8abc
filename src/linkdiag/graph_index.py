"""Exact Murasugi-Przytycki indices on signed multigraphs.

A reduction move picks a vertex pair joined by exactly one edge in the
whole current graph and contracts it; ``ind`` is the maximum number of
moves that can be played in sequence.  ``ind_plus`` / ``ind_minus`` play
the same game but may only contract edges of the given sign (the pair must
still be joined by exactly one edge overall, so an edge running parallel
to opposite-sign edges is never reducible).  On homogeneous graphs, where
parallel edges always share a sign, this agrees with computing the index
of the one-sign spanning subgraph.

Values are exact, found by exhaustive search with memoization keyed on a
deterministic relabeling of the signed multiplicity matrix (identical keys
imply identical graphs, so a missed isomorphic merge only costs time,
never correctness).  Witnesses are replayed on the search's own matrices
and contraction, so the replay shares the search memo.
"""

from __future__ import annotations

from dataclasses import dataclass

from .seifert import SignedMultigraph

DEFAULT_VERTEX_CAP = 14

# Entry (p, q): number of positive / negative parallel edges for the pair.
Matrix = tuple[tuple[tuple[int, int], ...], ...]


@dataclass(frozen=True)
class WitnessStep:
    crossing_id: int
    sign: int
    merged: tuple[int, int]


@dataclass(frozen=True)
class ReductionWitness:
    steps: tuple[WitnessStep, ...]


@dataclass(frozen=True)
class IndexReport:
    ind: int | None
    ind_plus: int | None
    ind_minus: int | None
    witness: ReductionWitness | None
    witness_plus: ReductionWitness | None
    witness_minus: ReductionWitness | None
    size_limited: bool = False


def _matrix(g: SignedMultigraph) -> Matrix:
    n = g.vertex_count
    m = [[[0, 0] for _ in range(n)] for _ in range(n)]
    for e in g.edges:
        slot = 0 if e.sign > 0 else 1
        m[e.u][e.v][slot] += 1
        m[e.v][e.u][slot] += 1
    return tuple(tuple((p, q) for p, q in row) for row in m)


def _contract(m: Matrix, a: int, b: int) -> Matrix:
    """Contract the unique a-b edge, merging b into a."""
    n = len(m)
    keep = [v for v in range(n) if v != b]
    out = []
    for v in keep:
        row = []
        for w in keep:
            if v == w:
                row.append((0, 0))
            else:
                p, q = m[v][w]
                if v == a:
                    p += m[b][w][0]
                    q += m[b][w][1]
                if w == a:
                    p += m[v][b][0]
                    q += m[v][b][1]
                row.append((p, q))
        out.append(tuple(row))
    return tuple(out)


def _memo_key(m: Matrix) -> Matrix:
    order = sorted(range(len(m)), key=lambda v: (sorted(m[v]), m[v]))
    return tuple(tuple(m[v][w] for w in order) for v in order)


def _movable(m: Matrix, a: int, b: int, mode: int) -> bool:
    p, q = m[a][b]
    if p + q != 1:
        return False
    if mode > 0:
        return p == 1
    if mode < 0:
        return q == 1
    return True


Memo = dict[tuple[int, Matrix], int]


def _ind_matrix(m: Matrix, mode: int, memo: Memo) -> int:
    key = (mode, _memo_key(m))
    cached = memo.get(key)
    if cached is not None:
        return cached
    n = len(m)
    best = 0
    for a in range(n):
        for b in range(a + 1, n):
            if _movable(m, a, b, mode):
                best = max(best, 1 + _ind_matrix(_contract(m, a, b), mode, memo))
                if best == n - 1:
                    break
        if best == n - 1:
            break
    memo[key] = best
    return best


def ind_value(g: SignedMultigraph, mode: int = 0, memo: Memo | None = None) -> int:
    """Exact index; mode 0 allows any lone edge, +1/-1 restrict by sign."""
    if memo is None:
        memo = {}
    return _ind_matrix(_matrix(g), mode, memo)


def _witness(g: SignedMultigraph, mode: int, total: int, memo: Memo) -> ReductionWitness:
    """Lexicographically smallest crossing-id sequence among maximum runs.

    Replays the search on its own matrices: each step contracts the
    smallest-id lone edge whose contraction keeps the remaining value.
    """
    m = _matrix(g)
    labels = list(range(g.vertex_count))  # matrix row -> smallest original vertex in it
    row = list(range(g.vertex_count))  # original vertex -> matrix row
    edges = sorted(g.edges, key=lambda e: e.crossing_id)
    steps: list[WitnessStep] = []
    for remaining in range(total, 0, -1):
        for e in edges:
            a, b = sorted((row[e.u], row[e.v]))
            if a != b and _movable(m, a, b, mode):
                contracted = _contract(m, a, b)
                if _ind_matrix(contracted, mode, memo) == remaining - 1:
                    break
        else:
            raise AssertionError("witness reconstruction diverged from ind search")
        steps.append(WitnessStep(e.crossing_id, e.sign, (labels[a], labels[b])))
        m = contracted
        del labels[b]
        row = [a if r == b else r - (r > b) for r in row]
    return ReductionWitness(tuple(steps))


def ind_all(g: SignedMultigraph, vertex_cap: int = DEFAULT_VERTEX_CAP) -> IndexReport:
    if g.vertex_count > vertex_cap:
        return IndexReport(None, None, None, None, None, None, size_limited=True)
    memo: Memo = {}
    ind = ind_value(g, 0, memo)
    ind_p = ind_value(g, +1, memo)
    ind_m = ind_value(g, -1, memo)
    return IndexReport(
        ind=ind,
        ind_plus=ind_p,
        ind_minus=ind_m,
        witness=_witness(g, 0, ind, memo),
        witness_plus=_witness(g, +1, ind_p, memo),
        witness_minus=_witness(g, -1, ind_m, memo),
    )


def dhl_check(g: SignedMultigraph) -> tuple[bool, list[tuple[int, int]]]:
    """Lone-crossing test: vertex pairs joined by exactly one edge."""
    mult = g.multiplicity()
    pairs = sorted(pair for pair, k in mult.items() if k == 1)
    return (bool(pairs), pairs)
