"""Exact Murasugi-Przytycki indices on signed multigraphs.

A reduction move picks a vertex pair joined by exactly one edge in the
whole current graph and contracts it; ``ind`` is the maximum number of
moves that can be played in sequence.  ``ind_plus`` / ``ind_minus`` play
the same game but may only contract edges of the given sign (the pair must
still be joined by exactly one edge overall, so an edge running parallel
to opposite-sign edges is never reducible).  On homogeneous graphs, where
parallel edges always share a sign, this agrees with computing the index
of the one-sign spanning subgraph.

Values are exact, found by exhaustive search over a matrix with one of
three entries per vertex pair: no edge, a movable lone edge, or blocked.
Multiplicities never fall under contraction, so a pair with two or more
edges can never become lone again, and a lone edge of the wrong sign for
the mode can never be moved; both collapse to the one blocked entry.  The
mode only decides how the first matrix is built, so one memo serves all
three modes.

The search is a sum over biconnected blocks (the *-product additivity of
Murasugi & Przytycki, Mem. AMS 508, 1993).  Contracting a lone ``a-b``
edge only merges the pairs ``(a, w)`` and ``(b, w)``, and such a ``w``
lies in the block of ``a-b``, so a move in one block never changes which
pairs are movable in another.  A bridge counts 1 when movable and 0
otherwise; any larger block is searched over its movable pairs, and each
contracted block goes back through the block sum.  A block's search
stops once it reaches a bound on every run.  Contraction never creates a
lone pair, so vertices merge only across movable pairs and each class a
run leaves lies inside one component of the movable pairs: a run makes at
most ``n`` minus that component count moves.  Contraction never lowers an
entry either, so a blocked pair is never contracted and its two ends end
in different classes; each component that holds a blocked pair therefore
leaves at least two classes, and the bound drops by one more for each.

Results are memoized per call, keyed on a deterministic relabeling of the
matrix (identical keys imply isomorphic matrices, so a missed merge only
costs time, never correctness).  The value of a matrix does not depend
on how the search finds it, so witnesses, replayed greedily on the full
matrix with the smallest crossing id first, are the lexicographically
smallest maximum runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .diagram import DSU
from .seifert import SignedMultigraph, biconnected_blocks

DEFAULT_VERTEX_CAP = 14

# Matrix entries: no edge, a lone edge movable in the mode, or blocked.
NONE, MOVABLE, BLOCKED = 0, 1, 2
Matrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True, slots=True)
class WitnessStep:
    crossing_id: int
    sign: int
    kept: int
    dropped: int

    @property
    def merged(self) -> tuple[int, int]:
        """The two merged classes, by their smallest original vertex."""
        return (self.kept, self.dropped)


@dataclass(frozen=True, slots=True)
class ReductionWitness:
    steps: tuple[WitnessStep, ...]


@dataclass(frozen=True, slots=True)
class IndexReport:
    ind: int | None
    ind_plus: int | None
    ind_minus: int | None
    witness: ReductionWitness | None
    witness_plus: ReductionWitness | None
    witness_minus: ReductionWitness | None
    size_limited: bool = False


def _matrix(g: SignedMultigraph, mode: int) -> Matrix:
    """Mode 0 moves any lone edge, +1/-1 only lone edges of that sign."""
    m = [[NONE] * g.vertex_count for _ in range(g.vertex_count)]
    for e in g.edges:
        entry = MOVABLE if not m[e.u][e.v] and mode in (0, e.sign) else BLOCKED
        m[e.u][e.v] = m[e.v][e.u] = entry
    return tuple(map(tuple, m))


def _contract(m: Matrix, a: int, b: int) -> Matrix:
    """Contract the lone a-b edge (a < b), merging b into a."""
    row_a, row_b = m[a], m[b]
    merged = [x + y if x + y < BLOCKED else BLOCKED for x, y in zip(row_a, row_b)]
    merged[a] = NONE
    del merged[b]
    out = []
    for v, row in enumerate(m):
        if v == a:
            out.append(tuple(merged))
        elif v != b:
            out.append(row[:a] + (merged[v - (v > b)],) + row[a + 1 : b] + row[b + 1 :])
    return tuple(out)


def _memo_key(m: Matrix) -> Matrix:
    rank = [(row.count(MOVABLE), row.count(BLOCKED), row) for row in m]
    order = sorted(range(len(m)), key=rank.__getitem__)
    if len(order) < 2:  # itemgetter returns a tuple only for two or more items
        return m
    pick = itemgetter(*order)
    return tuple(pick(m[v]) for v in order)


Memo = dict[Matrix, int]


def _ind_matrix(m: Matrix, memo: Memo) -> int:
    key = _memo_key(m)
    cached = memo.get(key)
    if cached is not None:
        return cached
    n = len(m)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if m[a][b]]
    blocks = biconnected_blocks(n, pairs)
    if len(blocks) == 1 and len(pairs) > 1 and all(any(row) for row in m):
        value = _search_block(m, pairs, memo)
    else:
        value = 0
        for block in blocks:
            if len(block) == 1:
                a, b = pairs[block[0]]
                value += m[a][b] == MOVABLE
            else:
                keep = sorted({v for i in block for v in pairs[i]})
                value += _ind_matrix(tuple(tuple(m[v][w] for w in keep) for v in keep), memo)
    memo[key] = value
    return value


def _search_block(m: Matrix, pairs: list[tuple[int, int]], memo: Memo) -> int:
    """Index of one biconnected block, by search over its first moves."""
    moves = [(a, b) for a, b in pairs if m[a][b] == MOVABLE]
    forest = DSU(len(m))
    for a, b in moves:
        forest.union(a, b)
    roots = [forest.find(v) for v in range(len(m))]
    # A component holding a blocked pair ends in at least two classes.
    split = {roots[a] for a, b in pairs if m[a][b] == BLOCKED and roots[a] == roots[b]}
    bound = len(m) - len(set(roots)) - len(split)
    best = 0
    for a, b in moves:
        if best == bound:
            break
        best = max(best, 1 + _ind_matrix(_contract(m, a, b), memo))
    return best


def ind_value(g: SignedMultigraph, mode: int = 0) -> int:
    """Exact index; mode 0 allows any lone edge, +1/-1 restrict by sign."""
    return _ind_matrix(_matrix(g, mode), {})


def _witness(
    g: SignedMultigraph, m: Matrix, total: int, memo: Memo, shared: dict[WitnessStep, WitnessStep]
) -> ReductionWitness:
    """Lexicographically smallest crossing-id sequence among maximum runs.

    Replays the search on its own matrices: each step contracts the
    smallest-id lone edge whose contraction keeps the remaining value.
    A step holds four ints, with no tuple of its own, and equal steps of
    the three witnesses of one report are one object in ``shared``: a
    retained report on 10 vertices takes about 1.1 KB.
    """
    labels = list(range(g.vertex_count))  # matrix row -> smallest original vertex in it
    row = list(range(g.vertex_count))  # original vertex -> matrix row
    edges = sorted(g.edges, key=lambda e: e.crossing_id)
    steps: list[WitnessStep] = []
    for remaining in range(total, 0, -1):
        for e in edges:
            a, b = sorted((row[e.u], row[e.v]))
            if a != b and m[a][b] == MOVABLE:
                contracted = _contract(m, a, b)
                if _ind_matrix(contracted, memo) == remaining - 1:
                    break
        else:
            raise AssertionError("witness reconstruction diverged from ind search")
        step = WitnessStep(e.crossing_id, e.sign, labels[a], labels[b])
        steps.append(shared.setdefault(step, step))
        m = contracted
        del labels[b]
        row = [a if r == b else r - (r > b) for r in row]
    return ReductionWitness(tuple(steps))


def ind_all(g: SignedMultigraph, vertex_cap: int = DEFAULT_VERTEX_CAP) -> IndexReport:
    if g.vertex_count > vertex_cap:
        return IndexReport(None, None, None, None, None, None, size_limited=True)
    memo: Memo = {}
    shared: dict[WitnessStep, WitnessStep] = {}
    values, witnesses = [], []
    for mode in (0, +1, -1):
        m = _matrix(g, mode)
        values.append(_ind_matrix(m, memo))
        witnesses.append(_witness(g, m, values[-1], memo, shared))
    return IndexReport(*values, *witnesses)


def dhl_check(g: SignedMultigraph) -> tuple[bool, list[tuple[int, int]]]:
    """Lone-crossing test: vertex pairs joined by exactly one edge."""
    mult = g.multiplicity()
    pairs = sorted(pair for pair, k in mult.items() if k == 1)
    return (bool(pairs), pairs)
