"""Exact Murasugi-Przytycki indices on signed multigraphs.

A reduction move picks a vertex pair joined by exactly one edge in the
whole current graph and contracts it; ``ind`` is the maximum number of
moves that can be played in sequence.  ``ind_plus`` / ``ind_minus`` play
the same game but may only contract edges of the given sign (the pair must
still be joined by exactly one edge overall, so an edge running parallel
to opposite-sign edges is never reducible).  On homogeneous graphs, where
parallel edges always share a sign, this agrees with computing the index
of the one-sign spanning subgraph.

Values are exact, found on a matrix with one of three entries per vertex
pair: no edge, a movable lone edge, or blocked.  Multiplicities never
fall under contraction, so a pair with two or more edges can never become
lone again, and a lone edge of the wrong sign for the mode can never be
moved; both collapse to the one blocked entry.  Contracting merges two
rows entrywise, and the merged entry is movable exactly when the pairs it
merges hold one movable pair and nothing else.  The mode only decides how
the first matrix is built, so one memo serves all three modes.

The value is a sum over biconnected blocks (the *-product additivity of
Murasugi & Przytycki, Mem. AMS 508, 1993).  Contracting a lone ``a-b``
edge only merges the pairs ``(a, w)`` and ``(b, w)``, and such a ``w``
lies in the block of ``a-b``, so a move in one block never changes which
pairs are movable in another.  A bridge counts 1 when movable and 0
otherwise; any larger block is searched as a partition.

Call a vertex set a *part* when the pairs inside it are all movable and
form a tree on it.  Lemma: the index of an ``n``-vertex matrix is ``n``
less the fewest parts that partition its vertices.

- A run of ``k`` moves leaves ``n - k`` classes, and each is a part.  A
  class is joined by the original pairs that its moves contracted; each
  was movable, and there are one fewer of them than the class has
  vertices, so they form a spanning tree of it.  Any other pair ``u-w``
  inside a class would have been merged into the entry of the move that
  first put ``u`` and ``w`` in one class, next to that move's own pair,
  and an entry holding two pairs is blocked, not movable.
- Conversely, the tree pairs of any partition into parts can be
  contracted in any order, ``n`` less the part count moves in all.  At
  each move the two classes met by the next tree pair are disjoint
  subtrees of one part, so the tree joins them by that pair alone, and no
  other pair lies inside the part: their merged entry is that one
  movable pair.

So a block's value is ``n`` less its fewest parts, with no move order to
search.  The search takes the lowest unassigned vertex, grows each part
holding it depth-first over bitmask rows (a vertex joins when it meets
the part in exactly one movable pair and no blocked pair, and a vertex
that cannot join now never can), and recurses on the rest under a memo
keyed by the remaining vertex set.  A part is connected by movable
pairs, so it lies inside one component of the remaining set's movable
pairs, and a component covered by a single part is that part: the
remaining set needs at least one part per component, and two for a
component that is not itself a part.  Each remaining set's search stops
on reaching that floor, and skips a part whose leftover cannot beat the
best so far.

Block values are memoized per call, keyed on the block's matrix: the
witness replay asks for the value of each contracted matrix, whose
untouched blocks come back unchanged.  The value of a matrix does not
depend on how the search finds it, so witnesses, replayed greedily on the
full matrix with the smallest crossing id first, are the
lexicographically smallest maximum runs.  Nothing is kept between calls.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

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
    """Indices and witnesses of one graph, or ``size_limited`` with none.

    The three witnesses are held in ``packed``, one after another, as four
    values per step (crossing id, sign + 1, kept, dropped); the three
    indices give their lengths.  Each value takes one byte, or, when one of
    them is negative or at least 256, every value takes the fewest signed
    little-endian bytes that hold them all.  ``witness``, ``witness_plus``
    and ``witness_minus`` build their steps when read; a retained report
    on 10 vertices takes about 170 bytes.
    """

    ind: int | None
    ind_plus: int | None
    ind_minus: int | None
    packed: bytes = b""
    size_limited: bool = False

    @property
    def witness(self) -> ReductionWitness | None:
        return self._unpack(0)

    @property
    def witness_plus(self) -> ReductionWitness | None:
        return self._unpack(1)

    @property
    def witness_minus(self) -> ReductionWitness | None:
        return self._unpack(2)

    def _unpack(self, which: int) -> ReductionWitness | None:
        if self.size_limited:
            return None
        lengths = (self.ind, self.ind_plus, self.ind_minus)
        width = len(self.packed) // (4 * sum(lengths)) if any(lengths) else 1
        start = 4 * sum(lengths[:which])
        stop = start + 4 * lengths[which]
        if width == 1:
            values = iter(self.packed[start:stop])
        else:
            chunk = self.packed[start * width : stop * width]
            values = iter([int.from_bytes(chunk[i : i + width], "little", signed=True) for i in range(0, len(chunk), width)])
        steps = (WitnessStep(c, s - 1, k, d) for c, s, k, d in zip(values, values, values, values))
        return ReductionWitness(tuple(steps))


def _pack(values: list[int]) -> bytes:
    """The layout of ``IndexReport.packed``."""
    try:
        return bytes(values)
    except ValueError:  # a value outside 0..255
        width = max(2, *(((v if v >= 0 else ~v).bit_length() + 8) // 8 for v in values))
        return b"".join(v.to_bytes(width, "little", signed=True) for v in values)


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


Memo = dict[Matrix, int]


def _ind_matrix(m: Matrix, memo: Memo) -> int:
    """Sum over the blocks of ``m``: a bridge counts 1 when movable."""
    n = len(m)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if m[a][b]]
    value = 0
    for block in biconnected_blocks(n, pairs):
        if len(block) == 1:
            a, b = pairs[block[0]]
            value += m[a][b] == MOVABLE
        else:
            keep = sorted({v for i in block for v in pairs[i]})
            sub = tuple(tuple(m[v][w] for w in keep) for v in keep)
            known = memo.get(sub)
            if known is None:
                known = memo[sub] = len(sub) - _fewest_parts(sub)
            value += known
    return value


def _rows(m: Matrix, entry: int) -> list[int]:
    """Bit ``w`` of row ``v`` is set where ``m[v][w] == entry``."""
    return [sum(1 << w for w, x in enumerate(row) if x == entry) for row in m]


def _is_part(movable: list[int], blocked: list[int], vertices: int) -> bool:
    """Whether the pairs inside ``vertices`` are all movable and form a tree."""
    inside, rest = 0, vertices
    while rest:
        bit = rest & -rest
        rest ^= bit
        v = bit.bit_length() - 1
        if blocked[v] & vertices:
            return False
        inside += (movable[v] & vertices).bit_count()
    return inside == 2 * vertices.bit_count() - 2  # each pair counted from both ends


def _floor(movable: list[int], blocked: list[int], rest: int) -> int:
    """One part per movable component of ``rest``, two if it is not a part."""
    count = 0
    while rest:
        comp = grow = rest & -rest
        while grow:
            reach = 0
            while grow:
                bit = grow & -grow
                grow ^= bit
                reach |= movable[bit.bit_length() - 1]
            grow = reach & rest & ~comp
            comp |= grow
        rest ^= comp
        count += 1 if _is_part(movable, blocked, comp) else 2
    return count


def _parts(movable: list[int], blocked: list[int], rest: int) -> Iterator[int]:
    """Every part inside ``rest`` that holds its lowest vertex.

    A part comes after every larger part grown from it, so the first one
    is maximal.
    """

    def grow(part: int, frontier: int, banned: int) -> Iterator[int]:
        while frontier:
            bit = frontier & -frontier
            frontier ^= bit
            banned |= bit
            v = bit.bit_length() - 1
            if (movable[v] & part).bit_count() == 1 and not blocked[v] & part:
                yield from grow(part | bit, frontier | movable[v] & rest & ~part & ~banned, banned)
        yield part

    low = rest & -rest
    return grow(low, movable[low.bit_length() - 1] & rest, low)


def _fewest_parts(m: Matrix) -> int:
    """Fewest parts that partition one block."""
    movable, blocked = _rows(m, MOVABLE), _rows(m, BLOCKED)
    memo = {0: 0}  # remaining vertex set -> its fewest parts

    def fewest(rest: int, floor: int) -> int:
        best = rest.bit_count()  # one part per vertex
        if best == floor:
            return best
        for part in _parts(movable, blocked, rest):
            left = rest & ~part
            known = memo.get(left)
            if known is None:
                left_floor = _floor(movable, blocked, left)
                if 1 + left_floor >= best:
                    continue
                known = memo[left] = fewest(left, left_floor)
            if 1 + known < best:
                best = 1 + known
                if best == floor:
                    break
        return best

    everything = (1 << len(m)) - 1
    return fewest(everything, _floor(movable, blocked, everything))


def ind_value(g: SignedMultigraph, mode: int = 0) -> int:
    """Exact index; mode 0 allows any lone edge, +1/-1 restrict by sign."""
    return _ind_matrix(_matrix(g, mode), {})


def _witness(g: SignedMultigraph, m: Matrix, total: int, memo: Memo) -> list[int]:
    """Lexicographically smallest crossing-id sequence among maximum runs.

    Replays the search on its own matrices: each step contracts the
    smallest-id lone edge whose contraction keeps the remaining value.
    Returns four values per step, packed as ``IndexReport`` stores them.
    """
    labels = list(range(g.vertex_count))  # matrix row -> smallest original vertex in it
    row = list(range(g.vertex_count))  # original vertex -> matrix row
    edges = sorted(g.edges, key=lambda e: e.crossing_id)
    steps: list[int] = []
    for remaining in range(total, 0, -1):
        for e in edges:
            a, b = sorted((row[e.u], row[e.v]))
            if a != b and m[a][b] == MOVABLE:
                contracted = _contract(m, a, b)
                if _ind_matrix(contracted, memo) == remaining - 1:
                    break
        else:
            raise AssertionError("witness reconstruction diverged from ind search")
        steps += (e.crossing_id, e.sign + 1, labels[a], labels[b])
        m = contracted
        del labels[b]
        row = [a if r == b else r - (r > b) for r in row]
    return steps


def ind_all(g: SignedMultigraph, vertex_cap: int = DEFAULT_VERTEX_CAP) -> IndexReport:
    if g.vertex_count > vertex_cap:
        return IndexReport(None, None, None, size_limited=True)
    memo: Memo = {}
    values: list[int] = []
    steps: list[int] = []
    for mode in (0, +1, -1):
        m = _matrix(g, mode)
        values.append(_ind_matrix(m, memo))
        steps += _witness(g, m, values[-1], memo)
    return IndexReport(*values, _pack(steps))


def dhl_check(g: SignedMultigraph) -> tuple[bool, list[tuple[int, int]]]:
    """Lone-crossing test: vertex pairs joined by exactly one edge."""
    mult = g.multiplicity()
    pairs = sorted(pair for pair, k in mult.items() if k == 1)
    return (bool(pairs), pairs)
