"""Braid words, closures, quasipositive witnesses, braid self-linking.

Text format: ``braid n=3: 1 2 -1`` (letter i > 0 is the i-th standard
generator, i < 0 its inverse).  Witness JSON:
``{"strands": n, "factors": [{"conj": [...], "gen": k}, ...]}``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from .diagram import Crossing, Diagram, rebuild
from .errors import BraidRangeError, DiagramSyntaxError


@dataclass(frozen=True)
class BraidWord:
    strands: int
    letters: tuple[int, ...]

    def __post_init__(self):
        if self.strands < 1:
            raise BraidRangeError(f"strand count must be >= 1, got {self.strands}")
        for letter in self.letters:
            if letter == 0 or abs(letter) > self.strands - 1:
                raise BraidRangeError(
                    f"letter {letter} out of range for {self.strands} strands"
                )

    @property
    def exponent_sum(self) -> int:
        return sum(1 if letter > 0 else -1 for letter in self.letters)


@dataclass(frozen=True)
class QPFactor:
    conjugator: tuple[int, ...]
    generator: int


@dataclass(frozen=True)
class QPWitness:
    strands: int
    factors: tuple[QPFactor, ...]


_BRAID_RE = re.compile(r"^braid\s+n=(\d+)\s*:\s*(.*)$")


def parse_braid(text: str) -> BraidWord:
    m = _BRAID_RE.match(text.strip())
    if not m:
        raise DiagramSyntaxError(f"bad braid text: {text.strip()[:40]!r}")
    n = int(m.group(1))
    body = m.group(2).strip()
    try:
        letters = tuple(int(tok) for tok in body.split()) if body else ()
    except ValueError as exc:
        raise DiagramSyntaxError(f"bad braid letter in: {body[:40]!r}") from exc
    return BraidWord(n, letters)


def serialize_braid(w: BraidWord) -> str:
    return f"braid n={w.strands}: " + " ".join(str(x) for x in w.letters)


def witness_from_json(text: str) -> QPWitness:
    try:
        obj = json.loads(text)
        raw = obj["factors"]
        if not isinstance(raw, list) or not all(isinstance(f, dict) for f in raw):
            raise DiagramSyntaxError("bad witness JSON: factors must be a list of objects")
        factors = tuple(
            QPFactor(tuple(int(x) for x in f.get("conj", [])), int(f["gen"])) for f in raw
        )
        strands = int(obj["strands"])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DiagramSyntaxError(f"bad witness JSON: {exc}") from exc
    for f in factors:
        if not (1 <= f.generator <= strands - 1):
            raise BraidRangeError(f"generator {f.generator} out of range for {strands} strands")
    return QPWitness(strands, factors)


def witness_to_json(q: QPWitness) -> str:
    return json.dumps(
        {"strands": q.strands, "factors": [{"conj": list(f.conjugator), "gen": f.generator} for f in q.factors]},
        sort_keys=True,
    )


def expand_witness(q: QPWitness) -> BraidWord:
    letters: list[int] = []
    for f in q.factors:
        letters.extend(f.conjugator)
        letters.append(f.generator)
        letters.extend(-x for x in reversed(f.conjugator))
    return BraidWord(q.strands, tuple(letters))


def braid_sl(w: BraidWord) -> int:
    return w.exponent_sum - w.strands


def closure(w: BraidWord) -> Diagram:
    """Standard braid closure as a Diagram.

    Strands are oriented downward; at a positive letter the strand coming
    from the left position passes over.  Strands touched by no letter
    close up as free loops and cost nothing beyond their count.
    """
    n, letters = w.strands, w.letters
    # Provisional arc ids: one per touched position, in position order, then
    # two per letter; the closure identification collapses them.
    touched = sorted({p for letter in letters for p in (abs(letter) - 1, abs(letter))})
    current = {p: i for i, p in enumerate(touched)}
    next_id = len(touched)
    raw: list[Crossing] = []  # over provisional arc ids
    for letter in letters:
        j = abs(letter) - 1  # crossing between positions j and j+1 (0-based)
        left, right = current[j], current[j + 1]
        out_left, out_right = next_id, next_id + 1
        next_id += 2
        if letter > 0:
            raw.append(Crossing(+1, right, left, out_left, out_right))
        else:
            raw.append(Crossing(-1, left, right, out_right, out_left))
        current[j], current[j + 1] = out_left, out_right
    joins = [(i, current[p]) for i, p in enumerate(touched)]
    return rebuild(next_id, joins, raw, n - len(touched))
