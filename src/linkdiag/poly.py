"""Sparse two-variable Laurent polynomials with integer coefficients.

Terms are keyed by ``(v_exponent, z_exponent)``; zero coefficients are
never stored.  Arithmetic is exact.
"""

from __future__ import annotations

from .errors import ZeroPolynomialError


class LaurentPoly2:
    __slots__ = ("_terms",)

    def __init__(self, terms: dict[tuple[int, int], int] | None = None):
        clean = {}
        if terms:
            for key, coeff in terms.items():
                if coeff:
                    clean[(int(key[0]), int(key[1]))] = int(coeff)
        self._terms = clean

    @classmethod
    def monomial(cls, coeff: int, v_exp: int = 0, z_exp: int = 0) -> "LaurentPoly2":
        return cls({(v_exp, z_exp): coeff})

    @classmethod
    def zero(cls) -> "LaurentPoly2":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly2":
        return cls({(0, 0): 1})

    def items(self):
        return self._terms.items()

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly2):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "LaurentPoly2") -> "LaurentPoly2":
        terms = dict(self._terms)
        for key, coeff in other._terms.items():
            new = terms.get(key, 0) + coeff
            if new:
                terms[key] = new
            else:
                terms.pop(key, None)
        result = LaurentPoly2.__new__(LaurentPoly2)
        result._terms = terms
        return result

    def __neg__(self) -> "LaurentPoly2":
        return LaurentPoly2({k: -c for k, c in self._terms.items()})

    def __sub__(self, other: "LaurentPoly2") -> "LaurentPoly2":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly2") -> "LaurentPoly2":
        terms: dict[tuple[int, int], int] = {}
        for (v1, z1), c1 in self._terms.items():
            for (v2, z2), c2 in other._terms.items():
                key = (v1 + v2, z1 + z2)
                new = terms.get(key, 0) + c1 * c2
                if new:
                    terms[key] = new
                else:
                    terms.pop(key, None)
        result = LaurentPoly2.__new__(LaurentPoly2)
        result._terms = terms
        return result

    def __pow__(self, k: int) -> "LaurentPoly2":
        if k < 0:
            raise ValueError("negative powers are not defined for LaurentPoly2")
        out = LaurentPoly2.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def shifted(self, v_exp: int, z_exp: int, coeff: int = 1) -> "LaurentPoly2":
        return LaurentPoly2({(v + v_exp, z + z_exp): c * coeff for (v, z), c in self._terms.items()})

    def shifted_sum(self, v_exp: int, other: "LaurentPoly2", other_v: int, other_z: int, coeff: int) -> "LaurentPoly2":
        """``v^v_exp self + coeff v^other_v z^other_z other``, in one pass with no products."""
        terms = {(v + v_exp, z): c for (v, z), c in self._terms.items()}
        for (v, z), c in other._terms.items():
            key = (v + other_v, z + other_z)
            new = terms.get(key, 0) + coeff * c
            if new:
                terms[key] = new
            else:
                del terms[key]
        result = LaurentPoly2.__new__(LaurentPoly2)
        result._terms = terms
        return result

    def substitute_v_neg_inv(self) -> "LaurentPoly2":
        """Apply v -> -1/v (the mirror substitution)."""
        return LaurentPoly2({(-v, z): c * (-1) ** (v & 1) for (v, z), c in self._terms.items()})

    def min_deg_v(self) -> int:
        if not self._terms:
            raise ZeroPolynomialError("min_deg_v of zero polynomial")
        return min(v for v, _z in self._terms)

    def max_deg_v(self) -> int:
        if not self._terms:
            raise ZeroPolynomialError("max_deg_v of zero polynomial")
        return max(v for v, _z in self._terms)

    def triples(self) -> list[list[int]]:
        """JSON form: [v_exp, z_exp, coeff] sorted by (-v_exp, z_exp)."""
        return [[v, z, c] for (v, z), c in sorted(self._terms.items(), key=lambda t: (-t[0][0], t[0][1]))]

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for (v, z), c in sorted(self._terms.items(), key=lambda t: (-t[0][0], t[0][1])):
            mono = []
            if v:
                mono.append("v" if v == 1 else f"v^{v}")
            if z:
                mono.append("z" if z == 1 else f"z^{z}")
            body = " ".join(mono)
            if not body:
                term = str(abs(c))
            elif abs(c) == 1:
                term = body
            else:
                term = f"{abs(c)}{body}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly2({self._terms!r})"


#: (v^-1 - v)/z, the value added by each extra unlink component.
DELTA = LaurentPoly2({(-1, -1): 1, (1, -1): -1})
