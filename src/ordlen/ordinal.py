"""Exact arithmetic and order theory for ordinals below w^w.

An ordinal below w^w is a finite sum  a_d*w^d + ... + a_1*w + a_0  with
natural coefficients.  It is stored as the coefficient tuple
``coeffs`` where ``coeffs[i]`` is the coefficient of w^i, kept free of
trailing zeros so that equal ordinals have identical tuples.

Two additions live side by side:

* ``a + b`` is ordinal addition, which is not commutative: the low part
  of the left summand is absorbed (``1 + w == w`` but ``w + 1 > w``).
* ``a.shuffle_sum(b)`` is the coefficientwise (natural) sum, which is
  commutative and dominates ordinal addition.

The coefficientwise partial order ``weaker`` refines into the usual
total order of ordinals, exposed through ``<``/``<=``; ``meet`` and
``join`` are the coefficientwise lattice operations for ``weaker``.
"""

from __future__ import annotations

import re
from typing import Iterable, NamedTuple

from .errors import ParseError
from .frozen import Frozen

# Exponents in textual input are capped so parsing cannot allocate
# absurd coefficient tuples.
MAX_EXPONENT = 2**16


class OrdinalSplit(NamedTuple):
    """Parts of an ordinal strictly above and at-or-below a cut exponent."""

    high: "Ordinal"
    low: "Ordinal"


class Ordinal(Frozen):
    """An ordinal below w^w in Cantor normal form."""

    __slots__ = ("coeffs",)
    coeffs: tuple[int, ...]

    def __init__(self, coeffs: tuple[int, ...] = ()):
        object.__setattr__(self, "coeffs", coeffs)
        self.__post_init__()

    def __post_init__(self):
        c = tuple(int(a) for a in self.coeffs)
        if any(a < 0 for a in c):
            raise ValueError(f"negative coefficient in {c!r}")
        while c and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def _normal(cls, coeffs: tuple[int, ...]) -> "Ordinal":
        """Wrap a tuple of naturals already free of trailing zeros, unchecked."""
        self = object.__new__(cls)
        object.__setattr__(self, "coeffs", coeffs)
        return self

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.coeffs,))

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def zero(cls) -> "Ordinal":
        return cls(())

    @classmethod
    def finite(cls, n: int) -> "Ordinal":
        return cls((n,))

    @classmethod
    def omega_power(cls, d: int) -> "Ordinal":
        """The ordinal w^d."""
        return cls((0,) * d + (1,))

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "Ordinal":
        """Build from (exponent, coefficient) pairs; repeats accumulate."""
        coeffs: dict[int, int] = {}
        for e, a in pairs:
            if e < 0:
                raise ValueError(f"negative exponent {e}")
            coeffs[e] = coeffs.get(e, 0) + a
        if not coeffs:
            return cls.zero()
        top = max(coeffs)
        return cls(tuple(coeffs.get(i, 0) for i in range(top + 1)))

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    @property
    def degree(self) -> int:
        """Largest exponent in the support."""
        if not self.coeffs:
            raise ValueError("the zero ordinal has empty support")
        return len(self.coeffs) - 1

    @property
    def order(self) -> int:
        """Smallest exponent in the support."""
        if not self.coeffs:
            raise ValueError("the zero ordinal has empty support")
        return next(i for i, a in enumerate(self.coeffs) if a)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, a in enumerate(self.coeffs) if a)

    @property
    def valence(self) -> int:
        """Sum of all coefficients."""
        return sum(self.coeffs)

    @property
    def is_binary(self) -> bool:
        """True when every coefficient is 0 or 1."""
        return all(a <= 1 for a in self.coeffs)

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: "Ordinal") -> "Ordinal":
        """Ordinal sum: the part of self below other's degree is absorbed."""
        if not isinstance(other, Ordinal):
            return NotImplemented
        b = other.coeffs
        if not b:
            return self
        e = len(b) - 1
        a = self.coeffs
        ae = a[e] if e < len(a) else 0
        return Ordinal._normal(b[:e] + (ae + b[e],) + a[e + 1 :])

    def shuffle_sum(self, other: "Ordinal") -> "Ordinal":
        """Coefficientwise sum, the commutative companion of ``+``."""
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return Ordinal._normal(tuple(map(int.__add__, a, b)) + a[len(b) :])

    def __mul__(self, n: int) -> "Ordinal":
        """n-fold shuffle sum, i.e. coefficientwise scaling by a natural."""
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            raise ValueError("scaling factor must be a natural number")
        return Ordinal(tuple(a * n for a in self.coeffs))

    __rmul__ = __mul__

    def shuffle_difference(self, other: "Ordinal") -> "Ordinal | None":
        """The unique g with other.shuffle_sum(g) == self, or None."""
        if not other.weaker(self):
            return None
        return Ordinal(tuple(self.coeff(i) - other.coeff(i) for i in range(len(self.coeffs))))

    # ------------------------------------------------------------------
    # orders
    # ------------------------------------------------------------------
    def _key(self) -> tuple[int, tuple[int, ...]]:
        # Longer tuples have a higher leading exponent, hence are larger.
        return (len(self.coeffs), tuple(reversed(self.coeffs)))

    def __lt__(self, other: "Ordinal") -> bool:
        if not isinstance(other, Ordinal):
            return NotImplemented
        return self._key() < other._key()

    def __le__(self, other: "Ordinal") -> bool:
        if not isinstance(other, Ordinal):
            return NotImplemented
        return self._key() <= other._key()

    def weaker(self, other: "Ordinal") -> bool:
        """Coefficientwise comparison; a partial order refined by <=."""
        a, b = self.coeffs, other.coeffs
        # normal forms end in a nonzero coefficient, so a longer tuple is never weaker
        return len(a) <= len(b) and all(map(int.__le__, a, b))

    def meet(self, other: "Ordinal") -> "Ordinal":
        c = tuple(map(min, self.coeffs, other.coeffs))
        while c and c[-1] == 0:
            c = c[:-1]
        return Ordinal._normal(c)

    def join(self, other: "Ordinal") -> "Ordinal":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return Ordinal._normal(tuple(map(max, a, b)) + a[len(b) :])

    def split(self, e: int) -> OrdinalSplit:
        """Split into the terms with exponent > e and those with exponent <= e.

        Both ``high + low`` and ``high.shuffle_sum(low)`` rebuild the
        original ordinal.
        """
        if e < 0:
            raise ValueError("cut exponent must be a natural number")
        high = Ordinal((0,) * (e + 1) + self.coeffs[e + 1 :]) if len(self.coeffs) > e + 1 else Ordinal.zero()
        low = Ordinal(self.coeffs[: e + 1])
        return OrdinalSplit(high, low)

    # ------------------------------------------------------------------
    # text and JSON forms
    # ------------------------------------------------------------------
    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            a = self.coeffs[i]
            if a == 0:
                continue
            if i == 0:
                parts.append(str(a))
            else:
                w = "w" if i == 1 else f"w^{i}"
                parts.append(w if a == 1 else f"{a}{w}")
        return " + ".join(parts)

    _TERM = re.compile(r"^(?:(\d+)\s*\*?\s*)?(w(?:\^(\d+))?)?$")

    @classmethod
    def parse(cls, text: str) -> "Ordinal":
        """Parse the textual form produced by ``str``, e.g. ``"w^2 + 3w + 1"``."""
        s = text.strip()
        if s == "0":
            return cls.zero()
        if not s:
            raise ParseError("empty ordinal", text, 0)
        pairs = []
        pos = 0
        for chunk in s.split("+"):
            term = chunk.strip()
            m = cls._TERM.match(term)
            if not m or (m.group(1) is None and m.group(2) is None):
                raise ParseError(f"bad ordinal term {term!r}", text, pos)
            coeff = int(m.group(1)) if m.group(1) else 1
            if m.group(2) is None:
                exp = 0
            elif m.group(3) is None:
                exp = 1
            else:
                exp = int(m.group(3))
            if exp > MAX_EXPONENT:
                raise ParseError(f"exponent {exp} too large", text, pos)
            pairs.append((exp, coeff))
            pos += len(chunk) + 1
        return cls.from_pairs(pairs)

    def to_pairs(self) -> list[list[int]]:
        """JSON form: [exponent, coefficient] pairs with descending exponents."""
        return [[i, a] for i, a in sorted(enumerate(self.coeffs), reverse=True) if a]

    def __repr__(self) -> str:
        return f"Ordinal({self.coeffs!r})"


ZERO = Ordinal.zero()
ONE = Ordinal.finite(1)
OMEGA = Ordinal.omega_power(1)
