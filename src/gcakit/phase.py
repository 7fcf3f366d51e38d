"""Exact arithmetic for roots of unity.

A Phase is the complex number e^(2*pi*i*num/den), stored as the reduced
fraction num/den with 0 <= num < den.  Products, integer powers, inverses
and principal roots stay inside this representation, computed on the
integers num and den, so identities between generator words can be checked
with zero tolerance instead of a float one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import IrrationalPhase

__all__ = ["Phase", "ONE", "MINUS_ONE", "IMAG", "MINUS_IMAG"]


@dataclass(frozen=True, slots=True)
class Phase:
    """e^(2*pi*i*num/den) in lowest terms, exponent taken mod 1."""

    num: int
    den: int = 1

    def __post_init__(self):
        num, den = self.num, self.den
        if den == 0:
            raise ZeroDivisionError("phase denominator must be nonzero")
        if type(num) is int and type(den) is int:
            if den < 0:
                num, den = -num, -den
            g = gcd(num, den)
            num, den = (num // g) % (den // g), den // g
        else:
            f = Fraction(num, den) % 1
            num, den = f.numerator, f.denominator
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def from_fraction(cls, f: Fraction | int) -> "Phase":
        f = Fraction(f) % 1
        return cls(f.numerator, f.denominator)

    @classmethod
    def from_complex(cls, z: complex, tol: float = 1e-9, max_den: int = 4096) -> "Phase":
        """Snap a unit complex number to an exact root of unity.

        Raises IrrationalPhase when |z| is not 1 (a NaN or infinite z
        included) or the angle has no small rational multiple of 2*pi
        within tol.
        """
        if not abs(abs(z) - 1.0) <= tol:
            raise IrrationalPhase(f"|z| = {abs(z)!r} is not 1")
        ang = math.atan2(z.imag, z.real) / (2 * math.pi)
        f = Fraction(ang).limit_denominator(max_den)
        cand = cls.from_fraction(f)
        if not abs(cand.to_complex() - complex(z)) <= tol:
            raise IrrationalPhase(f"no rational angle within {tol} of {z!r}")
        return cand

    @property
    def exponent(self) -> Fraction:
        return Fraction(self.num, self.den)

    @property
    def order(self) -> int:
        """Multiplicative order: the smallest k >= 1 with phase^k = 1."""
        return self.den

    def is_one(self) -> bool:
        return self.num == 0

    def __mul__(self, other: "Phase") -> "Phase":
        return Phase(self.num * other.den + other.num * self.den, self.den * other.den)

    def __truediv__(self, other: "Phase") -> "Phase":
        return Phase(self.num * other.den - other.num * self.den, self.den * other.den)

    def __pow__(self, k: int) -> "Phase":
        return Phase(self.num * k, self.den)

    def inverse(self) -> "Phase":
        return Phase(-self.num, self.den)

    def conjugate(self) -> "Phase":
        return self.inverse()

    def root(self, k: int) -> "Phase":
        """Principal k-th root: the one with the smallest nonnegative exponent."""
        if k <= 0:
            raise ValueError("root index must be positive")
        return Phase(self.num, self.den * k)

    def to_complex(self) -> complex:
        # den 1, 2, 4 cover every entry of the Pauli words; keep them bit-exact.
        if self.den == 1:
            return 1 + 0j
        if self.den == 2:
            return -1 + 0j
        if self.den == 4:
            return 1j if self.num == 1 else -1j
        a = 2 * math.pi * self.num / self.den
        return complex(math.cos(a), math.sin(a))

    def __complex__(self) -> complex:
        return self.to_complex()

    def __str__(self) -> str:
        if self.den == 1:
            return "1"
        if self.den == 2:
            return "-1"
        if self.den == 4:
            return "i" if self.num == 1 else "-i"
        return f"exp(2i*pi*{self.num}/{self.den})"


ONE = Phase(0, 1)
MINUS_ONE = Phase(1, 2)
IMAG = Phase(1, 4)
MINUS_IMAG = Phase(3, 4)
