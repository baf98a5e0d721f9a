"""Exact arithmetic in Q(alpha) for an algebraic base alpha.

alpha is described by an integer-coefficient minimal polynomial (promised
irreducible, not necessarily monic).  Elements of Q(alpha) are rational
coordinate vectors in the power basis 1, alpha, ..., alpha^(d-1), kept
canonical by reduction modulo the monic rational form of the minimal
polynomial.  Inverses come from the extended Euclidean algorithm, powers from
binary square-and-multiply, and root-of-unity detection from comparing the
monic minimal polynomial with the cyclotomic polynomials of its degree.  One
set of dense-polynomial helpers serves integer polynomials, cyclotomic
polynomials and inverses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import InternalError, NotInvertible, ValidationError, ZeroInverse

# ---------------------------------------------------------------------------
# Dense polynomials: tuples of low-to-high coefficients, no trailing zeros
# ---------------------------------------------------------------------------


def _trim(coeffs) -> tuple:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _poly_mul(a, b) -> tuple:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def _poly_sub(a, b) -> tuple:
    out = list(a) + [0] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] -= y
    return _trim(out)


def _poly_divmod(num, den):
    """Quotient and remainder of num by the nonzero den.  With a monic den the
    arithmetic stays in the coefficients' own ring; otherwise they must be
    Fractions."""
    rem = list(num)
    d = len(den) - 1
    lead = den[-1]
    quo = [0] * max(len(rem) - d, 0)
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i] if lead == 1 else rem[i] / lead
        if c:
            quo[i - d] = c
            for j, b in enumerate(den):
                rem[i - d + j] -= c * b
    return _trim(quo), _trim(rem[:d])


@dataclass(frozen=True)
class IntPolynomial:
    """Dense integer polynomial; the zero polynomial has no coefficients."""

    coeffs: tuple

    @classmethod
    def of(cls, coeffs: Sequence[int]) -> "IntPolynomial":
        return cls(_trim(int(c) for c in coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        return IntPolynomial(_poly_mul(self.coeffs, other.coeffs))

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c:
                parts.append(f"{c}" if i == 0 else f"{c}*x^{i}")
        return " + ".join(parts)


_CYCLOTOMIC_CACHE: dict = {1: IntPolynomial((-1, 1))}


def cyclotomic(n: int) -> IntPolynomial:
    """n-th cyclotomic polynomial, by exact division of x^n - 1 by the
    cyclotomic polynomials of the proper divisors of n."""
    if n < 1:
        raise ValueError("cyclotomic index must be >= 1")
    if n not in _CYCLOTOMIC_CACHE:
        num = (-1,) + (0,) * (n - 1) + (1,)
        for d in range(1, n):
            if n % d == 0:
                num, rem = _poly_divmod(num, cyclotomic(d).coeffs)
                if rem:
                    raise InternalError(f"Phi_{d} does not divide x^{n} - 1")
        _CYCLOTOMIC_CACHE[n] = IntPolynomial(num)
    return _CYCLOTOMIC_CACHE[n]


def _totient(n: int) -> int:
    """Euler's totient, by trial division."""
    result, rest, p = n, n, 2
    while p * p <= rest:
        if rest % p == 0:
            while rest % p == 0:
                rest //= p
            result -= result // p
        p += 1
    if rest > 1:
        result -= result // rest
    return result


# ---------------------------------------------------------------------------
# Number fields
# ---------------------------------------------------------------------------


class NumberField:
    """Q(alpha) for alpha a root of ``min_poly`` (promised irreducible).

    Non-monic minimal polynomials are accepted; all modular arithmetic uses
    the monic rational form.  alpha = 0 and alpha = 1 are rejected.
    """

    __slots__ = ("min_poly", "degree", "monic_tail", "rou_order")

    def __init__(self, min_poly):
        if not isinstance(min_poly, IntPolynomial):
            min_poly = IntPolynomial.of(min_poly)
        if min_poly.degree < 1:
            raise ValidationError("min-poly-degree")
        if min_poly.coeffs[0] == 0:  # p(0) = 0: the root would be 0
            raise ValidationError("base-is-zero")
        if min_poly(1) == 0:  # p(1) = 0: covers x - 1 up to scaling
            raise ValidationError("base-is-one")
        lead = min_poly.coeffs[-1]
        tail = tuple(Fraction(c, lead) for c in min_poly.coeffs[:-1])
        object.__setattr__(self, "min_poly", min_poly)
        object.__setattr__(self, "degree", min_poly.degree)
        object.__setattr__(self, "monic_tail", tail)
        object.__setattr__(self, "rou_order", root_of_unity_order(self))

    # NumberFields are compared by the field they generate, i.e. by the
    # monic form of the minimal polynomial.
    def __eq__(self, other):
        return isinstance(other, NumberField) and self.monic_tail == other.monic_tail

    def __hash__(self):
        return hash(self.monic_tail)

    def __repr__(self):
        return f"NumberField({list(self.min_poly.coeffs)})"

    def zero(self) -> "FieldElement":
        return FieldElement(self, (Fraction(0),) * self.degree)

    def one(self) -> "FieldElement":
        return self.from_int(1)

    def alpha(self) -> "FieldElement":
        if self.degree == 1:
            return FieldElement(self, (-self.monic_tail[0],))
        coords = [Fraction(0)] * self.degree
        coords[1] = Fraction(1)
        return FieldElement(self, tuple(coords))

    def element(self, raw: Sequence) -> "FieldElement":
        return field_reduce(raw, self)

    def from_int(self, n) -> "FieldElement":
        coords = [Fraction(0)] * self.degree
        coords[0] = Fraction(n)
        return FieldElement(self, tuple(coords))


class FieldElement:
    """Immutable element of a NumberField, as canonical coordinates in the
    basis 1, alpha, ..., alpha^(d-1)."""

    __slots__ = ("field", "coords")

    def __init__(self, field: NumberField, coords):
        self.field = field
        self.coords = coords

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and self.field == other.field
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.field, self.coords))

    def _check(self, other):
        if self.field != other.field:
            raise ValueError("elements of different fields")

    def __add__(self, other):
        self._check(other)
        return FieldElement(self.field, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._check(other)
        return FieldElement(self.field, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return FieldElement(self.field, tuple(-a for a in self.coords))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FieldElement(self.field, tuple(a * other for a in self.coords))
        self._check(other)
        a, b = self.coords, other.coords
        d = self.field.degree
        if d == 1:
            return FieldElement(self.field, (a[0] * b[0],))
        conv = [Fraction(0)] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        return FieldElement(self.field, _reduce_coords(conv, self.field))

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        return field_pow(self, exponent)

    def __repr__(self):
        return f"FieldElement({[str(c) for c in self.coords]})"


def _reduce_coords(raw, field: NumberField) -> tuple:
    """Remainder of sum(raw[i] x^i) modulo the monic minimal polynomial."""
    d = field.degree
    tail = field.monic_tail
    work = list(raw)
    for i in range(len(work) - 1, d - 1, -1):
        c = work[i]
        if c:
            # x^i == -sum(tail[h] x^(i-d+h))
            for h, t in enumerate(tail):
                if t:
                    work[i - d + h] -= c * t
        work.pop()
    while len(work) < d:
        work.append(Fraction(0))
    return tuple(work)


def field_reduce(raw: Sequence, field: NumberField) -> FieldElement:
    """Canonical coordinates of sum(raw[i] alpha^i) for a vector of any length."""
    return FieldElement(field, _reduce_coords([Fraction(c) for c in raw], field))


def field_inverse(a: FieldElement) -> FieldElement:
    """Multiplicative inverse in Q(alpha) via the extended Euclidean
    algorithm on (representative of a, monic minimal polynomial).

    A non-constant gcd means the promised-irreducible minimal polynomial was
    reducible; reported as NotInvertible.
    """
    if a.is_zero():
        raise ZeroInverse("inverse of zero")
    field = a.field
    r0, r1 = field.monic_tail + (Fraction(1),), _trim(a.coords)
    t0, t1 = (), (Fraction(1),)
    while r1:
        quo, rem = _poly_divmod(r0, r1)
        r0, r1 = r1, rem
        t0, t1 = t1, _poly_sub(t0, _poly_mul(quo, t1))
    if len(r0) != 1:
        raise NotInvertible("minimal polynomial is reducible")
    g = r0[0]
    coords = [c / g for c in t0]
    return FieldElement(field, _reduce_coords(coords, field))


def field_pow(base: FieldElement, exponent: int) -> FieldElement:
    """base**exponent by binary square-and-multiply; negative exponents go
    through field_inverse, so they require base != 0."""
    field = base.field
    if exponent == 0:
        return field.one()
    if exponent < 0:
        base = field_inverse(base)
        exponent = -exponent
    result = None
    acc = base
    while exponent:
        if exponent & 1:
            result = acc if result is None else result * acc
        exponent >>= 1
        if exponent:
            acc = acc * acc
    return result


def root_of_unity_order(field: NumberField) -> Optional[int]:
    """Multiplicative order of alpha if it is a root of unity, else None.

    For n >= 2, alpha is a primitive n-th root of unity iff the monic form of
    its minimal polynomial is the n-th cyclotomic polynomial, which is
    integral and palindromic.  Its degree phi(n) = d forces n <= 2*d**2,
    because Euler's totient satisfies phi(n) >= sqrt(n/2); so comparing with
    every such Phi_n is exact.
    """
    monic = field.monic_tail + (Fraction(1),)
    if any(c.denominator != 1 for c in monic) or monic != monic[::-1]:
        return None
    d = field.degree
    for n in range(2, 2 * d * d + 1):
        if _totient(n) == d and cyclotomic(n).coeffs == monic:
            return n
    return None
