"""Field arithmetic in Q(alpha): reduction, inverses, powers, root-of-unity
detection, cyclotomic polynomials."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expodio import (
    IntPolynomial,
    NotInvertible,
    NumberField,
    ValidationError,
    ZeroInverse,
    cyclotomic,
    field_inverse,
    field_pow,
    field_reduce,
    root_of_unity_order,
)
from helpers import P_CUBIC, P_GOLDEN, P_I, P_MINUS_ONE, P_SQRT2, P_THREE_HALVES, P_TWO

SQRT2 = NumberField(P_SQRT2)
CUBIC = NumberField(P_CUBIC)
TWO = NumberField(P_TWO)


def frac(*coords):
    return tuple(Fraction(c) for c in coords)


# ---------------------------------------------------------------------------
# field_reduce
# ---------------------------------------------------------------------------


def test_reduce_zero():
    assert field_reduce([0], SQRT2).coords == frac(0, 0)


def test_reduce_alpha_squared():
    assert field_reduce([0, 0, 1], SQRT2).coords == frac(2, 0)


def test_reduce_long_vector_cubic():
    # 1 + x + x^2 + x^3 mod x^3 - x - 1: substituting x^3 = x + 1 gives
    # 2 + 2x + x^2 -- the polynomial-long-division value, frozen.
    assert field_reduce([1, 1, 1, 1], CUBIC).coords == frac(2, 2, 1)


def test_reduce_matches_independent_long_division():
    # independent dense long division over Q, no package code
    rng = random.Random(5)
    monic = [Fraction(c) for c in (-1, -1, 0)]  # x^3 - x - 1 tail
    for _ in range(25):
        raw = [rng.randint(-9, 9) for _ in range(rng.randint(1, 8))]
        work = [Fraction(c) for c in raw]
        while len(work) > 3:
            c = work.pop()
            i = len(work)
            for h, t in enumerate(monic):
                work[i - 3 + h] -= c * t
        work += [Fraction(0)] * (3 - len(work))
        assert field_reduce(raw, CUBIC).coords == tuple(work)


# ---------------------------------------------------------------------------
# field_inverse
# ---------------------------------------------------------------------------


def test_inverse_alpha_sqrt2():
    assert field_inverse(SQRT2.alpha()).coords == frac(0, Fraction(1, 2))


def test_inverse_one():
    assert field_inverse(SQRT2.one()) == SQRT2.one()


def test_inverse_one_plus_sqrt2():
    a = SQRT2.element([1, 1])
    inv = field_inverse(a)
    assert inv.coords == frac(-1, 1)
    assert a * inv == SQRT2.one()


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroInverse):
        field_inverse(SQRT2.zero())


def test_reducible_promise_reported():
    # x^2 - 4 is not irreducible; inverting 2 + alpha exposes the lie
    broken = NumberField([-4, 0, 1])
    with pytest.raises(NotInvertible):
        field_inverse(broken.element([2, 1]))


# ---------------------------------------------------------------------------
# field_pow
# ---------------------------------------------------------------------------


def test_pow_zero_exponent():
    for field in (SQRT2, CUBIC, TWO):
        assert field_pow(field.alpha(), 0) == field.one()


def test_pow_rational_base():
    assert field_pow(TWO.alpha(), 10).coords == frac(1024)


def test_pow_sqrt2_eleven():
    assert field_pow(SQRT2.alpha(), 11).coords == frac(0, 32)


def test_pow_negative_of_zero_raises():
    with pytest.raises(ZeroInverse):
        field_pow(SQRT2.zero(), -1)


def test_pow_agrees_with_repeated_multiplication():
    rng = random.Random(11)
    for field in (TWO, SQRT2):
        acc = field.one()
        a = field.alpha()
        for e in range(0, 300):
            assert field_pow(a, e) == acc
            acc = acc * a
        for e in rng.sample(range(300, 4097), 12):
            naive = field.one()
            for _ in range(e):
                naive = naive * a
            assert field_pow(a, e) == naive


small_rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


@st.composite
def field_and_elements(draw, count=1, nonzero=False):
    poly = draw(st.sampled_from([P_TWO, P_THREE_HALVES, P_SQRT2, P_GOLDEN, P_CUBIC]))
    field = NumberField(poly)
    out = [field]
    for _ in range(count):
        coords = draw(
            st.lists(small_rationals, min_size=field.degree, max_size=field.degree)
        )
        el = field.element(coords)
        if nonzero and el.is_zero():
            el = field.one()
        out.append(el)
    return tuple(out)


@settings(max_examples=60, deadline=None)
@given(field_and_elements(count=3))
def test_field_axioms(data):
    _, a, b, c = data
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@settings(max_examples=40, deadline=None)
@given(field_and_elements(count=1, nonzero=True))
def test_inverse_round_trip(data):
    field, a = data
    assert a * field_inverse(a) == field.one()


def test_pow_additivity_full_exponent_range():
    # exponents spanning [-2^20, 2^20]; bases whose powers stay cheap get
    # seeded random pairs, the rational 3/2 (costly inverse chains) two
    # fixed extremes
    rng = random.Random(77)
    for poly in (P_TWO, P_SQRT2):
        a = NumberField(poly).alpha()
        for _ in range(6):
            m = rng.randint(-(2**20), 2**20)
            n = rng.randint(-(2**20), 2**20)
            assert field_pow(a, m + n) == field_pow(a, m) * field_pow(a, n)
    a = NumberField(P_THREE_HALVES).alpha()
    for m, n in ((-(2**20), 2**20), (2**17, -(2**18))):
        assert field_pow(a, m + n) == field_pow(a, m) * field_pow(a, n)


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([P_TWO, P_THREE_HALVES, P_SQRT2, P_GOLDEN]),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=2, max_size=2),
    st.integers(min_value=-(2**10), max_value=2**10),
    st.integers(min_value=-(2**10), max_value=2**10),
)
def test_pow_additivity_random_elements(poly, coords, m, n):
    field = NumberField(poly)
    a = field.element(coords[: field.degree])
    if a.is_zero():
        a = field.alpha()
    assert field_pow(a, m + n) == field_pow(a, m) * field_pow(a, n)


# ---------------------------------------------------------------------------
# Root-of-unity detection and cyclotomic polynomials
# ---------------------------------------------------------------------------


def test_order_minus_one():
    assert NumberField(P_MINUS_ONE).rou_order == 2


def test_order_i():
    assert NumberField(P_I).rou_order == 4


@pytest.mark.parametrize("n", range(2, 31))
def test_cyclotomic_orders(n):
    field = NumberField(cyclotomic(n))
    assert root_of_unity_order(field) == n
    # the returned order is genuinely the least one
    a = field.alpha()
    acc = a
    for m in range(1, n):
        assert acc != field.one()
        acc = acc * a
    assert acc == field.one()


@pytest.mark.parametrize(
    "poly", [P_TWO, [-3, 1], [-3, 2], P_SQRT2, P_GOLDEN, P_CUBIC]
)
def test_not_roots_of_unity(poly):
    assert NumberField(poly).rou_order is None


def test_cyclotomic_known_values():
    assert cyclotomic(1).coeffs == (-1, 1)
    assert cyclotomic(2).coeffs == (1, 1)
    assert cyclotomic(4).coeffs == (1, 0, 1)
    assert cyclotomic(6).coeffs == (1, -1, 1)
    assert cyclotomic(12).coeffs == (1, 0, -1, 0, 1)


@pytest.mark.parametrize("n", [2, 3, 8, 12, 18, 24, 30])
def test_cyclotomic_product_identity(n):
    # prod over d | n of Phi_d(x) == x^n - 1
    prod = IntPolynomial.of([1])
    for d in range(1, n + 1):
        if n % d == 0:
            prod = prod * cyclotomic(d)
    assert prod.coeffs == tuple([-1] + [0] * (n - 1) + [1])


# ---------------------------------------------------------------------------
# NumberField validation
# ---------------------------------------------------------------------------


def test_base_zero_rejected():
    with pytest.raises(ValidationError, match="base-is-zero"):
        NumberField([0, 1])


def test_base_one_rejected():
    with pytest.raises(ValidationError, match="base-is-one"):
        NumberField([-1, 1])
    with pytest.raises(ValidationError, match="base-is-one"):
        NumberField([-3, 3])
    # any claimed minimal polynomial vanishing at 1 puts 1 among its roots
    with pytest.raises(ValidationError, match="base-is-one"):
        NumberField([-1, 0, 1])


def test_constant_poly_rejected():
    with pytest.raises(ValidationError):
        NumberField([5])


def test_field_equality_by_monic_form():
    assert NumberField([-2, 1]) == NumberField([-4, 2])
    assert NumberField([-2, 1]) != NumberField([-3, 1])


# ---------------------------------------------------------------------------
# Root-of-unity detection against a naive power-order loop
# ---------------------------------------------------------------------------


def naive_order(poly):
    """Least n <= 2*d**2 with alpha^n = 1, by repeated multiplication by x
    modulo the monic form of poly; None if there is none."""
    lead = poly[-1]
    tail = [Fraction(c, lead) for c in poly[:-1]]
    if all(t.denominator == 1 for t in tail):
        tail = [int(t) for t in tail]  # integer arithmetic keeps the loop fast
    d = len(tail)
    one = [1] + [0] * (d - 1)
    acc = one
    for n in range(1, 2 * d * d + 1):
        top = acc[-1]
        acc = [a - top * t for a, t in zip([0] + acc[:-1], tail)]
        if acc == one:
            return n
    return None


def test_root_of_unity_order_matches_naive_order_on_cyclotomics():
    for n in range(2, 121):
        phi = list(cyclotomic(n).coeffs)
        for poly in (phi, [-c for c in phi], [2 * c for c in phi]):
            field = NumberField(poly)
            assert naive_order(poly) == n
            assert root_of_unity_order(field) == n
            assert field.rou_order == n


@pytest.mark.parametrize(
    "poly",
    [
        [1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1],  # Lehmer's polynomial
        [1, -3, 1],
        [1, -1, -1, -1, 1],
    ],
)
def test_palindromic_non_cyclotomic_not_roots_of_unity(poly):
    # monic, integral and palindromic like every Phi_n, so only the
    # comparison with the cyclotomic polynomials can reject them
    assert naive_order(poly) is None
    assert root_of_unity_order(NumberField(poly)) is None


def test_int_polynomial_product_with_zero():
    zero = IntPolynomial.of([0])
    assert (zero * cyclotomic(3)).is_zero()
    assert (cyclotomic(3) * zero).is_zero()
