import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from crnrelay.errors import AlgebraError, MixedExtensions
from crnrelay.scalars import (ExactScalar, PairVector, exact, from_pair, pair_sign, quad,
                              sqrt_fraction, square_free_split, to_pairs)


def as_float(x: ExactScalar) -> float:
    return float(x.a) + float(x.b) * math.sqrt(x.d)


def test_normalisation_rules():
    assert ExactScalar(Fraction(3), Fraction(0), 5).d == 1
    with pytest.raises(ValueError):
        ExactScalar(Fraction(0), Fraction(1), 1)
    with pytest.raises(ValueError):
        ExactScalar(Fraction(0), Fraction(1), -3)


def test_square_free_split_small():
    assert square_free_split(1) == (1, 1)
    assert square_free_split(4) == (2, 1)
    assert square_free_split(12) == (2, 3)
    assert square_free_split(360) == (6, 10)
    with pytest.raises(ValueError):
        square_free_split(0)


def test_square_free_split_random():
    rng = random.Random(20240811)
    for _ in range(300):
        n = rng.randint(1, 10**9)
        s, d = square_free_split(n)
        assert s * s * d == n
        # d square-free: no prime square divides it
        for p in (2, 3, 5, 7, 11, 13):
            assert d % (p * p) != 0 or d == 0


def test_sqrt_fraction_exact_and_ext():
    assert sqrt_fraction(Fraction(9, 4)) == exact(Fraction(3, 2))
    r = sqrt_fraction(Fraction(8))
    assert (r.a, r.b, r.d) == (0, 2, 2)
    r = sqrt_fraction(Fraction(3, 2))
    assert r * r == exact(Fraction(3, 2))
    with pytest.raises(ValueError):
        sqrt_fraction(Fraction(-1))


def test_arithmetic_matches_float_oracle():
    rng = random.Random(99)
    for _ in range(400):
        d = rng.choice([2, 3, 5, 7, 6])
        x = ExactScalar(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                        Fraction(rng.randint(-9, 9), rng.randint(1, 9)) or Fraction(1), d)
        y = ExactScalar(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                        Fraction(rng.randint(-9, 9), rng.randint(1, 9)) or Fraction(1), d)
        assert abs(as_float(x + y) - (as_float(x) + as_float(y))) < 1e-9
        assert abs(as_float(x - y) - (as_float(x) - as_float(y))) < 1e-9
        assert abs(as_float(x * y) - as_float(x) * as_float(y)) < 1e-9
        if not y.is_zero:
            assert abs(as_float(x / y) - as_float(x) / as_float(y)) < 1e-9


def test_sign_agrees_with_float():
    rng = random.Random(4242)
    for _ in range(400):
        d = rng.choice([2, 3, 5, 7, 10])
        x = ExactScalar(Fraction(rng.randint(-20, 20), rng.randint(1, 10)),
                        Fraction(rng.randint(-20, 20), rng.randint(1, 10)) or Fraction(1), d)
        f = as_float(x)
        if abs(f) < 1e-9:
            continue
        assert x.sign() == (1 if f > 0 else -1)


def test_sign_near_zero_exact():
    # 3 - 2*sqrt(2) is about 0.17; 17 - 12*sqrt(2) is about 0.03; both positive
    assert ExactScalar(Fraction(3), Fraction(-2), 2).sign() == 1
    assert ExactScalar(Fraction(17), Fraction(-12), 2).sign() == 1
    assert ExactScalar(Fraction(-17), Fraction(12), 2).sign() == -1
    assert exact(0).sign() == 0


def test_mixed_extensions_rejected():
    x = ExactScalar(Fraction(1), Fraction(1), 2)
    y = ExactScalar(Fraction(1), Fraction(1), 3)
    with pytest.raises(MixedExtensions):
        _ = x + y
    # rational operands join any extension
    assert (exact(2) * x).d == 2


def test_division_and_inverse():
    x = ExactScalar(Fraction(3), Fraction(1), 5)
    inv = exact(1) / x
    assert x * inv == exact(1)
    with pytest.raises(ZeroDivisionError):
        _ = x / exact(0)


def test_to_fraction():
    assert exact(Fraction(7, 3)).to_fraction() == Fraction(7, 3)
    with pytest.raises(ValueError):
        ExactScalar(Fraction(0), Fraction(1), 2).to_fraction()


def test_integer_pairs_round_trip_and_divide():
    rng = random.Random(11)
    for _ in range(300):
        d = rng.choice((2, 3, 13))
        xs = [ExactScalar(Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
                          Fraction(rng.randint(-3, 3), rng.randint(1, 4)), d)
              for _ in range(rng.randint(1, 4))]
        pairs, Q, ds = to_pairs(xs)
        assert Q == math.lcm(*(x.a.denominator for x in xs), *(x.b.denominator for x in xs))
        assert set(ds) == ({d} if any(x.b for x in xs) else set())
        assert [from_pair(u, w, Q, d) for u, w in pairs] == xs
        u, w = rng.choice(pairs)
        assert pair_sign(u, w, d) == mpmath.sign(u + w * mpmath.sqrt(d))
    assert to_pairs([exact(Fraction(1, 2)), exact(Fraction(-2, 3))]) == ([(3, 0), (-4, 0)], 6, set())
    assert to_pairs([]) == ([], 1, set())
    # ints and Fractions are taken as they are, alone or beside ExactScalars
    assert to_pairs([Fraction(1, 2), 3]) == ([(1, 0), (6, 0)], 2, set())
    assert to_pairs([Fraction(1, 2), ExactScalar(Fraction(1), Fraction(1, 3), 2)]) == (
        [(3, 0), (6, 2)], 6, {2})


_values = st.builds(lambda a, b, d: ExactScalar(a, b if d > 1 else Fraction(0), d),
                    st.fractions(min_value=-9, max_value=9, max_denominator=12),
                    st.fractions(min_value=-4, max_value=4, max_denominator=6),
                    st.sampled_from((1, 2, 13)))


@settings(max_examples=200)
@given(xs=st.lists(_values, max_size=6))
def test_a_vector_of_quads_is_the_vector_of_their_values(xs):
    # one radicand, two (keyed per entry) or none, and zeros among them
    quads = [quad(x) for x in xs]
    assert [from_pair(*q) for q in quads] == xs
    assert all(q[2] > 0 and math.gcd(*q[:3]) == 1 and (q[1] or q[3] == 1) for q in quads)
    by_quads, by_values = PairVector.of_quads(quads), PairVector(xs)
    assert by_quads.key == by_values.key
    assert [by_quads.is_zero(i) for i in range(len(xs))] == [x.is_zero for x in xs]


@pytest.mark.parametrize("call, builtin", [
    (lambda: 1 / exact(0), ZeroDivisionError),
    (lambda: exact(2) / exact(0), ZeroDivisionError),
    (lambda: exact(1.5), TypeError),
    (lambda: sqrt_fraction(-1), ValueError),
    (lambda: sqrt_fraction(0.1), TypeError),
    (lambda: sqrt_fraction("1/4"), TypeError),
    (lambda: ExactScalar(Fraction(1), Fraction(1), 4), ValueError),
    (lambda: ExactScalar(Fraction(1), Fraction(1), 12), ValueError),
    (lambda: ExactScalar(Fraction(0), Fraction(1), 1), ValueError),
    (lambda: sqrt_fraction(2).to_fraction(), ValueError),
    (lambda: square_free_split(0), ValueError),
    (lambda: exact(2) ** 0.5, TypeError),
    (lambda: exact(2) ** 2.0, TypeError),
], ids=["one-over-zero", "two-over-zero", "exact-float", "sqrt-of-negative",
        "sqrt-of-float", "sqrt-of-str",
        "square-radicand", "radicand-with-a-square-factor", "radicand-one",
        "irrational-to-fraction", "square-free-split-of-zero", "power-one-half",
        "float-power"])
def test_scalar_strays_are_algebra_errors_and_their_builtin(call, builtin):
    with pytest.raises(AlgebraError) as info:
        call()
    assert isinstance(info.value, builtin)
