"""Exact squared Wigner 3j and 6j symbols, from the Racah formulas.

Angular momenta are given as ints or ``Fraction`` halves.  Each symbol is
a rational number times the square root of another, so its square is
exact as a ``Fraction``.  See Edmonds, "Angular Momentum in Quantum
Mechanics", chapters 3 and 6.  Shares no code with the package under test.
"""

from fractions import Fraction
from math import factorial


def _int(x) -> int:
    """``x``, a sum of angular momenta that must be an integer."""
    x = Fraction(x)
    if x.denominator != 1:
        raise ValueError(f"{x} is not an integer")
    return int(x)


def _triangle(a, b, c) -> Fraction | None:
    """Delta(a b c) = (a+b-c)! (a-b+c)! (-a+b+c)! / (a+b+c+1)!, None off the triangle."""
    legs = [_int(a + b - c), _int(a - b + c), _int(-a + b + c)]
    if min(legs) < 0:
        return None
    return Fraction(factorial(legs[0]) * factorial(legs[1]) * factorial(legs[2]),
                    factorial(_int(a + b + c + 1)))


def three_j_squared(j1, j2, j3, m1, m2, m3) -> Fraction:
    """(j1 j2 j3; m1 m2 m3)^2."""
    delta = _triangle(j1, j2, j3)
    if delta is None or m1 + m2 + m3 != 0 or abs(m1) > j1 or abs(m2) > j2 or abs(m3) > j3:
        return Fraction(0)
    prefactor = delta
    for j, m in ((j1, m1), (j2, m2), (j3, m3)):
        prefactor *= factorial(_int(j + m)) * factorial(_int(j - m))
    total = Fraction(0)
    for k in range(_int(j1 + j2 - j3) + 1):
        args = [k, _int(j3 - j2 + k + m1), _int(j3 - j1 + k - m2), _int(j1 + j2 - j3 - k),
                _int(j1 - k - m1), _int(j2 - k + m2)]
        if min(args) < 0:
            continue
        term = Fraction(1)
        for arg in args:
            term /= factorial(arg)
        total += -term if k % 2 else term
    return prefactor * total * total


def six_j_squared(j1, j2, j3, j4, j5, j6) -> Fraction:
    """{j1 j2 j3; j4 j5 j6}^2."""
    deltas = [_triangle(j1, j2, j3), _triangle(j1, j5, j6), _triangle(j4, j2, j6),
              _triangle(j4, j5, j3)]
    if any(delta is None for delta in deltas):
        return Fraction(0)
    low = [_int(j1 + j2 + j3), _int(j1 + j5 + j6), _int(j4 + j2 + j6), _int(j4 + j5 + j3)]
    high = [_int(j1 + j2 + j4 + j5), _int(j2 + j3 + j5 + j6), _int(j3 + j1 + j6 + j4)]
    total = Fraction(0)
    for t in range(max(low), min(high) + 1):
        term = Fraction(factorial(t + 1))
        for arg in [t - a for a in low] + [b - t for b in high]:
            term /= factorial(arg)
        total += -term if t % 2 else term
    prefactor = deltas[0] * deltas[1] * deltas[2] * deltas[3]
    return prefactor * total * total


def d_line_weight(f, f_exc, m, q) -> Fraction:
    """Relative strength of the J = 1/2 -> J' = 1/2 line from ground (F, m) to
    excited (F', m + q) under polarization q, nuclear spin I = F - 1/2:
    (2F + 1)(2F' + 1) {J J' 1; F' F I}^2 (F 1 F'; m q -m-q)^2.  Summed over
    F' and q it is 1/2 at every m."""
    half = Fraction(1, 2)
    nuclear = f - half
    return ((2 * f + 1) * (2 * f_exc + 1) * six_j_squared(half, half, 1, f_exc, f, nuclear)
            * three_j_squared(f, 1, f_exc, m, q, -m - q))
