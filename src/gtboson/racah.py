"""SU(2) 3-j symbols by Racah's single factorial sum.

An independent route to `coupling.su2_threej`, which reads the same value
as one binomial sum.  The CLI's `threej` checks every value it prints
against this sum, so it imports this module alone and none of the other
cross-check routes in `gtboson.oracles`, which re-exports the sum for the
tests and the self-test suites.  No library module imports it.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .gelfand import DomainError
from .polyengine import SqrtRational

__all__ = ["racah_threej_oracle"]

_fact = math.factorial


def _two(x) -> int:
    """Twice a spin value, which must be an exact half-integer (a float is
    taken at its exact binary value, never rounded)."""
    t = Fraction(x) * 2
    if t.denominator != 1:
        raise DomainError(f"{x} is not a half-integer")
    return int(t)


def racah_threej_oracle(j1, m1, j2, m2, j3, m3) -> SqrtRational:
    """Independent closed-form 3-j value (single factorial sum), exact."""
    tj = [_two(j ) for j in (j1, j2, j3)]
    tm = [_two(m) for m in (m1, m2, m3)]
    if any((a + b) % 2 for a, b in zip(tj, tm)) or any(abs(b) > a for a, b in zip(tj, tm)):
        return SqrtRational(0)
    if sum(tm) != 0:
        return SqrtRational(0)
    tJ = sum(tj)
    if tJ % 2:
        return SqrtRational(0)
    c1 = (tj[0] + tj[1] - tj[2]) // 2
    c2 = (tj[0] - tj[1] + tj[2]) // 2
    c3 = (-tj[0] + tj[1] + tj[2]) // 2
    if c1 < 0 or c2 < 0 or c3 < 0:
        return SqrtRational(0)
    a1 = (tj[0] - tm[0]) // 2
    a2 = (tj[1] + tm[1]) // 2
    b1 = (tj[2] - tj[1] + tm[0]) // 2
    b2 = (tj[2] - tj[0] - tm[1]) // 2
    kmin = max(0, -b1, -b2)
    kmax = min(c1, a1, a2)
    total = Fraction(0)
    for k in range(kmin, kmax + 1):
        term = Fraction((-1) ** k,
                        _fact(k) * _fact(c1 - k) * _fact(a1 - k) * _fact(a2 - k)
                        * _fact(b1 + k) * _fact(b2 + k))
        total += term
    if not total:
        return SqrtRational(0)
    phase = (tj[0] - tj[1] - tm[2]) // 2
    if phase % 2:
        total = -total
    rad = Fraction(_fact(c1) * _fact(c2) * _fact(c3), _fact(tJ // 2 + 1))
    for a, b in zip(tj, tm):
        rad *= _fact((a + b) // 2) * _fact((a - b) // 2)
    return SqrtRational(total, rad)
