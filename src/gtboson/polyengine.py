"""Exact sparse multivariate polynomial arithmetic over tagged variables.

Variables come in three families: matrix entries z[r,c] and the coupling
parameters x(lam,mu), y(lam,mu).  Each variable additionally carries a slot
index so that three tensor factors can live in one ring without collisions
(slot 0 is used for single-group work, slots 1..3 for coupling).

Coefficients are `int` and nothing else (TypeError otherwise): every
polynomial here is built from minors with integer weights.  `minor` and the
Fock-Bargmann pairing take `ExactPoly` entries only and stay in the ring.
Rationals live outside it, and square roots only in `SqrtRational`, the
carrier for norms and coupling coefficients at the API boundary.

Every weighted sum of products of powers, sum c * prod f**e, is expanded
in packed exponents by one kernel (`product_sum`, over
`packed.packed_product_sum`): on one layout sized before the expansion,
with the sum unpacked once.  A minor is its signed Leibniz sum, and binary
`*`, a power and a product of powers (`power_product`) are its one-term
case.

Everything here is immutable value data; all functions are pure and safe to
call from multiple threads.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable, Iterable, Mapping, Sequence
from fractions import Fraction
from itertools import combinations, compress, permutations

from .packed import ProductTerm, packed_product_sum

__all__ = [
    "VarId",
    "Monomial",
    "ExactPoly",
    "SqrtRational",
    "zvar",
    "xvar",
    "yvar",
    "mono_from_map",
    "mono_text",
    "power_product",
    "minor",
    "symbolic_matrix",
    "bargmann_inner",
    "squarefree_split",
]

# A variable is a plain tuple (kind, slot, a, b) with kind in {"x", "y", "z"}.
# For kind "z": a = row, b = column.  For "x"/"y": a = lambda, b = mu.
# Tuple comparison gives the canonical total order (kind, slot, a, b).
VarId = tuple[str, int, int, int]

# A monomial is a tuple of (VarId, exponent) pairs, sorted by VarId, with all
# exponents positive.  The empty tuple is the constant monomial.
Monomial = tuple[tuple[VarId, int], ...]

ONE: Monomial = ()


class _Frozen:
    """Base of the immutable value classes (`SqrtRational`, `IrrepLabel`,
    `GelfandPattern`, ...).

    A subclass lists its fields in `__slots__` and sets them in `__init__`
    through `object.__setattr__`.  Its `__init__` takes the fields
    positionally in slot order: pickling and copying rebuild an instance
    through it.  Assigning or deleting an attribute afterwards raises
    AttributeError.  Two instances are equal when their class and fields
    are; the hash is that of the single field, or of the tuple of fields.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = operator.attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields(self) == self._fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._fields(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__slots__)

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


def zvar(row: int, col: int, slot: int = 0) -> VarId:
    return ("z", slot, row, col)


def xvar(lam: int, mu: int, slot: int = 0) -> VarId:
    return ("x", slot, lam, mu)


def yvar(lam: int, mu: int, slot: int = 0) -> VarId:
    return ("y", slot, lam, mu)


def mono_from_map(exps: Mapping[VarId, int]) -> Monomial:
    """Build a monomial from a variable -> exponent map, dropping zeros."""
    items = tuple(sorted((v, e) for v, e in exps.items() if e != 0))
    if any(e < 0 for _, e in items):
        raise ValueError("negative exponent in monomial")
    return items


def var_text(v: VarId) -> str:
    kind, slot, a, b = v
    tag = "" if slot == 0 else str(slot)
    if kind == "z":
        return f"z{tag}[{a},{b}]"
    return f"{kind}{tag}({a},{b})"


def mono_text(m: Monomial) -> str:
    """Canonical text of a monomial; the constant monomial renders as '1'."""
    if not m:
        return "1"
    parts = []
    for v, e in m:
        parts.append(var_text(v) if e == 1 else f"{var_text(v)}^{e}")
    return "*".join(parts)


def _frac(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"expected exact rational coefficient, got {type(c)!r}")


# Sorts after every (VarId, exponent) pair, so a monomial that extends
# another sorts before it.
_END = ((("~",),),)


def _mono_order(m: Monomial) -> tuple:
    """Sort key of a monomial, highest first: walking variables in canonical
    order, the first variable with differing exponents decides, an earlier
    variable or a larger exponent ranking higher."""
    return tuple((v, -e) for v, e in m) + _END


class ExactPoly:
    """Sparse polynomial with integer coefficients.

    Terms are held in a dict mapping Monomial -> int with no zero
    coefficients stored.  Instances are treated as immutable values.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        clean: dict[Monomial, int] = {}
        for m, c in (terms or {}).items():
            if not isinstance(c, int):
                raise TypeError(f"ExactPoly coefficients are int, got {c!r}")
            if c:
                clean[m] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, c: int) -> "ExactPoly":
        return cls({ONE: c})

    @classmethod
    def variable(cls, v: VarId) -> "ExactPoly":
        return cls({((v, 1),): 1})

    @classmethod
    def monomial(cls, m: Monomial, c: int = 1) -> "ExactPoly":
        return cls({m: c})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "ExactPoly":
        other = self._coerce(other)
        if not other.terms:
            return self
        acc = dict(self.terms)
        for m, c in other.terms.items():
            s = acc.get(m, 0) + c
            if s:
                acc[m] = s
            else:
                acc.pop(m, None)
        return ExactPoly._raw(acc)

    __radd__ = __add__

    def __neg__(self) -> "ExactPoly":
        return ExactPoly._raw({m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "ExactPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "ExactPoly":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "ExactPoly":
        if isinstance(other, int):
            return ExactPoly({m: k * other for m, k in self.terms.items()})
        return product_sum([(1, [(self, 1), (self._coerce(other), 1)])])

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "ExactPoly":
        return power_product([(self, k)])

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = ExactPoly.const(other)
        elif not isinstance(other, ExactPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # a constant equals its int, so it hashes as that int
        if self.terms.keys() <= {ONE}:
            return hash(self.terms.get(ONE, 0))
        return hash(frozenset(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    @staticmethod
    def _coerce(other) -> "ExactPoly":
        return other if isinstance(other, ExactPoly) else ExactPoly.const(other)

    @classmethod
    def _raw(cls, terms: dict[Monomial, int]) -> "ExactPoly":
        p = cls.__new__(cls)
        p.terms = terms
        return p

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def leading_monomial(self) -> Monomial:
        """Highest monomial in lexicographic order (earlier variables
        dominate, larger exponents first)."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return min(self.terms, key=_mono_order)

    def leading_coefficient(self) -> int:
        return self.terms[self.leading_monomial()]

    def coefficient(self, m: Monomial) -> int:
        return self.terms.get(m, 0)

    def map_variables(self, fn: Callable[[VarId], VarId]) -> "ExactPoly":
        """Relabel variables through a map (e.g. retag slots); exponents of
        merged variables accumulate."""
        acc: dict[Monomial, int] = {}
        for m, c in self.terms.items():
            exps: dict[VarId, int] = {}
            for v, e in m:
                w = fn(v)
                exps[w] = exps.get(w, 0) + e
            nm = mono_from_map(exps)
            acc[nm] = acc.get(nm, 0) + c
        return ExactPoly(acc)

    def text(self) -> str:
        """Canonical text form: terms sorted highest-first."""
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=_mono_order):
            c = self.terms[m]
            if m == ONE:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono_text(m))
            elif c == -1:
                parts.append(f"-{mono_text(m)}")
            else:
                parts.append(f"{c} * {mono_text(m)}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"ExactPoly({self.text()})"


def product_sum(terms: Iterable[ProductTerm]) -> ExactPoly:
    """sum c * prod f**e over the (c, factors) terms (0 for none), expanded
    on one packed layout (`packed_product_sum`) and unpacked once at the
    end into canonical monomials.  TypeError for a weight that is not an
    int, ValueError for an exponent that is not an int >= 0."""
    layout, packed = packed_product_sum(terms)
    return ExactPoly._raw(layout.unpack_terms(packed))


def power_product(factors: Iterable[tuple[ExactPoly, int]]) -> ExactPoly:
    """prod f**e over the (f, e) pairs (1 for none): the one-term case of
    `product_sum`.  ValueError for an exponent that is not an int >= 0."""
    return product_sum([(1, factors)])


def symbolic_matrix(n: int, slot: int = 0) -> list[list[ExactPoly]]:
    """The n x n matrix of independent variables z[r,c] (1-indexed)."""
    return [[ExactPoly.variable(zvar(r, c, slot)) for c in range(1, n + 1)]
            for r in range(1, n + 1)]


def minor(mat: Sequence[Sequence[ExactPoly]], rows: Sequence[int],
          cols: Sequence[int]) -> ExactPoly:
    """Determinant of the `ExactPoly` submatrix on `rows` x `cols`
    (1-indexed), by the Leibniz formula as one signed `product_sum`,
    skipping every term with a zero entry.

    Row/column index lists must be non-empty, strictly increasing and of
    equal length.
    """
    if len(rows) != len(cols):
        raise ValueError("minor requires equally many rows and columns")
    if not rows:
        raise ValueError("minor requires at least one row and column")
    for idx in (rows, cols):
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError("minor indices must be strictly increasing")
        if idx[0] < 1 or idx[-1] > len(mat):
            raise ValueError("minor index out of range")
    terms = []
    for perm in permutations(cols):
        entries = [mat[r - 1][c - 1] for r, c in zip(rows, perm)]
        if all(entries):
            odd = sum(a > b for a, b in combinations(perm, 2)) % 2
            terms.append((-1 if odd else 1, [(f, 1) for f in entries]))
    return product_sum(terms)


# n! for n < 64, the exponents a norm meets in practice; larger ones are
# computed
_FACTORIALS = tuple(math.factorial(n) for n in range(64))


def bargmann_inner(p: ExactPoly, q: ExactPoly) -> int:
    """Fock-Bargmann pairing of two polynomials, an integer.

    Monomials are orthogonal with factorial norms, <v^a, v^b> = delta_ab a!
    per variable; coefficients are integers so conjugation is the identity.
    A polynomial paired with itself is its norm squared, sum c^2 prod e!,
    in one pass over its terms.
    """
    if p is q:
        fact = _FACTORIALS
        total = 0
        for m, c in p.terms.items():
            w = c * c
            for _, e in m:
                w *= fact[e] if e < 64 else math.factorial(e)
            total += w
        return total
    if len(p.terms) > len(q.terms):
        p, q = q, p
    total = 0
    for m, cp in p.terms.items():
        cq = q.terms.get(m)
        if cq is None:
            continue
        w = 1
        for _, e in m:
            w *= math.factorial(e)
        total += cp * cq * w
    return total


# ---------------------------------------------------------------------------
# Integer factorization helpers for canonical square-free decomposition.
# ---------------------------------------------------------------------------

def _primes_below(n: int) -> list[int]:
    """The primes below n, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n, p)))
    return list(compress(range(n), sieve))


_SMALL_PRIMES = _primes_below(1000)


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # Deterministic for n < 3.3e24 with these witnesses.
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    if n % 2 == 0:
        return 2
    import random  # only composites with no factor below 1000 get here

    rng = random.Random(0xC0FFEE ^ n)
    while True:
        c = rng.randrange(1, n)
        f = lambda v: (v * v + c) % n
        x = y = rng.randrange(2, n)
        d = 1
        while d == 1:
            x = f(x)
            y = f(f(y))
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d


def _factorize(n: int, out: dict[int, int]) -> None:
    if n == 1:
        return
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        if n == 1:
            return
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        r = math.isqrt(m)
        if r * r == m:
            stack.extend((r, r))
            continue
        if _is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.extend((d, m // d))


def squarefree_split(n: int) -> tuple[int, int]:
    """Write n >= 1 as a**2 * b with b square-free; returns (a, b)."""
    if n < 1:
        raise ValueError("squarefree_split requires n >= 1")
    factors: dict[int, int] = {}
    _factorize(n, factors)
    a = b = 1
    for p, e in factors.items():
        a *= p ** (e // 2)
        if e % 2:
            b *= p
    return a, b


class SqrtRational(_Frozen):
    """Exact value q * sqrt(r) with q rational and r >= 0 rational.

    Canonical form: the radicand is 1/m for a square-free positive integer m
    (so 1/sqrt(2) is stored as q = 1, r = 1/2 and sqrt(2) as q = 2, r = 1/2),
    and q = 0 forces r = 1.  Equality is then plain field comparison.  Only
    same-radicand values can be added; products are always defined.
    """

    __slots__ = ("q", "r")

    def __init__(self, q, r=Fraction(1)):
        q = _frac(q)
        r = _frac(r)
        if r < 0:
            raise ValueError("radicand must be non-negative")
        if q == 0 or r == 0:
            object.__setattr__(self, "q", Fraction(0))
            object.__setattr__(self, "r", Fraction(1))
            return
        # q * sqrt(a/b) = (q a) * sqrt(1/(a b)); peel the square part of a b.
        a, b = r.numerator, r.denominator
        c, m = squarefree_split(a * b)
        object.__setattr__(self, "q", q * Fraction(a, c))
        object.__setattr__(self, "r", Fraction(1, m))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "SqrtRational":
        return cls(0, 1)

    @classmethod
    def one(cls) -> "SqrtRational":
        return cls(1, 1)

    @classmethod
    def from_rational(cls, q) -> "SqrtRational":
        return cls(_frac(q), Fraction(1))

    @classmethod
    def sqrt(cls, r) -> "SqrtRational":
        """Exact square root of a non-negative rational."""
        return cls(Fraction(1), _frac(r))

    @classmethod
    def _from_parts(cls, c: int, num: int, den: int) -> "SqrtRational":
        """c * sqrt(num/den) for integers c and num, den >= 1, in canonical
        form with no rational radicand in between: with num/den in lowest
        terms, num*den = s**2 * m and m square-free, q = c*num/s and
        r = 1/m.  Lowest terms keep the number to factor small."""
        self = object.__new__(cls)
        if c:
            g = math.gcd(num, den)
            num, den = num // g, den // g
            s, m = squarefree_split(num * den)
            q, r = Fraction(c * num, s), Fraction(1, m)
        else:
            q, r = Fraction(0), Fraction(1)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", r)
        return self

    # -- arithmetic ---------------------------------------------------------

    def __mul__(self, other) -> "SqrtRational":
        if isinstance(other, (int, Fraction)):
            return SqrtRational(self.q * _frac(other), self.r)
        if isinstance(other, SqrtRational):
            return SqrtRational(self.q * other.q, self.r * other.r)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other) -> "SqrtRational":
        if isinstance(other, (int, Fraction)):
            return SqrtRational(self.q / _frac(other), self.r)
        if isinstance(other, SqrtRational):
            if other.is_zero():
                raise ZeroDivisionError("division by zero SqrtRational")
            # q1 sqrt(r1) / (q2 sqrt(r2)) = q1/(q2 r2) * sqrt(r1 r2)
            return SqrtRational(self.q / (other.q * other.r), self.r * other.r)
        return NotImplemented

    def __add__(self, other) -> "SqrtRational":
        if isinstance(other, (int, Fraction)):
            other = SqrtRational.from_rational(other)
        if not isinstance(other, SqrtRational):
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.r != other.r:
            raise ValueError("cannot add SqrtRational values with different radicands")
        return SqrtRational(self.q + other.q, self.r)

    __radd__ = __add__

    def __neg__(self) -> "SqrtRational":
        return SqrtRational(-self.q, self.r)

    def __sub__(self, other) -> "SqrtRational":
        return self + (-other)

    def __abs__(self) -> "SqrtRational":
        return SqrtRational(abs(self.q), self.r)

    def is_zero(self) -> bool:
        return self.q == 0

    def squared(self) -> Fraction:
        return self.q * self.q * self.r

    def sign(self) -> int:
        return (self.q > 0) - (self.q < 0)

    # -- text and wire form --------------------------------------------------

    def text(self) -> str:
        """Render as 'p/q*sqrt(a/b)' with explicit denominators."""
        q, r = self.q, self.r
        return (f"{q.numerator}/{q.denominator}"
                f"*sqrt({r.numerator}/{r.denominator})")

    def to_json(self) -> dict:
        return {"q": f"{self.q.numerator}/{self.q.denominator}",
                "r": f"{self.r.numerator}/{self.r.denominator}"}

    @classmethod
    def from_json(cls, obj: dict) -> "SqrtRational":
        return cls(Fraction(obj["q"]), Fraction(obj["r"]))

    def __repr__(self):
        return f"SqrtRational({self.text()})"
