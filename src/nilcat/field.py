"""Exact arithmetic over Q and GF(p) for odd primes p.

A FieldCtx fixes the ground field; FieldElem wraps a reduced Fraction
(rationals) or a residue in [0, p) (prime field).  Besides the four
operations the module provides the square-class machinery needed for the
parametric families: canonical square-class representatives, same-class
tests and exact square roots.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import (
    BothZero,
    Char2Field,
    DivisionByZero,
    MixedFields,
    NilcatError,
    NotAPrime,
    ZeroArgument,
)

_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41]

# psi_13: the least strong pseudoprime to every base in _SMALL_PRIMES, so
# is_prime is a proof of primality below it (Sorenson and Webster, 2017).
PRIME_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Miller-Rabin with the prime bases 2..41: deterministic for all
    n < PRIME_BOUND (about 3.3e24), a strong probable-prime test above."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    if n % 2 == 0:
        return 2
    x, c = 2, 1
    while True:
        y, d = x, 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
        x, c = c + 2, c + 1


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: multiplicity}.

    Raises NotAPrime when a cofactor at or above PRIME_BOUND passes
    is_prime, which is only a probable-prime test there."""
    if n < 1:
        raise ZeroArgument("factorize expects a positive integer")
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 7
    # trial division by 2/3/5-coprime residues up to a fixed bound
    inc = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while f * f <= n and f < 100000:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += inc[i]
        i = (i + 1) % 8
    if n > 1:
        stack = [n]
        while stack:
            m = stack.pop()
            if m == 1:
                continue
            r = math.isqrt(m)
            if r * r == m:
                stack.extend((r, r))
                continue
            if is_prime(m):
                if m >= PRIME_BOUND:
                    raise NotAPrime(f"cofactor {m} is not below {PRIME_BOUND}, where primality is certified")
                out[m] = out.get(m, 0) + 1
                continue
            d = _pollard_rho(m)
            stack.extend((d, m // d))
    return out


def squarefree_part(n: int) -> int:
    """The unique squarefree s with n = s * k^2 (sign preserved)."""
    if n == 0:
        raise ZeroArgument("0 has no squarefree part")
    s = -1 if n < 0 else 1
    for p, e in factorize(abs(n)).items():
        if e % 2:
            s *= p
    return s


class FieldCtx:
    """Ground field: the rationals, or GF(p) with p an odd prime."""

    __slots__ = ("p", "_nonresidue")

    def __init__(self, p: int | None = None):
        if p is not None:
            if p == 2:
                raise Char2Field("GF(2) is not supported")
            if p >= PRIME_BOUND:
                raise NotAPrime(f"{p} is not below {PRIME_BOUND}, where primality is certified")
            if not is_prime(p):
                raise NotAPrime(f"{p} is not prime")
        self.p = p
        self._nonresidue: int | None = None

    @property
    def characteristic(self) -> int:
        return self.p or 0

    @property
    def is_rationals(self) -> bool:
        return self.p is None

    def __eq__(self, other):
        return isinstance(other, FieldCtx) and self.p == other.p

    def __hash__(self):
        return hash(("FieldCtx", self.p))

    def __repr__(self):
        return "Q" if self.p is None else f"GF({self.p})"

    # -- element construction ------------------------------------------

    def el(self, v) -> "FieldElem":
        """Coerce an int, Fraction, FieldElem or literal string."""
        if isinstance(v, FieldElem):
            if v.ctx != self:
                raise MixedFields(f"{v} does not live in {self}")
            return v
        if isinstance(v, str):
            return self._parse(v)
        if self.p is None:
            return FieldElem(self, v if isinstance(v, Fraction) else Fraction(v))
        if isinstance(v, Fraction):
            if v.denominator % self.p == 0:
                raise DivisionByZero(f"denominator of {v} vanishes mod {self.p}")
            v = v.numerator * pow(v.denominator, -1, self.p)
        return FieldElem(self, v % self.p)

    def _parse(self, s: str) -> "FieldElem":
        s = s.strip()
        try:
            if "/" in s:
                num, den = s.split("/", 1)
                v = Fraction(int(num), int(den))
            else:
                v = int(s)
        except (ValueError, ZeroDivisionError):
            raise NilcatError(f"cannot parse literal {s!r}") from None
        return self.el(v)

    def zero(self) -> "FieldElem":
        return self.el(0)

    def one(self) -> "FieldElem":
        return self.el(1)

    def elements(self):
        """All field elements; only available for prime fields."""
        if self.p is None:
            raise ZeroArgument("Q is infinite")
        return [FieldElem(self, v) for v in range(self.p)]

    # -- quadratic structure -------------------------------------------

    def smallest_nonresidue(self) -> "FieldElem":
        if self.p is None:
            raise ZeroArgument("only defined for prime fields")
        if self._nonresidue is None:
            half = (self.p - 1) // 2
            for a in range(2, self.p):
                if pow(a, half, self.p) != 1:
                    self._nonresidue = a
                    break
        return FieldElem(self, self._nonresidue)


_RATIONALS = FieldCtx(None)


def rationals() -> FieldCtx:
    return _RATIONALS


def prime_field(p: int) -> FieldCtx:
    return FieldCtx(p)


def parse_field(spec: str) -> FieldCtx:
    """Parse the CLI/file field tokens "Q" and "GF(p)"."""
    spec = spec.strip()
    if spec == "Q":
        return rationals()
    if spec.startswith("GF(") and spec.endswith(")"):
        try:
            return prime_field(int(spec[3:-1]))
        except ValueError:  # from int(); prime_field raises NilcatErrors
            pass
    raise NotAPrime(f"cannot parse field spec {spec!r}")


class FieldElem:
    """A value in a fixed FieldCtx; immutable."""

    __slots__ = ("ctx", "v")

    def __init__(self, ctx: FieldCtx, v):
        self.ctx = ctx
        self.v = v

    def _coerce(self, other) -> "FieldElem":
        if isinstance(other, FieldElem):
            if other.ctx != self.ctx:
                raise MixedFields(f"{self} and {other} live in different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ctx.el(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        p = self.ctx.p
        if p is None:
            return FieldElem(self.ctx, self.v + o.v)
        return FieldElem(self.ctx, (self.v + o.v) % p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        p = self.ctx.p
        if p is None:
            return FieldElem(self.ctx, self.v - o.v)
        return FieldElem(self.ctx, (self.v - o.v) % p)

    def __rsub__(self, other):
        o = self._coerce(other)
        return o.__sub__(self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        p = self.ctx.p
        if p is None:
            return FieldElem(self.ctx, self.v * o.v)
        return FieldElem(self.ctx, (self.v * o.v) % p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return o * self.inv()

    def __neg__(self):
        p = self.ctx.p
        if p is None:
            return FieldElem(self.ctx, -self.v)
        return FieldElem(self.ctx, (-self.v) % p)

    def inv(self) -> "FieldElem":
        if not self.v:
            raise DivisionByZero("inverse of zero")
        p = self.ctx.p
        if p is None:
            return FieldElem(self.ctx, 1 / self.v)
        return FieldElem(self.ctx, pow(self.v, -1, p))

    def __bool__(self):
        return bool(self.v)

    @property
    def is_zero(self) -> bool:
        return not self.v

    def __eq__(self, other):
        if isinstance(other, FieldElem):
            return self.ctx == other.ctx and self.v == other.v
        if isinstance(other, (int, Fraction)):
            return self == self.ctx.el(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.ctx.p, self.v))

    def literal(self) -> str:
        """Exact text form accepted back by FieldCtx.el."""
        return str(self.v)

    def __repr__(self):
        return str(self.v)


# -- square classes -----------------------------------------------------


def square_class_rep(a: FieldElem) -> FieldElem:
    """Canonical representative of a modulo nonzero squares.

    Over Q this is the signed squarefree part of numerator*denominator;
    over GF(p) it is 1 for residues and the smallest nonresidue otherwise.
    """
    if a.is_zero:
        raise ZeroArgument("0 has no square class")
    ctx = a.ctx
    if ctx.p is None:
        return ctx.el(squarefree_part(a.v.numerator * a.v.denominator))
    if pow(a.v, (ctx.p - 1) // 2, ctx.p) == 1:
        return ctx.one()
    return ctx.smallest_nonresidue()


def same_square_class(a: FieldElem, b: FieldElem) -> bool:
    """True iff b = c^2 * a for some nonzero c."""
    if a.is_zero or b.is_zero:
        raise ZeroArgument("square classes are defined on nonzero elements")
    if a.ctx != b.ctx:
        raise MixedFields("operands from different fields")
    return square_class_rep(a) == square_class_rep(b)


def is_square(a: FieldElem) -> bool:
    if a.is_zero:
        return True
    return square_class_rep(a) == a.ctx.one()


def sqrt(a: FieldElem) -> FieldElem:
    """An exact square root; raises ZeroArgument when a is not a square."""
    ctx = a.ctx
    if a.is_zero:
        return a
    if not is_square(a):
        raise ZeroArgument(f"{a} is not a square in {ctx}")
    if ctx.p is None:
        f = a.v
        num, den = math.isqrt(f.numerator), math.isqrt(f.denominator)
        return ctx.el(Fraction(num, den))
    return FieldElem(ctx, _tonelli_shanks(a.v, ctx.p))


def _tonelli_shanks(n: int, p: int) -> int:
    if p % 4 == 3:
        return pow(n, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) == 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(n, q, p), pow(n, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def two_by_two_with_det(x: FieldElem, y: FieldElem, det: FieldElem):
    """Rows ((a, b), (c, d)) with ad - bc = det and (a b; c d)(x; y) = (1; 0).

    Requires (x, y) != (0, 0) and det != 0.
    """
    if x.is_zero and y.is_zero:
        raise BothZero("(x, y) must be nonzero")
    if det.is_zero:
        raise ZeroArgument("target determinant must be nonzero")
    ctx = x.ctx
    one = ctx.one()
    if y.is_zero:
        return ((x.inv(), ctx.zero()), (ctx.zero(), x * det))
    a = c = -(y * det)
    d = x * det
    b = (one + x * y * det) / y
    return ((a, b), (c, d))
