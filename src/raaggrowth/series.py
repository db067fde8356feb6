"""Exact truncated power series and rational functions over the integers.

Everything is arbitrary-precision: power series are tuples of Python ints,
rational functions are coprime integer polynomial pairs.  The two counting
operators live here as well:

* ``rho`` turns the growth series of a rotation-closed, power-closed language
  into the growth series of its lexicographically least rotation
  representatives, via the totient-weighted integral transform
  ``[z^n] rho(f) = (1/n) * sum_{k | n} phi(k) * [z^{n/k}] f``.
* ``neck`` is the necklace transform
  ``sum_{k,l >= 1} (phi(k)/(k*l)) * f(z^k)^l``
  counting cyclic sequences of blocks drawn from a language.  Summing over l
  gives Polya's cycle construction ``sum_k (phi(k)/k) log 1/(1 - f(z^k))``,
  and since ``z f'/(1 - f)`` is ``z d/dz log 1/(1 - f)``, it is computed as
  ``neck(f) = rho(z f'/(1 - f))``.  It is integral on every integer series.

``rho`` must produce integer coefficients on language-derived input;
non-integrality is reported as an error, never rounded away.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


class NonIntegralCoefficient(ArithmeticError):
    """An operator produced a non-integer coefficient.

    For rho/neck this signals that the input series is not the growth series
    of a rotation-and-power-closed language.
    """


class InvariantError(RuntimeError):
    """An internal invariant of a computation failed: a bug, not bad input."""


# ---------------------------------------------------------------------------
# integer polynomials as coefficient lists (ascending degree)
# ---------------------------------------------------------------------------

def poly_trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_add(a, b):
    n = max(len(a), len(b))
    return poly_trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def poly_neg(a):
    return [-x for x in a]


def poly_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return poly_trim(out)


def poly_content(a):
    g = 0
    for x in a:
        g = gcd(g, abs(x))
    return g


def poly_primitive(a):
    g = poly_content(a)
    if g in (0, 1):
        return list(a)
    return [x // g for x in a]


def poly_gcd(a, b):
    """Primitive gcd of integer polynomials, positive leading coefficient.

    Primitive polynomial remainder sequence: each pseudo-remainder is taken
    over the integers and divided by its content, so no fractions arise and
    the coefficients stay small.  By Gauss's lemma the last nonzero remainder
    is the primitive part of the gcd over the rationals.
    """
    a = poly_primitive(poly_trim(a))
    b = poly_primitive(poly_trim(b))
    if len(a) < len(b):
        a, b = b, a
    while b:
        lead = b[-1]
        while len(a) >= len(b):
            top = a[-1]
            g = gcd(lead, top)
            scale, factor = lead // g, top // g
            shift = len(a) - len(b)
            if scale != 1:
                a = [scale * x for x in a]
            for i, y in enumerate(b):
                a[shift + i] -= factor * y
            a = poly_trim(a)
        a, b = b, poly_primitive(a)
    if a and a[-1] < 0:
        a = poly_neg(a)
    return a


def poly_divide_exact(a, b):
    """Quotient a/b of integer polynomials; ValueError unless it is exact over Z.

    Long division from the top, one ``divmod`` by b's leading coefficient per
    step.  ``RationalFunction.make`` divides only by the primitive
    ``poly_gcd``, and by Gauss's lemma a primitive factor of an integer
    polynomial leaves an integer quotient, so no step there has a remainder.
    """
    a = poly_trim(a)
    b = poly_trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    lead = b[-1]
    out = [0] * max(len(a) - len(b) + 1, 0)
    for shift in reversed(range(len(out))):
        factor, remainder = divmod(a[shift + len(b) - 1], lead)
        if remainder:
            raise ValueError("polynomial division is not exact over the integers")
        if factor:
            out[shift] = factor
            for i, c in enumerate(b):
                a[shift + i] -= factor * c
    if any(a):
        raise ValueError("polynomial division is not exact")
    return poly_trim(out)


# ---------------------------------------------------------------------------
# truncated power series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerSeries:
    """Integer power series truncated at ``max_degree`` (inclusive)."""

    coefficients: tuple[int, ...]

    def __post_init__(self):
        if not self.coefficients:
            raise ValueError("a truncated series needs at least its constant term")

    @staticmethod
    def from_list(values) -> "PowerSeries":
        return PowerSeries(tuple(int(v) for v in values))

    @staticmethod
    def one(max_degree: int) -> "PowerSeries":
        return PowerSeries((1,) + (0,) * max_degree)

    @property
    def max_degree(self) -> int:
        return len(self.coefficients) - 1

    def __getitem__(self, n: int) -> int:
        return self.coefficients[n]

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        return PowerSeries(tuple(a + b for a, b in zip(self.coefficients, other.coefficients)))

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        return PowerSeries(tuple(a - b for a, b in zip(self.coefficients, other.coefficients)))

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        left, right = self.coefficients, other.coefficients
        n = min(len(left), len(right))
        out = [0] * n
        for i in range(n):
            a = left[i]
            if a:
                for j in range(n - i):
                    b = right[j]
                    if b:
                        out[i + j] += a * b
        return PowerSeries(tuple(out))

    def to_strings(self) -> list[str]:
        return [str(c) for c in self.coefficients]


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RationalFunction:
    """Reduced integer rational function num/den.

    Canonical form: gcd(num, den) = 1, no common content, and the denominator
    has positive constant term (positive leading coefficient if the constant
    term is zero).  ``make`` and every arithmetic operator return this form,
    so ``==`` is equality of functions for every value built by ``make`` or
    by arithmetic.  ``make`` reduces by the gcd of numerator and denominator;
    sums and differences, whose operands are reduced already, cancel only
    what their denominators share (Henrici's method, ``_sum``).
    """

    num: tuple[int, ...]
    den: tuple[int, ...]

    def __post_init__(self):
        if not self.den:
            raise ZeroDivisionError("zero denominator")

    @staticmethod
    def make(num, den=(1,)) -> "RationalFunction":
        num = poly_trim(list(num))
        den = poly_trim(list(den))
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            return RationalFunction((0,), (1,))
        g = poly_gcd(num, den)
        if len(g) > 1:
            num = poly_divide_exact(num, g)
            den = poly_divide_exact(den, g)
        return RationalFunction._scaled(num, den)

    @staticmethod
    def _scaled(num, den) -> "RationalFunction":
        """num/den, coprime over Q, divided by its common content, with ``make``'s sign."""
        c = gcd(poly_content(num), poly_content(den))
        if c > 1:
            num = [x // c for x in num]
            den = [x // c for x in den]
        sign_ref = den[0] if den[0] != 0 else den[-1]
        if sign_ref < 0:
            num = poly_neg(num)
            den = poly_neg(den)
        return RationalFunction(tuple(num), tuple(den))

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return self._sum(other.num, other.den)

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return self._sum(poly_neg(other.num), other.den)

    def _sum(self, c, d) -> "RationalFunction":
        """a/b + c/d with c/d reduced, by Henrici's method (Knuth, TAOCP Vol. 2, 4.5.1).

        With g = gcd(b, d), b' = b/g and d' = d/g, a/b + c/d = t/(b' d) for
        t = a d' + c b'.  t is coprime to b' and to d', so only gcd(t, g) can
        cancel; dividing t and d by it leaves a fraction coprime over Q.  The
        gcds involve only the parts the denominators share, where ``make``
        would take the gcd of the whole product.
        """
        a, b = self.num, self.den
        g = poly_gcd(b, d)
        if len(g) > 1:
            b = poly_divide_exact(b, g)
            t = poly_add(poly_mul(a, poly_divide_exact(d, g)), poly_mul(c, b))
            g = poly_gcd(t, g)
            if len(g) > 1:
                t = poly_divide_exact(t, g)
                d = poly_divide_exact(d, g)
        else:
            t = poly_add(poly_mul(a, d), poly_mul(c, b))
        if not t:
            return RationalFunction((0,), (1,))
        return RationalFunction._scaled(t, poly_mul(b, d))

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction.make(poly_mul(self.num, other.num), poly_mul(self.den, other.den))

    def expand(self, max_degree: int) -> PowerSeries:
        """Taylor coefficients to ``max_degree`` via the linear recurrence."""
        if self.den[0] == 0:
            raise ZeroDivisionError("denominator constant term is zero")
        d0 = self.den[0]
        out = []
        for n in range(max_degree + 1):
            acc = self.num[n] if n < len(self.num) else 0
            for i in range(1, min(n, len(self.den) - 1) + 1):
                acc -= self.den[i] * out[n - i]
            if acc % d0:
                raise NonIntegralCoefficient("expansion has non-integer coefficients")
            out.append(acc // d0)
        return PowerSeries(tuple(out))

    def to_json_dict(self) -> dict:
        return {"num": [str(c) for c in self.num], "den": [str(c) for c in self.den]}


# ---------------------------------------------------------------------------
# totient and counting operators
# ---------------------------------------------------------------------------

def euler_phi(k: int) -> int:
    """Euler totient by trial-division factorization."""
    if k < 1:
        raise ValueError("euler_phi needs k >= 1")
    result = k
    remaining = k
    p = 2
    while p * p <= remaining:
        if remaining % p == 0:
            while remaining % p == 0:
                remaining //= p
            result -= result // p
        p += 1 if p == 2 else 2
    if remaining > 1:
        result -= result // remaining
    return result


def rho(f: PowerSeries) -> PowerSeries:
    """Rotation-class counting transform.

    [z^n] rho(f) = (1/n) * sum_{k | n} phi(k) * [z^{n/k}] f, with the division
    required to be exact (checked by increasing degree).  The input must have
    zero constant term.  One totient sieve gives phi(1..n), and a pass over
    multiples adds phi(k) f_j to the sum at k j: O(n log n) terms.
    """
    if f[0] != 0:
        raise ValueError("rho requires a series with zero constant term")
    n = f.max_degree
    phi = list(range(n + 1))
    for p in range(2, n + 1):
        if phi[p] == p:  # p is prime
            for m in range(p, n + 1, p):
                phi[m] -= phi[m] // p
    totals = [0] * (n + 1)
    for k in range(1, n + 1):
        weight = phi[k]
        for j, c in enumerate(f.coefficients[1:n // k + 1], 1):
            totals[k * j] += weight * c
    out = [0] * (n + 1)
    for m in range(1, n + 1):
        q, r = divmod(totals[m], m)
        if r:
            raise NonIntegralCoefficient(
                f"rho coefficient at degree {m} is {totals[m]}/{m}, not an integer"
            )
        out[m] = q
    return PowerSeries(tuple(out))


def neck(f: PowerSeries) -> PowerSeries:
    """Necklace transform sum_{k,l>=1} (phi(k)/(k*l)) f(z^k)^l, truncated.

    Summed over l first, this is sum_k (phi(k)/k) log 1/(1 - f(z^k)), Polya's
    cycle construction, and it equals ``rho(z f'/(1 - f))``: z f'/(1 - f) is
    z d/dz of log 1/(1 - f), whose coefficient at m is m times that of the
    logarithm, and ``rho`` divides the term for k | n by n/k.  The input must
    have zero constant term.  On any integer series the result is integral:
    the coefficients c_m of z f'/(1 - f) satisfy exp(sum_m c_m z^m / m) =
    1/(1 - f), an integer series, which is equivalent to the Gauss
    congruences that make every coefficient of ``rho`` an integer.  So the
    exactness check inside ``rho`` never fires here.
    """
    if f[0] != 0:
        raise ValueError("neck requires a series with zero constant term")
    inverse = [1]  # 1/(1 - f) by its recurrence
    for m in range(1, f.max_degree + 1):
        inverse.append(sum(f[i] * inverse[m - i] for i in range(1, m + 1)))
    derivative = PowerSeries(tuple(m * c for m, c in enumerate(f.coefficients)))  # z f'
    return rho(derivative * PowerSeries(tuple(inverse)))
