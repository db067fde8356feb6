"""Reference series arithmetic: the straightforward forms of library operators.

* ``poly_gcd``: Euclid's algorithm over the rationals.  Remainders are taken
  with ``Fraction`` coefficients; the last nonzero one is cleared of
  denominators, made primitive and given a positive leading coefficient.
* ``poly_divide_exact``: long division over the rationals with ``Fraction``
  coefficients; a nonzero remainder raises ``ValueError`` and a non-integer
  quotient ``NonIntegralCoefficient``.
* ``neck``: the necklace transform as its defining double sum over k and l,
  in exact rational arithmetic.
* ``rho_integral_form``: ``rho`` by integrating sum_k phi(k) f(t^k) / t term
  by term.
* ``rho``: the coefficient formula as a divisor scan, with one trial-division
  ``euler_phi`` per divisor.

The tests compare ``series.poly_gcd``, ``series.poly_divide_exact``,
``series.neck`` and ``series.rho`` against them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from raaggrowth.series import (
    NonIntegralCoefficient,
    PowerSeries,
    euler_phi,
    poly_neg,
    poly_primitive,
    poly_trim,
)


def poly_gcd(a, b):
    """Primitive gcd of integer polynomials, positive leading coefficient."""
    a = poly_trim(a)
    b = poly_trim(b)
    if not a:
        base = b
    elif not b:
        base = a
    else:
        fa = [Fraction(x) for x in a]
        fb = [Fraction(x) for x in b]
        while fb:
            fa = fa[:]
            while len(fa) >= len(fb) and any(fa):
                factor = fa[-1] / fb[-1]
                shift = len(fa) - len(fb)
                for i, c in enumerate(fb):
                    fa[shift + i] -= factor * c
                while fa and fa[-1] == 0:
                    fa.pop()
            fa, fb = fb, fa
        denominator_lcm = 1
        for c in fa:
            denominator_lcm = denominator_lcm * c.denominator // gcd(denominator_lcm, c.denominator)
        base = [int(c * denominator_lcm) for c in fa]
    base = poly_primitive(poly_trim(base))
    if base and base[-1] < 0:
        base = poly_neg(base)
    return base


def poly_divide_exact(a, b):
    """Quotient a/b when b divides a exactly over the rationals."""
    a = [Fraction(x) for x in poly_trim(a)]
    b = poly_trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    out = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b) and any(a):
        factor = a[-1] / b[-1]
        shift = len(a) - len(b)
        out[shift] = factor
        for i, c in enumerate(b):
            a[shift + i] -= factor * c
        while a and a[-1] == 0:
            a.pop()
    if any(a):
        raise ValueError("polynomial division is not exact")
    if any(c.denominator != 1 for c in out):
        raise NonIntegralCoefficient("exact quotient has non-integer coefficients")
    return poly_trim([int(c) for c in out])


def substitute_power(f: PowerSeries, k: int) -> PowerSeries:
    """f(z^k), truncated at f's degree bound."""
    if k < 1:
        raise ValueError("power substitution needs k >= 1")
    n = f.max_degree
    out = [0] * (n + 1)
    for m in range(0, n // k + 1):
        out[k * m] = f[m]
    return PowerSeries(tuple(out))


def neck(f: PowerSeries) -> PowerSeries:
    """Necklace transform sum_{k,l>=1} (phi(k)/(k*l)) f(z^k)^l, truncated.

    The input must have zero constant term, so only k, l up to the truncation
    degree contribute.  Intermediate arithmetic is exact rational; the final
    coefficients must come out integral.
    """
    if f[0] != 0:
        raise ValueError("neck requires a series with zero constant term")
    n = f.max_degree
    total = [Fraction(0)] * (n + 1)
    for k in range(1, n + 1):
        g = substitute_power(f, k)
        weight = Fraction(euler_phi(k), k)
        power = PowerSeries.one(n)
        max_l = n // k if k > 1 else n
        for l in range(1, max_l + 1):
            power = power * g
            w = weight / l
            for i in range(l, n + 1):
                if power[i]:
                    total[i] += w * power[i]
    for i, c in enumerate(total):
        if c.denominator != 1:
            raise NonIntegralCoefficient(
                f"neck coefficient at degree {i} is {c}, not an integer"
            )
    return PowerSeries(tuple(int(c) for c in total))


def rho_integral_form(f: PowerSeries) -> PowerSeries:
    """rho computed by formally integrating sum_k phi(k) f(t^k) / t.

    Follows the defining integral term by term; an independent check of the
    closed coefficient formula of ``series.rho``.
    """
    if f[0] != 0:
        raise ValueError("rho requires a series with zero constant term")
    n = f.max_degree
    integrand = [Fraction(0)] * (n + 1)  # coefficient of t^(m-1) stored at m
    for k in range(1, n + 1):
        g = substitute_power(f, k)
        phi_k = euler_phi(k)
        for m in range(1, n + 1):
            if g[m]:
                integrand[m] += phi_k * g[m]
    out = [Fraction(0)] * (n + 1)
    for m in range(1, n + 1):
        out[m] = integrand[m] / m
    if any(c.denominator != 1 for c in out):
        raise NonIntegralCoefficient("integral form produced non-integer coefficients")
    return PowerSeries(tuple(int(c) for c in out))


def rho(f: PowerSeries) -> PowerSeries:
    """[z^m] rho(f) = (1/m) sum_{k | m} phi(k) [z^{m/k}] f, scanning every k <= m.

    Exactness is checked by increasing degree, so the first non-integral
    coefficient is the one reported.
    """
    if f[0] != 0:
        raise ValueError("rho requires a series with zero constant term")
    n = f.max_degree
    out = [0] * (n + 1)
    for m in range(1, n + 1):
        total = 0
        for k in range(1, m + 1):
            if m % k == 0:
                total += euler_phi(k) * f[m // k]
        q, r = divmod(total, m)
        if r:
            raise NonIntegralCoefficient(
                f"rho coefficient at degree {m} is {total}/{m}, not an integer"
            )
        out[m] = q
    return PowerSeries(tuple(out))
