"""Reference polynomial gcd: Euclid's algorithm over the rationals.

Remainders are taken with ``Fraction`` coefficients; the last nonzero one is
cleared of denominators, made primitive and given a positive leading
coefficient.  The tests compare ``series.poly_gcd`` against it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from raaggrowth.series import poly_neg, poly_primitive, poly_trim


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
