"""The two totient-weighted counting operators, rho and neck.

rho turns the growth series of a language closed under rotation and powers
into the growth series of one representative per rotation class:

    [z^n] rho(f) = (1/n) * sum over k | n of phi(k) * [z^(n/k)] f.

neck counts necklaces of blocks drawn from a language:

    neck(f) = sum over k, l >= 1 of (phi(k)/(k*l)) * f(z^k)^l.

Both demand integer outputs on language input; a non-integer coefficient is
raised as an error because it proves the input series counted no such
language.
"""

from raaggrowth.series import (
    NonIntegralCoefficient,
    PowerSeries,
    RationalFunction,
    euler_phi,
    neck,
    rho,
)

print("Euler totient:", [euler_phi(k) for k in range(1, 16)])
print()

print("Binary necklaces: rho applied to 2z/(1-2z) (all binary strings) gives")
print("the classic necklace counts:")
strings = RationalFunction.make([0, 2], [1, -2]).expand(10)
print("  strings:  ", list(strings.coefficients))
print("  necklaces:", list(rho(strings).coefficients))
print()

print("Fixed point: the nonempty words a^k, a^-k are rotation-invariant, so")
print("rho leaves their series 2z/(1-z) unchanged:")
loops = RationalFunction.make([0, 2], [1, -1]).expand(10)
print("  rho:", list(rho(loops).coefficients))
print()

print("neck(z) counts necklaces over a single bead type: exactly one per length.")
print("  neck(z):", list(neck(PowerSeries.from_list([0, 1] + [0] * 9)).coefficients))
print()

print("Lyndon-flavored sanity check: for the free group F_2 the conjugacy")
print("growth series is 1 + rho(series of nonempty cyclically reduced words):")
reduced = (
    RationalFunction.make([1], [1, -3])
    + RationalFunction.make([1], [1, -1])
    + RationalFunction.make([2], [1, 0, -1])
    + RationalFunction.make([-4])
)
sigma = rho(reduced.expand(10))
print("  ", [1 + c if i == 0 else c for i, c in enumerate(sigma.coefficients)])
print()

print("Integrality is a real constraint: a single word of length 2 is not")
print("rotation-closed, and rho refuses it:")
try:
    rho(PowerSeries.from_list([0, 0, 1]))
except NonIntegralCoefficient as exc:
    print("  NonIntegralCoefficient:", exc)
