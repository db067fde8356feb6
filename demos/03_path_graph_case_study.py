"""Case study: the path graph a-b-c-d.

This group is the smallest right-angled Artin group that is neither a free
product of smaller ones nor a direct product, which makes it the standard
stress test.  The script reproduces its published conjugacy geodesic growth
series by two independent routes, evaluates the conjugacy growth series, and
corrects a transcribed rho-form display for the latter: as transcribed it
cannot be a growth series, while the corrected display agrees with the
engine and with the necklace closed form.
"""

from raaggrowth import (
    SimpleGraph,
    conj_geodesic_series,
    cycsl_support_series,
    enumerate_classes,
    part1_crosscheck,
    spherical_conj_series,
)
from raaggrowth.series import RationalFunction, rho


def poly_product(*factors):
    out = [1]
    for f in factors:
        new = [0] * (len(out) + len(f) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(f):
                new[i + j] += x * y
        out = new
    return out


path4 = SimpleGraph.make(["a", "b", "c", "d"], [["a", "b"], ["b", "c"], ["c", "d"]])

print("1. Conjugacy geodesic growth series, two independent routes")
direct = conj_geodesic_series(path4, "direct")        # cyclic closure of the geodesic acceptor
incl_excl = conj_geodesic_series(path4, "incl-excl")  # alternating sum over cancelling-pair languages
print("   direct == inclusion-exclusion:", direct == incl_excl)
print("   numerator:  ", list(direct.num))
print("   denominator:", list(direct.den))
print("   counts:", list(direct.expand(8).coefficients))
print()

print("2. Conjugacy growth series (classes by minimal length)")
report = spherical_conj_series(path4, 12)
print("   sigma~:", list(report.sigma_tilde.coefficients))
print("   necklace closed form:", list(part1_crosscheck("path4", 12).coefficients))
print("   brute force to degree 6:", enumerate_classes(path4, 6))
print()

print("3. Support-component series feeding the conjugacy growth formula")
for subset in ([0, 2], [0, 2, 3], [0, 1, 2, 3]):
    label = "{" + ",".join(path4.vertices[v] for v in subset) + "}"
    rf = cycsl_support_series(path4, subset)
    print(f"   {label:10s} counts {list(rf.expand(8).coefficients)}")
    print(f"   {'':10s} num={list(rf.num)} den={list(rf.den)}")
print()

print("4. The rho-form display of sigma~, as transcribed, is wrong.")
print("   It reads (1+6z+5z^2)/(1-z)^2 + (3+3z)/(1-z) rho(F{a,c}) + rho(P) with")
print("   P = 8z^3(9-56z+31z^2)/((1+z)(1-z)(1-3z)(1-5z)(1-4z-z^2)).  Expanding P:")
published = RationalFunction.make(
    poly_product([0, 0, 0, 8], [9, -56, 31]),
    poly_product([1, 1], [1, -1], [1, -3], [1, -5], [1, -4, -1]),
)
print("   ", list(published.expand(8).coefficients))
print("   Only 48 words of length 3 even have support {a,c,d}, so 72z^3 cannot")
print("   count a sublanguage.  P equals 3*F{a,c,d} - F{a,b,c,d}:")
rf_ac = cycsl_support_series(path4, [0, 2])
rf_acd = cycsl_support_series(path4, [0, 2, 3])
rf_abd = cycsl_support_series(path4, [0, 1, 3])
rf_abcd = cycsl_support_series(path4, [0, 1, 2, 3])
print("   ", (rf_acd * RationalFunction.make([3]) - rf_abcd) == published)
head = RationalFunction.make([1, 6, 5], poly_product([1, -1], [1, -1])).expand(12)
bogus = (
    head
    + RationalFunction.make([3, 3], [1, -1]).expand(12) * rho(rf_ac.expand(12))
    + rho(published.expand(12))
)
print("   The transcribed display expands to", list(bogus.coefficients))
print("   which goes negative at degree 10 -- impossible for class counts.")
print()
print("   The subset formula gives the factor 3 + 2*2z/(1-z) = (3+z)/(1-z)")
print("   (3 non-adjacent pairs, plus the joins {b}v{a,c} and {c}v{b,d}) and the")
print("   last argument F{a,c,d} + F{a,b,d} + F{a,b,c,d} = 48z^3/((1+z)(1-z)(1-3z)(1-5z)):")
last = RationalFunction.make([0, 0, 0, 48], poly_product([1, 1], [1, -1], [1, -3], [1, -5]))
print("   ", (rf_acd + rf_abd + rf_abcd) == last)
corrected = (
    head
    + RationalFunction.make([3, 1], [1, -1]).expand(12) * rho(rf_ac.expand(12))
    + rho(last.expand(12))
)
print("   The corrected display expands to", list(corrected.coefficients))
print("   equal to the engine:", corrected.coefficients == report.sigma_tilde.coefficients)
print("   equal to the necklace closed form:",
      corrected.coefficients == part1_crosscheck("path4", 12).coefficients)
