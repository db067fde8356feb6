"""Acceptance suite: every target identity at exact precision.

Each test records a PASS/FAIL line that pytest prints in the terminal
summary.  Expected values fall into three kinds: published closed forms
(checked as exact rational-function or coefficient equalities), values
derived here from independent brute-force computations or from other
closed forms in this module, and trivial identities.

One transcribed display for the path graph a-b-c-d (``PUBLISHED_ACD`` and
the rho expression around it) cannot be a growth series at all; the
path-graph tests assert the corrected closed forms, derived below from the
checked ``Z_STAR_ZN_PUBLISHED[2]`` and ``PUBLISHED_AC``, and keep the
printed display as an executable erratum identity.
"""

from math import comb, prod

import pytest

import naive_oracle
import reference_automata
from conftest import ACCEPTANCE_RESULTS, all_three_vertex_graphs, complete_graph, z_star_zn
from raaggrowth import (
    SimpleGraph,
    conj_geodesic_series,
    count_words,
    cycsl_fsa,
    cycsl_support_series,
    enumerate_classes,
    element_counts,
    geo_fsa,
    geodesic_series,
    growth_series,
    intersect,
    part1_crosscheck,
    shortlex_fsa,
    spherical_conj_series,
    spherical_growth_series,
    conjgeo_fsa,
)
from raaggrowth.languages import cycsl_support_fsa, support_require
from raaggrowth import oracle
from raaggrowth.oracle import cyclically_reduce
from raaggrowth.series import PowerSeries, RationalFunction, euler_phi, neck, rho


def poly_product(*factors):
    out = [1]
    for f in factors:
        new = [0] * (len(out) + len(f) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(f):
                new[i + j] += x * y
        out = new
    return out


def rf(num, den=(1,)):
    return RationalFunction.make(num, den)


ZZ = rf([1, 1], [1, -1])  # (1+z)/(1-z)


class record:
    """Record PASS/FAIL for the terminal acceptance summary."""

    def __init__(self, name):
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        ACCEPTANCE_RESULTS[self.name] = "PASS" if exc_type is None else "FAIL"
        return False


# -- 1. free abelian geodesics --------------------------------------------------

def test_free_abelian_geodesic_series():
    with record("free abelian geodesic series (Z^n, n=1..4)"):
        for n in range(1, 5):
            got = geodesic_series(complete_graph(n))
            want = rf([1])
            for j in range(1, n + 1):
                want = want + rf([0, (-1) ** (n - j) * 2 ** j * comb(n, j) * j], [1, -j])
            assert got == want, n


# -- 2. free abelian conjugacy growth -------------------------------------------

def test_free_abelian_conjugacy_series():
    with record("free abelian conjugacy series (Z^n, n=1..3)"):
        for n in range(1, 4):
            got = spherical_conj_series(complete_graph(n), 12).sigma_tilde
            assert got.coefficients == prod([ZZ] * n, start=rf([1])).expand(12).coefficients, n


# -- 3. free groups / cyclically reduced words ----------------------------------

def rivin_reduced_words(k):
    """Published growth series of the nonempty cyclically reduced words in F_k."""
    return (
        rf([1], [1, -(2 * k - 1)])
        + rf([1], [1, -1])
        + rf([2 * (k - 1)], [1, 0, -1])
        + rf([-2 * k])
    )


def test_free_group_cyclically_reduced_series():
    with record("free groups: cyclically reduced words and conjugacy series (k=2,3)"):
        for k in (2, 3):
            g = SimpleGraph.make([f"g{i}" for i in range(k)], [])
            computed = growth_series(cycsl_fsa(g))
            # the published series counts nonempty words; the language here
            # includes the empty word
            assert computed - rf([1]) == rivin_reduced_words(k), k
            sigma = spherical_conj_series(g, 12).sigma_tilde
            want = PowerSeries.one(12) + rho(rivin_reduced_words(k).expand(12))
            assert sigma.coefficients == want.coefficients, k


# -- 4. free products Z * Z^n ----------------------------------------------------

Z_STAR_ZN_PUBLISHED = {
    1: ([0, 2, 6], poly_product([1, 1], [1, -3])),
    2: ([0, 2, 10, -2, -2], poly_product([1, 1], [1, -1], [1, -4, -1])),
    3: ([0, 2, 16, 12, 8, -6], poly_product([1, 1], [1, -1], [1, -5, -1, -3])),
}


def test_z_star_zn_series():
    with record("Z * Z^n series against published forms (n=1..3)"):
        for n in range(1, 4):
            g = z_star_zn(n)
            published = rf(*Z_STAR_ZN_PUBLISHED[n])
            touching = intersect(cycsl_fsa(g), support_require(g.alphabet(), 0))
            assert growth_series(touching) == published, n
            sigma = spherical_conj_series(g, 12).sigma_tilde
            want = prod([ZZ] * n, start=rf([1])).expand(12) + rho(published.expand(12))
            assert sigma.coefficients == want.coefficients, n
            part1 = part1_crosscheck(f"z-star-z-{n}", 12)
            assert sigma.coefficients == part1.coefficients, n


# -- 5. the path graph a-b-c-d ----------------------------------------------------

@pytest.fixture(scope="module")
def path4_graph():
    return SimpleGraph.make(["a", "b", "c", "d"], [["a", "b"], ["b", "c"], ["c", "d"]])


PUBLISHED_AC = ([0, 0, 8], poly_product([1, 1], [1, -1], [1, -3]))

# The display as transcribed for the {a,c,d} block.  It is not the growth
# series of any language of words with that support: it begins 72z^3, yet
# only 48 words of length 3 have support {a,c,d} at all (3! orders times 2^3
# signs), and fed into rho it gives the "class count" -48260 at degree 10.
# It equals 3*F_acd - F_abcd (checked below), so the display combined the
# blocks with the wrong multiplicity and sign.
PUBLISHED_ACD = (
    poly_product([0, 0, 0, 8], [9, -56, 31]),
    poly_product([1, 1], [1, -1], [1, -3], [1, -5], [1, -4, -1]),
)

# In Z * Z^2 (free vertex first, as a in {a,c,d}) the cyclically-shortlex
# words that touch the free vertex split by support into {a}, two free
# pairs like {a,c} and the full block, so
#   F_acd = Z_STAR_ZN_PUBLISHED[2] - 2z/(1-z) - 2*PUBLISHED_AC
#         = 8z^3(3-z) / ((1+z)(1-z)(1-3z)(1-4z-z^2)).
F_ACD = (
    poly_product([0, 0, 0, 8], [3, -1]),
    poly_product([1, 1], [1, -1], [1, -3], [1, -4, -1]),
)


def test_path_graph_support_ac(path4_graph):
    with record("path graph: support {a,c} series"):
        got = cycsl_support_series(path4_graph, [0, 2])
        assert got == rf(*PUBLISHED_AC)


def test_path_graph_support_acd_published_value(path4_graph):
    with record("path graph: support {a,c,d} series and the erratum of its display"):
        f_acd = rf(*F_ACD)
        derived = rf(*Z_STAR_ZN_PUBLISHED[2]) - rf([0, 2], [1, -1]) - rf([2]) * rf(*PUBLISHED_AC)
        assert f_acd == derived, "F_acd is not Z*Z^2 minus its {a} and free-pair parts"
        got = cycsl_support_series(path4_graph, [0, 2, 3])
        assert got == f_acd, (
            "computed {0} with counts {1}, expected "
            "8z^3(3-z)/((1+z)(1-z)(1-3z)(1-4z-z^2))".format(
                got.to_json_dict(), list(got.expand(6).coefficients))
        )
        f_abcd = cycsl_support_series(path4_graph, [0, 1, 2, 3])
        assert rf(*PUBLISHED_ACD) == rf([3]) * f_acd - f_abcd, (
            "the transcribed {a,c,d} display is no longer 3*F_acd - F_abcd"
        )


def test_path_graph_conj_geodesic_series_both_methods(path4_graph):
    with record("path graph: conjugacy geodesic series, both routes, published p/q"):
        p = [1, -11, 41, -71, 47, 575, -2557, -189, 15796, -21760, 5680, -6576, 6720]
        q = poly_product(
            [1, 1], [1, -1], [1, -2], [1, -3], [1, -4],
            [1, -2, -1, -2], [1, -8, 7, 24, -20],
        )
        published = rf(p, q)
        direct = conj_geodesic_series(path4_graph, "direct")
        incl_excl = conj_geodesic_series(path4_graph, "incl-excl")
        assert direct == incl_excl
        assert direct == published
        assert incl_excl == published


def test_path_graph_sigma_matches_necklace_form(path4_graph):
    with record("path graph: conjugacy series equals necklace closed form"):
        sigma = spherical_conj_series(path4_graph, 12).sigma_tilde
        assert sigma.coefficients == part1_crosscheck("path4", 12).coefficients


# The subset formula in pipeline.py, summed over the nonempty subsets of
# a-b-c-d (L = 2z/(1-z), the series of one vertex):
# * 4 singletons and 3 commuting pairs give 1 + 4L + 3L^2 = (1+6z+5z^2)/(1-z)^2;
# * rho(F_ac) appears for the 3 non-adjacent pairs {a,c}, {a,d}, {b,d} and the
#   joins {b} v {a,c} and {c} v {b,d}: factor 3 + 2L = (3+z)/(1-z);
# * the blocks {a,c,d}, {a,b,d} (both Z * Z^2, so F_abd = F_acd) and {a,b,c,d}
#   (F_abcd = 3*F_acd - PUBLISHED_ACD by the erratum identity) enter through
#   rho(F_acd + F_abd + F_abcd) = rho(5*F_acd - PUBLISHED_ACD); over the
#   common denominator the numerator is 48z^3(1-4z-z^2), so the factor
#   1-4z-z^2 cancels and 5*F_acd - PUBLISHED_ACD = 48z^3/((1+z)(1-z)(1-3z)(1-5z)).
def test_path_graph_published_rho_expression(path4_graph):
    with record("path graph: conjugacy series equals corrected rho expression"):
        last_blocks = rf([0, 0, 0, 48], poly_product([1, 1], [1, -1], [1, -3], [1, -5]))
        assert last_blocks == rf([5]) * rf(*F_ACD) - rf(*PUBLISHED_ACD), (
            "48z^3/((1+z)(1-z)(1-3z)(1-5z)) is not 5*F_acd - PUBLISHED_ACD"
        )
        head = rf([1, 6, 5], poly_product([1, -1], [1, -1])).expand(20)
        factor = rf([3, 1], [1, -1]).expand(20)
        expression = (
            head
            + factor * rho(rf(*PUBLISHED_AC).expand(20))
            + rho(last_blocks.expand(20))
        )
        necklace = part1_crosscheck("path4", 20)
        assert expression.coefficients == necklace.coefficients, (
            "the rho expression (1+6z+5z^2)/(1-z)^2 + (3+z)/(1-z) rho(F_ac) + "
            "rho(48z^3/((1+z)(1-z)(1-3z)(1-5z))) expands to {0}, the necklace "
            "closed form to {1}".format(list(expression.coefficients), list(necklace.coefficients))
        )
        sigma = spherical_conj_series(path4_graph, 12).sigma_tilde
        truncated = PowerSeries(expression.coefficients[:13])
        assert sigma.coefficients == truncated.coefficients, (
            "computed series {0} differs from the rho expression {1}".format(
                list(sigma.coefficients), list(truncated.coefficients)
            )
        )


# -- 6. oracle equivalence ---------------------------------------------------------

def oracle_test_graphs():
    graphs = [
        SimpleGraph.make(["a"], []),
        SimpleGraph.make(["a", "b"], []),
        SimpleGraph.make(["a", "b"], [["a", "b"]]),
    ]
    graphs.extend(all_three_vertex_graphs())
    graphs.append(SimpleGraph.make(["a", "b", "c", "d"], [["a", "b"], ["b", "c"], ["c", "d"]]))
    graphs.append(SimpleGraph.make(["a", "b", "c", "d"], []))
    return graphs


def test_oracle_equivalence():
    with record("oracle equivalence on 13 graphs (classes, elements, membership <= 6)"):
        for g in oracle_test_graphs():
            label = f"{g.vertices}/{sorted(g.edges)}"
            sigma_tilde = spherical_conj_series(g, 6).sigma_tilde
            assert enumerate_classes(g, 6) == list(sigma_tilde.coefficients), label

            sigma = spherical_growth_series(g).expand(6)
            assert element_counts(g, 6) == list(sigma.coefficients), label

            sl = shortlex_fsa(g)
            geo = geo_fsa(g)
            conj = conjgeo_fsa(g)
            size = g.alphabet().size
            blockers = oracle._blockers(g)
            forms = {(): ()}  # every word of the current length -> its normal form
            minlen_cache = {}
            for length in range(7):
                if length:  # extend each shorter word's normal form by one letter
                    longer = {}
                    for word, nf in forms.items():
                        for x in range(size):
                            out = list(nf)
                            oracle._insert(blockers, out, x)
                            longer[word + (x,)] = tuple(out)
                    forms = longer
                for word, nf in forms.items():
                    assert geo.accepts(word) == (len(nf) == length), (label, word)
                    assert sl.accepts(word) == (nf == word), (label, word)
                    minlen = minlen_cache.get(nf)
                    if minlen is None:
                        minlen = minlen_cache[nf] = len(cyclically_reduce(g, nf))
                    assert conj.accepts(word) == (minlen == length), (label, word)


# -- 7. operator suite --------------------------------------------------------------

def test_operator_suite(path4_graph):
    with record("operator suite (rho, neck, totient, rotation/primitive identities)"):
        # rho fixed point on the reduced words of Z
        loops = rf([0, 2], [1, -1]).expand(12)
        assert rho(loops).coefficients == loops.coefficients

        # rho additivity on integer series with cleared denominators
        lcm = 27720  # lcm(1..12)
        f = PowerSeries.from_list([lcm * c for c in [0, 5, -3, 7, 2, -8, 1, 4, -6, 9, 0, 3, -1]])
        g = PowerSeries.from_list([lcm * c for c in [0, -1, 3, 0, 9, -6, 4, 1, -8, 2, 7, -3, 5]])
        assert rho(f + g).coefficients == (rho(f) + rho(g)).coefficients

        # neck(z) = z/(1-z)
        assert neck(PowerSeries.from_list([0, 1] + [0] * 11)).coefficients == (0,) + (1,) * 12

        # totient divisor sums
        for n in range(1, 101):
            assert sum(euler_phi(k) for k in range(1, n + 1) if n % k == 0) == n

        # rotation-representative and primitive-word identities on
        # cyclically-shortlex full-support samples, to length 8
        samples = [
            (SimpleGraph.make(["a", "b"], []), [0, 1]),          # free group
            (path4_graph, [0, 2]),
            (path4_graph, [0, 2, 3]),
        ]
        for g, subset in samples:
            aut = cycsl_support_fsa(g, subset)
            words = set(reference_automata.words_up_to(aut, 8))
            counts = count_words(aut, 8)

            # rho counts one representative per rotation class
            reps = naive_oracle.cycrep_bruteforce(words)
            rep_counts = [0] * 9
            for w in reps:
                rep_counts[len(w)] += 1
            assert tuple(rep_counts) == rho(PowerSeries(tuple(counts))).coefficients, subset

            # every word is uniquely a power of a primitive word:
            # [z^n] F_L = sum over k | n of [z^(n/k)] F_Prim
            prim = naive_oracle.prim_bruteforce(words)
            prim_counts = [0] * 9
            for w in prim:
                prim_counts[len(w)] += 1
            for n in range(1, 9):
                total = sum(prim_counts[n // k] for k in range(1, n + 1) if n % k == 0)
                assert total == counts[n], (subset, n)


# -- 8. free product with Z ----------------------------------------------------------

def test_free_product_with_z():
    with record("free product with Z: conjugacy series splitting (3 base graphs)"):
        degree = 10
        bases = [
            (["a"], []),
            (["a", "b"], [["a", "b"]]),
            (["a", "b", "c"], [["a", "b"], ["b", "c"]]),
        ]
        for labels, edges in bases:
            w = SimpleGraph.make(labels, edges)
            ext = SimpleGraph.make(labels + ["w1"], edges)
            lhs = spherical_conj_series(ext, degree).sigma_tilde
            diff = (
                growth_series(cycsl_fsa(ext)).expand(degree)
                - growth_series(cycsl_fsa(w)).expand(degree)
            )
            rhs = spherical_conj_series(w, degree).sigma_tilde + rho(diff)
            assert lhs.coefficients == rhs.coefficients, labels
