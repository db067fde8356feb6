"""Reference constructions: the straightforward forms of five library routes.

* ``shortlex_fsa``: one three-state automaton per forbidden lex factor
  (``lex_threat``), folded into X* before the per-vertex geodesic checkers.
  The library reads every forbidden factor ending at a vertex off one
  pulled-back model instead, the cyclic checker's table with its live states
  accepting.
* ``conjgeo_fsa``: complement the geodesic acceptor, close that under cyclic
  permutation, and complement again.  The library closes the complement of
  each per-vertex checker instead and unions the results.
* ``cycsl_fsa``: the same closure identity on the reference shortlex
  acceptor.  The library intersects one cyclic checker per vertex instead,
  with no closure.
* ``spherical_conj_series``: the subset sum with every indecomposable block's
  series read off its own automaton, the cyclically-shortlex language of the
  block's induced subgraph intersected with the support constraints
  (``cycsl_support_fsa``).  The library takes the block series by Mobius
  inversion over letter restrictions of one acceptor per maximal block.
* ``cycsl_support_series``: one block's series as a sequential signed sum,
  F_B = sum over T in B of (-1)^|B \\ T| G_T, with every G_T a letter
  restriction of the cyclically-shortlex acceptor of the maximal block
  containing B.  The library certifies one G_T per isomorphism class of T
  and sums F_B once per class of B, each class of subsets with its signed
  count, instead.

The tests compare each pair of constructions.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain

from raaggrowth.automata import (
    Dfa,
    all_words_dfa,
    complement_lang,
    cyc_perm,
    growth_series,
    intersect,
    restricted_growth_series,
    vertex_quotient,
)
from raaggrowth.graphs import GraphError, OrderedAlphabet, SimpleGraph
from raaggrowth import languages
from raaggrowth.languages import cycsl_support_fsa, geo_checker, geo_fsa
from raaggrowth.series import PowerSeries, RationalFunction, rho


def lex_threat(g: SimpleGraph, alphabet: OrderedAlphabet, a: int, b: int) -> Dfa:
    """Avoid the factor b s a with a < b commuting and s commuting with a.

    A word is lexicographically least in its shuffle class exactly when it
    has no factor ``b s a`` where ``a < b``, the vertices of a and b are
    adjacent, and every letter of ``s`` has a vertex adjacent to a's vertex:
    such a factor lets ``a`` shuffle left past everything, producing a smaller
    word.  One three-state automaton per ordered letter pair.
    """
    if not a < b:
        raise ValueError("lex_threat needs a < b")
    va, vb = alphabet.vertex(a), alphabet.vertex(b)
    if va == vb:
        raise ValueError("lex_threat letters must sit on distinct vertices")
    if not g.adjacent(va, vb):
        raise ValueError("lex_threat letters must sit on adjacent vertices")
    return languages._avoid(g, alphabet, b, a)


def shortlex_fsa(g: SimpleGraph) -> Dfa:
    """Shortlex normal forms: geodesics minimal in their shuffle class.

    The ``lex_threat`` automata go into X* before the per-vertex checkers:
    on Z^n the threats leave n + 1 states, where ``geo_fsa`` has 3^n.
    """
    alphabet = g.alphabet()
    threats = (lex_threat(g, alphabet, a, b) for u, w in sorted(g.edges)  # u < w, so a < b
               for a in alphabet.vertex_letters(u) for b in alphabet.vertex_letters(w))
    checkers = (geo_checker(g, alphabet, v) for v in range(g.n_vertices))
    return reduce(intersect, chain(threats, checkers), all_words_dfa(alphabet))


def conjgeo_fsa(g: SimpleGraph) -> Dfa:
    """Conjugacy geodesic words (= words with every rotation geodesic)."""
    return complement_lang(cyc_perm(complement_lang(geo_fsa(g))))


def cycsl_fsa(g: SimpleGraph) -> Dfa:
    """Words all of whose cyclic permutations are shortlex normal forms."""
    return complement_lang(cyc_perm(complement_lang(shortlex_fsa(g))))


def spherical_conj_series(g: SimpleGraph, degree: int):
    """sigma~ truncated at ``degree`` and each block's growth function, one automaton per block."""
    blocks = {}
    total = PowerSeries.one(degree)
    for mask in range(1, 1 << g.n_vertices):
        product = PowerSeries.one(degree)
        for block in g.decompose([v for v in range(g.n_vertices) if mask >> v & 1]):
            if block not in blocks:
                blocks[block] = growth_series(cycsl_support_fsa(g, block))
            product = product * rho(blocks[block].expand(degree))
        total = total + product
    return total, blocks


def cycsl_support_series(g: SimpleGraph, subset, closures=None) -> RationalFunction:
    """Reduced growth function of ``cycsl_support_fsa``, by one signed sum per block.

    F_B = sum over T in B of (-1)^|B \\ T| G_T, where G_T counts the
    cyclically-shortlex words over the letters of T (G_empty = 1), read off
    the acceptor of the maximal block containing B, lumped once with one colour
    per vertex.  ``closures`` maps each maximal block to its quotient and its
    G_T table; a caller sharing one dict across blocks builds each of them once.
    """
    subset = sorted(set(subset))
    if not g.is_indecomposable(subset):
        raise GraphError(f"subset {subset} is empty or decomposable")
    top = next(m for m in g.decompose(range(g.n_vertices)) if subset[0] in m)
    if closures is None:
        closures = {}
    if top not in closures:
        closures[top] = (vertex_quotient(languages.cycsl_fsa(g.induced_subgraph(top))), {})
    quotient, restricted = closures[top]
    local = {v: k for k, v in enumerate(top)}
    rf = RationalFunction.make([0])
    for mask in range(1 << len(subset)):
        part = tuple(v for i, v in enumerate(subset) if mask >> i & 1)
        if part not in restricted:
            restricted[part] = restricted_growth_series(quotient, [local[v] for v in part])
        if (len(subset) - len(part)) % 2:
            rf = rf - restricted[part]
        else:
            rf = rf + restricted[part]
    return rf
