"""Automata for the word languages attached to a right-angled Artin group.

Given a defining graph, this module builds complete DFAs for:

* ``geo_fsa``      -- geodesic words (no shuffle sequence creates a cancelling
                      pair), as an intersection of per-vertex checkers;
* ``shortlex_fsa`` -- shortlex normal forms: geodesics that are also
                      lexicographically least in their shuffle class, cut out
                      by forbidden-factor automata (``lex_threat``) and then
                      by the checkers;
* ``cycsl_fsa``    -- words all of whose rotations are shortlex normal forms;
* ``conjgeo_fsa``  -- conjugacy geodesics = words all of whose rotations are
                      geodesic, built from one cyclic closure per vertex;
* ``lprime_fsa``   -- words with a cancelling generator pair up to rotation
                      and shuffling, used for the inclusion-exclusion route to
                      the conjugacy geodesic growth series.

Each acceptor is one fold from a constant automaton, so the empty graph needs
no branch: ``geo_fsa`` and ``shortlex_fsa`` intersect into X*, and
``conjgeo_fsa`` unions into the empty language.

The cyclically-constrained languages use the identity
``CycL = X* \\ CycPerm(X* \\ L)`` with the cyclic-permutation closure from
``automata.cyc_perm``.  The closure distributes over union, so when L is an
intersection of small automata L_v it can be taken piece by piece:
``X* \\ L = union_v (X* \\ L_v)`` and ``CycPerm`` of that union is the union
of the ``CycPerm(X* \\ L_v)``.  ``conjgeo_fsa`` does this over the five-state
geodesic checkers, which is far cheaper than closing the complement of the
whole geodesic acceptor (hundreds of states).  ``cycsl_fsa`` does not: spread
over the ``lex_threat`` automata as well, the closures and their unions
measured 3-6x slower than one closure of the shortlex complement.
"""

from __future__ import annotations

from operator import and_, or_

from .automata import (
    Dfa,
    _product,
    all_words_dfa,
    complement_lang,
    cyc_perm,
    empty_language_dfa,
    growth_series,
    intersect,
    minimize,
    restricted_growth_series,
    vertex_quotient,
)
from .graphs import GraphError, OrderedAlphabet, SimpleGraph
from .series import RationalFunction


# ---------------------------------------------------------------------------
# geodesic checkers
# ---------------------------------------------------------------------------

def geo_checker(g: SimpleGraph, alphabet: OrderedAlphabet, v: int) -> Dfa:
    """Five-state checker rejecting words where some shuffle cancels an x_v pair.

    States: 0 clean / 1 pending x_v / 2 pending x_v^-1 / 3 blocked by a
    non-commuting letter / 4 reject sink.  Letters of vertices adjacent to v
    keep the pending letter shuffleable; other vertices' letters block it.
    The blocked state is instantiated even when v is adjacent to everything
    (minimization removes it later).
    """
    if not 0 <= v < g.n_vertices:
        raise GraphError(f"unknown vertex index {v}")
    q1, q2, q3, q4, sink = range(5)
    pos, neg = alphabet.vertex_letters(v)
    rows = {q1: {}, q2: {}, q3: {}, q4: {}, sink: {}}
    for x in range(alphabet.size):
        w = alphabet.vertex(x)
        if w == v:
            if x == pos:
                rows[q1][x], rows[q2][x], rows[q3][x], rows[q4][x] = q2, q2, sink, q2
            else:
                rows[q1][x], rows[q2][x], rows[q3][x], rows[q4][x] = q3, sink, q3, q3
        elif g.adjacent(v, w):
            rows[q1][x], rows[q2][x], rows[q3][x], rows[q4][x] = q1, q2, q3, q4
        else:
            rows[q1][x], rows[q2][x], rows[q3][x], rows[q4][x] = q4, q4, q4, q4
        rows[sink][x] = sink
    table = [rows[q][x] for q in range(5) for x in range(alphabet.size)]
    return Dfa(alphabet, 5, table, q1, {q1, q2, q3, q4})


def geo_fsa(g: SimpleGraph) -> Dfa:
    """Geodesic words of the group: all per-vertex checkers intersected into X*."""
    alphabet = g.alphabet()
    result = all_words_dfa(alphabet)
    for v in range(g.n_vertices):
        result = intersect(result, geo_checker(g, alphabet, v))
    return result


# ---------------------------------------------------------------------------
# shortlex normal forms
# ---------------------------------------------------------------------------

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
    idle, threat, dead = range(3)
    table = []
    for q in range(3):
        for x in range(alphabet.size):
            if q == idle:
                table.append(threat if x == b else idle)
            elif q == threat:
                if x == a:
                    table.append(dead)
                elif g.adjacent(alphabet.vertex(x), va):
                    table.append(threat)
                else:
                    table.append(idle)
            else:
                table.append(dead)
    return Dfa(alphabet, 3, table, idle, {idle, threat})


def shortlex_fsa(g: SimpleGraph) -> Dfa:
    """Shortlex normal forms: geodesics minimal in their shuffle class.

    The ``lex_threat`` automata go into X* before the per-vertex checkers:
    on Z^n the threats leave n + 1 states, where ``geo_fsa`` has 3^n.
    """
    alphabet = g.alphabet()
    result = all_words_dfa(alphabet)
    for u, w in sorted(g.edges):
        for a in alphabet.vertex_letters(u):
            for b in alphabet.vertex_letters(w):
                result = intersect(result, lex_threat(g, alphabet, a, b))  # u < w, so a < b
    for v in range(g.n_vertices):
        result = intersect(result, geo_checker(g, alphabet, v))
    return result


# ---------------------------------------------------------------------------
# support constraints
# ---------------------------------------------------------------------------

def support_require(alphabet: OrderedAlphabet, v: int) -> Dfa:
    """Words containing at least one letter of vertex v (two-state automaton)."""
    if not 0 <= 2 * v < alphabet.size:
        raise GraphError(f"unknown vertex index {v}")
    table = []
    for q in range(2):
        for x in range(alphabet.size):
            if q == 0:
                table.append(1 if alphabet.vertex(x) == v else 0)
            else:
                table.append(1)
    return Dfa(alphabet, 2, table, 0, {1})


def support_exact(language: Dfa, alphabet: OrderedAlphabet, subset) -> Dfa:
    """Restrict to words whose support is exactly ``subset``."""
    subset = set(subset)
    result = language
    for v in sorted(subset):
        result = intersect(result, support_require(alphabet, v))
    for v in range(alphabet.size // 2):
        if v not in subset:
            result = intersect(result, complement_lang(support_require(alphabet, v)))
    return result


# ---------------------------------------------------------------------------
# cyclically constrained languages
# ---------------------------------------------------------------------------

def cycsl_fsa(g: SimpleGraph) -> Dfa:
    """Words all of whose cyclic permutations are shortlex normal forms."""
    return complement_lang(cyc_perm(complement_lang(shortlex_fsa(g))))


def conjgeo_fsa(g: SimpleGraph) -> Dfa:
    """Conjugacy geodesic words (= words with every rotation geodesic).

    The geodesics are the intersection of the per-vertex checkers L_v, so a
    word fails to be conjugacy geodesic exactly when some rotation of it is
    rejected by some checker: the non-conjugacy-geodesics are the union over
    v of CycPerm(X* \\ L_v), since the closure distributes over union.  Each
    closure runs on a five-state automaton, then the n results are unioned
    and complemented.  The checkers are not minimal, nor are their flipped
    complements; ``cyc_perm`` minimizes its input.  The union folds reachable
    products into the empty language and minimizes once: every step measured
    already minimal.
    """
    alphabet = g.alphabet()
    rejected = empty_language_dfa(alphabet)
    for v in range(g.n_vertices):
        closed = cyc_perm(complement_lang(geo_checker(g, alphabet, v)))
        rejected = _product(rejected, closed, or_)
    return complement_lang(minimize(rejected))


def cycsl_support_fsa(g: SimpleGraph, subset) -> Dfa:
    """Cyclically-shortlex words with support exactly ``subset``.

    The subset must be nonempty and indecomposable.  The automaton lives over
    the restricted alphabet of the induced subgraph (the languages restrict
    compatibly), which keeps the cyclic closure small.  The pipeline reads
    the same growth function off ``cycsl_support_table`` instead, without
    building this automaton.
    """
    subset = sorted(set(subset))
    if not g.is_indecomposable(subset):
        raise GraphError(f"subset {subset} is empty or decomposable")
    induced = g.induced_subgraph(subset)
    return support_exact(cycsl_fsa(induced), induced.alphabet(), range(len(subset)))


def cycsl_support_table(g: SimpleGraph, vertices) -> dict:
    """``{B: F_B}`` over the nonempty B in ``vertices``, F_B as in :func:`cycsl_support_fsa`.

    G_T counts the cyclically-shortlex words over the letters of T (G_empty =
    1, the empty word).  Cyclic shortlex restricts compatibly to letter
    subsets, so every G_T is read off one cyclic closure of the subgraph on
    ``vertices``, lumped once with one colour per vertex
    (``automata.vertex_quotient``).  Mobius inversion on the subset lattice,
    F_B = sum over T in B of (-1)^|B \\ T| G_T, runs for all B at once as the
    fast subset transform (Yates; Bjorklund, Husfeldt, Kaski and Koivisto,
    STOC 2007): the pass for vertex i subtracts f[mask without i] from f[mask]
    for every mask holding i, k 2^(k-1) subtractions for k vertices.  Keys
    are sorted vertex tuples, decomposable B included (the pipeline skips them).
    """
    vertices = sorted(set(vertices))
    k = len(vertices)
    quotient = vertex_quotient(cycsl_fsa(g.induced_subgraph(vertices)))
    table = [RationalFunction.make([1])] + [
        restricted_growth_series(quotient, [i for i in range(k) if mask >> i & 1])
        for mask in range(1, 1 << k)
    ]
    for i in range(k):
        for mask in range(1 << k):
            if mask >> i & 1:
                table[mask] = table[mask] - table[mask ^ (1 << i)]
    return {tuple(v for i, v in enumerate(vertices) if mask >> i & 1): table[mask]
            for mask in range(1, 1 << k)}


def cycsl_support_series(g: SimpleGraph, subset) -> RationalFunction:
    """Reduced growth function of :func:`cycsl_support_fsa`, read off ``cycsl_support_table``."""
    subset = sorted(set(subset))
    if not g.is_indecomposable(subset):
        raise GraphError(f"subset {subset} is empty or decomposable")
    return cycsl_support_table(g, subset)[tuple(subset)]


# ---------------------------------------------------------------------------
# inclusion-exclusion route to the conjugacy geodesic series
# ---------------------------------------------------------------------------

def lprime_fsa(g: SimpleGraph, v: int) -> Dfa:
    """Words w1 x_v^e w2 x_v^-e w3 with w1, w3 over the neighbors of v.

    These are exactly the words that, after some rotation and shuffling,
    contain a cancelling x_v pair.  Because w1 may only use letters of
    vertices adjacent to v, the opening x_v^e must be the first letter whose
    vertex is not a neighbor of v; symmetrically for the closing letter.
    """
    if not 0 <= v < g.n_vertices:
        raise GraphError(f"unknown vertex index {v}")
    alphabet = g.alphabet()
    nbrs = g.neighbors(v)
    pos, neg = alphabet.vertex_letters(v)
    start, open_pos, closed_pos, open_neg, closed_neg, dead = range(6)
    table = []
    for q in range(6):
        for x in range(alphabet.size):
            w = alphabet.vertex(x)
            if q == start:
                if x == pos:
                    table.append(open_pos)
                elif x == neg:
                    table.append(open_neg)
                elif w in nbrs:
                    table.append(start)
                else:
                    table.append(dead)
            elif q == open_pos:
                table.append(closed_pos if x == neg else open_pos)
            elif q == closed_pos:
                if x == pos:
                    table.append(open_pos)
                elif x == neg or w in nbrs:
                    table.append(closed_pos)
                else:
                    table.append(open_pos)
            elif q == open_neg:
                table.append(closed_neg if x == pos else open_neg)
            elif q == closed_neg:
                if x == neg:
                    table.append(open_neg)
                elif x == pos or w in nbrs:
                    table.append(closed_neg)
                else:
                    table.append(open_neg)
            else:
                table.append(dead)
    return Dfa(alphabet, 6, table, start, {closed_pos, closed_neg})


def conjgeo_series_incl_excl(g: SimpleGraph) -> RationalFunction:
    """Conjugacy geodesic growth series by inclusion-exclusion over vertices.

    Independent of the cyclic-closure route: subtracts, for every vertex
    subset S, the geodesics that carry a shuffle-rotatable cancelling pair at
    each vertex of S, with alternating signs.  The subsets are walked depth
    first in increasing vertex order, so each intersection extends its
    parent's by one automaton: at most 2^n - 1 intersections, and at most
    n + 1 automata alive at once.  The chain only counts and tests for
    emptiness, so each intersection is the reachable product, unminimized:
    ``growth_series`` takes any complete DFA, and a reachable product is
    empty exactly when it has no accepting state.  Such a subtree is cut,
    since every further intersection is empty too.
    """
    lprimes = [minimize(lprime_fsa(g, v)) for v in range(g.n_vertices)]

    def signed_sum(automaton: Dfa, first: int) -> RationalFunction:
        # sum over subsets T of {first, ..., n-1} of (-1)^|T| * growth(automaton & L'_T)
        total = growth_series(automaton)
        if not automaton.accepting:
            return total  # the empty language: every further intersection is empty too
        for v in range(first, g.n_vertices):
            total = total - signed_sum(_product(automaton, lprimes[v], and_), v + 1)
        return total

    return signed_sum(geo_fsa(g), 0)
