"""Automata for the word languages attached to a right-angled Artin group.

Given a defining graph, this module builds complete DFAs for:

* ``geo_fsa``      -- geodesic words (no shuffle sequence creates a cancelling
                      pair), as an intersection of per-vertex checkers;
* ``shortlex_fsa`` -- shortlex normal forms: geodesics that are also
                      lexicographically least in their shuffle class, as an
                      intersection of per-vertex forbidden-factor checkers;
* ``cycsl_fsa``    -- words all of whose rotations are shortlex normal forms,
                      as an intersection of per-vertex cyclic checkers;
* ``conjgeo_fsa``  -- conjugacy geodesics = words all of whose rotations are
                      geodesic, as an intersection of per-vertex cyclic
                      geodesic checkers.

``conjgeo_series_incl_excl`` counts the conjugacy geodesics a second way, by
inclusion-exclusion over the words with a cancelling generator pair up to
rotation and shuffling.

Each language is an intersection of per-vertex conditions, each a
letter-class model (below) pulled back to the vertex, and there are two
folds.  ``_acceptor`` folds the raw pullbacks (``_factors``) into X* with
``automata._fold``, which minimizes, so the empty graph needs no branch and
every builder is canonical.  The standard, geodesic, direct
conjugacy-geodesic and cyclically-shortlex series count ``_divided_fold``
instead, which divides each model once by its sign swap
(``_divided_factors``) and multiplies the pullbacks unminimized; the
inclusion-exclusion chain multiplies divided factors of its own.

Every per-vertex condition rejects forbidden factors f s l, with l a letter
of the vertex and s over the letters commuting with l: f = l^-1 for the
geodesics, and also a letter f > l of a neighbour for the shortlex normal
forms.  The cyclic forms reject those factors also where they wrap around
the end of the word (the lemma in :func:`cycsl_fsa`), so no language takes a
cyclic closure.

Every per-vertex factor reads a letter only by its class: a letter of v, a
letter of a neighbour of v before or after v, or any other letter.  So each
factor is built once, at import, as a model on the model graph ``_CHAIN``,
whose vertices are the classes, and pulled back to every vertex by
``automata._pullback`` under the one class map ``_classes``.  Four of the
six models are the two accept sets of one table (``_cyc_avoid_direct``):
``_SHORTLEX`` and ``_CYC_AVOID`` read it as it is, and ``_GEO`` and
``_CYC_GEO`` read it through the map that sends the neighbours after v to
those before it, where no lex threat is left.  ``_LPRIME`` has a direct
constructor of its own (``_lprime_direct``), which keeps the
inclusion-exclusion route independent of the direct one, and
``_GEO_LPRIME`` intersects it with ``_GEO``.  A pullback of a pullback is
the pullback through the composed map, and the pullback lemma in
``automata`` carries products through the map, so the minimized pullback
is byte for byte the factor a direct construction on the graph itself
builds, and no vertex takes a closure, a product or a union of its own.
"""

from __future__ import annotations

from itertools import chain
from operator import and_

from .automata import (
    Dfa,
    _fold,
    _product,
    _pullback,
    _sign_quotient,
    _signed_growth_series,
    all_words_dfa,
    complement_lang,
    intersect,
    minimize,
    restricted_growth_series,
    union,
    vertex_quotient,
)
from .graphs import GraphError, OrderedAlphabet, SimpleGraph
from .series import RationalFunction


# ---------------------------------------------------------------------------
# the model graph, the class map and the two folds
# ---------------------------------------------------------------------------

_CHAIN = SimpleGraph.make(["s", "v", "b", "f"], [["s", "v"], ["v", "b"]])  # s < v < b, a far vertex f


def _classes(g: SimpleGraph, v: int) -> list:
    """The vertex map onto ``_CHAIN``: v to v, its neighbours below and above v to s and b.

    Every other vertex goes to f.  The letters of a neighbour of v all come
    before those of v or all after them, as in the model.
    """
    near = g.neighbors(v)  # raises GraphError on an unknown vertex
    return [1 if u == v else 3 if u not in near else 0 if u < v else 2 for u in range(g.n_vertices)]


def _factors(g: SimpleGraph, model: Dfa) -> list:
    """The raw pullbacks of ``model`` through ``_classes(g, v)``, one per vertex v, in vertex order."""
    alphabet = g.alphabet()
    return [_pullback(model, alphabet, _classes(g, v)) for v in range(g.n_vertices)]


def _divided_factors(g: SimpleGraph, model: Dfa) -> list:
    """The ``_factors`` of ``model``, each divided by its sign swap x_v -> x_v^-1 and minimized.

    The model is divided once, by ``automata._sign_quotient(model, 1)``:
    ``_classes`` sends v alone to the model vertex 1, and every model reads
    the letters of s, b and f alike, so each pullback of the quotient is v's
    own quotient (the pullback lemma for sign quotients in ``automata``).
    Minimizing keeps the products small: Z^8's inclusion-exclusion chain
    reaches 1,036 product states without it, against 526.
    """
    return [minimize(factor) for factor in _factors(g, _sign_quotient(model, 1))]


def _acceptor(alphabet: OrderedAlphabet, factors) -> Dfa:
    """The intersection of ``factors``, folded into X* by ``automata._fold``, which minimizes."""
    return _fold(all_words_dfa(alphabet), factors, and_)


def _divided_fold(g: SimpleGraph, model: Dfa) -> Dfa:
    """The ``_divided_factors(g, model)`` multiplied into X* in turn, never minimized.

    The quotients go through reachable ``automata._product``s: the fold of
    the divided cyclically-shortlex checkers of co-P8 stays at 864 states.
    The result does not accept the intersection of the ``_factors``, but by
    the product lemma in ``automata`` it counts the same words for every sum
    of vertex colours; it is only counted.
    """
    result = all_words_dfa(g.alphabet())
    for factor in _divided_factors(g, model):
        result = _product(result, factor, and_)
    return result


# ---------------------------------------------------------------------------
# the forbidden-factor table and its four models
# ---------------------------------------------------------------------------

def _cyc_avoid_direct(g: SimpleGraph, v: int) -> Dfa:
    """Words with no factor ``f s l``, l a letter of v, not even wrapped around the end.

    f is l^-1 or a letter b > l on a vertex adjacent to v, and s commutes with
    l.  The table has two accept sets: every live state accepts the words
    with no such factor inside them (the model ``_SHORTLEX``), and the set
    returned also rejects the states where one wraps around the end (the
    model ``_CYC_AVOID``).

    State 4 * first + bits, or dead.  ``first`` is 0 while every letter read
    commutes with v, then 1 + i if the first one that does not is l_i =
    ``vertex_letters(v)[i]``, else 3.  Bit i (a threat on l_i) is set by an f
    for l_i, kept by letters commuting with v and cleared by others; l_i on
    it is dead, and at the end it wraps onto a leading l_i if first = 1 + i.
    """
    alphabet = g.alphabet()
    own = alphabet.vertex_letters(v)
    letters = range(alphabet.size)
    near = [g.adjacent(alphabet.vertex(x), v) for x in letters]
    dead = 16
    table = []
    for first, bits in (divmod(q, 4) for q in range(16)):
        for x in letters:
            i = own.index(x) if x in own else 2  # 2: not a letter of v; no bit 2
            threats = sum(1 << j for j, l in enumerate(own)
                          if x == l ^ 1 or near[x] and (x > l or bits >> j & 1))
            lead = first or (0 if near[x] else 1 + i)
            table.append(dead if bits >> i & 1 else 4 * lead + threats)
    table += [dead] * alphabet.size
    wrapped = {4 * (1 + i) + bits for i in (0, 1) for bits in (1 << i, 3)}
    return Dfa(alphabet, 17, table, 0, set(range(16)) - wrapped)


# The direct table reads a letter only by its class in ``_classes`` (a
# neighbour's letter x > l for the letters l of v exactly when its vertex
# comes after v), so each raw pullback of the model is the direct table.
_CYC_AVOID = _cyc_avoid_direct(_CHAIN, 1)


# Every live state accepting: the forbidden factors inside the word only,
# which leaves 5 states.
_SHORTLEX = minimize(Dfa(_CYC_AVOID.alphabet, 17, _CYC_AVOID.transitions, 0, range(16)))


# Read through the map that sends the neighbour b of v to s, every neighbour
# of v comes before v, so the table meets no lex threat (a letter b > l): it
# rejects only l^-1 s l, inside the word for the geodesic checker (4 states),
# or also wrapped around its end, so that every rotation is geodesic (the
# lemma in ``cycsl_fsa`` with f = l^-1; 11 states).  Both are closed under
# the sign swap and read the two letters of any other vertex alike, so
# ``_divided_factors`` divides them.
_GEO = minimize(_pullback(_SHORTLEX, _CHAIN.alphabet(), [0, 1, 0, 3]))
_CYC_GEO = minimize(_pullback(_CYC_AVOID, _CHAIN.alphabet(), [0, 1, 0, 3]))


# ---------------------------------------------------------------------------
# geodesics and shortlex normal forms
# ---------------------------------------------------------------------------

def geo_fsa(g: SimpleGraph) -> Dfa:
    """Geodesic words of the group: the ``_acceptor`` of the pulled-back checkers ``_GEO``."""
    return _acceptor(g.alphabet(), _factors(g, _GEO))


def shortlex_fsa(g: SimpleGraph) -> Dfa:
    """Shortlex normal forms: the ``_acceptor`` of the pulled-back models ``_SHORTLEX``.

    A word is shortlex exactly when it has no forbidden factor f s l (see
    the lemma in :func:`cycsl_fsa`): l^-1 s l, which a shuffle cancels, or
    b s l with b > l on a vertex adjacent to l's, where l could shuffle left
    past s and b to give a smaller word; s commutes with l.  Each vertex v
    checks the factors that end in a letter of v.
    """
    return _acceptor(g.alphabet(), _factors(g, _SHORTLEX))


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
    """Restrict to words whose support is exactly ``subset``: an ``_acceptor`` from ``language``."""
    subset = set(subset)
    required = (support_require(alphabet, v) for v in sorted(subset))
    excluded = (complement_lang(support_require(alphabet, v))
                for v in range(alphabet.size // 2) if v not in subset)
    return _acceptor(alphabet, chain([language], required, excluded))


# ---------------------------------------------------------------------------
# cyclically constrained languages
# ---------------------------------------------------------------------------

def cycsl_fsa(g: SimpleGraph) -> Dfa:
    """Words all of whose cyclic permutations are shortlex normal forms.

    A word is shortlex exactly when it has no forbidden factor f s l: a lex
    threat b s l with b > l on a vertex adjacent to l's, or a geodesic pair
    l^-1 s l (the model ``_GEO``), s over the letters commuting with l.

    Lemma.  Let w be shortlex.  Some rotation of w is not shortlex exactly
    when a forbidden factor f s l wraps around the end of w.  Then l, on
    vertex v, is the first letter of w whose vertex is not adjacent to v (v
    itself is not adjacent), and w l is not shortlex.  Conversely, take such
    an l with w l not shortlex: w = p l u with p commuting with l, and w ends
    in f s' with s' commuting with l.  Neither f nor s' is l, so f s' ends u,
    and the rotation u p l holds the factor f s' p l.

    So the language is the ``_acceptor`` of the ``_factors`` of the cyclic
    checker ``_CYC_AVOID``, in vertex order.  Its fold minimizes only when it
    has doubled: minimizing every step is wasted work on paths and cycles,
    and never minimizing blows up on dense blocks.  The reverse vertex order
    measured 7-80x slower on co-C8 and co-P8.
    """
    return _acceptor(g.alphabet(), _factors(g, _CYC_AVOID))


def conjgeo_fsa(g: SimpleGraph) -> Dfa:
    """Conjugacy geodesics, whose every rotation is geodesic: the ``_acceptor`` of ``_CYC_GEO``."""
    return _acceptor(g.alphabet(), _factors(g, _CYC_GEO))


def cycsl_support_fsa(g: SimpleGraph, subset) -> Dfa:
    """Cyclically-shortlex words with support exactly ``subset``.

    The subset must be nonempty and indecomposable.  The automaton lives over
    the restricted alphabet of the induced subgraph (the languages restrict
    compatibly), which keeps the acceptor small.  The pipeline reads
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
    subsets, so every G_T is read off one ``_divided_fold`` of the
    cyclic checker ``_CYC_AVOID`` on the subgraph on ``vertices``, lumped once with
    one colour per vertex (``automata.vertex_quotient``): the quotient of the
    fold is that of ``cycsl_fsa`` (lemma in ``automata``).  Mobius inversion
    on the subset lattice gives F_B = sum over T in B of (-1)^|B \\ T| G_T.
    Keys are sorted vertex tuples, decomposable B included (the pipeline
    skips them).

    Lemma (invariance): G_T and F_B depend only on the isomorphism type of
    the subgraph induced on T or B, although cyclic shortlex depends on the
    vertex order.  rho(F_B) counts the conjugacy classes of A_B with support
    exactly B by length: that is the subset sum of the pipeline, since the
    classes of a join are products of classes of its parts.  Those counts
    are an invariant of A_B with its standard generators, which an
    isomorphism of induced subgraphs preserves.  rho is injective on series
    with zero constant term, since [z^n] rho(f) = f_n / n + (terms in the f_j,
    j < n), and F_B has none; so F_B is invariant, and so is G_T = sum over
    B in T of F_B.

    So each vertex mask gets the exact canonical code of its induced
    subgraph (``SimpleGraph._canonical_code``), one G is certified per
    class, and F_B is summed once per class of B, as sum over classes c of
    m_c G_c with the integer multiplicities m_c = sum over T in B of class c
    of (-1)^|B \\ T| from one walk over the submasks of B: one Henrici sum
    (``RationalFunction._sum``) per nonzero m_c on the numerator of G_c
    scaled by m_c.  P8 takes 29 certificates where it has 255 subsets.

    Lemma: F_B = 0 for decomposable B.  Let B be the join of B_1 and B_2,
    and w a word with support B whose rotations are all shortlex.  Around
    the cyclic word, runs of B_1 letters alternate with runs of B_2 letters,
    r_1 s_1 ... r_k s_k with k >= 1.  The rotation that starts with a run is
    shortlex, and the first letter of the next run commutes with the whole
    run, so it could move to the front: the run must begin with a smaller
    letter.  For the first letters a_j of r_j and b_j of s_j that gives
    a_1 < b_1 < a_2 < ... < b_k < a_1, a contradiction.
    """
    vertices = sorted(set(vertices))
    k = len(vertices)
    induced = g.induced_subgraph(vertices)
    quotient = vertex_quotient(_divided_fold(induced, _CYC_AVOID))
    codes = [induced._canonical_code(mask) for mask in range(1 << k)]
    series = {codes[0]: RationalFunction.make([1])}
    for mask in range(1, 1 << k):
        if codes[mask] not in series:
            series[codes[mask]] = restricted_growth_series(quotient, [i for i in range(k) if mask >> i & 1])
    blocks = {}
    for mask in range(1, 1 << k):
        if codes[mask] in blocks:
            continue
        multiplicity = dict.fromkeys(series, 0)
        sub = mask
        while True:
            multiplicity[codes[sub]] += -1 if (mask ^ sub).bit_count() & 1 else 1
            if not sub:
                break
            sub = (sub - 1) & mask
        total = RationalFunction((0,), (1,))
        for code, m in multiplicity.items():
            if m:
                total = total._sum([m * c for c in series[code].num], series[code].den)
        blocks[codes[mask]] = total
    return {tuple(v for i, v in enumerate(vertices) if mask >> i & 1): blocks[codes[mask]]
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

def _bracket(g: SimpleGraph, first: int, last: int) -> Dfa:
    """Words w1 ``first`` w2 ``last`` w3, w1 and w3 over letters commuting with ``first``.

    States: start (reading w1) / open (``first`` read) / closed (``last``
    read, then only neighbors' letters) / dead.  Any letter that cannot
    extend w3 moves the closing ``last`` into w2 and reopens.
    """
    start, opened, closed, dead = range(4)
    alphabet = g.alphabet()
    nbrs = g.neighbors(alphabet.vertex(first))
    letters = range(alphabet.size)
    border = [alphabet.vertex(x) in nbrs for x in letters]
    table = [opened if x == first else start if border[x] else dead for x in letters]
    table += [closed if x == last else opened for x in letters]
    table += [closed if x == last or border[x] else opened for x in letters]
    table += [dead] * alphabet.size
    return Dfa(alphabet, 4, table, start, {closed})


def _lprime_direct(g: SimpleGraph, v: int) -> Dfa:
    """Words w1 x_v^e w2 x_v^-e w3 with w1, w3 over the neighbors of v.

    These are exactly the words that, after some rotation and shuffling,
    contain a cancelling x_v pair.  Because w1 may only use letters of
    vertices adjacent to v, the opening x_v^e must be the first letter whose
    vertex is not a neighbor of v; symmetrically for the closing letter.  The
    minimal union of the two ``_bracket`` automata, one per sign e.
    """
    pos, neg = g.alphabet().vertex_letters(v)
    return union(_bracket(g, pos, neg), _bracket(g, neg, pos))


_LPRIME = _lprime_direct(_CHAIN, 1)
_GEO_LPRIME = intersect(_GEO, _LPRIME)  # L_v & L'_v


def conjgeo_series_incl_excl(g: SimpleGraph) -> RationalFunction:
    """Conjugacy geodesic growth series by inclusion-exclusion over vertices.

    Independent of the cyclic-closure route: subtracts, for every vertex
    subset T, the geodesics that carry a shuffle-rotatable cancelling pair at
    each vertex of T, with alternating signs.  Those words are the
    intersection over v of L_v (the model ``_GEO`` at v) for v outside T and of
    L_v & L'_v (the model ``_GEO_LPRIME``) for v in T, so each vertex has two
    factors, each divided by its sign swap (``_divided_factors``).  The product
    lemma in ``automata`` makes the product of the divided factors count the
    same words; ``geo_fsa`` itself could not be divided, since it reads the
    letters of every vertex.

    The choices are walked depth first in vertex order from X*, so each
    product extends its parent's by one factor: two products per nonempty
    node above the leaves.  The chain only counts and tests for emptiness,
    so each product is the reachable one, unminimized: counting takes any
    complete DFA, and a reachable product is empty exactly when it has no
    accepting state.  An empty one is dropped with its subtree, since every
    further product is empty too; only cliques T are left, since L'_u & L'_w
    is empty for nonadjacent u and w.  The
    signed terms stream into ``automata._signed_growth_series``, which lumps
    each one as it arrives and certifies the whole sum once.  So the chain
    holds at most n + 2 automata at once (X*, the products on the current
    path, the last child and the product being built), besides the 2n
    factors and one lumped quotient per nonempty term.
    """
    # per vertex v: L_v and L_v & L'_v, divided, with the signs +1 and -1
    factors = list(zip(_divided_factors(g, _GEO), _divided_factors(g, _GEO_LPRIME)))

    def terms(automaton: Dfa, sign: int, v: int):
        # (sign * (-1)^|T|, automaton & the factors of v..n-1 that T picks), T in {v, ..., n-1}
        if v == g.n_vertices:
            yield sign, automaton
            return
        for flip, factor in zip((1, -1), factors[v]):
            product = _product(automaton, factor, and_)
            if product.accepting:  # else every further product is empty too
                yield from terms(product, flip * sign, v + 1)

    return _signed_growth_series(terms(all_words_dfa(g.alphabet()), 1, 0))
