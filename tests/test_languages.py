import functools
import itertools

import pytest
from hypothesis import HealthCheck, example, given, settings

import reference_automata
import reference_languages
from conftest import (
    all_three_vertex_graphs, complete_graph, cycle_graph, labelled_graphs, path_graph, small_graphs,
)
from raaggrowth import (
    Dfa,
    SimpleGraph,
    GraphError,
    conjgeo_fsa,
    conjgeo_series_incl_excl,
    complement_lang,
    count_words,
    cyc_perm,
    cycsl_fsa,
    cycsl_support_series,
    equivalent,
    geo_checker,
    geo_fsa,
    growth_series,
    intersect,
    lprime_fsa,
    minimize,
    shortlex_fsa,
    single_word_dfa,
    all_words_dfa,
)
from raaggrowth import automata, languages, oracle
from raaggrowth.languages import cycsl_support_fsa, support_exact, support_require
from raaggrowth.series import InvariantError, RationalFunction


def rf(num, den=(1,)):
    return RationalFunction.make(num, den)


def is_sublanguage(small, big):
    return equivalent(intersect(small, big), small)


# -- geodesic checkers ---------------------------------------------------------

def test_geo_checker_single_vertex(z1):
    d = geo_checker(z1, z1.alphabet(), 0)
    assert not d.accepts((0, 1)) and not d.accepts((1, 0))
    for k in range(1, 5):
        assert d.accepts((0,) * k) and d.accepts((1,) * k)


def test_geo_checker_blocked_shuffle(f2):
    # a b a^-1 over the free group: b blocks the cancellation
    d = geo_checker(f2, f2.alphabet(), 0)
    assert d.accepts((0, 2, 1))
    assert not d.accepts((0, 1))


def test_geo_checker_repeated_inverse(z1):
    # a^-1 a^-1 a contains a cancelling pair and must be rejected
    d = geo_checker(z1, z1.alphabet(), 0)
    assert not d.accepts((1, 1, 0))


@pytest.mark.parametrize("graph_index", range(8))
def test_cancelling_pair_always_rejected(graph_index):
    g = all_three_vertex_graphs()[graph_index]
    d = geo_fsa(g)
    for v in range(3):
        assert not d.accepts((2 * v, 2 * v + 1))
        assert not d.accepts((2 * v + 1, 2 * v))


def test_geo_fsa_z2(z2):
    d = geo_fsa(z2)
    assert d.accepts(())
    assert list(count_words(d, 3)) == [1, 4, 12, 28]
    want = rf([1]) + rf([0, -4], [1, -1]) + rf([0, 8], [1, -2])
    assert growth_series(d) == want


def test_geo_fsa_free_group(f2):
    assert list(count_words(geo_fsa(f2), 3)) == [1, 4, 12, 36]


# -- shortlex ------------------------------------------------------------------

def test_lex_threat_transitions(z2):
    alph = z2.alphabet()
    d = reference_languages.lex_threat(z2, alph, 0, 2)  # a < b, commuting
    assert not d.accepts((2, 0))          # "ba" contains the factor
    assert d.accepts((2, 1, 0))           # a^-1 resets the threat
    assert d.accepts((0, 2))              # "ab" is fine


def test_lex_threat_preconditions(z2, f2):
    alph = z2.alphabet()
    lex_threat = reference_languages.lex_threat
    with pytest.raises(ValueError):
        lex_threat(z2, alph, 2, 0)  # not a < b
    with pytest.raises(ValueError):
        lex_threat(z2, alph, 0, 1)  # same vertex
    with pytest.raises(ValueError):
        lex_threat(f2, f2.alphabet(), 0, 2)  # non-adjacent vertices


def test_shortlex_z(z1):
    d = shortlex_fsa(z1)
    assert growth_series(d) == rf([1, 1], [1, -1])


def test_shortlex_z2_orders_letters(z2):
    d = shortlex_fsa(z2)
    assert d.accepts((0, 2)) and not d.accepts((2, 0))


def test_shortlex_free_group_counts(f2):
    assert list(count_words(shortlex_fsa(f2), 3)) == [1, 4, 12, 36]


def test_shortlex_fsa_keeps_every_intersection_small(monkeypatch):
    # each vertex's factor rejects the lex threats that end at it as well as
    # its cancelling pairs, so no partial fold of Z^8 carries the 3^8 = 6,561
    # states of its geodesic acceptor through a product or a minimization
    real_product, real_minimize = automata._product, automata.minimize
    sizes = []

    def product_spy(a, b, keep):
        result = real_product(a, b, keep)
        sizes.extend((a.n_states, b.n_states, result.n_states))
        return result

    def minimize_spy(dfa):
        sizes.append(dfa.n_states)
        return real_minimize(dfa)

    monkeypatch.setattr(automata, "_product", product_spy)
    for module in (automata, languages):
        monkeypatch.setattr(module, "minimize", minimize_spy)
    shortlex_fsa(complete_graph(8))
    assert sizes and max(sizes) <= 64


_NAMED = {"empty": SimpleGraph.make([], []),
          **{f"P{n}": path_graph(n) for n in range(4, 9)},
          **{f"C{n}": cycle_graph(n) for n in range(5, 9)},
          "co-P8": path_graph(8).complement(), "co-C8": cycle_graph(8).complement(),
          "Z8": complete_graph(8), "F8": complete_graph(8).complement()}


@pytest.mark.parametrize("g", _NAMED.values(), ids=_NAMED.keys())
def test_shortlex_fsa_matches_threat_reference_on_named_graphs(g):
    # one pulled-back model per vertex gives the same minimal automaton as
    # the lex threats of every edge folded in before the geodesic checkers
    assert shortlex_fsa(g).encode() == reference_languages.shortlex_fsa(g).encode()


def test_shortlex_fsa_matches_threat_reference_up_to_four_vertices():
    for g in (g for n in range(5) for g in labelled_graphs([f"v{i}" for i in range(n)])):
        assert shortlex_fsa(g).encode() == reference_languages.shortlex_fsa(g).encode(), sorted(g.edges)


def _graphs_up_to_three_vertices():
    return [SimpleGraph.make([], []), SimpleGraph.make(["a"], [])] + [
        SimpleGraph.make(["a", "b"], edges) for edges in ([], [["a", "b"]])
    ] + all_three_vertex_graphs()


@pytest.mark.parametrize("build", [geo_fsa, shortlex_fsa, cycsl_fsa, conjgeo_fsa],
                         ids=lambda build: build.__name__)
def test_acceptors_are_canonical(build):
    # each acceptor ends in a minimizing step or in flipping the acceptance of
    # one, so it is canonical as returned, the one-vertex graph included
    for g in _graphs_up_to_three_vertices():
        automaton = build(g)
        assert minimize(automaton).encode() == automaton.encode(), g.vertices


def test_constraint_automata_are_canonical():
    # the per-vertex automata end in an intersection or a union, which minimize
    for g in _graphs_up_to_three_vertices():
        alphabet = g.alphabet()
        for v in range(g.n_vertices):
            checker = geo_checker(g, alphabet, v)
            assert checker.n_states == 4, (g.vertices, v)
            for automaton in (checker, lprime_fsa(g, v)):
                assert minimize(automaton).encode() == automaton.encode(), (g.vertices, v)


# -- support -------------------------------------------------------------------

def test_support_require(z2):
    alph = z2.alphabet()
    d = support_require(alph, 0)
    assert not d.accepts((2,))
    assert d.accepts((2, 1))   # contains a^-1
    assert not d.accepts(())


def test_support_exact_empty_set(f2):
    alph = f2.alphabet()
    d = support_exact(all_words_dfa(alph), alph, [])
    assert equivalent(d, single_word_dfa(alph, ()))


def test_support_exact_both_letters(f2):
    alph = f2.alphabet()
    d = support_exact(all_words_dfa(alph), alph, [0, 1])
    assert count_words(d, 2)[2] == 8


def test_cycsl_single_vertex_support(f2):
    d = support_exact(cycsl_fsa(f2), f2.alphabet(), [0])
    assert growth_series(d) == rf([0, 2], [1, -1])


# -- cyclically shortlex -------------------------------------------------------

def test_cycsl_z2_is_single_vertex_powers(z2):
    d = cycsl_fsa(z2)
    assert d.accepts(())
    assert list(count_words(d, 5)) == [1, 4, 4, 4, 4, 4]
    assert d.accepts((0, 0, 0)) and d.accepts((3, 3))
    assert not d.accepts((0, 2))  # mixed support is never cyclically shortlex


def test_cycsl_free_group_counts(f2):
    assert count_words(cycsl_fsa(f2), 2)[2] == 12


def test_cycsl_support_series_pair(path4):
    got = cycsl_support_series(path4, [0, 2])
    want = rf([0, 0, 8], [1, -3, -1, 3])  # 8z^2/((1+z)(1-z)(1-3z))
    assert got == want
    assert got.expand(6).coefficients == (0, 0, 8, 24, 80, 240, 728)


def test_cycsl_support_series_singleton(path4):
    got = cycsl_support_series(path4, [0])
    assert got == rf([0, 2], [1, -1])


def test_cycsl_support_series_rejects_decomposable(path4):
    with pytest.raises(GraphError):
        cycsl_support_series(path4, [0, 1])
    with pytest.raises(GraphError):
        cycsl_support_series(path4, [])


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_graphs(min_vertices=1, max_vertices=6))
@example(SimpleGraph.make(["a"], []))
@example(path_graph(4))
@example(cycle_graph(5))
def test_support_table_matches_sequential_sums(g):
    # the class-wise Mobius sums of one table per maximal block give every
    # indecomposable block's fraction exactly as its own signed sum over the
    # letter restrictions of all its subsets
    closures = {}
    for top in g.decompose(range(g.n_vertices)):
        table = languages.cycsl_support_table(g, top)
        assert len(table) == 2 ** len(top) - 1
        for block, got in table.items():
            if g.is_indecomposable(block):
                want = reference_languages.cycsl_support_series(g, block, closures)
                assert got == want, block
                assert cycsl_support_series(g, block) == want, block


def test_support_table_vanishes_on_decomposable_blocks():
    # the lemma in the cycsl_support_table docstring, on which the pipeline
    # skips the decomposable blocks of every table
    graphs = [g for n in range(1, 5) for g in labelled_graphs([f"v{i}" for i in range(n)])]
    graphs += [path_graph(5), path_graph(6), cycle_graph(5), cycle_graph(6)]
    for g in graphs:
        table = languages.cycsl_support_table(g, range(g.n_vertices))
        for block, got in table.items():
            if not g.is_indecomposable(block):
                assert got == rf([0]), (g.vertices, g.edges, block)


# -- conjugacy geodesics ---------------------------------------------------------

def test_conjgeo_equals_geo_for_abelian():
    for n in (1, 2, 3):
        g = complete_graph(n)
        assert equivalent(conjgeo_fsa(g), geo_fsa(g))


def test_conjgeo_free_group(f2):
    d = conjgeo_fsa(f2)
    assert list(count_words(d, 2)) == [1, 4, 12]
    assert not d.accepts((0, 1))


def test_conjgeo_is_cycle_closed(path4):
    d = conjgeo_fsa(path4)
    assert equivalent(cyc_perm(d), d)


@pytest.mark.parametrize("graph_index", range(8))
def test_inclusions_between_languages(graph_index):
    g = all_three_vertex_graphs()[graph_index]
    geo = geo_fsa(g)
    sl = shortlex_fsa(g)
    cyc = cycsl_fsa(g)
    cg = conjgeo_fsa(g)
    assert is_sublanguage(sl, geo)
    assert is_sublanguage(cyc, sl)
    assert is_sublanguage(cg, geo)


@pytest.mark.parametrize("g", all_three_vertex_graphs() + [path_graph(5), cycle_graph(5)],
                         ids=[str(i) for i in range(8)] + ["P5", "C5"])
def test_incl_excl_matches_direct(g):
    assert conjgeo_series_incl_excl(g) == growth_series(conjgeo_fsa(g))


@pytest.mark.parametrize("g, cliques, products", [(path_graph(5), 10, 42), (cycle_graph(5), 11, 42),
                                                   (path_graph(6), 12, 62), (cycle_graph(6), 13, 62)],
                         ids=["P5", "C5", "P6", "C6"])
def test_incl_excl_prunes_empty_intersections(monkeypatch, g, cliques, products):
    # the nonempty terms are exactly the cliques T of g, the empty one
    # included, each with sign (-1)^|T|.  The chain multiplies, at vertex v,
    # by the divided L_v (v not in T) or L_v & L'_v (v in T), and L'_u & L'_w
    # is empty for nonadjacent u, w: the first letter off the neighbours of u
    # is an x_u, which comes after the first x_w, and the other way round.
    # A node at depth d < n (the choices for vertices 0..d-1) is nonempty
    # here exactly when its T is a clique, and it makes two products, so the
    # chain makes 2 * sum over d < n of the cliques of g[0..d-1]: on P5 and
    # on C5, whose first four vertices induce P4, 2 * (1 + 2 + 4 + 6 + 8) =
    # 42, and on P6 and C6 2 * (21 + 10) = 62.  L_v accepts the empty word
    # and L'_v does not, which tells the spy the factor chosen
    chain = {}  # id of a product -> (the product, its depth, its T)
    terms = []
    product, signed = languages._product, languages._signed_growth_series

    def product_spy(a, b, keep):
        result = product(a, b, keep)
        _, depth, chosen = chain.get(id(a), (a, 0, ()))
        chain[id(result)] = (result, depth + 1, chosen + (() if b.initial in b.accepting else (depth,)))
        return result

    def signed_spy(pairs):
        pairs = list(pairs)
        terms.extend((sign, chain[id(dfa)][2]) for sign, dfa in pairs)
        return signed(pairs)

    monkeypatch.setattr(languages, "_product", product_spy)
    monkeypatch.setattr(languages, "_signed_growth_series", signed_spy)
    conjgeo_series_incl_excl(g)
    want = [((-1) ** k, t) for k in range(g.n_vertices + 1)
            for t in itertools.combinations(range(g.n_vertices), k)
            if all(g.adjacent(u, w) for u, w in itertools.combinations(t, 2))]
    assert sorted(terms) == sorted(want) and len(want) == cliques
    assert len(chain) == products


def test_incl_excl_bounds_z8_product_states(monkeypatch):
    # on Z^8 every vertex is central, so every L_v & L'_v is empty and only
    # the chain of divided L_v has states: 526 over its 16 products, where
    # the undivided chain explored 52,496 pair states in empty products of
    # geo_fsa and L'_v
    g = complete_graph(8)
    want = growth_series(conjgeo_fsa(g))
    states = []
    product = languages._product

    def spy(a, b, keep):
        result = product(a, b, keep)
        states.append(result.n_states)
        return result

    monkeypatch.setattr(languages, "_product", spy)
    assert conjgeo_series_incl_excl(g) == want
    assert sum(states) <= 526


@pytest.mark.parametrize("g", [path_graph(5), cycle_graph(5), path_graph(6), cycle_graph(6)],
                         ids=["P5", "C5", "P6", "C6"])
def test_incl_excl_certifies_once(monkeypatch, g):
    # the chain's signed terms are lumped one by one and their sum is proved
    # by one certificate, with no rational function added or subtracted
    original = automata._certify
    certificates, sums = [], []

    def spy(quotient):
        certificates.append(1)
        return original(quotient)

    def counted(operation):
        def sum_spy(self, other):
            sums.append(1)
            return operation(self, other)
        return sum_spy

    monkeypatch.setattr(automata, "_certify", spy)
    monkeypatch.setattr(RationalFunction, "__add__", counted(RationalFunction.__add__))
    monkeypatch.setattr(RationalFunction, "__sub__", counted(RationalFunction.__sub__))
    conjgeo_series_incl_excl(g)
    assert (len(certificates), len(sums)) == (1, 0)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_graphs(max_vertices=4))
@example(SimpleGraph.make([], []))
@example(SimpleGraph.make(["a"], []))
@example(path_graph(5))
@example(cycle_graph(5))
def test_conjgeo_matches_single_closure_reference(g):
    # one closure per vertex checker gives the same minimal automaton as one
    # closure of the complement of the whole geodesic acceptor
    assert conjgeo_fsa(g).encode() == reference_languages.conjgeo_fsa(g).encode()


# -- cyclically shortlex ---------------------------------------------------------

@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_graphs(min_vertices=1, max_vertices=6))
def test_cycsl_matches_closure_reference(g):
    # the per-vertex cyclic checkers give the same minimal automaton as the
    # cyclic closure of the shortlex complement
    assert cycsl_fsa(g).encode() == reference_languages.cycsl_fsa(g).encode()


@pytest.mark.parametrize("g", _NAMED.values(), ids=_NAMED.keys())
def test_cycsl_matches_closure_reference_on_named_graphs(g):
    assert cycsl_fsa(g).encode() == reference_languages.cycsl_fsa(g).encode()


def test_cycsl_fsa_takes_no_closure(monkeypatch):
    calls = {"cyc_perm": 0, "concat": 0, "minimize": 0}
    for module in (automata, languages):
        for name in calls:
            if hasattr(module, name):
                def spy(*args, _name=name, _original=getattr(module, name)):
                    calls[_name] += 1
                    return _original(*args)

                monkeypatch.setattr(module, name, spy)
    cycsl_fsa(path_graph(5))
    assert calls["cyc_perm"] == calls["concat"] == 0
    assert calls["minimize"] <= 5  # one per vertex; the closure route made 48


# -- L'_v ------------------------------------------------------------------------

def test_lprime_immediate_pair(path4):
    d = lprime_fsa(path4, 1)  # v = b
    pos, neg = path4.alphabet().vertex_letters(1)
    assert d.accepts((pos, neg))
    assert d.accepts((neg, pos))


def test_lprime_prefix_constraint(path4):
    # v = b: a is a neighbor, d is not; an unrelated non-neighbor letter
    # before the opening x_b kills the word
    alph = path4.alphabet()
    b_pos, b_neg = alph.vertex_letters(1)
    d_pos, _ = alph.vertex_letters(3)
    aut = lprime_fsa(path4, 1)
    assert not aut.accepts((d_pos, b_pos, b_neg))
    assert not aut.accepts((b_pos, b_neg, d_pos))  # suffix constraint too


def test_lprime_neighbor_wrapping(path4):
    # a x_b c x_b^-1 a, with a and c neighbors of b
    (a, _), (b, b_inv), (c, _) = (path4.alphabet().vertex_letters(v) for v in range(3))
    word = (a, b, c, b_inv, a)
    assert lprime_fsa(path4, 1).accepts(word)


def test_lprime_brute_force_definition(f2):
    # over the free group, L'_a = words x_a^e w x_a^-e with empty borders
    alph = f2.alphabet()
    aut = lprime_fsa(f2, 0)
    for length in range(5):
        for word in itertools.product(range(4), repeat=length):
            expected = (
                length >= 2
                and word[0] in (0, 1)
                and word[-1] == (word[0] ^ 1)
            )
            assert aut.accepts(word) == expected, word


# -- factor definitions ------------------------------------------------------------
# The paper defines each constraint by factors; these predicates read the
# definitions off a word directly, with no automaton.

def _commuting_span(g, alphabet, word, i, j, v):
    return all(g.adjacent(alphabet.vertex(x), v) for x in word[i:j])


def _has_factor(g, alphabet, word, first, last):
    # a factor first s last with every letter of s commuting with last
    v = alphabet.vertex(last)
    return any(word[i] == first and word[j] == last
               and _commuting_span(g, alphabet, word, i + 1, j, v)
               for i in range(len(word)) for j in range(i + 1, len(word)))


def _in_lprime(g, alphabet, word, v):
    # w1 x_v^e w2 x_v^-e w3 with w1 and w3 over the neighbors of v
    return any(alphabet.vertex(word[i]) == v and word[j] == word[i] ^ 1
               and _commuting_span(g, alphabet, word, 0, i, v)
               and _commuting_span(g, alphabet, word, j + 1, len(word), v)
               for i in range(len(word)) for j in range(i + 1, len(word)))


def _words_up_to(size, length):
    return [w for k in range(length + 1) for w in itertools.product(range(size), repeat=k)]


def _rotation_factor_ends(g, alphabet, word):
    # the pairs (f, l) with a factor f s l in some rotation of word, every
    # letter of s commuting with l: the factors of rotations are the factors
    # of word + word of length at most len(word)
    n, doubled, ends = len(word), word + word, set()
    for j in range(n, 2 * n):
        v = alphabet.vertex(doubled[j])
        for i in range(j - 1, j - n, -1):
            ends.add((doubled[i], doubled[j]))
            if not g.adjacent(alphabet.vertex(doubled[i]), v):
                break
    return ends


def _forbidden(g, alphabet, f, l):
    # shortlex forbids f s l for f = l^-1 (a cancelling pair) and for a lex
    # threat, f > l on a vertex adjacent to l's
    return f == l ^ 1 or f > l and g.adjacent(alphabet.vertex(f), alphabet.vertex(l))


def test_constraint_automata_match_factor_definitions():
    for g in _graphs_up_to_three_vertices():
        alphabet = g.alphabet()
        words = _words_up_to(alphabet.size, 4)
        for v in range(g.n_vertices):
            pos, neg = alphabet.vertex_letters(v)
            checker, lprime = geo_checker(g, alphabet, v), lprime_fsa(g, v)
            for word in words:
                geodesic = not (_has_factor(g, alphabet, word, pos, neg)
                                or _has_factor(g, alphabet, word, neg, pos))
                assert checker.accepts(word) == geodesic, (g.vertices, v, word)
                in_lprime = _in_lprime(g, alphabet, word, v)
                assert lprime.accepts(word) == in_lprime, (g.vertices, v, word)
        for a, b in itertools.combinations(range(alphabet.size), 2):
            if not g.adjacent(alphabet.vertex(a), alphabet.vertex(b)):
                continue
            threat = reference_languages.lex_threat(g, alphabet, a, b)
            for word in words:
                avoids = not _has_factor(g, alphabet, word, b, a)
                assert threat.accepts(word) == avoids, (g.vertices, a, b, word)


def test_cyclic_checkers_match_factor_definitions():
    for g in _graphs_up_to_three_vertices():
        alphabet = g.alphabet()
        words = _words_up_to(alphabet.size, 5)
        ends = {word: [l for f, l in _rotation_factor_ends(g, alphabet, word)
                       if _forbidden(g, alphabet, f, l)] for word in words}
        for v in range(g.n_vertices):
            checker = languages._factors(g, languages._CYC_AVOID)[v]
            for word in words:
                avoids = all(alphabet.vertex(l) != v for l in ends[word])
                assert checker.accepts(word) == avoids, (g.vertices, v, word)


@pytest.mark.parametrize("g", [path_graph(4), cycle_graph(4)], ids=["P4", "C4"])
def test_cycsl_matches_rotation_definition(g):
    words = _words_up_to(g.alphabet().size, 5)
    shortlex = {w for w in words if oracle.normal_form(g, w) == w}
    automaton = cycsl_fsa(g)
    for word in words:
        every = all(word[k:] + word[:k] in shortlex for k in range(len(word)))
        assert automaton.accepts(word) == every, word


@pytest.mark.parametrize("g", [path_graph(4), path_graph(5), cycle_graph(5),
                               path_graph(6), cycle_graph(6)],
                         ids=["P4", "P5", "C5", "P6", "C6"])
def test_conjgeo_routes_share_no_automaton(g):
    # the incl-excl route is an independent check on the cyclic-closure route
    # only while its L'_v is not the closed checker complement under another name
    alphabet = g.alphabet()
    for v in range(g.n_vertices):
        closed = cyc_perm(complement_lang(geo_checker(g, alphabet, v)))
        assert closed.encode() != minimize(lprime_fsa(g, v)).encode(), v


# -- letter-class models ------------------------------------------------------------

def test_per_vertex_factors_equal_their_direct_constructions():
    # each per-vertex factor is its model pulled back through the vertex's
    # class map; the direct constructors on g itself must build the same
    # automaton byte for byte, the raw 17-state cyclic checker included, and
    # the shortlex factor is the checker with the lex threats that end at v
    graphs = [g for n in range(5) for g in labelled_graphs([f"v{i}" for i in range(n)])]
    for g in graphs + [path_graph(5), cycle_graph(5), path_graph(6), cycle_graph(6)]:
        alphabet = g.alphabet()
        closed = languages._factors(g, languages._CYC_GEO)
        cyclic = languages._factors(g, languages._CYC_AVOID)
        geo_lprime = languages._factors(g, languages._GEO_LPRIME)
        shortlex = languages._factors(g, languages._SHORTLEX)
        for v in range(g.n_vertices):
            checker = languages._geo_checker_direct(g, alphabet, v)
            lprime = languages._lprime_direct(g, alphabet, v)
            threats = [reference_languages.lex_threat(g, alphabet, a, b)
                       for w in g.neighbors(v) if w > v
                       for a in alphabet.vertex_letters(v) for b in alphabet.vertex_letters(w)]
            for got, want in [
                (geo_checker(g, alphabet, v), checker),
                (lprime_fsa(g, v), lprime),
                (minimize(closed[v]), complement_lang(cyc_perm(complement_lang(checker)))),
                (cyclic[v], languages._cyc_avoid_direct(g, alphabet, v)),
                (minimize(geo_lprime[v]), intersect(checker, lprime)),
                (minimize(shortlex[v]), functools.reduce(intersect, threats, checker)),
            ]:
                assert got.encode() == want.encode(), (g.vertices, sorted(g.edges), v)


def test_letter_class_models_stay_tiny():
    # the six models are all the per-vertex work done at import: the
    # checker, its closed complement, L'_v, their intersection, the cyclic
    # checker and its unwrapped accept set, all on the 4-vertex model graph
    models = [languages._GEO, languages._CYC_GEO, languages._LPRIME, languages._GEO_LPRIME,
              languages._CYC_AVOID, languages._SHORTLEX]
    assert [m.n_states for m in models] == [4, 11, 6, 8, 17, 5]
    assert [m.alphabet.size for m in models] == [8] * 6


# -- sign quotients ---------------------------------------------------------------

def test_sign_quotient_keeps_every_count_of_the_route_factors():
    # every per-vertex factor the series routes divide: the geodesic checker
    # (geodesic and incl-excl), its closed complement (direct), the cyclic
    # checker (conjugacy growth) and the checker & L'_v (incl-excl)
    graphs = [g for n in range(5) for g in labelled_graphs([f"v{i}" for i in range(n)])]
    for g in graphs + [path_graph(5), cycle_graph(5)]:
        alphabet, n = g.alphabet(), g.n_vertices
        cyclic = languages._factors(g, languages._CYC_AVOID)
        for v in range(n):
            checker = geo_checker(g, alphabet, v)
            for factor in (checker, cyc_perm(complement_lang(checker)),
                           cyclic[v], intersect(checker, lprime_fsa(g, v))):
                divided = automata._sign_quotient(factor, v)
                assert growth_series(divided) == growth_series(factor), (g.edges, v)
                got, want = automata.vertex_quotient(divided), automata.vertex_quotient(factor)
                for mask in range(1 << n):
                    subset = [u for u in range(n) if mask >> u & 1]
                    assert (automata.restricted_growth_series(got, subset)
                            == automata.restricted_growth_series(want, subset)), (g.edges, v, subset)


def test_divided_model_pullbacks_keep_every_count_of_the_raw_pullbacks():
    # the pullback lemma for sign quotients: dividing each model once, at its
    # vertex 1, and minimizing each vertex's pullback of the quotient counts
    # what the raw pullback counts, on the letters of every vertex subset
    models = [languages._GEO, languages._CYC_GEO, languages._GEO_LPRIME, languages._CYC_AVOID]
    quotients = [automata._sign_quotient(model, 1) for model in models]
    graphs = [g for n in range(5) for g in labelled_graphs([f"v{i}" for i in range(n)])]
    for g in graphs + [path_graph(5), cycle_graph(5)]:
        alphabet, n = g.alphabet(), g.n_vertices
        for v in range(n):
            classes = languages._classes(g, v)
            for model, quotient in zip(models, quotients):
                divided = minimize(automata._pullback(quotient, alphabet, classes))
                got = automata.vertex_quotient(divided)
                want = automata.vertex_quotient(automata._pullback(model, alphabet, classes))
                for mask in range(1 << n):
                    subset = [u for u in range(n) if mask >> u & 1]
                    assert (automata.restricted_growth_series(got, subset)
                            == automata.restricted_growth_series(want, subset)), (g.edges, v, subset)


@pytest.mark.parametrize("model, build", [
    (languages._GEO, geo_fsa), (languages._CYC_GEO, conjgeo_fsa), (languages._CYC_AVOID, cycsl_fsa),
], ids=["geodesic", "conjugacy-geodesic", "cyclically-shortlex"])
def test_divided_fold_counts_its_acceptor_for_every_letter_restriction(model, build):
    # the counted fold accepts another language than the builder's acceptor,
    # with the same growth series on the letters of every vertex subset
    graphs = [g for n in range(5) for g in labelled_graphs([f"v{i}" for i in range(n)])]
    for g in graphs + [path_graph(5), cycle_graph(5)]:
        n = g.n_vertices
        got = automata.vertex_quotient(languages._divided_fold(g, model))
        want = automata.vertex_quotient(build(g))
        for mask in range(1 << n):
            subset = [u for u in range(n) if mask >> u & 1]
            assert (automata.restricted_growth_series(got, subset)
                    == automata.restricted_growth_series(want, subset)), (g.edges, subset)


def test_sign_quotient_refuses_what_the_product_lemma_excludes():
    alphabet = SimpleGraph.make(["a"], []).alphabet()
    # a language the swap does not fix
    with pytest.raises(InvariantError):
        automata._sign_quotient(single_word_dfa(alphabet, (0,)), 0)
    # the empty language, on states the swap does not permute
    with pytest.raises(InvariantError, match="automorphism"):
        automata._sign_quotient(Dfa(alphabet, 2, [1, 0, 1, 1], 0, []), 0)
    # the words that begin with x_a: the swap permutes the two sinks, and
    # only acceptance tells them apart
    with pytest.raises(InvariantError, match="acceptance"):
        automata._sign_quotient(Dfa(alphabet, 3, [1, 2, 1, 1, 2, 2], 0, [1]), 0)
    # geo_fsa is closed under every sign swap, but reads the letters of
    # every vertex: dividing it by one vertex's swap breaks the product lemma
    p3 = path_graph(3)
    for v in range(3):
        with pytest.raises(InvariantError, match="other than"):
            automata._sign_quotient(geo_fsa(p3), v)


# -- restriction property ---------------------------------------------------------

@pytest.mark.parametrize("graph_index", range(8))
def test_cycsl_restricts_to_subgraphs(graph_index):
    # support-U cyclically shortlex words computed in the ambient group agree
    # with the same language computed in the subgroup generated by U
    g = all_three_vertex_graphs()[graph_index]
    alph = g.alphabet()
    ambient = cycsl_fsa(g)
    for mask in range(1, 8):
        subset = [v for v in range(3) if mask >> v & 1]
        ambient_u = support_exact(ambient, alph, subset)
        induced = g.induced_subgraph(subset)
        local = support_exact(cycsl_fsa(induced), induced.alphabet(), range(len(subset)))
        letter_map = {}
        for k, v in enumerate(subset):
            pos, neg = alph.vertex_letters(v)
            letter_map[pos] = 2 * k
            letter_map[neg] = 2 * k + 1
        embedded = reference_automata.map_letters(local, alph, letter_map)
        assert equivalent(ambient_u, embedded), subset


def test_cycsl_support_closed_under_powers_and_rotation(path4):
    # indecomposable supports: the full-support language is rotation- and
    # power-closed
    for subset in ([0], [0, 2], [0, 2, 3]):
        aut = cycsl_support_fsa(path4, subset)
        assert equivalent(cyc_perm(aut), aut)
        for word in reference_automata.words_up_to(aut, 4):
            if not word:
                continue
            for k in (2, 3):
                assert aut.accepts(word * k), (subset, word, k)
