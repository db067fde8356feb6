import itertools
from math import prod
from operator import and_, or_

import pytest
from hypothesis import example, given, settings, strategies as st

import reference_automata
from conftest import cycle_graph, path_graph
from raaggrowth import automata
from raaggrowth import (
    AlphabetMismatch,
    Dfa,
    OrderedAlphabet,
    SimpleGraph,
    all_words_dfa,
    complement_lang,
    concat,
    conjgeo_fsa,
    count_words,
    cyc_perm,
    cycsl_fsa,
    empty_language_dfa,
    equivalent,
    geo_fsa,
    growth_series,
    intersect,
    minimize,
    shortlex_fsa,
    single_word_dfa,
    union,
)
from raaggrowth.languages import support_require
from raaggrowth.series import RationalFunction


AB = OrderedAlphabet(("a", "b"))  # 4 letters
A1 = OrderedAlphabet(("a",))      # 2 letters


@st.composite
def random_dfas(draw, alphabet=AB, max_states=6, random_initial=False):
    n = draw(st.integers(min_value=1, max_value=max_states))
    table = [draw(st.integers(0, n - 1)) for _ in range(n * alphabet.size)]
    accepting = [q for q in range(n) if draw(st.booleans())]
    initial = draw(st.integers(0, n - 1)) if random_initial else 0
    return Dfa(alphabet, n, table, initial, accepting)


def brute_counts(dfa, max_len):
    counts = []
    for length in range(max_len + 1):
        total = 0
        for word in itertools.product(range(dfa.alphabet.size), repeat=length):
            total += dfa.accepts(word)
        counts.append(total)
    return counts


# -- basic constructions -----------------------------------------------------

def test_all_words_counts():
    assert list(count_words(all_words_dfa(AB), 4)) == [1, 4, 16, 64, 256]


def test_epsilon_and_empty():
    assert list(count_words(single_word_dfa(AB, ()), 3)) == [1, 0, 0, 0]
    assert list(count_words(empty_language_dfa(AB), 3)) == [0, 0, 0, 0]


@pytest.mark.parametrize("n_states, table, initial, accepting, message", [
    (2, [0, 1, 1], 0, {0}, "transition table size does not match state count"),
    (2, [0, 1, 1, 0], 2, {0}, "initial state out of range"),
    (2, [0, 1, 2, 0], 0, {0}, "transition target out of range"),
    (2, [0, 1, -1, 0], 0, {0}, "transition target out of range"),
    (2, [0, 1, 1, 0], 0, {2}, "accepting state out of range"),
    (2, [0, 1, 1, 0], 0, {-1}, "accepting state out of range"),
    (0, [], 0, set(), "at least its initial state"),  # no state to start in or to accept
    (2, [0, 1, 1, 0], 0.5, {0}, "states must be ints"),
    (2, [0, 1.0, 1, 0], 0, {0}, "states must be ints"),
    (2, [0, 1, 1, 0], 0, {1.0}, "states must be ints"),
    (2, [0, True, 1, 0], 0, {0}, "states must be ints"),  # bool is an int subclass
])
def test_dfa_rejects_malformed_table(n_states, table, initial, accepting, message):
    with pytest.raises(ValueError, match=message):
        Dfa(A1, n_states, table, initial, accepting)


def test_single_word():
    d = single_word_dfa(AB, (0, 3))
    assert d.accepts((0, 3))
    assert not d.accepts((3, 0)) and not d.accepts(()) and not d.accepts((0, 3, 0))


# -- boolean operations -------------------------------------------------------

def test_intersect_with_all_words_is_identity():
    d = single_word_dfa(AB, (1, 2))
    assert equivalent(intersect(d, all_words_dfa(AB)), d)


def test_complement_involution():
    d = single_word_dfa(AB, (0,))
    assert equivalent(complement_lang(complement_lang(d)), d)


def test_support_intersection_count():
    # words over {a,a^-1,b,b^-1} containing both an a-letter and a b-letter
    d = intersect(support_require(AB, 0), support_require(AB, 1))
    assert count_words(d, 2)[2] == 8
    assert brute_counts(d, 2) == [0, 0, 8]


def test_alphabet_mismatch_raises():
    with pytest.raises(AlphabetMismatch):
        intersect(all_words_dfa(AB), all_words_dfa(A1))


@settings(max_examples=60, deadline=None)
@given(random_dfas(), random_dfas())
def test_de_morgan(a, b):
    lhs = complement_lang(union(a, b))
    rhs = intersect(complement_lang(a), complement_lang(b))
    assert equivalent(lhs, rhs)


@settings(max_examples=60, deadline=None)
@given(random_dfas())
def test_operation_counts_match_enumeration(d):
    other = complement_lang(d)
    for result in (d, other, intersect(d, other), union(d, other)):
        assert list(count_words(result, 5)) == brute_counts(result, 5)


@st.composite
def dfas_with_sinks(draw, alphabet=AB, max_states=4):
    """Random DFAs whose last two states are an accepting and a rejecting sink."""
    n = draw(st.integers(min_value=1, max_value=max_states)) + 2
    size = alphabet.size
    table = [draw(st.integers(0, n - 1)) for _ in range((n - 2) * size)]
    table += [n - 2] * size + [n - 1] * size
    accepting = [q for q in range(n - 2) if draw(st.booleans())] + [n - 2]
    return Dfa(alphabet, n, table, draw(st.integers(0, n - 1)), accepting)


@settings(max_examples=60, deadline=None)
@given(dfas_with_sinks(), dfas_with_sinks())
def test_collapsed_product_keeps_the_language(a, b):
    # pairs holding a rejecting sink under and_, or an accepting one under
    # or_, collapse to one constant state; every other pair stays
    words = [w for length in range(7) for w in itertools.product(range(AB.size), repeat=length)]
    for keep in (and_, or_):
        product = minimize(automata._product(a, b, keep))
        assert all(product.accepts(w) == keep(a.accepts(w), b.accepts(w)) for w in words)


@settings(max_examples=60, deadline=None)
@given(random_dfas(random_initial=True))
def test_complement_of_minimal_is_canonical(d):
    # the pipeline complements minimal automata without minimizing again
    flipped = Dfa(d.alphabet, d.n_states, d.transitions, d.initial,
                  set(range(d.n_states)) - d.accepting)
    assert complement_lang(minimize(d)).encode() == minimize(flipped).encode()


# -- concatenation ------------------------------------------------------------

def test_concat_epsilon_identity():
    d = single_word_dfa(AB, (2, 1))
    assert equivalent(concat(d, single_word_dfa(AB, ())), d)
    assert equivalent(concat(single_word_dfa(AB, ()), d), d)


def test_concat_two_letters():
    xy = concat(single_word_dfa(AB, (0,)), single_word_dfa(AB, (1,)))
    assert equivalent(xy, single_word_dfa(AB, (0, 1)))


def test_concat_counts_convolution_on_prefix_code():
    # {a, ba} is a prefix code: concatenation counts are the convolution
    left = union(single_word_dfa(AB, (0,)), single_word_dfa(AB, (2, 0)))
    right = union(single_word_dfa(AB, (1,)), single_word_dfa(AB, (3, 3)))
    product = concat(left, right)
    lc = list(count_words(left, 6))
    rc = list(count_words(right, 6))
    expected = [sum(lc[i] * rc[n - i] for i in range(n + 1)) for n in range(7)]
    assert list(count_words(product, 6)) == expected
    assert brute_counts(product, 5) == expected[:6]


def dfa_pairs(alphabet):
    operand = random_dfas(alphabet, max_states=8, random_initial=True)
    return st.tuples(operand, operand)


@st.composite
def with_dead_and_unreachable_states(draw, alphabet):
    """A DFA with appended dead states, some moves redirected to them, and
    appended states that nothing moves to, accepting ones among them."""
    core = draw(random_dfas(alphabet, max_states=5, random_initial=True))
    n, size = core.n_states, alphabet.size
    dead = draw(st.integers(1, 3))
    unreachable = draw(st.integers(1, 3))
    total = n + dead + unreachable
    table = [t if draw(st.integers(0, 3)) else draw(st.integers(n, n + dead - 1))
             for t in core.transitions]
    table += [draw(st.integers(n, n + dead - 1)) for _ in range(dead * size)]
    table += [draw(st.integers(0, total - 1)) for _ in range(unreachable * size)]
    accepting = set(core.accepting)
    accepting |= {q for q in range(n + dead, total) if draw(st.booleans())}
    return Dfa(alphabet, total, table, core.initial, accepting)


def concat_operands(alphabet):
    # concat keeps only the right operand's states that reach its accept set,
    # so the second source gives it states that it must drop without changing
    # the language
    waste = st.tuples(random_dfas(alphabet, max_states=6, random_initial=True),
                      with_dead_and_unreachable_states(alphabet))
    return st.one_of(dfa_pairs(alphabet), waste)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([AB, A1]).flatmap(concat_operands))
# the left operand accepts the empty word, so the start state already holds b's initial state
@example((Dfa(A1, 2, (1, 0, 0, 1), 0, {0}), Dfa(A1, 2, (1, 1, 0, 0), 1, {0})))
# an empty operand makes the concatenation empty
@example((empty_language_dfa(AB), all_words_dfa(AB)))
@example((all_words_dfa(AB), empty_language_dfa(AB)))
# the right operand accepts only the empty word
@example((single_word_dfa(A1, (0, 1)), single_word_dfa(A1, ())))
# the right initial state reaches an accepting state but is not reached from
# one; state 2 is dead and state 3 unreachable
@example((all_words_dfa(A1), Dfa(A1, 4, (1, 2, 1, 1, 2, 2, 2, 1), 0, {1, 3})))
def test_concat_matches_reference(pair):
    a, b = pair
    assert concat(a, b).encode() == reference_automata.concat(a, b).encode()


# -- cyclic permutation closure ----------------------------------------------

def test_cyc_perm_of_single_word():
    d = cyc_perm(single_word_dfa(AB, (0, 1)))
    expected = union(single_word_dfa(AB, (0, 1)), single_word_dfa(AB, (1, 0)))
    assert equivalent(d, expected)


def test_cyc_perm_idempotent():
    d = union(single_word_dfa(AB, (0, 1, 2)), single_word_dfa(AB, (3,)))
    once = cyc_perm(d)
    assert equivalent(once, cyc_perm(once))


def test_cyc_perm_contains_original():
    d = union(single_word_dfa(AB, (0, 0, 1)), single_word_dfa(AB, ()))
    closed = cyc_perm(d)
    for word in reference_automata.words_up_to(d, 4):
        assert closed.accepts(word)


def test_cyc_perm_matches_brute_force():
    base = union(single_word_dfa(AB, (0, 1)), single_word_dfa(AB, (2, 2, 1)))
    closed = cyc_perm(base)
    words = set(reference_automata.words_up_to(base, 5))
    rotations = {w[k:] + w[:k] for w in words for k in range(max(len(w), 1))}
    for word in itertools.chain.from_iterable(
        itertools.product(range(4), repeat=n) for n in range(5)
    ):
        assert closed.accepts(word) == (word in rotations)


def test_cyc_perm_fixes_conjugacy_geodesics():
    g = SimpleGraph.make(["a", "b", "c"], [["a", "b"]])
    d = conjgeo_fsa(g)
    assert equivalent(cyc_perm(d), d)


# the closure of a random automaton can be exponentially larger (one with 4
# states over four letters reached 129,955), so the operands stay small
@settings(max_examples=200, deadline=None)
@given(st.sampled_from([(AB, 3), (A1, 5)]).flatmap(
    lambda case: random_dfas(case[0], max_states=case[1], random_initial=True)))
# the fold of each of these ends on a product that is not minimal, so the
# closure is canonical only after the last minimize
@example(Dfa(AB, 2, (0, 1, 0, 0, 0, 0, 0, 1), 1, {0}))
@example(complement_lang(shortlex_fsa(SimpleGraph.make(["a", "b"], [["a", "b"]]))))
@example(complement_lang(shortlex_fsa(path_graph(3))))
def test_cyc_perm_matches_reference(d):
    assert cyc_perm(d).encode() == reference_automata.cyc_perm(d).encode()


def test_cyc_perm_minimizes_little(monkeypatch):
    # the fold re-minimizes only when it has doubled, and the re-rooted
    # Prefixes(a, q) go to concat unminimized: 1,043 states reach minimize on
    # P5, 1,642 when each of them is minimized first, and 4,232 when every
    # union step is minimized as well
    language = complement_lang(shortlex_fsa(path_graph(5)))
    original = automata.minimize
    sizes = []

    def spy(dfa):
        sizes.append(dfa.n_states)
        return original(dfa)

    monkeypatch.setattr(automata, "minimize", spy)
    cyc_perm(language)
    assert sizes and sum(sizes) <= 1200


# -- counting and growth series ----------------------------------------------

def test_count_words_shortlex_z():
    g = SimpleGraph.make(["a"], [])
    assert list(count_words(shortlex_fsa(g), 6)) == [1, 2, 2, 2, 2, 2, 2]


def test_count_words_geodesics_z2():
    g = SimpleGraph.make(["a", "b"], [["a", "b"]])
    assert list(count_words(geo_fsa(g), 2)) == [1, 4, 12]


def test_growth_series_all_words():
    for alphabet in (A1, AB):
        rf = growth_series(all_words_dfa(alphabet))
        assert rf == RationalFunction.make([1], [1, -alphabet.size])


def test_growth_series_empty_and_epsilon():
    assert growth_series(empty_language_dfa(AB)) == RationalFunction.make([0])
    assert growth_series(single_word_dfa(AB, ())) == RationalFunction.make([1])


def test_growth_series_finite_language():
    d = union(single_word_dfa(AB, (0, 1)), single_word_dfa(AB, (2,)))
    assert growth_series(d) == RationalFunction.make([0, 1, 1])


def test_growth_series_of_zn_shortlex():
    zz = RationalFunction.make([1, 1], [1, -1])
    for n in range(1, 4):
        labels = [f"v{i}" for i in range(n)]
        g = SimpleGraph.make(
            labels, [[labels[i], labels[j]] for i in range(n) for j in range(i + 1, n)]
        )
        assert growth_series(shortlex_fsa(g)) == prod([zz] * n, start=RationalFunction.make([1]))


# count_words is the expansion of growth_series, so both are checked against
# the count DP of the reference on the whole automaton

@settings(max_examples=40, deadline=None)
@given(random_dfas())
def test_growth_series_expansion_matches_counts(d):
    rf = growth_series(d)
    assert rf.expand(20).coefficients == reference_automata.count_words(d, 20)


@settings(max_examples=60, deadline=None)
@given(random_dfas(max_states=8))
def test_transfer_matrix_series_matches_counts(d):
    # 40 terms: far past the m <= n counts of the quotient that the numerator reads
    assert growth_series(d).expand(40).coefficients == reference_automata.count_words(d, 40)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([AB, A1]).flatmap(
    lambda alphabet: st.one_of(random_dfas(alphabet, max_states=8),
                               random_dfas(alphabet, max_states=8, random_initial=True))))
def test_growth_series_matches_reference(d):
    rf = growth_series(d)
    expected = reference_automata.growth_series(d)
    assert (rf.num, rf.den) == (expected.num, expected.den)
    assert count_words(d, 12) == reference_automata.count_words(d, 12)


def one_colour_quotient(d):
    """``_lumped_quotient`` of a DFA read as one colour, as ``growth_series`` lumps it."""
    return automata._lumped_quotient(automata._row(d), d.n_states, {d.initial: 1}, d.accepting)


@settings(max_examples=150, deadline=None)
@given(random_dfas(max_states=5), random_dfas(max_states=5), st.sampled_from([and_, or_]))
def test_unminimized_product_counts_as_its_minimization(a, b, keep):
    # the lemma in the automata docstring: language-equivalent trim states
    # move letter by letter to language-equivalent states, so the coarsest
    # lumpable partition of the raw product is at least as coarse as
    # Myhill-Nerode and its quotients are those of the minimal automaton
    raw = automata._product(a, b, keep)
    small = minimize(raw)
    assert growth_series(raw) == growth_series(small)
    raw_quotient, small_quotient = automata.vertex_quotient(raw), automata.vertex_quotient(small)
    assert len(raw_quotient[0]) == len(small_quotient[0])
    for part in ([], [0], [1], [0, 1]):
        got = automata.restricted_growth_series(raw_quotient, part)
        assert got == automata.restricted_growth_series(small_quotient, part), part
        letters = [x for v in part for x in (2 * v, 2 * v + 1)]
        assert got.expand(12).coefficients == restricted_counts(raw, letters, 12), part


def restricted_counts(dfa, letters, max_len):
    """Counts of the accepted words over ``letters``, by the count DP on all states."""
    size = dfa.alphabet.size
    vector = [int(q in dfa.accepting) for q in range(dfa.n_states)]
    counts = [vector[dfa.initial]]
    for _ in range(max_len):
        vector = [sum(vector[dfa.transitions[q * size + x]] for x in letters)
                  for q in range(dfa.n_states)]
        counts.append(vector[dfa.initial])
    return tuple(counts)


@pytest.mark.parametrize("graph, size", [(path_graph(5), 72), (cycle_graph(6), 25)])
def test_lumped_quotient_is_coarsest(graph, size):
    # the coarsest count-preserving quotient of the conjugacy-geodesic
    # acceptor; splitting by the set instead of the multiset of successor
    # blocks merges states with different counts and lands elsewhere
    rows, _, _ = one_colour_quotient(conjgeo_fsa(graph))
    assert len(rows) == size


@pytest.mark.parametrize("graph, size", [(path_graph(4), 47), (path_graph(6), 119)])
def test_vertex_quotient_size(graph, size):
    # one colour per vertex: the cyclically-shortlex closure (150 and 410
    # states) lumps to a quotient that is stable under each vertex's letters
    rows, _, _ = automata.vertex_quotient(cycsl_fsa(graph))
    assert len(rows) == size
    assert all(len(row) == graph.n_vertices for row in rows)


@pytest.mark.parametrize("graph", [path_graph(4), cycle_graph(5)], ids=["P4", "C5"])
def test_restricted_growth_series_matches_letter_map(graph):
    # every letter restriction G_T read off the one vertex quotient equals the
    # growth series of the closure with its alphabet cut down to T; a
    # quotient split by one multiset over all letters would count some wrong
    closure = cycsl_fsa(graph)
    quotient = automata.vertex_quotient(closure)
    for mask in range(1 << graph.n_vertices):
        part = [v for v in range(graph.n_vertices) if mask >> v & 1]
        letter_map = {2 * k + e: 2 * v + e for k, v in enumerate(part) for e in (0, 1)}
        target = graph.induced_subgraph(part).alphabet()
        want = growth_series(reference_automata.map_letters(closure, target, letter_map))
        got = automata.restricted_growth_series(quotient, part)
        assert (got.num, got.den) == (want.num, want.den), part


def test_transfer_matrix_series_repeated_component():
    # a* A a* A a*: three loops in a chain, each with the factor 1-z; the
    # accept vector spans all three blocks, so the denominator is (1-z)^3
    d = Dfa(A1, 4, [0, 1, 1, 2, 2, 3, 3, 3], 0, {2})
    rf = growth_series(d)
    assert (rf.num, rf.den) == ((0, 0, 1), (1, -3, 3, -1))


def test_det_one_minus_z_small_components():
    assert reference_automata.det_one_minus_z(((0, 0),)) == (1, -2)         # loop of multiplicity 2
    assert reference_automata.det_one_minus_z(((1,), (0,))) == (1, 0, -1)   # 2-cycle
    assert reference_automata.det_one_minus_z(((0, 1), (0,))) == (1, -1, -1)  # Fibonacci


@st.composite
def quotients(draw, max_states=8):
    """Quotient-shaped input of ``_certify``: coloured rows with multiplicity,
    random signed weights on a nonempty set of start blocks and an accept set
    that may be empty."""
    n = draw(st.integers(1, max_states))
    k = draw(st.integers(1, 3))
    target = st.lists(st.integers(0, n - 1), max_size=3)
    rows = [[draw(target) for _ in range(k)] for _ in range(n)]
    accepting = {q for q in range(n) if draw(st.booleans())}
    starts = draw(st.dictionaries(st.integers(0, n - 1), st.sampled_from([1, -1, 2]), min_size=1))
    return rows, starts, accepting


@settings(max_examples=300, deadline=None)
@given(quotients())
@example(([[[]]], {0: 1}, set()))                              # empty accept set: m = 0
@example(([[[0]], [[1]]], {0: 1}, {1}))                         # unreachable loop
@example(([[[0, 0], [1]], [[1, 0], []], [[2, 2, 2]]], {1: 1}, {0, 2}))
def test_certify_matches_transfer_matrix(quotient):
    # the same reduced fraction as the transfer-matrix certificate, from
    # exactly as many counts as the Krylov space of the accept vector has
    # dimensions: an echelon basis that misses a reduction overshoots it
    fractions = []
    make = RationalFunction.make

    def spy(num, den=(1,)):
        fractions.append((num, den))
        return make(num, den)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RationalFunction, "make", staticmethod(spy))
        got = automata._certify(quotient)
    want = reference_automata.certify(quotient)
    assert (got.num, got.den) == (want.num, want.den)
    (numerator, denominator), = fractions
    assert len(numerator) == len(denominator) - 1 == reference_automata.krylov_dimension(quotient)


def test_certify_chain_of_loops():
    # the quotient of a* A a* A a*: three blocks with a loop each in a chain,
    # so the accept vector spans all three and the denominator is (1-z)^3
    rf = automata._certify(([[[0, 1]], [[1, 2]], [[2]]], {0: 1}, {2}))
    assert (rf.num, rf.den) == ((0, 0, 1), (1, -3, 3, -1))


def test_certify_chain_into_loop():
    # 0 -> 1 -> 2 -> 2, accepting {2}: the Krylov vectors are e_2, e_1 + e_2,
    # e_0 + e_1 + e_2 and then w_3 = w_2, so c = (0, 0, -1, 1) with c_0 = 0.
    # D = sum c_i z^(3-i) = 1 - z has degree 1 < m = 3, and F = z^2/(1-z);
    # the unreversed z^3 - z^2 vanishes at 0 and would give another fraction
    rf = automata._certify(([[[1]], [[2]], [[2]]], {0: 1}, {2}))
    assert (rf.num, rf.den) == ((0, 0, 1), (1, -1))
    assert rf.expand(6).coefficients == (0, 0, 1, 1, 1, 1, 1)


def test_growth_series_reduces_factor_cancelled_at_initial_state():
    # 0 -a-> 1 <-a-> 2 <-A- 0, accepting {1}, every other move to the sink 3.
    # From 1 the series is 1/(1-z^2), from 2 it is z/(1-z^2); the initial
    # state sees their sum z/(1-z).  The three trim states lie in different
    # blocks (accepting 1; 0 moves to two blocks, 2 to one), so the quotient
    # keeps all three, its denominator carries the factor 1+z, and the
    # returned fraction must still come out reduced.
    d = Dfa(A1, 4, [1, 2, 2, 3, 1, 3, 3, 3], 0, {1})
    assert list(count_words(d, 6)) == [0, 1, 1, 1, 1, 1, 1]
    rows, _, _ = one_colour_quotient(d)
    assert len(rows) == 3
    rf = growth_series(d)
    assert (rf.num, rf.den) == ((0, 1), (1, -1))


UNTRIMMED = Dfa(A1, 4, [2, 0, 2, 3, 2, 3, 3, 3], 1, {0, 2})  # unreachable 0, dead sink 3
VERTEX_COLOURS = [slice(0, 2), slice(2, 4)]  # the colours vertex_quotient gives AB


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([(AB, [slice(None)]), (AB, VERTEX_COLOURS), (A1, [slice(None)])]).flatmap(
    lambda case: st.tuples(random_dfas(case[0], max_states=8, random_initial=True),
                           st.just(case[1]))))
@example((UNTRIMMED, [slice(None)]))
@example((empty_language_dfa(AB), VERTEX_COLOURS))
def test_untrimmed_lumping_matches_trim_then_lump(case):
    # lumping every raw state and cutting the quotient to its reachable,
    # co-reachable blocks gives the coarsest quotient of the trim part: as
    # many blocks as trimming first, and the same fractions for every colour
    # set.  Without the cut, a dead block survives
    d, colours = case
    row = automata._row(d)
    got = automata._lumped_quotient(row, d.n_states, {d.initial: 1}, d.accepting, colours)
    rows, initial, accepting = reference_automata.lumped_quotient(
        row, d.n_states, d.initial, d.accepting, colours)
    assert len(got[0]) == (len(rows) if accepting else 0)
    want = (rows, {initial: 1}, accepting)
    for mask in range(1, 1 << len(colours)):
        part = [c for c in range(len(colours)) if mask >> c & 1]
        assert (automata.restricted_growth_series(got, part)
                == automata.restricted_growth_series(want, part)), part
    assert growth_series(d) == automata._certify(want)


def signed_sum(terms) -> RationalFunction:
    """Sum of sign * ``reference_automata.growth_series(dfa)`` over (sign, dfa) pairs."""
    total = RationalFunction.make([0])
    for sign, d in terms:
        total = total + RationalFunction.make([sign]) * reference_automata.growth_series(d)
    return total


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([AB, A1]).flatmap(lambda alphabet: st.lists(st.tuples(
    st.sampled_from([1, -1]),
    st.one_of(random_dfas(alphabet, max_states=6),
              random_dfas(alphabet, max_states=6, random_initial=True))), max_size=5)))
@example([(1, UNTRIMMED), (1, single_word_dfa(A1, (0, 1))), (-1, empty_language_dfa(A1))])
@example([(-1, all_words_dfa(AB)), (1, single_word_dfa(AB, ())), (1, all_words_dfa(AB))])
def test_signed_growth_series_matches_reference(terms):
    # one certificate for the signed sum, each term read through its own start
    # weight: a dropped sign or a count read at one start block only differs
    got = automata._signed_growth_series(iter(terms))
    want = signed_sum(terms)
    assert (got.num, got.den) == (want.num, want.den)


@pytest.mark.parametrize("d", [UNTRIMMED, all_words_dfa(AB), empty_language_dfa(AB),
                               conjgeo_fsa(path_graph(4))],
                         ids=["untrimmed", "all", "empty", "conjgeo-P4"])
def test_signed_growth_series_of_own_negation_is_zero(d):
    # both copies lump into the same blocks, whose summed start weight is 0
    rf = automata._signed_growth_series([(1, d), (-1, d)])
    assert (rf.num, rf.den) == ((0,), (1,))
    rf = automata._signed_growth_series([(1, d), (-1, d), (1, d)])
    assert rf == growth_series(d)


# -- minimization and equivalence ----------------------------------------------

def test_minimize_idempotent_and_canonical():
    d = single_word_dfa(AB, (0, 1, 0))
    m = minimize(d)
    assert minimize(m).encode() == m.encode()


def test_minimized_all_words_single_state():
    bloated = Dfa(AB, 3, [1, 2, 1, 2, 2, 1, 2, 1, 0, 0, 2, 2], 0, {0, 1, 2})
    assert minimize(bloated).n_states == 1


@settings(max_examples=60, deadline=None)
@given(random_dfas())
def test_minimize_preserves_counts(d):
    assert list(count_words(minimize(d), 12)) == list(count_words(d, 12))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([AB, A1]).flatmap(
    lambda alphabet: random_dfas(alphabet, max_states=10, random_initial=True)))
# splits a block that waits as a splitter; adding only its smaller half to
# the work list instead of both halves leaves two inequivalent states merged
@example(Dfa(A1, 8, (7, 2, 0, 2, 7, 2, 0, 3, 6, 6, 3, 6, 3, 6, 6, 4), 1, {0, 3}))
def test_minimize_matches_reference(d):
    # a random initial state leaves states unreachable, like the re-rooted
    # automata that cyc_perm minimizes
    assert minimize(d).encode() == reference_automata.minimize(d).encode()


@settings(max_examples=10, deadline=None)
@given(st.lists(st.integers(0, AB.size - 1), min_size=300, max_size=300))
def test_minimize_long_chain_matches_reference(word):
    size = AB.size
    sink = len(word) + 1
    table = [sink] * ((sink + 1) * size)
    for i, x in enumerate(word):
        table[i * size + x] = i + 1
    chain = Dfa(AB, sink + 1, table, 0, {len(word)})
    expected = reference_automata.minimize(chain).encode()
    assert minimize(chain).encode() == expected
    assert single_word_dfa(AB, word).encode() == expected


def test_equivalent_examples():
    d = single_word_dfa(AB, (0, 1))
    assert equivalent(d, minimize(d))
    assert not equivalent(single_word_dfa(AB, (0, 1)), single_word_dfa(AB, (1, 0)))


# -- letter embedding -------------------------------------------------------

def test_map_letters_embedding():
    sub = OrderedAlphabet(("a",))
    target = OrderedAlphabet(("a", "b"))
    d = all_words_dfa(sub)
    embedded = reference_automata.map_letters(d, target, {0: 0, 1: 1})  # a-letters to themselves
    assert embedded.accepts((0, 1, 0))
    assert not embedded.accepts((2,))  # b-letter unmapped, falls in the sink
